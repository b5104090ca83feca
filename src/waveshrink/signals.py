"""Hölder-class test signals with certified membership constants.

Each generator returns a closed-form evaluator together with the pair
(alpha, M) it is certified for: the analytic argument for membership lives
in the generator, and :func:`check_holder` verifies the discrete certificate
on the sample grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .shrinkage import _check_alpha, _check_holder_const
from .transform import _as_samples

# each signal kind and the largest alpha its certificate covers
_CERTIFIED_ALPHA = {"constant": math.inf, "linear": 2, "cusp": 1, "oddcusp": 1,
                    "sine": 2, "ripple": 2, "weierstrass": 1}
SIGNAL_KINDS = tuple(_CERTIFIED_ALPHA)

_RIPPLE_CYCLES = 64


def sample_grid(n: int) -> np.ndarray:
    """The sample points t_i = i/n, i = 1..n."""
    return np.arange(1, n + 1) / n


@dataclass(frozen=True)
class HolderSignal:
    """A test signal certified to lie in the Hölder class with the stored
    exponent and constant."""

    kind: str
    alpha: float
    holder_const: float
    evaluate: Callable[[np.ndarray], np.ndarray]

    def sample(self, n: int) -> np.ndarray:
        return np.asarray(self.evaluate(sample_grid(n)), dtype=float)


def _weierstrass_evaluator(alpha: float, M: float):
    """Truncated Weierstrass-type sum sum_m a^m cos(2^m pi t) with a = 2^-alpha,
    normalized so the certified constant is exactly M."""
    base = 2.0
    if alpha < 1.0:
        terms = int(math.ceil(48.0 / alpha))
        # |W(x)-W(y)| <= sum a^m min(2, pi b^m |x-y|); splitting the sum at
        # b^m ~ 1/|x-y| bounds it by C_alpha |x-y|^alpha
        c = math.pi * base ** (1 - alpha) / (base ** (1 - alpha) - 1.0) \
            + 2.0 / (1.0 - base ** -alpha)
    else:
        # the infinite sum is not Lipschitz; the truncated one is, with
        # constant pi per term
        terms = 30
        c = math.pi * terms
    amps = (base ** -alpha) ** np.arange(terms)
    freqs = base ** np.arange(terms) * math.pi
    scale = M / c

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        return scale * np.sum(amps[:, None] * np.cos(freqs[:, None] * t), axis=0)

    return evaluate


def make_signal(kind: str, alpha: float, M: float) -> HolderSignal:
    """Build a certified Hölder-class signal of the given kind."""
    _check_alpha(alpha)
    _check_holder_const(M)
    if kind not in SIGNAL_KINDS:
        raise ValueError(f"unknown signal kind {kind!r}; choose from {SIGNAL_KINDS}")
    if alpha > _CERTIFIED_ALPHA[kind]:
        raise ValueError(f"{kind} signal is certified only for "
                         f"alpha <= {_CERTIFIED_ALPHA[kind]}")
    if kind == "constant":
        evaluate = lambda t: np.full_like(np.asarray(t, dtype=float), M)
    elif kind == "linear":
        evaluate = lambda t: M * np.asarray(t, dtype=float)
    elif kind == "cusp":
        evaluate = lambda t: M * np.abs(np.asarray(t, dtype=float) - 0.5) ** alpha
    elif kind == "oddcusp":
        # antisymmetric cusp M * 2^(alpha-1) * sign(t-1/2) |t-1/2|^alpha.
        # Same-side pairs: |f(u)-f(v)| <= M 2^(alpha-1) |u-v|^alpha <= M|u-v|^alpha.
        # Opposite-side pairs with a = |u-1/2|, b = |v-1/2|, a + b = |u-v|:
        # |f(u)-f(v)| = M 2^(alpha-1) (a^alpha + b^alpha)
        #            <= M 2^(alpha-1) 2^(1-alpha) (a+b)^alpha = M|u-v|^alpha,
        # using the concavity bound a^alpha + b^alpha <= 2^(1-alpha)(a+b)^alpha.
        amp = M * 2.0 ** (alpha - 1.0)

        def evaluate(t, amp=amp, alpha=alpha):
            u = np.asarray(t, dtype=float) - 0.5
            return amp * np.sign(u) * np.abs(u) ** alpha
    elif kind == "ripple":
        # high-frequency low-amplitude sinusoid A sin(2 pi q t).  With
        # A = M/(2 pi q) the Lipschitz constant is M, so for alpha <= 1 the
        # increments obey M|dt| <= M|dt|^alpha on [0,1]; one more derivative
        # gives the alpha > 1 certificate with A = M/(2 pi q)^2.
        q = _RIPPLE_CYCLES
        amp = M / (2 * math.pi * q) if alpha <= 1 else M / (2 * math.pi * q) ** 2
        evaluate = lambda t: amp * np.sin(2 * math.pi * q * np.asarray(t, dtype=float))
    elif kind == "sine":
        # |sin'| <= 1 gives increments 2*pi*A*|dt|; one more derivative for
        # the alpha > 1 certificate
        amp = M / (2 * math.pi) if alpha <= 1 else M / (2 * math.pi) ** 2
        evaluate = lambda t: amp * np.sin(2 * math.pi * np.asarray(t, dtype=float))
    else:  # weierstrass
        evaluate = _weierstrass_evaluator(alpha, M)
    return HolderSignal(kind=kind, alpha=alpha, holder_const=M, evaluate=evaluate)


class HolderCheck(NamedTuple):
    ok: bool
    worst_ratio: float
    pair: tuple[int, int]


def check_holder(samples, alpha: float, M: float) -> HolderCheck:
    """Discrete Hölder certificate on the sample grid t_i = i/n.

    For alpha <= 1 every grid pair is checked directly (O(n^2), fine at desk
    scale).  For alpha > 1 the first difference quotients are required to stay
    below M and their sequence must satisfy the (alpha - 1) pairwise check,
    on the same grid spacing 1/n.  The samples must be a finite 1-d vector.
    """
    y = _as_samples(samples)
    n = len(y)
    _check_alpha(alpha)
    _check_holder_const(M)
    need = 1 + max(1, math.ceil(alpha))  # a pair of the last quotients
    if n < need:
        raise ValueError(f"need at least {need} samples at alpha={alpha}, got {n}")

    while alpha > 1:
        quot = (y[1:] - y[:-1]) * n  # the quotients keep the spacing 1/n
        i = int(np.argmax(np.abs(quot)))
        if abs(quot[i]) > M:
            return HolderCheck(False, float(abs(quot[i]) / M), (i, i + 1))
        y, alpha = quot, alpha - 1.0

    worst, pair = 0.0, (0, 1)
    for d in range(1, len(y)):
        num = np.abs(y[d:] - y[:-d])
        ratio = num / (M * (d / n) ** alpha)
        i = int(np.argmax(ratio))
        if ratio[i] > worst:
            worst, pair = float(ratio[i]), (i, i + d)
    # tiny slack: generators that attain the bound exactly must not fail on
    # the last ulp of the division
    return HolderCheck(worst <= 1.0 + 1e-9, worst, pair)
