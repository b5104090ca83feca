"""Bounded zero-mean noise families and the good event A.

Every family produces i.i.d. draws supported on [-b/2, b/2] with exact zero
mean in distribution.  The good event A holds when every orthonormal
coefficient (We)_k of the noise, the approximation block included, is within
:func:`coefficient_bound`, b * c_phi * sqrt(J) at n = 2**J.  The threshold
lambda * sqrt(n) is at least 2.665 times that bound, so on A it keeps no
noise coefficient.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .transform import HaarSystem, _as_samples, _count, _real, _WaveletSystem

NOISE_FAMILIES = ("uniform", "rademacher", "truncated", "mixture")
# the sample counts at which simulate's writers print event A (in_A, and
# p_A_hat; null and NaN elsewhere); the library gives it at every n
EVENT_A_SIZES = (16, 256, 65536)

Seed = Union[int, np.random.SeedSequence, "_SeedWords"]
System = Union[str, _WaveletSystem]


@dataclass(frozen=True)
class NoiseSpec:
    """One noise distribution: family, total range b, and a seed."""

    family: str
    b: float = 1.0
    seed: Seed = 0

    def __post_init__(self):
        check_family(self.family)
        check_noise_range(self.b)


class _SeedWords(ISeedSequence):
    """A PCG64 seed given as its four uint64 words, those that
    ``SeedSequence.generate_state(4, np.uint64)`` returns: ``default_rng``
    on it draws what ``default_rng`` on that SeedSequence draws, without
    mixing the state again.  Any other request raises, so that a bit
    generator that asks for another state fails rather than draws another
    stream."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds 4 uint64 words, asked for {n_words} "
                             f"{np.dtype(dtype)}")
        return self.words


def check_family(family: str) -> None:
    """The one check of a noise family name."""
    if family not in NOISE_FAMILIES:
        raise ValueError(f"unknown noise family {family!r}; choose from {NOISE_FAMILIES}")


def check_noise_range(b: float) -> None:
    """The one check of a total noise range b."""
    _real("noise range b", b, 0, strict=True)


def _check_noise_bound(b: float) -> None:
    """The one check of a b that may be 0, noise-free, or a noise range;
    False is not 0 (numpy's False is not a Real)."""
    if isinstance(b, bool) or not (isinstance(b, numbers.Real) and b == 0):
        check_noise_range(b)


def _truncated_gaussian(rng: np.random.Generator, half: float, n: int) -> np.ndarray:
    """N(0, (half/2)^2) conditioned on [-half, half]; symmetric truncation
    keeps the mean exactly zero."""
    out = rng.normal(0.0, half / 2.0, n)
    bad = np.flatnonzero((out < -half) | (out > half))  # no float |out| temporary
    while bad.size:
        redraw = rng.normal(0.0, half / 2.0, bad.size)
        out[bad] = redraw
        bad = bad[np.abs(redraw) > half]  # only the redrawn entries can be out
    return out


def _signs(bits: np.ndarray, half: float) -> np.ndarray:
    """(2 * bits - 1) * half for 0/1 ``bits``, rounded as that expression is,
    in one float array rather than three."""
    out = np.multiply(bits, 2.0)
    out -= 1.0
    out *= half
    return out


def sample_noise(spec: NoiseSpec, n: int) -> np.ndarray:
    """n independent draws, deterministic given (spec.seed, n)."""
    _count("sample count n", n, 1)
    rng = np.random.default_rng(spec.seed)
    half = spec.b / 2.0
    if spec.family == "uniform":
        return rng.uniform(-half, half, n)
    if spec.family == "rademacher":
        return _signs(rng.integers(0, 2, n), half)
    if spec.family == "truncated":
        return _truncated_gaussian(rng, half, n)
    # mixture: cycle the three base families per index; each family draws n
    # values, in this order, and index i keeps family i % 3's i-th draw
    out = rng.uniform(-half, half, n)
    out[1::3] = _signs(rng.integers(0, 2, n)[1::3], half)
    out[2::3] = _truncated_gaussian(rng, half, n)[2::3]
    return out


class EventAReport(NamedTuple):
    member: bool  # max |(We)_k| <= coefficient_bound


def coefficient_bound(b: float, system) -> float:
    """b * c_phi * sqrt(J) at n = 2**J: event A's bound on every orthonormal
    noise coefficient (b * c_phi * sqrt(J/n) in the integral convention)."""
    return b * system.c_phi_estimate * math.sqrt(system.finest_level)


def event_probability_floor(system) -> float:
    """1 - 2n exp(-2 c_phi^2 J), a lower bound on P(A) for every noise family.
    Each (We)_k weights draws of range b by a unit-norm row of W, so its
    squared ranges sum to b^2, as for one draw of range b: the m = 1 case of
    :func:`hoeffding_bound`.  A union bound covers the n coefficients."""
    # the floor does not depend on b; take b = 1
    miss = 1.0 - hoeffding_bound(1, coefficient_bound(1.0, system), -0.5, 0.5)
    return 1.0 - system.n * miss


def _system_at(system: System, n: int):
    """``system``, or the Haar system at n samples and coarse level 0 for the
    name "haar"."""
    if isinstance(system, str):
        if system != "haar":
            raise ValueError(f"unknown wavelet system {system!r}")
        return HaarSystem(n, 0)
    if system.n != n:
        raise ValueError(f"wavelet system size {system.n} does not match n={n}")
    return system


def in_event_A(noise, b: float, system: System = "haar") -> EventAReport:
    """Membership in the good event A at any n = 2**J >= 2: the largest
    |(We)_k|, the approximation block included, within :func:`coefficient_bound`.

    ``system`` is a wavelet system, or "haar" for the Haar system at coarse
    level 0.  A depends on the coarse level through the approximation block,
    so pass ``HaarSystem(n, j0)`` for another.
    """
    e = _as_samples(noise)
    check_noise_range(b)
    system = _system_at(system, len(e))
    top, bound = float(np.max(np.abs(system.analyze(e)))), coefficient_bound(b, system)
    return EventAReport(member=top <= bound)


def hoeffding_bound(m: int, t: float, lo: float, hi: float) -> float:
    """Hoeffding's two-sided inequality: for the sum S of m independent
    centered draws in [lo, hi],
    P(|S| <= t) >= max(0, 1 - 2 exp(-2t^2/(m(hi-lo)^2)))."""
    _count("draw count m", m, 1)
    _real("Hoeffding t", t, 0, strict=True)
    _real("lo", lo, -math.inf)
    _real("hi", hi, lo, strict=True)
    return max(0.0, 1.0 - 2.0 * math.exp(-2.0 * t * t / (m * (hi - lo) ** 2)))
