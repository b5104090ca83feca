"""Bounded zero-mean noise families and the good-event membership test.

Every family produces i.i.d. draws supported on [-b/2, b/2] with exact zero
mean in distribution.  The good event A requires every block sum of noise
samples (weighted by the basis coefficients for the interval system) to stay
under a Hoeffding-scale bound; membership forces all noise wavelet
coefficients below ~ b sqrt(log n / n).
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Union

import numpy as np

from .interval import KINDS, GeometryError, IntervalSystem
from .transform import HaarSystem, _as_samples, is_power_of_two

NOISE_FAMILIES = ("uniform", "rademacher", "truncated", "mixture")

Seed = Union[int, np.random.SeedSequence]
System = Union[str, HaarSystem, IntervalSystem]


@dataclass(frozen=True)
class NoiseSpec:
    """One noise distribution: family, total range b, and a seed."""

    family: str
    b: float = 1.0
    seed: Seed = 0

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise ValueError(
                f"unknown noise family {self.family!r}; choose from {NOISE_FAMILIES}"
            )
        if self.b <= 0:
            raise ValueError("noise range b must be > 0")


def _truncated_gaussian(rng: np.random.Generator, half: float, n: int) -> np.ndarray:
    """N(0, (half/2)^2) conditioned on [-half, half]; symmetric truncation
    keeps the mean exactly zero."""
    out = rng.normal(0.0, half / 2.0, n)
    bad = np.abs(out) > half
    while np.any(bad):
        out[bad] = rng.normal(0.0, half / 2.0, int(np.sum(bad)))
        bad = np.abs(out) > half
    return out


def sample_noise(spec: NoiseSpec, n: int) -> np.ndarray:
    """n independent draws, deterministic given (spec.seed, n)."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(spec.seed)
    half = spec.b / 2.0
    if spec.family == "uniform":
        return rng.uniform(-half, half, n)
    if spec.family == "rademacher":
        return (2.0 * rng.integers(0, 2, n) - 1.0) * half
    if spec.family == "truncated":
        return _truncated_gaussian(rng, half, n)
    # mixture: cycle the three base families per index
    draws = np.empty((3, n))
    draws[0] = rng.uniform(-half, half, n)
    draws[1] = (2.0 * rng.integers(0, 2, n) - 1.0) * half
    draws[2] = _truncated_gaussian(rng, half, n)
    return draws[np.arange(n) % 3, np.arange(n)]


class _BlockWeights(NamedTuple):
    """Each level-j row of one kind restricted to its own dyadic block."""

    clean: range        # shifts whose restricted rows all equal ``translate``
    translate: np.ndarray
    others: np.ndarray  # shifts outside ``clean``
    rows: np.ndarray    # (len(others), block width)


# per-system cache: the weights depend on the system alone and cost one
# composed row per boundary-affected shift
_BLOCK_WEIGHTS: "weakref.WeakKeyDictionary[IntervalSystem, dict]" = \
    weakref.WeakKeyDictionary()


def _block_weights(system: IntervalSystem, j: int, kind: str) -> _BlockWeights:
    cache = _BLOCK_WEIGHTS.setdefault(system, {})
    if (j, kind) not in cache:
        stride = 2 ** (system.finest_level - j)

        def in_block(k: int) -> np.ndarray:
            offset, values = system.row(j, k, kind)
            w = np.zeros(stride)
            lo, hi = max(offset, k * stride), min(offset + len(values), (k + 1) * stride)
            if lo < hi:
                w[lo - k * stride : hi - k * stride] = values[lo - offset : hi - offset]
            return w

        clean = system.clean_shifts(j, kind)
        others = np.fromiter(chain(range(clean.start), range(clean.stop, 2 ** j)),
                             dtype=int)
        cache[j, kind] = _BlockWeights(
            clean, in_block(clean.start) if clean else np.zeros(stride), others,
            np.array([in_block(k) for k in others]).reshape(len(others), stride))
    return cache[j, kind]


def _first_max(sums: np.ndarray) -> int:
    """Index of the largest |sum|; sums within rounding of it count as ties,
    and ties go to the first block.  Block weights of different interval rows
    can agree up to rounding, so an exact argmax would pick by rounding."""
    mags = np.abs(sums)
    return int(np.argmax(mags >= np.max(mags) * (1.0 - 1e-12)))


class EventAReport(NamedTuple):
    member: bool
    worst_block: tuple[int, int]  # (level offset l, block index k)
    margin: float                 # largest |block sum| / bound; member iff <= 1


def _system_at(system: System, n: int, coarse_level: int = 0):
    """``system``, or the Haar system at n samples for the name "haar"."""
    if isinstance(system, str):
        if system != "haar":
            raise ValueError(f"unknown wavelet system {system!r}")
        return HaarSystem(n, coarse_level)
    if system.n != n:
        raise ValueError("wavelet system size does not match the noise vector")
    return system


def in_event_A(noise, b: float, system: System = "haar") -> EventAReport:
    """Membership in the good event A.

    The block geometry needs 2^J / J to be an integer, so J = log2(n) must
    itself be a power of two; only n in {16, 256, 65536} are supported.

    ``system`` is "haar" or a :class:`HaarSystem`, whose block sums do not
    depend on the coarse level, or an :class:`IntervalSystem`.  On the
    interval system each level-j scaling and detail row k is summed
    over the k-th dyadic block of 2^(J-j) samples only.  Row index does not
    follow support near the ends: a boundary row sits at whatever index the
    construction gave it (at N=2 and n=2048, level-10 detail row 1022 is
    supported on samples 0-11), so such a row can miss its own block almost
    entirely.
    """
    e = np.asarray(noise, dtype=float)
    n = len(e)
    if not is_power_of_two(n):
        raise GeometryError(f"sample count must be a power of two, got {n}")
    J = int(math.log2(n))
    if J not in (4, 8, 16):
        raise GeometryError(
            f"event-A geometry needs log2(n) in {{4, 8, 16}}, got J={J}"
        )
    if b <= 0:
        raise ValueError("noise range b must be > 0")
    e = _as_samples(e)
    system = _system_at(system, n)

    log_j = int(math.log2(J))
    margin, worst = 0.0, (-1, 0)
    for level_offset in range(-1, J - log_j + 1):
        bound = b * J * 2.0 ** (level_offset / 2.0) * math.sqrt(0.5 * math.log(2.0))
        n_blocks = 2 ** (J - log_j - level_offset)
        if isinstance(system, IntervalSystem):
            j = J - log_j - level_offset
            if not system.coarse_level <= j < J:
                continue  # no basis functions at this level
            factor = 2.0 ** ((J - j) / 2.0)
            blocks = e.reshape(n_blocks, -1)
            sums = np.empty(n_blocks)
            for kind in KINDS:
                bw = _block_weights(system, j, kind)
                sums[bw.clean.start : bw.clean.stop] = \
                    blocks[bw.clean.start : bw.clean.stop] @ bw.translate
                sums[bw.others] = np.einsum("ij,ij->i", blocks[bw.others], bw.rows)
                sums *= factor
                k = _first_max(sums)
                if abs(sums[k]) / bound > margin:
                    margin, worst = abs(sums[k]) / bound, (level_offset, k)
        else:
            # the Haar block sums run over J 2^(l-1) samples, half the stride
            if level_offset == -1:
                stride, terms = J // 2, J // 4
            else:
                stride = J * 2 ** level_offset
                terms = stride // 2
            sums = e[: n_blocks * stride].reshape(n_blocks, stride)[:, :terms].sum(axis=1)
            k = int(np.argmax(np.abs(sums)))
            if abs(sums[k]) / bound > margin:
                margin, worst = abs(sums[k]) / bound, (level_offset, k)
    return EventAReport(member=bool(margin <= 1.0), worst_block=worst,
                        margin=float(margin))


def hoeffding_bound(m: int, t: float, lo: float, hi: float) -> float:
    """P(|sum of m centered draws in [lo, hi]| <= t) >= 1 - exp(-2t^2/(m(hi-lo)^2))."""
    if m < 1:
        raise ValueError("need m >= 1")
    if hi <= lo:
        raise ValueError("need hi > lo")
    if t <= 0:
        raise ValueError("need t > 0")
    return 1.0 - math.exp(-2.0 * t * t / (m * (hi - lo) ** 2))


def noise_coeff_bound_check(noise, b: float, system: System = "haar",
                            coarse_level: int = 0) -> bool:
    """All noise wavelet coefficients within b * C_phi * sqrt(log2(n)/n).

    ``system`` is a wavelet system, or "haar" for the Haar system at
    ``coarse_level``.  For noise vectors inside the event A this must always
    hold (conditional invariant); callers are expected to gate on
    :func:`in_event_A`.
    """
    e = _as_samples(noise)
    n = len(e)
    system = _system_at(system, n, coarse_level)
    coeffs = system.analyze(e)
    coeffs *= 1.0 / np.sqrt(n)  # the integral convention
    bound = b * system.c_phi_estimate * math.sqrt(math.log2(n) / n)
    return bool(np.max(np.abs(coeffs)) <= bound)
