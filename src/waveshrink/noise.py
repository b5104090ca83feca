"""Bounded zero-mean noise families and the good-event membership test.

Every family produces i.i.d. draws supported on [-b/2, b/2] with exact zero
mean in distribution.  The good event A requires every block sum of noise
samples (weighted by the basis coefficients for the interval system) to stay
under a Hoeffding-scale bound; membership forces all noise wavelet
coefficients below ~ b sqrt(log n / n).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Union

import numpy as np

from .interval import KINDS, IntervalSystem
from .transform import GeometryError, HaarSystem, _as_samples, finest_level

NOISE_FAMILIES = ("uniform", "rademacher", "truncated", "mixture")
# the sample counts the block geometry of the good event A supports
# (J = log2 n in {4, 8, 16})
EVENT_A_SIZES = (16, 256, 65536)

Seed = Union[int, np.random.SeedSequence]
System = Union[str, HaarSystem, IntervalSystem]


@dataclass(frozen=True)
class NoiseSpec:
    """One noise distribution: family, total range b, and a seed."""

    family: str
    b: float = 1.0
    seed: Seed = 0

    def __post_init__(self):
        check_family(self.family)
        check_noise_range(self.b)


def check_family(family: str) -> None:
    """The one check of a noise family name."""
    if family not in NOISE_FAMILIES:
        raise ValueError(f"unknown noise family {family!r}; choose from {NOISE_FAMILIES}")


def check_noise_range(b: float) -> None:
    """The one check of a total noise range b."""
    if not (math.isfinite(b) and b > 0):
        raise ValueError(f"noise range b must be finite and > 0, got {b}")


def _truncated_gaussian(rng: np.random.Generator, half: float, n: int) -> np.ndarray:
    """N(0, (half/2)^2) conditioned on [-half, half]; symmetric truncation
    keeps the mean exactly zero."""
    out = rng.normal(0.0, half / 2.0, n)
    bad = np.flatnonzero(np.abs(out) > half)
    while bad.size:
        redraw = rng.normal(0.0, half / 2.0, bad.size)
        out[bad] = redraw
        bad = bad[np.abs(redraw) > half]  # only the redrawn entries can be out
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
    # mixture: cycle the three base families per index; each family draws n
    # values, in this order, and index i keeps family i % 3's i-th draw
    out = rng.uniform(-half, half, n)
    out[1::3] = (2.0 * rng.integers(0, 2, n)[1::3] - 1.0) * half
    out[2::3] = _truncated_gaussian(rng, half, n)[2::3]
    return out


class _BlockWeights(NamedTuple):
    """Each level-j row of one kind restricted to its own dyadic block."""

    clean: range        # shifts whose restricted rows all equal ``translate``
    translate: np.ndarray
    others: np.ndarray  # shifts outside ``clean``
    rows: np.ndarray    # (len(others), block width)


# per-system cache: the weights depend on the system alone and cost one
# composed row per boundary-affected shift.  Keyed by the system's (N, n, J0),
# which fixes its rows, so that every copy of a system shipped to a worker
# finds them; only the three event-A sample counts ever get entries.
_BLOCK_WEIGHTS: dict[tuple[int, int, int], dict] = {}


def _block_weights(system: IntervalSystem, j: int, kind: str) -> _BlockWeights:
    cache = _BLOCK_WEIGHTS.setdefault(
        (system.moments, system.n, system.coarse_level), {})
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


def _system_at(system: System, n: int):
    """``system``, or the Haar system at n samples and coarse level 0 for the
    name "haar"."""
    if isinstance(system, str):
        if system != "haar":
            raise ValueError(f"unknown wavelet system {system!r}")
        return HaarSystem(n, 0)
    if system.n != n:
        raise ValueError("wavelet system size does not match the noise vector")
    return system


def _check_event_size(n: int) -> None:
    if n not in EVENT_A_SIZES:
        raise GeometryError(f"event-A geometry needs n in {EVENT_A_SIZES}, got {n}")


def _event_bound(b: float, J: int, level_offset: int) -> float:
    return b * J * 2.0 ** (level_offset / 2.0) * math.sqrt(0.5 * math.log(2.0))


def haar_event_margins(noise, b: float) -> tuple[np.ndarray, np.ndarray]:
    """The Haar event-A test of every row of a (trials, n) noise batch.

    Returns each row's margin, its largest |block sum| over the bound
    (member iff <= 1), and its worst block as a (trials, 2) array of
    (level offset l, block index k).  A row's values are bit-equal to
    :func:`in_event_A` on that row alone, which is this function's one-row
    case.
    """
    e = np.asarray(noise, dtype=float)
    if e.ndim != 2:
        raise ValueError(f"expected a (trials, n) noise batch, got shape {e.shape}")
    _check_event_size(e.shape[1])
    check_noise_range(b)
    if not np.all(np.isfinite(e)):
        raise ValueError("samples must be finite")
    return _haar_margins(e, b)


class _HaarGeometry(NamedTuple):
    """The Haar event-A levels at one n and b, level offsets -1, 0, ... in
    order.  A row of |block sums| holds every level's blocks side by side."""

    counts: list          # blocks per level
    starts: np.ndarray    # each level's first column
    level_of: np.ndarray  # each column's level index
    bounds: np.ndarray    # each level's bound


@functools.lru_cache(maxsize=16)
def _haar_geometry(n: int, b: float) -> _HaarGeometry:
    J = finest_level(n)
    log_j = finest_level(J)
    offsets = range(-1, J - log_j + 1)
    counts = [2 ** (J - log_j - level_offset) for level_offset in offsets]
    return _HaarGeometry(
        counts, np.cumsum([0] + counts[:-1]),
        np.repeat(np.arange(len(counts)), counts),
        np.array([_event_bound(b, J, level_offset) for level_offset in offsets]))


def _haar_margins(e: np.ndarray, b: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`haar_event_margins` of a checked batch."""
    geo = _haar_geometry(e.shape[1], b)
    sums = np.empty((len(e), len(geo.level_of)))
    for count, start in zip(geo.counts, geo.starts):
        blocks = e.reshape(len(e), count, -1)
        # the Haar block sums run over the first half of each block
        np.sum(blocks[..., : blocks.shape[-1] // 2], axis=-1,
               out=sums[:, start : start + count])
    np.abs(sums, out=sums)
    tops = np.maximum.reduceat(sums, geo.starts, axis=-1)
    ratios = tops / geo.bounds
    # the first level with the largest ratio and its first block with the
    # largest sum, as a scan over the levels and blocks would keep
    rows = np.arange(len(e))
    worst = np.argmax(ratios, axis=-1)
    in_worst = geo.level_of == worst[:, None]
    in_worst &= sums == tops[rows, worst][:, None]
    block = np.argmax(in_worst, axis=-1) - geo.starts[worst]
    # level index i is level offset i - 1
    return ratios[rows, worst], np.column_stack((worst - 1, block))


def in_event_A(noise, b: float, system: System = "haar") -> EventAReport:
    """Membership in the good event A.

    The block geometry needs 2^J / J to be an integer, so J = log2(n) must
    itself be a power of two; only n in ``EVENT_A_SIZES`` are supported.

    ``system`` is "haar" or a :class:`HaarSystem`, whose block sums do not
    depend on the coarse level (see :func:`haar_event_margins` for a batch),
    or an :class:`IntervalSystem`.  On the
    interval system each level-j scaling and detail row k is summed
    over the k-th dyadic block of 2^(J-j) samples only.  Row index does not
    follow support near the ends: a boundary row sits at whatever index the
    construction gave it (at N=2 and n=2048, level-10 detail row 1022 is
    supported on samples 0-11), so such a row can miss its own block almost
    entirely.
    """
    e = _as_samples(noise)
    n = len(e)
    _check_event_size(n)
    check_noise_range(b)
    system = _system_at(system, n)
    if not isinstance(system, IntervalSystem):
        margins, worst = _haar_margins(e[None], b)
        margin = float(margins[0])
        return EventAReport(member=margin <= 1.0,
                            worst_block=(int(worst[0, 0]), int(worst[0, 1])),
                            margin=margin)

    J = finest_level(n)
    log_j = finest_level(J)
    margin, worst = 0.0, (-1, 0)
    for level_offset in range(-1, J - log_j + 1):
        j = J - log_j - level_offset
        if not system.coarse_level <= j < J:
            continue  # no basis functions at this level
        bound = _event_bound(b, J, level_offset)
        blocks = e.reshape(2 ** j, -1)
        factor = 2.0 ** ((J - j) / 2.0)
        sums = np.empty(2 ** j)
        for kind in KINDS:
            bw = _block_weights(system, j, kind)
            sums[bw.clean.start : bw.clean.stop] = \
                blocks[bw.clean.start : bw.clean.stop] @ bw.translate
            sums[bw.others] = np.einsum("ij,ij->i", blocks[bw.others], bw.rows)
            sums *= factor
            k = _first_max(sums)
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


def noise_coeff_bound_check(noise, b: float, system: System = "haar") -> bool:
    """All noise wavelet coefficients within b * C_phi * sqrt(J), n = 2**J
    (b * C_phi * sqrt(log2(n)/n) in the integral convention).

    ``system`` is a wavelet system, or "haar" for the Haar system at coarse
    level 0 (pass ``HaarSystem(n, j0)`` for another).  Membership in the
    event A (:func:`in_event_A`) does not imply this bound.  For Haar at
    coarse level 0 and n = 256, the constant noise e = 0.2081 b is in A
    (margin 1.0), and its approximation coefficient exceeds the bound.
    Adversarial noise b/2 sign(row), scaled to margin <= 1, can push detail
    coefficients over it too, by up to 1.18x.  Random draws of the four noise
    families stayed under it in A.
    """
    e = _as_samples(noise)
    check_noise_range(b)
    system = _system_at(system, len(e))
    bound = b * system.c_phi_estimate * math.sqrt(system.finest_level)
    return bool(np.max(np.abs(system.analyze(e))) <= bound)
