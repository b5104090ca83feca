"""Thresholding rules, threshold/level selection, the choice of wavelet
system, and the shrinkage pipeline."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from . import interval
from .interval import MAX_MOMENTS, IntervalSystem, min_coarse_level
from .noise import check_noise_range
from .transform import (
    CoefficientPyramid,
    HaarSystem,
    finest_level,
    haar_dwt,
    haar_idwt,
    is_integer,
    _WaveletSystem,
    _all_finite,
    _block_count,
    _last_axis,
    _real,
    _run_blocks,
)

# shrink calls the systems directly; haar_dwt and haar_idwt stay bound here
# because perfbench/tracer.py wraps them by name.

SYSTEM_KINDS = ("haar", "interval")
# shrink's inputs of this many values or more go through one work buffer.  In
# loops of fresh inputs on a 2-core x86 VM, Haar calls of 2**19 and 2**20
# values ran 8-13% faster through it; at 2**18 values and below, Haar and
# interval calls ran even or slower.
_WORK_VALUES = 2 ** 19
# _threshold_in_place scans a level for a kept value only while more than
# this many values are left: below it a reduction's fixed cost outweighs the
# rule's passes it saves (a 2-core x86 VM ran max and min of a level in
# about 2.5 us plus 0.6 ns per value, the soft rule in 2 ns per value).
_SCAN_VALUES = 2 ** 12


# the one check of each number of the estimator, through the real rule
_check_alpha = partial(_real, "alpha", lowest=0, strict=True)
_check_holder_const = partial(_real, "smoothness-class constant M", lowest=0, strict=True)
_check_delta = partial(_real, "delta", lowest=0)
_check_threshold = partial(_real, "threshold", lowest=0)  # lambda


def soft_threshold(x, lam: float):
    """Shrink toward zero by lam; values within [-lam, lam] become 0."""
    _check_threshold(lam)
    x = np.asarray(x, dtype=float)
    out = np.abs(x, out=np.empty_like(x))
    out -= lam
    np.maximum(out, 0.0, out=out)
    return np.copysign(out, x, out=out)[()]  # a scalar for a scalar x


def hard_threshold(x, lam: float):
    """Zero values with magnitude <= lam, keep the rest unchanged."""
    _check_threshold(lam)
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= lam, 0.0, x)


_THRESHOLD_FNS = {"soft": soft_threshold, "hard": hard_threshold}


def _threshold_in_place(c: np.ndarray, lam: float, mode: str, scratch,
                        coarse_level: int) -> int:
    """Threshold the detail coefficients of the float array c in place under
    ``mode``, to the bytes that :func:`soft_threshold` or
    :func:`hard_threshold` return, and return ``kept``, the finest level
    where a value survives, or J0 - 1 where none does.

    c holds flat coefficients (..., n) from coarse level J0 =
    ``coarse_level``: its approximation block passes through, and level j's
    details are columns [2**j, 2**(j+1)).  ``scratch``, an array of the
    shape of c[..., 2**J0:], is overwritten, or None to allocate what is
    needed.

    From the finest level down, while more than :data:`_SCAN_VALUES` values
    are left, a level is read with ``np.maximum.reduce`` and
    ``np.minimum.reduce`` (no temporary array) until one keeps a value.  The
    levels above it are killed in one pass, to the rules' bytes for values
    in [-lam, lam]: copysign(0, x) soft, +0.0 hard.  The rest goes through
    the rule itself, and where no scanned level kept a value, ``kept`` is
    read off the columns that are not +-0 after it.  The detail columns run
    in p = :func:`_block_count` shares, each on a thread of its own with the
    same columns of scratch; a share's part of a level is scanned alone,
    which changes no byte.  c must be finite."""
    n, lo = c.shape[-1], 1 << coarse_level
    p = _block_count(c.size, finest_level(n) - coarse_level)
    cuts = [lo + k * (n - lo) // p for k in range(p + 1)]
    kept = _run_blocks(_threshold_share, [
        (c, a, b, lam, mode, None if scratch is None else scratch[..., a - lo : b - lo])
        for a, b in zip(cuts, cuts[1:])])
    return max(coarse_level - 1, *kept)


def _threshold_share(c: np.ndarray, a: int, b: int, lam: float, mode: str,
                     scratch) -> int:
    """:func:`_threshold_in_place` of the detail columns [a, b) of c, whose
    levels start at powers of two; returns the finest level that keeps a
    value there, or -1.  ``scratch``, an array of the share's shape, or
    None.  It runs on helper threads: numpy only, and no allocation of the
    share's size when scratch is given."""
    rows, stop, kept = c.size // c.shape[-1], b, None
    while rows * (stop - a) > _SCAN_VALUES:
        level = (stop - 1).bit_length() - 1
        start = max(a, 1 << level)
        x = c[..., start:stop]
        if np.maximum.reduce(x, axis=None) > lam or np.minimum.reduce(x, axis=None) < -lam:
            kept = level
            break
        stop = start
    dead = c[..., stop:b]
    if mode == "soft":
        dead *= 0.0  # copysign(0, x) of a finite x
    else:
        dead[...] = 0.0
    if stop == a:
        return -1
    x = c[..., a:stop]
    mag = np.abs(x, out=None if scratch is None else scratch[..., : stop - a])
    if mode == "soft":
        mag -= lam
        np.maximum(mag, 0.0, out=mag)
        np.copysign(mag, x, out=x)
    else:
        np.greater(mag, lam, out=mag)  # 1.0 where x is kept, 0.0 where not
        x *= mag
        x += 0.0  # a killed negative's -0.0 becomes hard_threshold's 0.0
    if kept is None:  # under _SCAN_VALUES values: the columns not +-0 now
        hit = np.flatnonzero(x.reshape(-1, stop - a).any(axis=0))
        kept = (a + int(hit[-1])).bit_length() - 1 if hit.size else -1
    return kept


def threshold_rule(mode: str):
    """The thresholding function of ``mode``, 'soft' or 'hard'."""
    if mode not in _THRESHOLD_FNS:
        raise ValueError(f"mode must be 'soft' or 'hard', got {mode!r}")
    return _THRESHOLD_FNS[mode]


def apply_threshold(pyramid: CoefficientPyramid, lam: float, mode: str = "soft"):
    """Threshold the detail coefficients; the approximation block passes through."""
    fn = threshold_rule(mode)
    _check_threshold(lam)
    return pyramid.map_details(lambda d: fn(d, lam))


def compute_threshold(n: int, delta: float, b: float, c_phi: float = 1.0) -> float:
    """Shrinkage threshold c_phi * b * (1 + 2*sqrt((1+delta)*ln 2)) * sqrt(log2(n)/n)."""
    finest_level(n)
    _check_delta(delta)
    check_noise_range(b)
    _real("wavelet-system constant", c_phi, 1)
    return c_phi * b * (1.0 + 2.0 * math.sqrt((1.0 + delta) * math.log(2.0))) \
        * math.sqrt(math.log2(n) / n)


class MinSamples(NamedTuple):
    raw: float
    padded: int  # raw rounded up to the next power of two


def min_samples(alpha: float) -> MinSamples:
    """Smallest sample count for which the deviation bounds apply."""
    _check_alpha(alpha)
    if alpha <= 1:
        return MinSamples(512.0, 512)
    raw = (4 * alpha + 2) ** (2 * alpha + 2) * math.log2(4 * alpha + 2) ** 2
    return MinSamples(raw, 2 ** math.ceil(math.log2(raw)))


class Levels(NamedTuple):
    finest: int    # J = log2(n)
    coarse: int    # J0
    boundary: int  # J1


def compute_levels(n: int, alpha: float) -> Levels:
    """Coarse and boundary decomposition levels for a given sample count."""
    J = finest_level(n)
    _check_alpha(alpha)
    J1 = math.ceil((J - math.log2(J)) / (1.0 + 2.0 * alpha))
    J0 = min_coarse_level(math.ceil(alpha))
    if J0 > J1:
        raise ValueError(
            f"n={n} is too small for alpha={alpha}: coarse level {J0} exceeds "
            f"boundary level {J1} (need n >= {min_samples(alpha).padded})"
        )
    return Levels(J, J0, J1)


def system_moments(kind: str, alpha: float, moments: Optional[int] = None) -> int:
    """Vanishing moments N of the wavelet system ``kind`` at smoothness alpha.

    Haar has N = 1 and takes no other value.  The interval system takes the
    given N, by default max(1, ceil(alpha)): an integer >= alpha, at most the
    MAX_MOMENTS that :func:`~waveshrink.interval.daubechies_filter` supports.
    """
    _check_alpha(alpha)
    if kind not in SYSTEM_KINDS:
        raise ValueError(f"unknown wavelet system {kind!r}; choose from {SYSTEM_KINDS}")
    if kind == "haar":
        if not (moments is None or is_integer(moments) and moments == 1):
            raise ValueError(
                f"the Haar system has 1 vanishing moment, got moments={moments!r}")
        return 1
    if moments is None:
        moments = max(1, math.ceil(alpha))
    if not (is_integer(moments) and 1 <= moments <= MAX_MOMENTS):
        raise ValueError(f"interval system needs an integer moments in "
                         f"[1, {MAX_MOMENTS}], got {moments!r}")
    if moments < alpha:
        raise ValueError("need moments >= alpha for the interval system")
    return int(moments)


def coarse_level_for(n: int, alpha: float, moments: int) -> int:
    """The pipeline's coarse level at n samples: J0 of :func:`compute_levels`,
    raised to :func:`~waveshrink.interval.min_coarse_level` of the N
    vanishing moments so that the boundary construction has room.  A J0
    pushed above J1 leaves the estimator well defined but outside the
    deviation-bound range."""
    coarse = max(compute_levels(n, alpha).coarse, min_coarse_level(moments))
    if coarse >= finest_level(n):
        raise ValueError(
            f"n={n} too small for a system with {moments} vanishing moments")
    return coarse


def wavelet_system(kind: str, n: int, alpha: float,
                   moments: Optional[int] = None) -> _WaveletSystem:
    """The wavelet system the shrinkage pipeline uses for (kind, n, alpha, N),
    with N from :func:`system_moments` and the coarse level from
    :func:`coarse_level_for`: at N = 1, the Haar basis, a :class:`HaarSystem`
    whatever the kind, else an interval system.  Interval systems come from one store per
    process (see :func:`wavelet_systems`) and are shared, so callers must not
    modify them."""
    return wavelet_systems(kind, (n,), alpha, moments)[n]


def wavelet_systems(kind: str, ns, alpha: float, moments: Optional[int] = None,
                    build_map=map) -> dict[int, _WaveletSystem]:
    """:func:`wavelet_system` for every n of ``ns``, as a dict keyed by n.

    Interval systems live in one store per process, keyed by (N, n, J0), that
    keeps every system it builds.  Those missing from it are built once per
    distinct key, largest first, by mapping a module-level build function
    over the keys with ``build_map``, and stored: the builtin ``map`` builds
    them here, a process pool's ``map`` builds them in its workers, in
    parallel, and they come back here.  ``build_map`` is not called when no
    system is missing.
    """
    moments = system_moments(kind, alpha, moments)
    coarse = {n: coarse_level_for(n, alpha, moments) for n in ns}
    if moments == 1:
        return {n: HaarSystem(n, j0) for n, j0 in coarse.items()}
    keys = {n: (moments, n, j0) for n, j0 in coarse.items()}
    # largest first, so that a pool does not start its longest build last
    missing = sorted(set(keys.values()) - _INTERVAL_SYSTEMS.keys(), reverse=True)
    if missing:
        _INTERVAL_SYSTEMS.update(zip(missing, build_map(_build_system, missing)))
    return {n: _INTERVAL_SYSTEMS[key] for n, key in keys.items()}


# The interval systems built in this process, by (N, n, J0).
_INTERVAL_SYSTEMS: dict[tuple[int, int, int], IntervalSystem] = {}


def _build_system(key: tuple[int, int, int]) -> IntervalSystem:
    """Build the interval system (N, n, J0).  Module-level, so that a process
    pool can run it; ``build_interval_system`` is looked up on
    :mod:`waveshrink.interval` at each call, so a wrapper installed there
    sees every build."""
    return interval.build_interval_system(*key)


@dataclass(frozen=True)
class ShrinkageConfig:
    """Everything the shrinkage pipeline needs for one sample count.

    The threshold, the coarse level J0 and the boundary level J1 are derived
    from the fields, never stored.  ``moments`` is normalized by
    :func:`system_moments` (None becomes the system's default N).
    """

    n: int
    alpha: float
    holder_const: float       # smoothness-class constant M
    noise_bound: float        # total noise range b, |e_i| <= b/2
    delta: float
    system_const: float       # c_phi of the wavelet system
    system: str               # "haar" or "interval"
    moments: int              # vanishing moments N of the system
    mode: str = "soft"

    def __post_init__(self):
        object.__setattr__(self, "moments",
                           system_moments(self.system, self.alpha, self.moments))
        threshold_rule(self.mode)
        _check_holder_const(self.holder_const)
        self.coarse_level  # validates n against alpha and the moments
        self.threshold     # validates delta, b and c_phi

    @property
    def coarse_level(self) -> int:
        """J0 of :func:`coarse_level_for`, the coarse level of the system."""
        return coarse_level_for(self.n, self.alpha, self.moments)

    @property
    def boundary_level(self) -> int:
        """J1, never below the coarse level."""
        return max(compute_levels(self.n, self.alpha).boundary, self.coarse_level)

    @property
    def threshold(self) -> float:
        return compute_threshold(self.n, self.delta, self.noise_bound,
                                 self.system_const)

    @property
    def orthonormal_threshold(self) -> float:
        """lambda * sqrt(n), the threshold of the systems' orthonormal coefficients."""
        return self.threshold * math.sqrt(self.n)

    @classmethod
    def build(cls, n: int, alpha: float, holder_const: float, noise_bound: float,
              delta: float, mode: str = "soft", system: str = "haar",
              moments: Optional[int] = None,
              system_const: Optional[float] = None) -> "ShrinkageConfig":
        """The config from the primitive parameters.  ``system_const``
        defaults to the c_phi of the pipeline's system,
        :func:`wavelet_system` of (system, n, alpha, moments); an interval
        system missing from this process's store is built for it."""
        if system_const is None:
            system_const = wavelet_system(system, n, alpha, moments).c_phi_estimate
        return cls(
            n=n, alpha=alpha, holder_const=holder_const, noise_bound=noise_bound,
            delta=delta, system_const=system_const, system=system, moments=moments,
            mode=mode,
        )


def shrink(y, config: ShrinkageConfig, system=None) -> np.ndarray:
    """Denoise samples along the last axis: analyze, threshold the detail
    coefficients at ``config.orthonormal_threshold``, synthesize.

    The thresholding returns ``kept``, the finest level where some
    coefficient of the call survives (:func:`_threshold_in_place`), and the
    synthesis takes the levels above it, whose details are all +-0, in a
    closed form with the bytes of the full synthesis (see the systems'
    ``_synthesize_into``).

    ``y`` is one sample vector or a batch (..., n), and each row of a batch
    comes out bit-equal to that row denoised alone.  ``y`` is never written.
    ``system`` defaults to the pipeline's system for the config
    (:func:`wavelet_system`); a given system must match the config in n,
    coarse level, vanishing moments and c_phi, else ValueError.

    From :data:`_WORK_VALUES` (2**19) values on, a call makes two large
    allocations: the returned samples, and one work buffer of rows * (n + s)
    values, s the system's ``_scratch_per_row``.  Its first rows * n values
    hold the coefficients, and the rest is the scratch that every stage uses
    in turn (the analysis, the thresholding, the synthesis).  Smaller inputs
    let each stage allocate its own.  Nothing is kept after the call.

    From 2**19 values on, on more than one usable core, the Haar transforms
    and the thresholding run in blocks on one thread per core (see
    :class:`~waveshrink.transform.HaarSystem`); the output bytes do not
    depend on the number of blocks.
    """
    if system is None:
        system = wavelet_system(config.system, config.n, config.alpha, config.moments)
    got = (system.n, system.coarse_level, system.moments, system.c_phi_estimate)
    want = (config.n, config.coarse_level, config.moments, config.system_const)
    if got != want:
        raise ValueError(f"system (n, coarse level, moments, c_phi) {got} does "
                         f"not match the config's {want}")
    y = _last_axis(y, system.n)
    if not _all_finite(y):
        raise ValueError("samples must be finite")
    n, size = system.n, y.size
    if size < _WORK_VALUES:
        out = coeffs = scratch = None
    else:
        out = np.empty(y.shape)
        work = np.empty(size + size // n * system._scratch_per_row)
        coeffs = work[:size].reshape(y.shape)
        scratch = work[size:].reshape(y.shape[:-1] + (-1,))
    coeffs = system._analyze_into(y, coeffs, scratch)
    lo = 2 ** config.coarse_level
    kept = _threshold_in_place(coeffs, config.orthonormal_threshold, config.mode,
                               None if scratch is None else scratch[..., lo:n],
                               config.coarse_level)
    return system._synthesize_into(coeffs, out, scratch, kept)
