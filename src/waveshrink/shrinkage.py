"""Thresholding rules, threshold/level selection, the choice of wavelet
system, and the shrinkage pipeline."""
from __future__ import annotations

import math
from dataclasses import dataclass
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
    is_boolean,
    is_integer,
    _all_finite,
    _block_count,
    _last_axis,
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
# shrink's scratch starts this many values (one 64-byte cache line) past the
# coefficients, so that the two streams never sit at the same offset mod 4 KiB
_STAGGER = 8


def soft_threshold(x, lam: float):
    """Shrink toward zero by lam; values within [-lam, lam] become 0."""
    if lam < 0:
        raise ValueError("threshold must be >= 0")
    x = np.asarray(x, dtype=float)
    out = np.abs(x, out=np.empty_like(x))
    out -= lam
    np.maximum(out, 0.0, out=out)
    return np.copysign(out, x, out=out)[()]  # a scalar for a scalar x


def hard_threshold(x, lam: float):
    """Zero values with magnitude <= lam, keep the rest unchanged."""
    if lam < 0:
        raise ValueError("threshold must be >= 0")
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= lam, 0.0, x)


_THRESHOLD_FNS = {"soft": soft_threshold, "hard": hard_threshold}


def _threshold_in_place(x: np.ndarray, lam: float, mode: str, scratch=None) -> None:
    """Threshold the float array x in place under ``mode``, to the bytes that
    :func:`soft_threshold` or :func:`hard_threshold` return.  ``scratch``, an
    array of x's shape that is overwritten, or None to allocate one.  It runs
    on helper threads: numpy only, and no allocation when scratch is given."""
    mag = np.abs(x, out=scratch)
    if mode == "soft":
        mag -= lam
        np.maximum(mag, 0.0, out=mag)
        np.copysign(mag, x, out=x)
    else:
        np.greater(mag, lam, out=mag)  # 1.0 where x is kept, 0.0 where not
        x *= mag
        x += 0.0  # a killed negative's -0.0 becomes hard_threshold's 0.0


def threshold_rule(mode: str):
    """The thresholding function of ``mode``, 'soft' or 'hard'."""
    if mode not in _THRESHOLD_FNS:
        raise ValueError(f"mode must be 'soft' or 'hard', got {mode!r}")
    return _THRESHOLD_FNS[mode]


def apply_threshold(pyramid: CoefficientPyramid, lam: float, mode: str = "soft"):
    """Threshold the detail coefficients; the approximation block passes through."""
    fn = threshold_rule(mode)
    if lam < 0:
        raise ValueError("threshold must be >= 0")
    return pyramid.map_details(lambda d: fn(d, lam))


def compute_threshold(n: int, delta: float, b: float, c_phi: float = 1.0) -> float:
    """Shrinkage threshold c_phi * b * (1 + 2*sqrt((1+delta)*ln 2)) * sqrt(log2(n)/n)."""
    finest_level(n)
    if is_boolean(delta) or not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"delta must be finite and >= 0, got {delta}")
    check_noise_range(b)
    if is_boolean(c_phi) or not (math.isfinite(c_phi) and c_phi >= 1):
        raise ValueError(f"wavelet-system constant must be finite and >= 1, got {c_phi}")
    return c_phi * b * (1.0 + 2.0 * math.sqrt((1.0 + delta) * math.log(2.0))) \
        * math.sqrt(math.log2(n) / n)


class MinSamples(NamedTuple):
    raw: float
    padded: int  # raw rounded up to the next power of two


def _check_alpha(alpha: float) -> None:
    if is_boolean(alpha) or not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")


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
                   moments: Optional[int] = None) -> HaarSystem | IntervalSystem:
    """The wavelet system the shrinkage pipeline uses for (kind, n, alpha, N),
    with N from :func:`system_moments` and the coarse level from
    :func:`coarse_level_for`: at N = 1, the Haar basis, a :class:`HaarSystem`
    whatever the kind, else an interval system.  Interval systems come from one store per
    process (see :func:`wavelet_systems`) and are shared, so callers must not
    modify them."""
    return wavelet_systems(kind, (n,), alpha, moments)[n]


def wavelet_systems(kind: str, ns, alpha: float, moments: Optional[int] = None,
                    build_map=map) -> dict[int, HaarSystem | IntervalSystem]:
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
        if is_boolean(self.holder_const) or not (
                math.isfinite(self.holder_const) and self.holder_const > 0):
            raise ValueError(
                f"smoothness-class constant M must be finite and > 0, "
                f"got {self.holder_const}")
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

    ``y`` is one sample vector or a batch (..., n), and each row of a batch
    comes out bit-equal to that row denoised alone.  ``y`` is never written.
    ``system`` defaults to the pipeline's system for the config
    (:func:`wavelet_system`); a given system must match the config in n,
    coarse level, vanishing moments and c_phi, else ValueError.

    From :data:`_WORK_VALUES` (2**19) values on, a call makes two large
    allocations: the returned samples, and one work buffer of rows * (n + s)
    values plus a stagger, s the system's ``_scratch_per_row``.  Its first
    rows * n values hold the coefficients; the scratch that every stage uses
    in turn (the analysis, the thresholding, the synthesis) starts one cache
    line past them.  Smaller inputs let each stage allocate its own.
    Nothing is kept after the call.

    From 2**19 values on, on more than one usable core, the Haar transforms
    and the thresholding run in blocks on one thread per core (see
    :meth:`~waveshrink.transform.HaarSystem.analyze`); the output bytes do
    not depend on the number of blocks.
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
        work = np.empty(size + _STAGGER + size // n * system._scratch_per_row)
        coeffs = work[:size].reshape(y.shape)
        scratch = work[size + _STAGGER :].reshape(y.shape[:-1] + (-1,))
    coeffs = system._analyze_into(y, coeffs, scratch)
    # p shares of the details along the last axis, each with the same columns
    # of the scratch
    p = _block_count(size, system.finest_level - config.coarse_level)
    lo = 2 ** config.coarse_level
    cuts = [lo + k * (n - lo) // p for k in range(p + 1)]
    _run_blocks(_threshold_in_place, [
        (coeffs[..., a:b], config.orthonormal_threshold, config.mode,
         None if scratch is None else scratch[..., a:b])
        for a, b in zip(cuts, cuts[1:])])
    return system._synthesize_into(coeffs, out, scratch)
