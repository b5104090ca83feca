"""Thresholding rules, threshold/level selection, the choice of wavelet
system, and the shrinkage pipeline."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from . import interval
from .interval import IntervalSystem, min_coarse_level
from .transform import (
    CoefficientPyramid,
    HaarSystem,
    haar_dwt,
    haar_idwt,
    is_power_of_two,
)

# shrink calls the systems directly; haar_dwt and haar_idwt stay bound here
# because perfbench/tracer.py wraps them by name.

SYSTEM_KINDS = ("haar", "interval")


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
    if not is_power_of_two(n) or n < 2:
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if b <= 0:
        raise ValueError("noise range b must be > 0")
    if c_phi < 1:
        raise ValueError("wavelet-system constant must be >= 1")
    return c_phi * b * (1.0 + 2.0 * math.sqrt((1.0 + delta) * math.log(2.0))) \
        * math.sqrt(math.log2(n) / n)


class MinSamples(NamedTuple):
    raw: float
    padded: int  # raw rounded up to the next power of two


def min_samples(alpha: float) -> MinSamples:
    """Smallest sample count for which the deviation bounds apply."""
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
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
    if not is_power_of_two(n) or n < 2:
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    J = int(math.log2(n))
    J1 = math.ceil((J - math.log2(J)) / (1.0 + 2.0 * alpha))
    if alpha <= 1:
        J0 = 0
    else:
        J0 = 1 + math.ceil(math.log2(2 * math.ceil(alpha) - 1))
    if J0 > J1:
        raise ValueError(
            f"n={n} is too small for alpha={alpha}: coarse level {J0} exceeds "
            f"boundary level {J1} (need n >= {min_samples(alpha).padded})"
        )
    return Levels(J, J0, J1)


def system_moments(kind: str, alpha: float, moments: Optional[int] = None) -> int:
    """Vanishing moments N of the wavelet system ``kind`` at smoothness alpha.

    Haar has N = 1 and takes no other value.  The interval system takes the
    given N, an integer >= max(1, alpha), by default max(1, ceil(alpha)).
    """
    if kind not in SYSTEM_KINDS:
        raise ValueError(f"unknown wavelet system {kind!r}; choose from {SYSTEM_KINDS}")
    if kind == "haar":
        if moments not in (None, 1):
            raise ValueError(
                f"the Haar system has 1 vanishing moment, got moments={moments!r}")
        return 1
    if moments is None:
        return max(1, math.ceil(alpha))
    if not isinstance(moments, (int, np.integer)) or moments < 1:
        raise ValueError(
            f"interval system needs an integer moments >= 1, got {moments!r}")
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
    if coarse >= int(math.log2(n)):
        raise ValueError(
            f"n={n} too small for a system with {moments} vanishing moments")
    return coarse


def wavelet_system(kind: str, n: int, alpha: float,
                   moments: Optional[int] = None) -> HaarSystem | IntervalSystem:
    """The wavelet system the shrinkage pipeline uses for (kind, n, alpha, N),
    with N from :func:`system_moments` and the coarse level from
    :func:`coarse_level_for`.  Interval systems are built once per process
    and shared, so callers must not modify them."""
    moments = system_moments(kind, alpha, moments)
    coarse = coarse_level_for(n, alpha, moments)
    if kind == "haar":
        return HaarSystem(n, coarse)
    return _interval_system(moments, n, coarse)


@lru_cache(maxsize=8)
def _interval_system(moments: int, n: int, coarse_level: int) -> IntervalSystem:
    # looked up on the module, so that a wrapper installed on
    # waveshrink.interval.build_interval_system sees the build
    return interval.build_interval_system(moments, n, coarse_level)


# c_phi of the systems whose constant is known without building them
_EXACT_C_PHI = {"haar": HaarSystem.c_phi_estimate}


@dataclass(frozen=True)
class ShrinkageConfig:
    """Everything the shrinkage pipeline needs for one sample count."""

    n: int
    alpha: float
    holder_const: float       # smoothness-class constant M
    noise_bound: float        # total noise range b, |e_i| <= b/2
    delta: float
    system_const: float       # c_phi of the wavelet system
    system: str               # "haar" or "interval"
    moments: int              # vanishing moments N of the system
    coarse_level: int
    mode: str = "soft"

    def __post_init__(self):
        moments = system_moments(self.system, self.alpha, self.moments)
        threshold_rule(self.mode)
        J = compute_levels(self.n, self.alpha).finest
        if not min_coarse_level(moments) <= self.coarse_level <= J:
            raise ValueError(
                f"coarse level {self.coarse_level} out of range "
                f"[{min_coarse_level(moments)}, {J}] for N={moments}")
        self.threshold  # validates delta, b and c_phi

    @property
    def boundary_level(self) -> int:
        """J1, never below the coarse level."""
        return max(compute_levels(self.n, self.alpha).boundary, self.coarse_level)

    @property
    def threshold(self) -> float:
        return compute_threshold(self.n, self.delta, self.noise_bound,
                                 self.system_const)

    @classmethod
    def build(cls, n: int, alpha: float, holder_const: float, noise_bound: float,
              delta: float, mode: str = "soft", system: str = "haar",
              moments: Optional[int] = None,
              system_const: Optional[float] = None) -> "ShrinkageConfig":
        """Derive the vanishing moments and the coarse level from the
        primitive parameters (:func:`system_moments`, :func:`coarse_level_for`).
        ``system_const`` may be left out only where c_phi is exact (Haar)."""
        moments = system_moments(system, alpha, moments)
        if system_const is None:
            if system not in _EXACT_C_PHI:
                raise ValueError(
                    f"{system} runs need system_const (use the c_phi_estimate "
                    "of the built system)")
            system_const = _EXACT_C_PHI[system]
        return cls(
            n=n, alpha=alpha, holder_const=holder_const, noise_bound=noise_bound,
            delta=delta, system_const=system_const, system=system, moments=moments,
            coarse_level=coarse_level_for(n, alpha, moments), mode=mode,
        )


def shrink(y, config: ShrinkageConfig, system=None) -> np.ndarray:
    """Denoise samples along the last axis: analyze, threshold the detail
    coefficients at ``config.threshold``, synthesize.

    ``y`` is one sample vector or a batch (..., n), and each row of a batch
    comes out bit-equal to that row denoised alone.  ``system`` defaults to
    the pipeline's system for the config (:func:`wavelet_system`); a given
    system must match the config in n, coarse level, vanishing moments and
    c_phi, else ValueError.
    """
    if system is None:
        system = wavelet_system(config.system, config.n, config.alpha, config.moments)
    got = (system.n, system.coarse_level, system.moments, system.c_phi_estimate)
    want = (config.n, config.coarse_level, config.moments, config.system_const)
    if got != want:
        raise ValueError(f"system (n, coarse level, moments, c_phi) {got} does "
                         f"not match the config's {want}")
    y = np.asarray(y, dtype=float)
    if y.shape[-1:] != (config.n,):
        raise ValueError(f"signal shape {y.shape} does not match config n={config.n}")
    if not np.all(np.isfinite(y)):
        raise ValueError("samples must be finite")
    # the threshold applies to coefficients in the integral convention
    coeffs = system.analyze(y)
    coeffs *= 1.0 / np.sqrt(config.n)
    details = coeffs[..., 2 ** config.coarse_level :]
    details[...] = threshold_rule(config.mode)(details, config.threshold)
    coeffs *= np.sqrt(config.n)
    return system.synthesize(coeffs)
