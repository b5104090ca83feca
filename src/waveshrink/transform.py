"""Fast Haar analysis/synthesis on [0,1] and the coefficient pyramid.

Coefficients are stored in the integral convention (inner products of the
piecewise-constant sample extension with the basis functions).  The discrete
orthonormal transform differs by a factor of sqrt(n); the ``scaled`` flag on
the pyramid records which convention the stored entries use.

:func:`haar_analyze` and :func:`haar_synthesize` apply the orthonormal
transform along the last axis of a batch, in the flat layout the interval
system uses; :class:`HaarSystem` holds them behind the interface of
:class:`~waveshrink.interval.IntervalSystem`, and :func:`haar_dwt` and
:func:`haar_idwt` wrap them for one vector and the pyramid.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

_SQRT2 = np.sqrt(2.0)


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _as_samples(values) -> np.ndarray:
    y = np.asarray(values, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"expected a 1-d sample vector, got shape {y.shape}")
    if len(y) < 2 or not is_power_of_two(len(y)):
        raise ValueError(f"sample count must be a power of two >= 2, got {len(y)}")
    if not np.all(np.isfinite(y)):
        raise ValueError("samples must be finite")
    return y


@dataclass(frozen=True)
class CoefficientPyramid:
    """Approximation coefficients at the coarse level plus detail levels.

    ``approx`` has 2**coarse_level entries; ``details[i]`` holds the
    2**(coarse_level+i) detail coefficients of level coarse_level+i.
    """

    coarse_level: int
    approx: np.ndarray
    details: tuple[np.ndarray, ...]
    scaled: bool = False

    def __post_init__(self):
        if self.coarse_level < 0:
            raise ValueError("coarse level must be >= 0")
        if len(self.approx) != 2 ** self.coarse_level:
            raise ValueError(
                f"approx block has {len(self.approx)} entries, "
                f"expected {2 ** self.coarse_level}"
            )
        for i, d in enumerate(self.details):
            if len(d) != 2 ** (self.coarse_level + i):
                raise ValueError(
                    f"detail level {self.coarse_level + i} has {len(d)} "
                    f"entries, expected {2 ** (self.coarse_level + i)}"
                )

    @property
    def finest_level(self) -> int:
        """J, where the represented signal has n = 2**J samples."""
        return self.coarse_level + len(self.details)

    @property
    def n(self) -> int:
        return 2 ** self.finest_level

    def detail(self, j: int) -> np.ndarray:
        if not self.coarse_level <= j < self.finest_level:
            raise IndexError(f"no detail level {j} in pyramid")
        return self.details[j - self.coarse_level]

    def with_scaling(self, scaled: bool) -> "CoefficientPyramid":
        if scaled == self.scaled:
            return self
        factor = np.sqrt(self.n) if scaled else 1.0 / np.sqrt(self.n)
        return replace(
            self,
            approx=self.approx * factor,
            details=tuple(d * factor for d in self.details),
            scaled=scaled,
        )

    def flat(self) -> np.ndarray:
        """All coefficients, approx first, details coarse to fine."""
        return np.concatenate([self.approx, *self.details]) if self.details \
            else np.array(self.approx)

    def scaled_flat(self) -> np.ndarray:
        """A fresh flat copy of the coefficients in the sqrt(n)-scaled
        convention."""
        out = np.asarray(self.flat(), dtype=float)
        if not self.scaled:
            out *= np.sqrt(self.n)
        return out

    @classmethod
    def from_flat(cls, coeffs: np.ndarray, coarse_level: int) -> "CoefficientPyramid":
        """Integral-convention pyramid over a flat coefficient vector laid out
        as :meth:`flat` returns it.  The detail levels are views into
        ``coeffs``; the small approximation block is copied, so a pyramid
        whose details were replaced (:meth:`map_details`) no longer holds the
        whole vector."""
        levels = len(coeffs).bit_length() - 1
        details = tuple(coeffs[2 ** j : 2 ** (j + 1)]
                        for j in range(coarse_level, levels))
        return cls(coarse_level, coeffs[: 2 ** coarse_level].copy(), details)

    def map_details(self, fn) -> "CoefficientPyramid":
        return replace(self, details=tuple(fn(d) for d in self.details))


def _check_levels(n: int, coarse_level: int) -> int:
    if n < 2 or not is_power_of_two(n):
        raise ValueError(f"sample count must be a power of two >= 2, got {n}")
    levels = n.bit_length() - 1
    if not 0 <= coarse_level <= levels:
        raise ValueError(f"coarse_level must be in [0, {levels}], got {coarse_level}")
    return levels


def haar_analyze(samples: np.ndarray, coarse_level: int) -> np.ndarray:
    """Orthonormal Haar transform along the last axis: (..., n) -> (..., n).

    The output holds the sqrt(n)-scaled coefficients in the flat layout of
    :meth:`IntervalSystem.analyze`: the 2**coarse_level approximation
    coefficients, then detail levels coarse to fine (level j at [2**j, 2**(j+1))).
    Every row is computed by the same elementwise operations as a 1-d call,
    so a batched row is bit-equal to that row transformed alone.
    """
    samples = np.asarray(samples, dtype=float)
    levels = _check_levels(samples.shape[-1], coarse_level)
    out = np.empty(samples.shape)
    s = samples
    for j in range(levels - 1, coarse_level - 1, -1):
        even, odd = s[..., 0::2], s[..., 1::2]
        detail = out[..., 2 ** j : 2 ** (j + 1)]
        np.subtract(even, odd, out=detail)
        detail /= _SQRT2
        s = even + odd
        s /= _SQRT2
    out[..., : 2 ** coarse_level] = s
    return out


def haar_synthesize(coeffs: np.ndarray, coarse_level: int) -> np.ndarray:
    """Inverse of :func:`haar_analyze` along the last axis."""
    coeffs = np.asarray(coeffs, dtype=float)
    levels = _check_levels(coeffs.shape[-1], coarse_level)
    s = coeffs[..., : 2 ** coarse_level].copy()
    for j in range(coarse_level, levels):
        d = coeffs[..., 2 ** j : 2 ** (j + 1)]
        out = np.empty(coeffs.shape[:-1] + (2 ** (j + 1),))
        out[..., 0::2] = (s + d) / _SQRT2
        out[..., 1::2] = (s - d) / _SQRT2
        s = out
    return s


@dataclass(frozen=True)
class HaarSystem:
    """The Haar system on [0,1] with the interface of
    :class:`~waveshrink.interval.IntervalSystem`: :meth:`analyze` and
    :meth:`synthesize` apply the orthonormal transform and its inverse along
    the last axis, in the same flat layout.  Its functions are bounded by 1
    (scaled), so c_phi is exact."""

    n: int
    coarse_level: int
    moments: ClassVar[int] = 1
    c_phi_estimate: ClassVar[float] = 1.0

    def __post_init__(self):
        _check_levels(self.n, self.coarse_level)

    @property
    def finest_level(self) -> int:
        return self.n.bit_length() - 1

    def analyze(self, samples) -> np.ndarray:
        return haar_analyze(samples, self.coarse_level)

    def synthesize(self, coeffs) -> np.ndarray:
        return haar_synthesize(coeffs, self.coarse_level)


def haar_dwt(values, coarse_level: int) -> CoefficientPyramid:
    """Haar wavelet coefficients of the piecewise-constant sample extension,
    in the integral convention: :func:`haar_analyze` divided by sqrt(n)."""
    y = _as_samples(values)
    coeffs = haar_analyze(y, coarse_level)
    coeffs *= 1.0 / np.sqrt(len(y))
    return CoefficientPyramid.from_flat(coeffs, coarse_level)


def haar_idwt(pyramid: CoefficientPyramid) -> np.ndarray:
    """Exact inverse of :func:`haar_dwt`."""
    return haar_synthesize(pyramid.scaled_flat(), pyramid.coarse_level)


def haar_coeff_closed_form(values, j: int, k: int, kind: str = "detail") -> float:
    """Single Haar coefficient by direct summation over the sample blocks.

    Independent of the pyramid recursion; used as an oracle against
    :func:`haar_dwt`.
    """
    y = _as_samples(values)
    levels = int(np.log2(len(y)))
    if not 0 <= j <= levels:
        raise IndexError(f"level {j} out of range [0, {levels}]")
    if not 0 <= k < 2 ** j:
        raise IndexError(f"shift {k} out of range at level {j}")
    block = 2 ** (levels - j)
    scale = 2.0 ** (-levels + j / 2.0)
    seg = y[k * block : (k + 1) * block]
    if kind == "approx":
        return scale * float(np.sum(seg))
    if kind == "detail":
        if j == levels:
            raise IndexError(f"no detail coefficients at the finest level {j}")
        half = block // 2
        return scale * float(np.sum(seg[:half]) - np.sum(seg[half:]))
    raise ValueError(f"kind must be 'approx' or 'detail', got {kind!r}")
