"""Fast Haar analysis/synthesis on [0,1] and the coefficient pyramid.

The pipeline's one coefficient convention is the orthonormal transform that
:meth:`HaarSystem.analyze` and ``IntervalSystem.analyze`` return: the
approximation block first, then level j at [2**j, 2**(j+1)).  The paper's
lambda is stated for the integral convention (inner products of the
piecewise-constant sample extension with the basis functions), which is the
orthonormal one over sqrt(n), so the pipeline thresholds at lambda * sqrt(n)
and scales no coefficient array.  Only :class:`CoefficientPyramid` (whose
``scaled`` flag records the convention), :func:`haar_dwt`/:func:`haar_idwt`
and :func:`haar_coeff_closed_form` keep the integral convention.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

_SQRT2 = np.sqrt(2.0)


class GeometryError(ValueError):
    """Raised when a sample count or a level geometry cannot be supported."""


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def is_integer(value) -> bool:
    """A Python or numpy integer; a bool (JSON true/false) is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def finest_level(n: int) -> int:
    """J with n = 2**J: the one check of a sample count, an integer power of
    two >= 2."""
    if not (is_integer(n) and n >= 2 and is_power_of_two(n)):
        raise GeometryError(f"sample count must be a power of two >= 2, got {n!r}")
    return int(n).bit_length() - 1


def _as_samples(values) -> np.ndarray:
    y = np.asarray(values, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"expected a 1-d sample vector, got shape {y.shape}")
    finest_level(len(y))
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

    @classmethod
    def from_flat(cls, coeffs: np.ndarray, coarse_level: int) -> "CoefficientPyramid":
        """Integral-convention pyramid over a flat coefficient vector laid out
        as :meth:`flat` returns it.  The detail levels are views into
        ``coeffs``; the small approximation block is copied, so a pyramid
        whose details were replaced (:meth:`map_details`) no longer holds the
        whole vector."""
        details = tuple(coeffs[2 ** j : 2 ** (j + 1)]
                        for j in range(coarse_level, finest_level(len(coeffs))))
        return cls(coarse_level, coeffs[: 2 ** coarse_level].copy(), details)

    def map_details(self, fn) -> "CoefficientPyramid":
        return replace(self, details=tuple(fn(d) for d in self.details))


def _last_axis(values, n: int) -> np.ndarray:
    """``values`` as a float array of length n along the last axis."""
    x = np.asarray(values, dtype=float)
    if x.shape[-1:] != (n,):
        raise ValueError(f"expected length {n} along the last axis, got shape {x.shape}")
    return x


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
        J = finest_level(self.n)
        if not 0 <= self.coarse_level <= J:
            raise ValueError(f"coarse_level must be in [0, {J}], got {self.coarse_level}")

    @property
    def finest_level(self) -> int:
        return finest_level(self.n)

    def analyze(self, samples) -> np.ndarray:
        """The orthonormal transform along the last axis, (..., n) -> (..., n):
        sqrt(n)-scaled coefficients, the approximation block first, then the
        detail levels coarse to fine (level j at [2**j, 2**(j+1))).  A batched
        row is bit-equal to that row transformed alone."""
        s = _last_axis(samples, self.n)
        out = np.empty(s.shape)
        for j in range(self.finest_level - 1, self.coarse_level - 1, -1):
            even, odd = s[..., 0::2], s[..., 1::2]
            detail = out[..., 2 ** j : 2 ** (j + 1)]
            np.subtract(even, odd, out=detail)
            detail /= _SQRT2
            s = even + odd
            s /= _SQRT2
        out[..., : 2 ** self.coarse_level] = s
        return out

    def synthesize(self, coeffs) -> np.ndarray:
        """Inverse of :meth:`analyze` along the last axis."""
        c = _last_axis(coeffs, self.n)
        s = c[..., : 2 ** self.coarse_level].copy()
        for j in range(self.coarse_level, self.finest_level):
            d = c[..., 2 ** j : 2 ** (j + 1)]
            # (s ± d) / sqrt(2) written as pairs, one division for both
            out = np.empty(c.shape[:-1] + (2 ** j, 2))
            np.add(s, d, out=out[..., 0])
            np.subtract(s, d, out=out[..., 1])
            out /= _SQRT2
            s = out.reshape(c.shape[:-1] + (2 ** (j + 1),))
        return s


def haar_dwt(values, coarse_level: int) -> CoefficientPyramid:
    """Haar wavelet coefficients of the piecewise-constant sample extension,
    in the integral convention: :meth:`HaarSystem.analyze` over sqrt(n)."""
    y = _as_samples(values)
    coeffs = HaarSystem(len(y), coarse_level).analyze(y)
    coeffs *= 1.0 / np.sqrt(len(y))
    return CoefficientPyramid.from_flat(coeffs, coarse_level)


def haar_idwt(pyramid: CoefficientPyramid) -> np.ndarray:
    """Exact inverse of :func:`haar_dwt`."""
    system = HaarSystem(pyramid.n, pyramid.coarse_level)
    return system.synthesize(pyramid.with_scaling(True).flat())


def haar_coeff_closed_form(values, j: int, k: int, kind: str = "detail") -> float:
    """Single Haar coefficient by direct summation over the sample blocks.

    Independent of the pyramid recursion; used as an oracle against
    :func:`haar_dwt`.
    """
    y = _as_samples(values)
    levels = finest_level(len(y))
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
