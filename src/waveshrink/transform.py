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

import os
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

_SQRT2 = np.sqrt(2.0)
# Values per block below which a thread costs more than it saves: on a
# 2-core x86 VM an analysis plus synthesis of 2**18 values ran even or
# slower on two threads, and one of 2**19 values saved 30%.
_BLOCK_VALUES = 2 ** 18


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
    """``values`` as a finite 1-d float array.  Its length is checked where it
    is used, by :func:`finest_level` or against a system's n."""
    y = np.asarray(values, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"expected a 1-d sample vector, got shape {y.shape}")
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
        row is bit-equal to that row transformed alone.

        Levels J-1 ... s of the samples [b n/p, (b+1) n/p) depend on those
        samples alone, so with p = :func:`_block_count` > 1 (inputs of at
        least 2**19 values, on more than one usable core) block b runs on a
        thread of its own and this thread joins the p approximations for the
        levels below s = max(J0, log2 p).  Every coefficient goes through the
        same operations whatever p is, so the output bytes do not depend on it.
        """
        s = _last_axis(samples, self.n)
        J, J0 = self.finest_level, self.coarse_level
        p, split = _split(s.size, J, J0)
        levels = range(J - 1, split - 1, -1)
        lead, m = s.shape[:-1], self.n // p
        out = np.empty(s.shape)
        if p == 1:
            bufs = [[None] * len(levels)]
        else:
            # each level's approximation, taken in turn from two regions of
            # the block's scratch: a level reads one while it writes the other
            rows = s.size // self.n
            scratch = np.empty((p, rows * (m // 2 + m // 4)))
            bufs = [[scratch[b, (J - 1 - j) % 2 * rows * (m // 2) :][: rows * 2 ** j // p]
                     .reshape(lead + (2 ** j // p,)) for j in levels] for b in range(p)]
        approx = _run_blocks(_analyze_levels, [
            (s[..., b * m : (b + 1) * m], out, levels, b, p, bufs[b]) for b in range(p)])
        s = approx[0] if p == 1 else np.concatenate(approx, axis=-1)
        coarse = range(split - 1, J0 - 1, -1)
        s = _analyze_levels(s, out, coarse, 0, 1, [None] * len(coarse))
        out[..., : 2 ** J0] = s
        return out

    def synthesize(self, coeffs) -> np.ndarray:
        """Inverse of :meth:`analyze` along the last axis, split into the same
        p blocks: this thread runs the levels below s, then block b writes
        the samples [b n/p, (b+1) n/p) straight into the output, and the
        output bytes do not depend on p."""
        c = _last_axis(coeffs, self.n)
        J, J0 = self.finest_level, self.coarse_level
        p, split = _split(c.size, J, J0)
        coarse = range(J0, split)
        s = _synthesize_levels(c[..., : 2 ** J0].copy(), c, coarse, 0, 1,
                               [None] * len(coarse))
        levels = range(split, J)
        lead, m = c.shape[:-1], self.n // p
        if p == 1:
            out, bufs = None, [[None] * len(levels)]
        else:
            # level J-1 writes the block's share of the output, level J-2 its
            # scratch, level J-3 the output share again, and so on
            out = np.empty(c.shape)
            pairs = out.reshape(lead + (p, m // 2, 2))
            rows = c.size // self.n
            scratch = np.empty((p, rows * (m // 2)))
            bufs = [[pairs[..., b, : 2 ** j // p, :] if (J - 1 - j) % 2 == 0 else
                     scratch[b, : rows * 2 ** (j + 1) // p].reshape(lead + (2 ** j // p, 2))
                     for j in levels] for b in range(p)]
        w = 2 ** split // p
        fine = _run_blocks(_synthesize_levels, [
            (s[..., b * w : (b + 1) * w], c, levels, b, p, bufs[b]) for b in range(p)])
        return fine[0] if p == 1 else out


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without sched_getaffinity
        return os.cpu_count() or 1


def _block_count(size: int, levels: int) -> int:
    """p, the number of blocks a transform of ``size`` values over ``levels``
    levels runs in: the largest power of two <= the usable cores,
    size // 2**18 and 2**levels.  1 below 2**19 values."""
    limit = min(size // _BLOCK_VALUES, 2 ** levels)
    if limit > 1:
        limit = min(limit, _usable_cores())
    return 1 << (max(limit, 1).bit_length() - 1)


def _split(size: int, J: int, J0: int) -> tuple[int, int]:
    """(p, s) for a Haar transform of ``size`` values over levels J-1 ... J0:
    p blocks, each at least the finest level deep (p <= n/2), and s =
    max(J0, log2 p), the coarsest level the blocks run."""
    p = _block_count(size, J - max(J0, 1))
    return p, max(J0, p.bit_length() - 1)


def _run_blocks(fn, blocks: list[tuple]) -> list:
    """``[fn(*args) for args in blocks]``: block 0 on this thread, each other
    block on a thread of its own.  Every thread is joined before this
    returns, and the first exception of any block is raised here."""
    if len(blocks) == 1:
        return [fn(*blocks[0])]
    import threading
    results = [None] * len(blocks)
    errors = []

    def run(i):
        try:
            results[i] = fn(*blocks[i])
        except BaseException as exc:  # raised again in the calling thread
            errors.append(exc)

    threads = []
    try:
        for i in range(1, len(blocks)):
            thread = threading.Thread(target=run, args=(i,))
            thread.start()
            threads.append(thread)
        results[0] = fn(*blocks[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return results


# The level loops below run on helper threads: they call numpy only, and
# allocate no array when every buffer is given.

def _analyze_levels(s, out, levels, block: int, p: int, bufs):
    """Haar levels ``levels`` (fine to coarse) of block ``block`` of p.  s
    holds the block's share of the approximation above the first level;
    level j's details go to the block's share of out's level j and its
    approximation to the next buffer of ``bufs`` (None allocates).  Returns
    the last approximation."""
    for j, buf in zip(levels, bufs):
        w = (1 << j) // p
        lo = (1 << j) + block * w
        even, odd = s[..., 0::2], s[..., 1::2]
        detail = out[..., lo : lo + w]
        np.subtract(even, odd, out=detail)
        detail /= _SQRT2
        s = np.add(even, odd, out=buf)
        s /= _SQRT2
    return s


def _synthesize_levels(s, c, levels, block: int, p: int, bufs):
    """Inverse of :func:`_analyze_levels` for ``levels`` (coarse to fine)
    from s, the block's share of the approximation below the first level,
    and its shares of c's details.  Each level's approximation goes to the
    next buffer of ``bufs``, as (..., 2**j // p, 2) pairs (None allocates).
    Returns the last approximation."""
    lead = c.shape[:-1]
    for j, buf in zip(levels, bufs):
        w = (1 << j) // p
        lo = (1 << j) + block * w
        d = c[..., lo : lo + w]
        # (s ± d) / sqrt(2) written as pairs, one division for both
        out = np.empty(lead + (w, 2)) if buf is None else buf
        np.add(s, d, out=out[..., 0])
        np.subtract(s, d, out=out[..., 1])
        out /= _SQRT2
        s = out.reshape(lead + (2 * w,))
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
