"""The wavelet-system interface, the Haar system on [0,1] and the
coefficient pyramid.

Both systems, :class:`HaarSystem` and
:class:`~waveshrink.interval.IntervalSystem`, share the entry points and
the geometry rule of :class:`_WaveletSystem`.  The pipeline's one
coefficient convention is the orthonormal transform that ``analyze``
returns.  The paper's lambda is stated for the integral convention (inner
products of the piecewise-constant sample extension with the basis
functions), which is the orthonormal one over sqrt(n), so the pipeline
thresholds at lambda * sqrt(n) and scales no coefficient array.  Only
:class:`CoefficientPyramid` (whose ``scaled`` flag records the convention),
the adapters :func:`_pyramid`/:func:`_samples` behind the pyramid functions,
and :func:`haar_coeff_closed_form` keep the integral convention.
"""
from __future__ import annotations

import math
import numbers
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


def _real(what: str, value, lowest, strict: bool = False) -> None:
    """The one rule for a real input: a real number (numpy's too), not a bool,
    finite and >= ``lowest``, or > it when ``strict``; else ValueError."""
    if not ((type(value) is float or isinstance(value, numbers.Real)
             and not isinstance(value, bool)) and math.isfinite(value)
            and (value > lowest if strict else value >= lowest)):
        raise ValueError(f"{what} must be finite and {'>' if strict else '>='} {lowest}, "
                         f"got {value!r}")


def _count(what: str, value, lowest: int) -> None:
    """The one rule for a count: an integer, not a bool, >= ``lowest``."""
    if not (is_integer(value) and value >= lowest):
        raise ValueError(f"{what} must be an integer >= {lowest}, got {value!r}")


def _index(what: str, value, lo: int, hi: int):
    """``value`` if it is an integer (not a bool) in [lo, hi), else
    IndexError: the one rule for a level or a shift."""
    if not (is_integer(value) and lo <= value < hi):
        raise IndexError(f"{what} must be an integer in [{lo}, {hi}), got {value!r}")
    return value


def finest_level(n: int) -> int:
    """J with n = 2**J: the one check of a sample count, an integer power of
    two >= 2."""
    if not (is_integer(n) and n >= 2 and is_power_of_two(n)):
        raise GeometryError(f"sample count must be a power of two >= 2, got {n!r}")
    return int(n).bit_length() - 1


def _all_finite(x: np.ndarray) -> bool:
    """``np.all(np.isfinite(x))``, in one pass where the sum of x is finite:
    an infinite or NaN term makes the sum infinite or NaN, so a finite sum
    has finite terms.  A sum that overflows from finite terms falls back to
    the exact test."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(x, axis=None)
    return math.isfinite(total) or bool(np.all(np.isfinite(x)))


def _real_array(values) -> np.ndarray:
    """``values`` as a float array, without a copy of a float64 array.
    Complex values raise: the cast would drop their imaginary parts, or fail
    on complex numbers in an object array."""
    if np.iscomplexobj(values):
        raise ValueError("samples must be real, got complex values")
    try:
        return np.asarray(values, dtype=float)
    except TypeError as exc:
        raise ValueError(f"samples must be real: {exc}") from exc


def _as_samples(values) -> np.ndarray:
    """``values`` as a finite 1-d float array.  Its length is checked where it
    is used, by :func:`finest_level` or against a system's n."""
    y = _real_array(values)
    if y.ndim != 1:
        raise ValueError(f"expected a 1-d sample vector, got shape {y.shape}")
    if not _all_finite(y):
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
        _count("coarse level", self.coarse_level, 0)
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
        return self.details[_index("detail level", j, self.coarse_level, self.finest_level)
                            - self.coarse_level]

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
    x = _real_array(values)
    if x.shape[-1:] != (n,):
        raise ValueError(f"expected length {n} along the last axis, got shape {x.shape}")
    return x


class _WaveletSystem:
    """An orthonormal wavelet system on [0,1]: n = 2**J samples, coarse
    level J0, N = ``moments`` vanishing moments, and c_phi =
    ``c_phi_estimate``, the bound on its scaled functions.

    :meth:`analyze` and :meth:`synthesize` apply its transform W and the
    inverse W.T along the last axis, (..., n) -> (..., n), in one flat
    layout: sqrt(n)-scaled coefficients, the approximation block first, then
    the detail levels coarse to fine (level j at [2**j, 2**(j+1))).  A
    batched row is bit-equal to that row transformed alone.  Each allocates
    its result and scratch per call.  A subclass's ``_analyze_into(x, out,
    scratch)`` and ``_synthesize_into(c, out, scratch, kept)`` write the same
    bytes into a given output with a given scratch (the input's leading
    shape plus ``_scratch_per_row`` values), for
    :func:`~waveshrink.shrinkage.shrink`; they check neither, and allocate
    each that is None.  ``kept`` (default J - 1) is the finest level whose
    details may be nonzero: the levels above it, whose details must all be
    +-0, are synthesized in a closed form with the same bytes."""

    @property
    def finest_level(self) -> int:
        return finest_level(self.n)

    def analyze(self, samples) -> np.ndarray:
        """W applied along the last axis."""
        return self._analyze_into(_last_axis(samples, self.n), None, None)

    def synthesize(self, coeffs) -> np.ndarray:
        """W.T applied along the last axis: the inverse of :meth:`analyze`."""
        return self._synthesize_into(_last_axis(coeffs, self.n), None, None)

    @staticmethod
    def _check_geometry(n: int, coarse_level: int, lowest: int) -> int:
        """J with n = 2**J: the one geometry rule of every system, a coarse
        level that is an integer (not a bool) in [lowest, J], or GeometryError."""
        J = finest_level(n)
        if not (is_integer(coarse_level) and lowest <= coarse_level <= J):
            raise GeometryError(f"coarse level must be an integer in [{lowest}, {J}] "
                                f"at n={n}, got {coarse_level!r}")
        return J


@dataclass(frozen=True)
class HaarSystem(_WaveletSystem):
    """The Haar system on [0,1], from any coarse level in [0, J].  Its
    functions are bounded by 1 (scaled), so c_phi is exact.

    Its transforms split into p = :func:`_block_count` blocks: the levels
    J-1 ... s of the samples [b n/p, (b+1) n/p) depend on those samples
    alone, so with p > 1 (inputs of at least 2**19 values, on more than one
    usable core) block b runs on a thread of its own, and the levels below
    s = max(J0, log2 p) run on the calling thread.  Every coefficient goes
    through the same operations whatever p is, so the output bytes do not
    depend on it."""

    n: int
    coarse_level: int
    moments: ClassVar[int] = 1
    c_phi_estimate: ClassVar[float] = 1.0

    def __post_init__(self):
        self._check_geometry(self.n, self.coarse_level, 0)

    @property
    def _scratch_per_row(self) -> int:
        """Scratch values per row: n, the most any stage of a shrink needs
        (analysis 3n/4, synthesis n/2, the thresholding up to n)."""
        return self.n

    def _analyze_into(self, s: np.ndarray, out, scratch) -> np.ndarray:
        """:meth:`analyze` of the float array s into ``out``, allocated where
        None.  The levels' approximations take 3n/4 values of ``scratch`` per
        row; where scratch is None, the blocks' scratch is allocated, or at
        p = 1 each level's approximation."""
        if out is None:
            out = np.empty(s.shape)
        J, J0 = self.finest_level, self.coarse_level
        p, split = _split(s.size, J, J0)
        levels = range(J - 1, split - 1, -1)
        m = self.n // p
        if p == 1 and scratch is None:
            bufs = [None]
        else:
            # two regions of each block's scratch, n/2p and n/4p values per
            # row: a level reads one while it writes the other
            half = s.size // p // 2
            bufs = [(block[:half], block[half:])
                    for block in _block_scratch(scratch, p, half + half // 2)]
        approx = _run_blocks(_analyze_levels, [
            (s[..., b * m : (b + 1) * m], out, levels, b, p, bufs[b]) for b in range(p)])
        s = approx[0] if p == 1 else np.concatenate(approx, axis=-1)
        s = _analyze_levels(s, out, range(split - 1, J0 - 1, -1), 0, 1, None)
        out[..., : 2 ** J0] = s
        return out

    def _synthesize_into(self, c: np.ndarray, out, scratch, kept=None) -> np.ndarray:
        """:meth:`synthesize` of the float array c into ``out``, allocated where
        None; block b writes the samples [b n/p, (b+1) n/p) straight into
        it.  The levels between take n/2 values of ``scratch`` per row;
        where scratch is None, the blocks' scratch is allocated, or at p = 1
        with out None too, each level's approximation and the result.

        ``kept`` (default J - 1) is the finest level whose details may be
        nonzero; every detail above it must be +-0.  Levels J0..kept run as
        above.  Above kept, (s + d)/sqrt(2) and (s - d)/sqrt(2) are both
        exactly s/sqrt(2) for d = +-0 and s != 0, and a nonzero s divided by
        sqrt(2) is never 0.  So the approximations of level kept + 1 are
        divided by sqrt(2) once per level left, on that small array, and
        each is copied into its 2**(J-kept-1) samples.  A +-0 approximation
        would take its sign from the details, so where one appears (on the
        calling thread, or in a block) every level runs as above."""
        J, J0 = self.finest_level, self.coarse_level
        top = J if kept is None else kept + 1  # the first level of +-0 details
        p, split = _split(c.size, J, J0)
        own = p == 1 and out is None and scratch is None  # each level allocates
        if own:
            split = top
        s = _synthesize_levels(c[..., : 2 ** J0].copy(), c, range(J0, min(top, split)),
                               0, 1, None)
        lead, m = c.shape[:-1], self.n // p
        if top < J and top <= split:
            if s.all():
                if out is None:
                    out = np.empty(c.shape)
                for _ in range(J - top):
                    s /= _SQRT2
                pairs = out.reshape(lead + (p, m // 2, 2))
                w = max(2 ** top // p, 1)
                _run_blocks(_spread, [(s[..., b * 2 ** top // p :][..., :w], pairs[..., b, :, :])
                                      for b in range(p)])
                return out
            s = _synthesize_levels(s, c, range(top, split), 0, 1, None)
            top = J
        levels = range(split, J)
        if own:
            bufs = [None]
        else:
            # each block's share of the output, as pairs, and n/2p values
            # per row of scratch
            if out is None:
                out = np.empty(c.shape)
            pairs = out.reshape(lead + (p, m // 2, 2))
            bufs = [(pairs[..., b, :, :], block)
                    for b, block in enumerate(_block_scratch(scratch, p, c.size // p // 2))]
        w = 2 ** split // p
        fine = _run_blocks(_synthesize_block, [
            (s[..., b * w : (b + 1) * w], c, levels, top, b, p, bufs[b]) for b in range(p)])
        if out is None:
            return fine[0]
        if not levels:  # J0 = J: the coefficients are the samples
            out[...] = fine[0]
        return out


def _block_scratch(scratch, p: int, size: int) -> np.ndarray:
    """p regions of ``size`` values each, as a (p, size) view of the front
    of ``scratch``, or a new array where scratch is None."""
    if scratch is None:
        return np.empty((p, size))
    return scratch.reshape(-1)[: p * size].reshape(p, size)


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
# allocate no array when their buffers are given.

def _analyze_levels(s, out, levels, block: int, p: int, bufs):
    """Haar levels ``levels`` (fine to coarse) of block ``block`` of p.  s
    holds the block's share of the approximation above the first level;
    level j's details go to the block's share of out's level j.  The
    approximations go to the fronts of the two flat regions ``bufs`` in
    turn, or, where bufs is None, each to a new array.  Returns the last
    approximation."""
    for i, j in enumerate(levels):
        w = (1 << j) // p
        lo = (1 << j) + block * w
        even, odd = s[..., 0::2], s[..., 1::2]
        detail = out[..., lo : lo + w]
        np.subtract(even, odd, out=detail)
        detail /= _SQRT2
        buf = None if bufs is None else bufs[i % 2][: even.size].reshape(even.shape)
        s = np.add(even, odd, out=buf)
        s /= _SQRT2
    return s


def _synthesize_levels(s, c, levels, block: int, p: int, bufs, last_in_pairs=True):
    """Inverse of :func:`_analyze_levels` for ``levels`` (coarse to fine)
    from s, the block's share of the approximation below the first level,
    and its shares of c's details.  Each level writes its approximation as
    (..., 2**j // p, 2) pairs: with ``bufs`` = (pairs, scratch), the last
    level and every second level before it to the front of pairs, a
    (..., m/2, 2) view, and the others to the front of the flat scratch
    (the other way round where ``last_in_pairs`` is false); with bufs
    None, each to a new array.  Returns the last approximation."""
    lead = c.shape[:-1]
    for j in levels:
        w = (1 << j) // p
        lo = (1 << j) + block * w
        d = c[..., lo : lo + w]
        # (s ± d) / sqrt(2) written as pairs, one division for both
        if bufs is None:
            out = np.empty(lead + (w, 2))
        elif (levels[-1] - j + last_in_pairs) % 2:
            out = bufs[0][..., :w, :]
        else:
            out = bufs[1][: 2 * d.size].reshape(lead + (w, 2))
        np.add(s, d, out=out[..., 0])
        np.subtract(s, d, out=out[..., 1])
        out /= _SQRT2
        s = out.reshape(lead + (2 * w,))
    return s


def _synthesize_block(s, c, levels, top: int, block: int, p: int, bufs):
    """:func:`_synthesize_levels` of ``levels`` (split ... J-1) for block
    ``block`` of p, where every detail of the levels from ``top`` on is
    +-0: the levels below top as there, and the rest in closed form (see
    :meth:`HaarSystem._synthesize_into`) from the approximations of level
    top, which go to the scratch of ``bufs``, a pair of buffers.  Where one
    of those is +-0, all of ``levels`` run again, as there."""
    if top < levels.stop:
        t = _synthesize_levels(s, c, range(levels.start, top), block, p, bufs,
                               last_in_pairs=False)
        if t.all():
            for _ in range(levels.stop - top):
                t /= _SQRT2
            _spread(t, bufs[0])
            return None
    return _synthesize_levels(s, c, levels, block, p, bufs)


def _spread(t, pairs) -> None:
    """Each of the W values of t (..., W) into its share of ``pairs`` (...,
    m/2, 2), a block's samples, m/W samples each."""
    w = t.shape[-1]
    pairs.reshape(pairs.shape[:-2] + (w, pairs.shape[-2] // w, 2))[...] = t[..., None, None]


def _pyramid(system: _WaveletSystem, samples: np.ndarray) -> CoefficientPyramid:
    """``system.analyze`` over sqrt(n), of samples checked by
    :func:`_as_samples`: the pyramid in the integral convention."""
    coeffs = system.analyze(samples)
    coeffs *= 1.0 / np.sqrt(system.n)
    return CoefficientPyramid.from_flat(coeffs, system.coarse_level)


def _samples(system: _WaveletSystem, pyramid: CoefficientPyramid) -> np.ndarray:
    """Inverse of :func:`_pyramid`: ``system.synthesize`` of the pyramid's
    sqrt(n)-scaled flat vector, for a pyramid of the system's geometry."""
    if (pyramid.n, pyramid.coarse_level) != (system.n, system.coarse_level):
        raise GeometryError("pyramid geometry does not match the system")
    return system.synthesize(pyramid.with_scaling(True).flat())


def haar_dwt(values, coarse_level: int) -> CoefficientPyramid:
    """Haar wavelet coefficients of the piecewise-constant sample extension,
    in the integral convention."""
    y = _as_samples(values)
    return _pyramid(HaarSystem(len(y), coarse_level), y)


def haar_idwt(pyramid: CoefficientPyramid) -> np.ndarray:
    """Exact inverse of :func:`haar_dwt`."""
    return _samples(HaarSystem(pyramid.n, pyramid.coarse_level), pyramid)


def haar_coeff_closed_form(values, j: int, k: int, kind: str = "detail") -> float:
    """Single Haar coefficient by direct summation over the sample blocks.

    Independent of the pyramid recursion; used as an oracle against
    :func:`haar_dwt`.
    """
    y = _as_samples(values)
    levels = finest_level(len(y))
    _index("level", j, 0, levels + 1)
    _index("shift", k, 0, 2 ** j)
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
