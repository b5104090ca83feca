"""Boundary-adapted orthonormal wavelet transform on [0,1].

The transform is Mallat's pyramid algorithm over level maps built as in
Cohen, Daubechies & Vial, "Wavelets on the interval and fast wavelet
transforms" (ACHA 1993).  A level map takes L fine coefficients to L/2
scaling and L/2 detail coefficients.  Its interior rows carry the Daubechies
filter pair (h, g), applied by one strided kernel (:class:`_Band`); the few
boundary rows at each end are stored as one small dense block per end (an
edge, :class:`_Edge`) on the columns they reach, with each row's index.  A
system therefore stores O(N^2) numbers per level, and one analysis or
synthesis costs O(n N), in the flat coefficient layout: each level map takes
the first L entries to themselves.

A batch of rows goes through each level as one flat stream: the kernel runs
both filters over all rows laid end to end, one product and one add per tap,
on contiguous scratch; the entries the bands do not own (boundary rows, and
rows whose taps straddle two batch rows) are overwritten by the edges in
analysis and zeroed before synthesis.  So a row of a batch goes through the
same operations as the row alone.

No row is stored either: a row of the transform is its transpose applied to
a unit vector, one level map at a time, on the window of its nonzeros.

The boundary rows are derived numerically, one level at a time, so that

* every level map is exactly orthogonal,
* the scaling spaces contain the sampled polynomials of degree < N (hence
  all detail rows annihilate them), and
* all rows stay locally supported.

Each choice of basis is fixed by (N, n, J0), not by rounding.  The boundary
scaling rows are the principal directions of the residuals of the
polynomials (see :class:`_EndBasis`).  The other boundary rows span null
spaces; where one has more than one dimension, its rows are the basis that
diagonalizes the column position, ordered by center.  The polynomial span is
carried from level to level as O(N) vectors of the level's length; every
other step works on a window of O(N) columns at one end of the level, so no
step touches an L x L array.

N starts at 2: the N = 1 member, Haar, needs no boundary rows and is
:class:`~waveshrink.transform.HaarSystem`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import NamedTuple

import numpy as np

from .transform import (
    CoefficientPyramid,
    GeometryError,
    _WaveletSystem,
    _as_samples,
    _index,
    _pyramid,
    _samples,
    is_integer,
)

_ORTHO_TOL = 1e-9
_NULL_TOL = 1e-9
# width, per vanishing moment, of the column frame each boundary is built in
_FRAME = 16

KINDS = ("scaling", "detail")
# the vanishing moments N that daubechies_filter supports: 1..MAX_MOMENTS
MAX_MOMENTS = 5


def daubechies_filter(moments: int) -> np.ndarray:
    """Orthonormal Daubechies lowpass filter with the given vanishing moments.

    Computed by spectral factorization of the binomial half-band polynomial;
    supported for 1 <= moments <= MAX_MOMENTS (larger values work but lose
    accuracy).  Its zeros other than z = -1 lie inside the unit circle, so h
    is minimum phase: its energy sits at the front.
    """
    if not 1 <= moments <= MAX_MOMENTS:
        raise ValueError(f"unsupported number of vanishing moments: {moments}")
    # P(y) = sum_k C(N-1+k, k) y^k has no roots in [0, 1]
    p = np.array([math.comb(moments - 1 + k, k) for k in range(moments)], dtype=float)
    y_roots = np.roots(p[::-1])
    poly = np.array([1.0 + 0j])
    for y in y_roots:
        # y = (2 - z - 1/z)/4  =>  z^2 - (2 - 4y) z + 1 = 0; keep |z| < 1
        c = 2.0 - 4.0 * y
        disc = np.sqrt(c * c / 4.0 - 1.0 + 0j)
        z = c / 2.0 + disc
        if abs(z) > 1.0:
            z = c / 2.0 - disc
        poly = np.convolve(poly, [1.0, -z])
    for _ in range(moments):
        poly = np.convolve(poly, [0.5, 0.5])
    h = np.real(poly)
    h *= math.sqrt(2.0) / h.sum()
    return h


def highpass_from_lowpass(h: np.ndarray) -> np.ndarray:
    """Quadrature-mirror highpass g_k = (-1)^k h_{2N-1-k}."""
    signs = (-1.0) ** np.arange(len(h))
    return signs * h[::-1]


class _Band(NamedTuple):
    """Interior rows lo..hi of one filter, or of several filters with the
    same rows: row k holds ``taps`` at columns 2k .. 2k + width - 1, width =
    taps.shape[-1].  Its two methods are the one interior filter product, on
    1-D streams x with one stream of coefficients per filter.  Both sum their
    terms in tap order; synthesis adds one filter's terms after the other's."""

    taps: np.ndarray
    lo: int
    hi: int

    def across(self, rows: int, half: int) -> _Band:
        """The band of a batch laid end to end: ``rows`` rows of ``half``
        outputs each, as one stream from row 0's first band row to the last
        row's last.  The stream also runs over the rows between, boundary
        rows and rows whose taps straddle two batch rows; their outputs are
        junk in analysis, and in synthesis their coefficients must be zero."""
        return self if rows == 1 else _Band(self.taps, self.lo, self.hi + (rows - 1) * half)

    def analyze(self, x: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
        """out[..., k] = sum_s taps[..., s] x[2k + s] for rows k in lo..hi;
        ``tmp`` has the leading shape of ``out`` and at least hi - lo + 1
        columns.  Each tap is one product into tmp and one add."""
        lo, stop = self.lo, 2 * self.hi + 1
        taps = self.taps.T[..., None]  # taps[s]: tap s of each filter, as a column
        seg, t = out[..., lo : self.hi + 1], tmp[..., : self.hi + 1 - lo]
        np.multiply(taps[0], x[2 * lo : stop : 2], seg)
        for s in range(1, len(taps)):
            np.multiply(taps[s], x[2 * lo + s : stop + s : 2], t)
            seg += t

    def synthesize(self, c: np.ndarray, x: np.ndarray, tmp: np.ndarray) -> None:
        """Adds the transpose of :meth:`analyze`, applied to c, into x: each
        filter's terms after the previous filter's.  ``tmp`` holds at least
        hi - lo + 1 values."""
        lo, stop = self.lo, 2 * self.hi + 1
        width = self.taps.shape[-1]
        t = tmp[: self.hi + 1 - lo]
        # taps as Python floats: the products are the same, and one level's
        # took 32 us with them against 51 us with numpy scalars (L = 4096,
        # one row, 2-core x86 VM)
        for taps, seg in zip(self.taps.reshape(-1, width).tolist(),
                             c.reshape(-1, c.shape[-1])[:, lo : self.hi + 1]):
            for s, tap in enumerate(taps):
                np.multiply(tap, seg, t)
                x[2 * lo + s : stop + s : 2] += t

    def restrict(self, c0: int, c1: int) -> np.ndarray:
        """The rows that touch columns [c0, c1), restricted to those columns."""
        width = len(self.taps)
        first = max(self.lo, -((width - 1 - c0) // 2))
        last = min(self.hi, (c1 - 1) // 2)
        ks = np.arange(first, last + 1)
        out = np.zeros((len(ks), c1 - c0))
        for s, tap in enumerate(self.taps):
            col = 2 * ks + s - c0
            ok = (col >= 0) & (col < c1 - c0)
            out[np.nonzero(ok)[0], col[ok]] = tap
        return out


class _Edge(NamedTuple):
    """Boundary rows of one level map that share a column window: the rows
    of one end, or all of them where the two ends share columns."""

    index: np.ndarray  # row in the stacked map: scaling k -> k, detail k -> L/2 + k
    start: int         # first column of the window
    rows: np.ndarray   # (len(index), window width)
    # (kind, k) of each row, kind 0 scaling and 1 detail: its place in a
    # level's coefficients laid out as (kind, batch row, k)
    slot: tuple[np.ndarray, np.ndarray]

    @property
    def stop(self) -> int:
        return self.start + self.rows.shape[1]

    # Neither product is a matmul: BLAS rounds a batch (gemm) differently
    # from one vector (gemv), and each row of a batch must equal that row
    # transformed alone.  Each sums its terms in column order, one after the
    # other: np.add.reduce would sum pairwise and round differently.
    def apply(self, x: np.ndarray) -> np.ndarray:
        """The edge rows applied to the window of x: (..., n) -> (..., rows)."""
        terms = x[..., None, self.start : self.stop] * self.rows
        return np.add.accumulate(terms, axis=-1, out=terms)[..., -1]

    def apply_transpose(self, c: np.ndarray) -> np.ndarray:
        """Transpose of :meth:`apply`, from a level's coefficients c laid out
        as (..., kind, k): (..., 2, L/2) -> (..., window width)."""
        terms = c[..., self.slot[0], self.slot[1], None] * self.rows
        acc = terms[..., 0, :]
        for r in range(1, len(self.rows)):
            acc += terms[..., r, :]
        return acc


def _merge(pieces: list[tuple[int, np.ndarray]]) -> tuple[int, np.ndarray]:
    """Sum of vectors given as (first column, values)."""
    c0 = min(p for p, _ in pieces)
    c1 = max(p + len(v) for p, v in pieces)
    out = np.zeros(c1 - c0)
    for p, v in pieces:
        out[p - c0 : p - c0 + len(v)] += v
    return c0, out


@dataclass(frozen=True, eq=False)
class _Level:
    """One orthogonal level map in banded form: interior filter bands plus
    boundary edges.  Every row of the stacked map (L/2 scaling rows, then L/2
    detail rows) lies in exactly one band or edge."""

    size: int
    scaling: _Band
    detail: _Band
    edges: tuple[_Edge, ...]
    # both bands as one, for the transforms: their taps stacked (scaling and
    # detail are its rows), their rows from the lower lo to their common hi;
    # the rows below the higher lo are boundary rows
    pair: _Band

    def lift(self, start: int, values: np.ndarray) -> tuple[int, np.ndarray]:
        """Transpose of the stacked map, applied to a vector that is zero outside
        stacked indices [start, start + len(values)): (first column, values)."""
        stop = start + len(values)
        pieces = []
        for band, base in ((self.scaling, 0), (self.detail, self.size // 2)):
            lo, hi = max(start - base, band.lo), min(stop - 1 - base, band.hi)
            if lo <= hi:
                acc = np.zeros(2 * (hi - lo) + len(band.taps))
                _Band(band.taps, 0, hi - lo).synthesize(values[base + lo - start :], acc,
                                                        np.empty(hi - lo + 1))
                pieces.append((2 * lo, acc))
        for e in self.edges:
            sel = np.nonzero((e.index >= start) & (e.index < stop))[0]
            if len(sel):
                pieces.append((e.start, values[e.index[sel] - start] @ e.rows[sel]))
        return _merge(pieces)


def _fix_signs(rows: np.ndarray) -> np.ndarray:
    out = rows.copy()
    for i, r in enumerate(out):
        j = np.argmax(np.abs(r))
        if r[j] < 0:
            out[i] = -r
    return out


def _mgs(rows: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt; keeps the row order."""
    out = rows.copy()
    for i in range(len(out)):
        for p in range(i):
            out[i] -= (out[i] @ out[p]) * out[p]
        out[i] /= np.linalg.norm(out[i])
    return out


def _canonical(rows: np.ndarray) -> np.ndarray:
    """The orthonormal basis of span(rows) that diagonalizes the column
    position, ordered by center.  ``rows`` must be orthonormal."""
    if len(rows) < 2:
        return rows
    pos = np.arange(rows.shape[1], dtype=float)
    _, vecs = np.linalg.eigh((rows * pos) @ rows.T)
    return vecs.T @ rows


def _refine(rows: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Project ``rows`` off the orthonormal ``basis`` rows and re-orthonormalize,
    twice.  Rank decisions on marginal singular values leave cancellation
    noise in the row directions; this removes it."""
    for _ in range(2):
        rows = rows - (rows @ basis.T) @ basis
        rows = _mgs(rows)
    return rows


def _window_null(stacked: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Orthonormal vectors supported on columns [lo, hi) of the frame that are
    orthogonal to every row of ``stacked``, embedded into the frame."""
    touching = np.any(stacked[:, lo:hi] != 0.0, axis=1)
    _, svals, vt = np.linalg.svd(stacked[touching, lo:hi])
    rank = int(np.sum(svals > _NULL_TOL))
    rows = np.zeros((len(vt) - rank, stacked.shape[1]))
    rows[:, lo:hi] = _canonical(vt[rank:])
    return _fix_signs(rows)


def _left_complement(stacked: np.ndarray, at_most: int, start_width: int,
                     whole: bool) -> np.ndarray:
    """All complement vectors that live at the left edge of the frame.

    The dimension is not known a priori (it depends on the filter phase), so
    the window grows until the null space stops gaining directions.  A wrong
    count cannot pass silently: the right-edge search and the final
    orthogonality check both validate it.
    """
    limit = stacked.shape[1]
    width = start_width
    best = np.zeros((0, limit))
    stall = 0
    while width <= limit and stall <= 4 and len(best) < at_most:
        null = _window_null(stacked, 0, width)
        if len(null) > len(best):
            best, stall = null, 0
        else:
            stall += 1
        width += 1
    if not whole and stall <= 4 and len(best) < at_most:
        raise GeometryError("left boundary search outgrew its frame")
    return best


def _right_complement(stacked: np.ndarray, needed: int,
                      start_width: int) -> np.ndarray:
    """Locally supported orthonormal complement rows at the right edge of the
    frame."""
    limit = stacked.shape[1]
    if needed == 0:
        return np.zeros((0, limit))
    for width in range(start_width, limit + 1):
        null = _window_null(stacked, limit - width, limit)
        if len(null) == needed:
            return null
        if len(null) > needed:
            raise GeometryError(
                f"boundary complement too large ({len(null)} > {needed})"
            )
    raise GeometryError("boundary complement window grew past the block")


def _residuals(band: _Band, vecs: np.ndarray, mid_lo: int, mid_hi: int) -> np.ndarray:
    """``vecs`` minus their reconstruction from the interior scaling rows.

    The residual must vanish on columns [mid_lo, mid_hi), up to rounding
    relative to the magnitudes that were summed.
    """
    rows, half = len(vecs), vecs.shape[1] // 2
    stream, tmp = band.across(rows, half), np.empty(rows * half)
    coeffs = np.empty(rows * half)
    stream.analyze(vecs.reshape(-1), coeffs, tmp)
    c2 = coeffs.reshape(rows, half)
    c2[:, : band.lo] = c2[:, band.hi + 1 :] = 0.0
    recon = np.zeros(vecs.size)
    stream.synthesize(coeffs, recon, tmp)
    # |tap * c| is |tap| * |c| exactly
    scale = np.abs(vecs).reshape(-1)
    stream._replace(taps=np.abs(band.taps)).synthesize(np.abs(coeffs), scale, tmp)
    scale = scale.reshape(vecs.shape)
    resid = vecs - recon.reshape(vecs.shape)
    mid = slice(mid_lo, mid_hi)
    if np.any(np.abs(resid[:, mid]) > 1e-8 * np.maximum(1.0, scale[:, mid])):
        raise GeometryError("polynomial residual leaked outside the boundary")
    return resid


def _graded_right_vectors(a: np.ndarray) -> np.ndarray:
    """Right singular vectors of ``a`` as rows, largest singular value first.

    One-sided Jacobi on the columns of a.T.  Unlike a bidiagonalizing SVD it
    keeps full relative accuracy when the rows of ``a`` differ in scale by
    many orders of magnitude (Demmel & Veselic, SIAM J. Matrix Anal. Appl.
    13, 1992), which is the case for the boundary residuals below.
    """
    cols = a.T.copy()
    m = cols.shape[1]
    for _ in range(60):
        rotated = False
        for p in range(m - 1):
            for q in range(p + 1, m):
                x, y = cols[:, p], cols[:, q]
                xx, yy, xy = x @ x, y @ y, x @ y
                if abs(xy) <= 1e-15 * math.sqrt(xx * yy):
                    continue
                rotated = True
                zeta = (yy - xx) / (2.0 * xy)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                cols[:, p], cols[:, q] = c * x - c * t * y, c * t * x + c * y
        if not rotated:
            break
    norms = np.linalg.norm(cols, axis=0)
    order = np.argsort(-norms, kind="stable")
    return (cols[:, order] / norms[order]).T


def _boundary_scaling(resid: np.ndarray, factor: np.ndarray, lo: int,
                      frame: tuple[int, int], interior: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the boundary residuals of the polynomials,
    which sit on columns lo.. of the level; returned as frame rows.

    Keeping these in the scaling span is what keeps sampled polynomials in
    every scaling space, hence gives the detail rows vanishing moments.  The
    rows are the principal directions of the residuals of ``factor`` applied
    to the basis whose residuals ``resid`` holds (see :func:`_end_bases`).
    """
    svals = np.linalg.svd(resid, compute_uv=False)
    if svals[-1] < 1e-13 * svals[0]:
        raise GeometryError("degenerate boundary residuals")
    rows = np.zeros((len(resid), frame[1] - frame[0]))
    rows[:, lo - frame[0] : lo - frame[0] + resid.shape[1]] = \
        _graded_right_vectors(factor @ resid)
    return _fix_signs(_refine(rows, interior))


def _filter_ortho_err(h: np.ndarray, g: np.ndarray) -> float:
    """Largest deviation from orthonormality among interior rows: the
    correlations of the filter pair at even lags."""
    err = 0.0
    for a, b, at_zero in ((h, h, 1.0), (g, g, 1.0), (h, g, 0.0)):
        even = np.correlate(a, b, "full")[1::2]  # lag 0 sits in the middle
        even[len(even) // 2] -= at_zero
        err = max(err, float(np.max(np.abs(even))))
    return err


class _EndBasis(NamedTuple):
    """A basis of the polynomial-like vectors of one level, well scaled near
    one end, and the upper triangular ``factor`` that maps it to the
    reference basis of that level.

    The boundary scaling rows are the principal directions of the boundary
    residuals of the reference basis: at the finest level the sampled
    Legendre polynomials P_i(2t - 1), t = (k + 1)/n; at coarser levels any
    basis orthonormal over the level (all give the same directions).  Near
    an end the reference vectors differ only in parts of relative size
    (N/L)^i, which rounding would wipe out if their residuals were formed
    directly.  Residuals of ``vecs`` keep those parts, and ``factor`` leads
    each reference vector with the local vector of the same degree.
    """

    vecs: np.ndarray    # (N, L)
    factor: np.ndarray  # (N, N)


def _sample_bases(n: int, moments: int) -> tuple[_EndBasis, _EndBasis]:
    """Bases of the sampled polynomials of degree < N for the finest level.

    At each end: Legendre polynomials of a local variable u, scaled to unit
    maximum on the 4N samples at that end.  Their factor comes from writing
    each P_i(2t - 1) as a Legendre series in u, exactly as polynomials.
    """
    width = min(n, 4 * moments)
    half = max(width / 2, 1)
    u = (np.arange(n) - (width - 1) / 2) / half
    leg = np.polynomial.Legendre
    raw = np.vstack([leg.basis(p)(u) for p in range(moments)])
    scale = np.max(np.abs(raw[:, :width]), axis=1)
    vecs = raw / scale[:, None]
    ends = []
    # 2t - 1 as a function of u at the left end, and at the right end (where
    # u runs from the last sample inwards)
    for end_vecs, t in ((vecs, leg([(width + 1) / n - 1, 2 * half / n])),
                        (vecs[:, ::-1], leg([1 - (width - 1) / n, -2 * half / n]))):
        coef = np.zeros((moments, moments))
        for i in range(moments):
            c = leg.basis(i)(t).coef
            coef[i, : len(c)] = c
        ends.append(_EndBasis(np.ascontiguousarray(end_vecs),
                              np.linalg.qr(coef * scale)[1]))
    return ends[0], ends[1]


def _level_basis(vecs: np.ndarray, cols: slice) -> _EndBasis:
    """``vecs`` rescaled to unit maximum on ``cols``, with the factor that
    makes them orthonormal over the level.

    Vectors are never combined with each other: combining polynomials that
    grow like (L/N)^(N-1) away from their end would cancel digits there.  The
    factor orthonormalizes from the highest degree down, so it is upper
    triangular.
    """
    vecs = vecs / np.max(np.abs(vecs[:, cols]), axis=1, keepdims=True)
    r = np.linalg.qr(vecs[::-1].T, mode="r")
    return _EndBasis(vecs, np.linalg.inv(r).T[::-1, ::-1])


def _end_cols(L: int, moments: int) -> tuple[slice, slice]:
    width = min(L, 4 * moments)
    return slice(0, width), slice(L - width, L)


def _level_map(taps: np.ndarray, L: int, left: _EndBasis,
               right: _EndBasis, margin_left: int,
               margin_right: int) -> tuple[_Level, _Edge | None, int]:
    """One analysis step: L fine coefficients -> L/2 scaling + L/2 detail.

    ``taps`` holds the filter pair (h, g) as rows.  ``left``/``right`` are
    bases of the polynomial-like vectors, well scaled near the left and right
    end, with their factors.  ``margin_left`` and
    ``margin_right`` count the entries at each end that are no longer
    polynomial samples (boundary coordinates produced by earlier levels).
    Interior filter rows must not touch them, otherwise the exact-cancellation
    arguments below break down.  Returns the map, the one edge of all its
    boundary rows if the level is built in one frame (else None), and the
    right margin it leaves for the next coarser level.
    """
    h, g = taps
    N = len(h) // 2
    half = L // 2

    # row budget: N left boundary scaling rows, R right boundary scaling rows,
    # ceil(margin_left/2) left and R right boundary detail rows; everything
    # else carries the interior filters
    n_right = max(N, N + math.ceil(margin_right / 2) - 1)
    k_lo, k_hi = N, half - 1 - n_right
    kd_lo = math.ceil(margin_left / 2)
    win_l, win_r = 4 * N - 2, 2 * n_right
    if k_hi < k_lo or k_hi < kd_lo or win_l + win_r > L:
        raise GeometryError(f"block of {half} coefficients too small for N={N}")
    S, D = _Band(h, k_lo, k_hi), _Band(g, kd_lo, k_hi)
    pair = _Band(taps, min(k_lo, kd_lo), k_hi)

    res_left = _residuals(S, left.vecs, win_l, L - win_r)[:, :win_l]
    res_right = _residuals(S, right.vecs, win_l, L - win_r)[:, L - win_r :]

    # each boundary is built in a frame of O(N) columns at its end; rows of
    # the other end never reach it.  Small levels are one frame.
    width = _FRAME * N
    whole = L <= 2 * width
    frames = [(0, L)] if whole else [(0, width), (L - width, L)]
    fl, fr = frames[0], frames[-1]
    bands = {f: (S.restrict(*f), D.restrict(*f)) for f in frames}
    S_l, D_l = bands[fl]
    S_r, D_r = bands[fr]

    # boundary scaling rows: orthonormalized residuals of the polynomial-like
    # vectors after interior reconstruction
    left_rows = _boundary_scaling(res_left, left.factor, 0, fl, np.vstack([S_l, D_l]))
    right_rows = _boundary_scaling(res_right, right.factor, L - win_r, fr,
                                   np.vstack([S_r, D_r]))

    # the remaining rows are the locally supported orthonormal complement of
    # everything above; how many live at each edge depends on the filter
    # phase, so take the left edge as it comes and require the rest on the
    # right, then distribute by position
    missing = kd_lo + 2 * n_right - N
    if whole:
        base_l = base_r = np.vstack([left_rows, S_l, right_rows, D_l])
    else:
        base_l = np.vstack([left_rows, S_l, D_l])
        base_r = np.vstack([S_r, right_rows, D_r])
    left_part = _left_complement(base_l, missing, 2 * N, whole)
    right_part = _right_complement(np.vstack([base_r, left_part]) if whole else base_r,
                                   missing - len(left_part), win_r)
    # same refinement for the null vectors, which come from rank decisions on
    # marginal singular values
    if whole:
        comp = _refine(np.vstack([left_part, right_part]), base_l)
    else:
        comp = np.vstack([_refine(left_part, base_l), _refine(right_part, base_r)])
    comp = [(int(i >= len(left_part)), r) for i, r in enumerate(comp)]

    # (stacked row index, end, row), end 0 at the left and 1 at the right:
    # the last n_extra complement rows go to the scaling side, the others
    # fill the free detail indices in order
    n_extra = n_right - N
    to_scaling, to_detail = comp[len(comp) - n_extra :], comp[: len(comp) - n_extra]
    free = np.concatenate([np.arange(kd_lo), np.arange(k_hi + 1, half)])
    placed = ([(i, 0, r) for i, r in enumerate(left_rows)]
              + [(half - n_right + i, e, r) for i, (e, r) in enumerate(to_scaling)]
              + [(half - N + i, 1, r) for i, r in enumerate(right_rows)]
              + [(half + i, e, r) for i, (e, r) in zip(free, to_detail, strict=True)])

    # orthogonality, checked locally: boundary rows against every row they
    # overlap, interior rows through the filters' shift-orthogonality.  A
    # boundary row must end 2N columns short of its frame's inner side, so
    # that every interior row it overlaps lies whole inside the frame.
    err = _filter_ortho_err(h, g)
    ends = (fl, fr)
    for frame in frames:
        rows = np.array([r for _, e, r in placed if ends[e] == frame])
        reach = np.nonzero(np.any(rows != 0.0, axis=0))[0]
        if not whole and (reach[0] < 2 * N if frame == fr
                          else reach[-1] >= width - 2 * N):
            raise GeometryError("boundary rows outgrew their frame")
        gram = rows @ np.vstack([rows, *bands[frame]]).T
        gram[:, : len(rows)] -= np.eye(len(rows))
        err = max(err, float(np.max(np.abs(gram))))
    if err > _ORTHO_TOL:
        raise GeometryError(f"level map failed orthogonality check ({err:.2e})")

    # one edge per end, on the columns its rows reach.  Where the two ends
    # share columns, in the smallest levels, one edge of all the boundary
    # rows, so that a synthesis adds each column's boundary terms in one sum.
    # A level built in one frame also gives that edge for c_phi (see
    # build_interval_system).
    one = _edge(placed, 0, half) if whole else None
    edges = tuple(_edge([p for p in placed if p[1] == end], ends[end][0], half)
                  for end in (0, 1))
    if edges[0].stop > edges[1].start:
        edges = (one,)
    return _Level(L, S, D, edges, pair), one, n_right


def _edge(placed: list, offset: int, half: int) -> _Edge:
    """The edge of (stacked row index, end, frame row) triples, in their
    order, whose frame starts at column ``offset``."""
    idx = np.array([i for i, _, _ in placed])
    rows = np.array([r for _, _, r in placed])
    cols = np.nonzero(np.any(rows != 0.0, axis=0))[0]
    return _Edge(_frozen(idx), offset + int(cols[0]),
                 _frozen(rows[:, cols[0] : cols[-1] + 1]),
                 tuple(_frozen(a) for a in np.divmod(idx, half)))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class BasisRow(NamedTuple):
    """One row of the transform: ``values`` start at sample ``offset``; the
    row is zero elsewhere."""

    offset: int
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class IntervalSystem(_WaveletSystem):
    """The interval wavelet system with N = ``moments`` in 2..MAX_MOMENTS
    vanishing moments, in banded form.

    ``levels[i]`` is the map of level j = coarse_level + i: it takes the
    2^(j+1) scaling coefficients of level j+1 (the samples, at j = J-1) to
    the 2^j scaling and 2^j detail coefficients of level j.  Together they
    make the orthogonal n x n transform W.  W is never stored: ``analyze``
    and ``synthesize`` apply it and its transpose, one level at a time, and
    :meth:`row` gives one of its rows as the transpose applied to a unit
    vector.  Each level runs over all rows of a batch as one flat stream
    (see :meth:`_Band.across`).
    """

    moments: int
    coarse_level: int
    n: int
    levels: tuple[_Level, ...] = field(repr=False)
    c_phi_estimate: float = 1.0

    @property
    def nbytes(self) -> int:
        """Bytes held by the level maps."""
        taps = self.levels[0].pair.taps.nbytes if self.levels else 0
        return taps + sum(e.index.nbytes + e.rows.nbytes + e.slot[0].nbytes + e.slot[1].nbytes
                          for level in self.levels for e in level.edges)

    @property
    def _scratch_per_row(self) -> int:
        """Scratch values per row of :meth:`_analyze_into` and
        :meth:`_synthesize_into`: 3n/2, which also holds a shrink's
        thresholding."""
        return 3 * self.n // 2

    def _scratch(self, rows: int, scratch) -> tuple[np.ndarray, np.ndarray]:
        """One call's scratch for ``rows`` rows, from ``scratch`` or, where
        that is None, allocated: two buffers, n and n/2 per row, that hold a
        level's coefficients in turn; the tap products go to whatever part
        of them or of the output is free at that level.  Never kept on the
        system: threads share one."""
        size = rows * self.n
        buf = np.empty(3 * size // 2) if scratch is None else scratch.reshape(-1)
        return buf[:size], buf[size:]

    def _analyze_into(self, x: np.ndarray, out, scratch) -> np.ndarray:
        """``analyze`` of the float array x into ``out``, with ``scratch``
        (see :meth:`_scratch`); each None is allocated.

        Each level runs over all rows of the batch as one stream, from the
        input itself at the finest level.  Its scaling and detail outputs go
        to a scratch buffer laid out as (kind, row, k); the edges overwrite
        the boundary entries there, and the details are copied into place
        once."""
        if out is None:
            out = np.empty(x.shape)
        rows = out.size // self.n
        if not self.levels or rows == 0:
            out[...] = x
            return out
        src = x.reshape(-1)  # a copy only if x is not contiguous
        flat = out.reshape(rows, self.n)
        bufs = self._scratch(rows, scratch)
        # the finest level's tap products go to the output, which is written
        # only after them; each coarser level's go where the details of the
        # level before were, once they are copied out
        tmp = out.reshape(2, -1)
        for i, level in enumerate(reversed(self.levels)):
            half = level.size // 2
            m = rows * half
            y = bufs[i % 2][: 2 * m].reshape(2, m)
            level.pair.across(rows, half).analyze(src, y, tmp)
            x2, y3 = src.reshape(rows, level.size), y.reshape(2, rows, half)
            for e in level.edges:
                y3[e.slot[0], :, e.slot[1]] = e.apply(x2).T
            flat[:, half : level.size] = y3[1]
            src, tmp = y[0], y[1].reshape(2, -1)
        flat[:, :half] = y3[0]
        return out

    def _synthesize_into(self, c: np.ndarray, out, scratch, kept=None) -> np.ndarray:
        """``synthesize`` of the float array c into ``out``, with ``scratch``
        (see :meth:`_scratch`); each None is allocated.

        Each level copies its details beside the scaling coefficients of the
        coarser level, in a scratch buffer laid out as (kind, row, k), takes
        the boundary entries out for the edges and zeroes them there, then
        runs the bands over all rows as one stream into zeros.  The zeroed
        entries add +-0 to sums that start at +0, which changes no bit.

        ``kept`` (default J - 1) is the finest level whose details may be
        nonzero; every detail above it must be +-0.  The levels above it
        put +0 in place of their details and run only the scaling band:
        each entry's sum starts at +0 and so is never -0, and a +-0 term
        added to such a sum changes no bit.  The edges' sums may differ in
        the sign of a zero, but they too are added into entries that are
        never -0."""
        if out is None:
            out = np.empty(c.shape)
        rows = out.size // self.n
        if not self.levels or rows == 0:
            out[...] = c
            return out
        flat = c.reshape(rows, self.n)
        bufs = self._scratch(rows, scratch)
        last = len(self.levels) - 1
        top = len(self.levels) if kept is None else kept + 1 - self.coarse_level
        for i, level in enumerate(self.levels):
            half = level.size // 2
            m = rows * half
            # level i fills bufs[(last - i) % 2]; its output is the front of
            # the next level's buffer, whose next m entries take the tap
            # products.  The finest level's output is out, and its products
            # go to the other buffer.
            y = bufs[(last - i) % 2][: 2 * m].reshape(2, m)
            y3 = y.reshape(2, rows, half)
            if i == 0:
                y3[0] = flat[:, :half]
            if i < top:
                y3[1] = flat[:, half : level.size]
                band, coeffs = level.pair, y
            else:
                y3[1] = 0.0
                band, coeffs = level.scaling, y[0]
            yv = y3.transpose(1, 0, 2)
            parts = [e.apply_transpose(yv) for e in level.edges]
            yv[..., level.pair.hi + 1 :] = 0.0
            yv[:, 0, : level.scaling.lo] = 0.0
            yv[:, 1, : level.detail.lo] = 0.0
            nxt = bufs[(last - i - 1) % 2]
            x, tmp = (out.reshape(-1), bufs[1]) if i == last else (nxt[: 2 * m], nxt[2 * m :])
            x[...] = 0.0
            band.across(rows, half).synthesize(coeffs, x, tmp)
            x2 = x.reshape(rows, level.size)
            for e, part in zip(level.edges, parts):
                x2[:, e.start : e.stop] += part
        return out

    def row(self, j: int, k: int, kind: str = "detail") -> BasisRow:
        """Row of W for the level-j scaling or detail coefficient k: a 1 at that
        coefficient, lifted through the level maps from level j on."""
        _index("level", j, self.coarse_level, self.finest_level)
        _index("shift", k, 0, 2 ** j)
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        start, values = k if kind == "scaling" else 2 ** j + k, np.ones(1)
        for level in self.levels[j - self.coarse_level :]:
            start, values = level.lift(start, values)
        return BasisRow(start, values)

    def clean_shifts(self, j: int, kind: str) -> range:
        """Shifts k whose level-j rows use interior filter rows only, at level
        j and at every finer level.  Their rows are exact translates: row k is
        row ``first`` moved by (k - first) 2^(J-j) samples."""
        i = j - self.coarse_level
        band = self.levels[i].scaling if kind == "scaling" else self.levels[i].detail
        lo, hi = band.lo, band.hi
        reach = len(band.taps) - 1
        for t, finer in enumerate(self.levels[i + 1 :], start=1):
            step = 2 ** t
            lo = max(lo, -(-finer.scaling.lo // step))
            hi = min(hi, (finer.scaling.hi - reach * (step - 1)) // step)
        return range(lo, hi + 1) if lo <= hi else range(0)


def min_coarse_level(moments: int) -> int:
    """Smallest coarse level J0 for N vanishing moments: room for both
    boundaries at N >= 2, and 0 at N = 1 (Haar, which has none)."""
    if moments == 1:
        return 0
    return 1 + math.ceil(math.log2(2 * moments - 1))


def build_interval_system(moments: int, n: int, coarse_level: int) -> IntervalSystem:
    """Assemble the banded level maps of the interval wavelet transform, N in
    2..MAX_MOMENTS; N = 1 is :class:`~waveshrink.transform.HaarSystem`."""
    if not (is_integer(moments) and 2 <= moments <= MAX_MOMENTS):
        raise ValueError(f"the banded interval system takes N in 2..{MAX_MOMENTS}, "
                         f"got N={moments!r}; N = 1 is HaarSystem")
    J = IntervalSystem._check_geometry(n, coarse_level, min_coarse_level(moments))
    h = daubechies_filter(moments)
    taps = _frozen(np.vstack([h, highpass_from_lowpass(h)]))
    left, right = _sample_bases(n, moments)

    levels, c_phi_levels = [], []
    margin_left = margin_right = 0
    for m in range(J - 1, coarse_level - 1, -1):
        L = 2 ** (m + 1)
        level, one, margin_right = _level_map(taps, L, left, right,
                                              margin_left, margin_right)
        levels.append(level)
        c_phi_levels.append(level if one is None else replace(level, edges=(one,)))
        # propagate the polynomial span
        coarse = IntervalSystem(moments, m, L, (level,)).analyze(
            np.vstack([left.vecs, right.vecs]))[:, : L // 2]
        left_cols, right_cols = _end_cols(L // 2, moments)
        left = _level_basis(coarse[:moments], left_cols)
        right = _level_basis(coarse[moments:], right_cols)
        margin_left = moments
    system = IntervalSystem(moments=moments, coarse_level=coarse_level, n=n,
                            levels=tuple(reversed(levels)))

    # c_phi is read off rows lifted through each level built in one frame as
    # one edge: BLAS rounds a product over the rows of both ends, on the
    # whole level's columns, differently from one product per end, and c_phi
    # sets every threshold, so its bits do not depend on how edges are split
    c_phi = _c_phi(replace(system, levels=tuple(reversed(c_phi_levels))))
    return replace(system, c_phi_estimate=c_phi)


def _c_phi(system: IntervalSystem) -> float:
    """The largest scaled entry of any row.  Rows at clean shifts are
    translates of the first one, so one of them stands for all."""
    J = system.finest_level
    c_phi = 1.0
    for j in range(system.coarse_level, J):
        f = 2.0 ** ((J - j) / 2.0)
        for kind in KINDS:
            clean = system.clean_shifts(j, kind)
            for k in chain(range(clean.start), range(clean.stop, 2 ** j), clean[:1]):
                c_phi = max(c_phi, f * float(np.max(np.abs(system.row(j, k, kind).values))))
    return c_phi


def interval_dwt(samples, system: IntervalSystem) -> CoefficientPyramid:
    """The system's coefficients of samples, in the integral convention."""
    return _pyramid(system, _as_samples(samples))


def interval_idwt(pyramid: CoefficientPyramid, system: IntervalSystem) -> np.ndarray:
    """Exact inverse of :func:`interval_dwt`."""
    return _samples(system, pyramid)
