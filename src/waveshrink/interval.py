"""Boundary-adapted orthonormal wavelet transform on [0,1].

The transform is Mallat's pyramid algorithm over level maps built as in
Cohen, Daubechies & Vial, "Wavelets on the interval and fast wavelet
transforms" (ACHA 1993).  A level map takes L fine coefficients to L/2
scaling and L/2 detail coefficients.  Its interior rows carry the Daubechies
filter pair (h, g) and are applied by strided slicing; the few boundary rows
at each end are stored as small dense blocks, each row with its own row index
and column window.  A system therefore stores O(N^2) numbers per level, and
one analysis or synthesis costs O(n N).

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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import NamedTuple

import numpy as np

from .transform import CoefficientPyramid, _as_samples, is_power_of_two

_ORTHO_TOL = 1e-9
_NULL_TOL = 1e-9
# width, per vanishing moment, of the column frame each boundary is built in
_FRAME = 16

KINDS = ("scaling", "detail")


class GeometryError(ValueError):
    """Raised when (N, J0, n) cannot support the boundary construction."""


def daubechies_filter(moments: int) -> np.ndarray:
    """Orthonormal Daubechies lowpass filter with the given vanishing moments.

    Computed by spectral factorization of the binomial half-band polynomial;
    supported for 1 <= moments <= 5 (larger values work but lose accuracy).
    """
    if not 1 <= moments <= 5:
        raise ValueError(f"unsupported number of vanishing moments: {moments}")
    if moments == 1:
        return np.array([1.0, 1.0]) / math.sqrt(2.0)
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
    # minimum-phase orientation: energy concentrated at the front
    if np.sum(h[:moments] ** 2) < np.sum(h[moments:] ** 2):
        h = h[::-1]
    return h


def highpass_from_lowpass(h: np.ndarray) -> np.ndarray:
    """Quadrature-mirror highpass g_k = (-1)^k h_{2N-1-k}."""
    signs = (-1.0) ** np.arange(len(h))
    return signs * h[::-1]


class CascadeTable(NamedTuple):
    """Scaling function and wavelet tabulated on a dyadic grid over [0, 2N-1]."""

    moments: int
    resolution: int
    grid: np.ndarray
    phi: np.ndarray
    psi: np.ndarray

    @property
    def step(self) -> float:
        return 2.0 ** -self.resolution


def cascade_evaluate(moments: int, resolution: int) -> CascadeTable:
    """Tabulate the Daubechies-N scaling function and wavelet.

    Integer-grid values come from the eigenvector of the refinement operator;
    dyadic values are then filled in exactly by the two-scale relation, so the
    refinement-equation residual is pure roundoff.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    h = daubechies_filter(moments)
    width = 2 * moments - 1
    grid = np.arange(width * 2 ** resolution + 1) * 2.0 ** -resolution
    if moments == 1:
        phi = np.ones_like(grid)
        phi[0] = 0.0
        psi = np.where(grid <= 0.5, 1.0, -1.0)
        psi[0] = 0.0
        return CascadeTable(1, resolution, grid, phi, psi)

    # values at the interior integers: eigenvector of A[m,l] = sqrt(2) h[2m-l]
    m_idx = np.arange(1, width)
    A = np.zeros((width - 1, width - 1))
    for r, m in enumerate(m_idx):
        for c, l in enumerate(m_idx):
            s = 2 * m - l
            if 0 <= s < len(h):
                A[r, c] = math.sqrt(2.0) * h[s]
    eigvals, eigvecs = np.linalg.eig(A)
    pick = np.argmin(np.abs(eigvals - 1.0))
    v = np.real(eigvecs[:, pick])
    v /= v.sum()
    phi = np.zeros(width + 1)
    phi[1:width] = v

    for depth in range(1, resolution + 1):
        prev = phi
        cur = np.zeros(width * 2 ** depth + 1)
        cur[::2] = prev
        # odd points x: phi(x) = sqrt(2) sum_s h_s phi(2x - s)
        odd = np.arange(1, len(cur), 2)  # index at step 2^-depth
        acc = np.zeros(len(odd))
        for s, hs in enumerate(h):
            src = odd - s * 2 ** (depth - 1)  # index of 2x - s at step 2^-(depth-1)
            ok = (src >= 0) & (src < len(prev))
            acc[ok] += hs * prev[src[ok]]
        cur[odd] = math.sqrt(2.0) * acc
        phi = cur

    g = highpass_from_lowpass(h)
    psi = np.zeros_like(phi)
    idx = np.arange(len(phi))
    for s, gs in enumerate(g):
        src = 2 * idx - s * 2 ** resolution
        ok = (src >= 0) & (src < len(phi))
        psi[ok] += gs * phi[src[ok]]
    psi *= math.sqrt(2.0)
    return CascadeTable(moments, resolution, grid, phi, psi)


class _Band(NamedTuple):
    """Interior rows lo..hi of one filter: row k holds ``taps`` at columns
    2k .. 2k + len(taps) - 1.  Empty when hi < lo."""

    taps: np.ndarray
    lo: int
    hi: int

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
    """Boundary rows of one level map that share a column window."""

    index: np.ndarray  # row in the stacked map: scaling k -> k, detail k -> L/2 + k
    start: int         # first column of the window
    rows: np.ndarray   # (len(index), window width)

    @property
    def stop(self) -> int:
        return self.start + self.rows.shape[1]


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

    def analyze(self, x: np.ndarray) -> np.ndarray:
        """(..., L) fine coefficients -> (..., L): scaling, then detail."""
        out = np.empty(x.shape)
        half = self.size // 2
        for band, base in ((self.scaling, 0), (self.detail, half)):
            if band.hi < band.lo:
                continue
            seg = out[..., base + band.lo : base + band.hi + 1]
            stop = 2 * band.hi + 1
            seg[...] = band.taps[0] * x[..., 2 * band.lo : stop : 2]
            for s in range(1, len(band.taps)):
                seg += band.taps[s] * x[..., 2 * band.lo + s : stop + s : 2]
        for e in self.edges:
            out[..., e.index] = x[..., e.start : e.stop] @ e.rows.T
        return out

    def synthesize(self, c: np.ndarray) -> np.ndarray:
        """Inverse, i.e. transpose, of :meth:`analyze`."""
        x = np.zeros(c.shape)
        half = self.size // 2
        for band, base in ((self.scaling, 0), (self.detail, half)):
            if band.hi < band.lo:
                continue
            seg = c[..., base + band.lo : base + band.hi + 1]
            stop = 2 * band.hi + 1
            for s, tap in enumerate(band.taps):
                x[..., 2 * band.lo + s : stop + s : 2] += tap * seg
        for e in self.edges:
            x[..., e.start : e.stop] += c[..., e.index] @ e.rows
        return x

    def row(self, i: int) -> tuple[int, np.ndarray]:
        """Row i of the stacked map as (first column, values)."""
        for e in self.edges:
            hit = np.nonzero(e.index == i)[0]
            if len(hit):
                return e.start, e.rows[hit[0]]
        half = self.size // 2
        band, k = (self.scaling, i) if i < half else (self.detail, i - half)
        return 2 * k, band.taps

    def lift(self, start: int, values: np.ndarray) -> tuple[int, np.ndarray]:
        """Transpose of the scaling half, applied to a vector that is zero
        outside scaling indices [start, start + len(values))."""
        stop = start + len(values)
        band = self.scaling
        pieces = []
        lo, hi = max(start, band.lo), min(stop - 1, band.hi)
        if lo <= hi:
            seg = values[lo - start : hi - start + 1]
            acc = np.zeros(2 * (hi - lo) + len(band.taps))
            for s, tap in enumerate(band.taps):
                acc[s : s + 2 * (hi - lo) + 1 : 2] += tap * seg
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
    taps, lo, hi = band
    stop = 2 * hi + 1
    coeffs = taps[0] * vecs[:, 2 * lo : stop : 2]
    for s in range(1, len(taps)):
        coeffs = coeffs + taps[s] * vecs[:, 2 * lo + s : stop + s : 2]
    recon = np.zeros(vecs.shape)
    scale = np.abs(vecs)
    for s, tap in enumerate(taps):
        recon[:, 2 * lo + s : stop + s : 2] += tap * coeffs
        scale[:, 2 * lo + s : stop + s : 2] += np.abs(tap * coeffs)
    resid = vecs - recon
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


def _level_map(h: np.ndarray, g: np.ndarray, L: int, left: _EndBasis,
               right: _EndBasis, margin_left: int,
               margin_right: int) -> tuple[_Level, int]:
    """One analysis step: L fine coefficients -> L/2 scaling + L/2 detail.

    ``left``/``right`` are bases of the polynomial-like vectors, well scaled
    near the left and right end, with their factors.  ``margin_left`` and
    ``margin_right`` count the entries at each end that are no longer
    polynomial samples (boundary coordinates produced by earlier levels).
    Interior filter rows must not touch them, otherwise the exact-cancellation
    arguments below break down.  Returns the map and the right margin it
    leaves for the next coarser level.
    """
    N = len(h) // 2
    half = L // 2

    if N == 1:
        # no boundary functions needed: plain Haar level map
        return _Level(L, _Band(h, 0, half - 1), _Band(g, 0, half - 1), ()), 0

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
        comp = [(fl, r) for r in comp]
    else:
        comp = [(fl, r) for r in _refine(left_part, base_l)] \
            + [(fr, r) for r in _refine(right_part, base_r)]

    # (stacked row index, frame, row): the last n_extra complement rows go
    # to the scaling side, the others fill the free detail indices in order
    n_extra = n_right - N
    to_scaling, to_detail = comp[len(comp) - n_extra :], comp[: len(comp) - n_extra]
    free = np.concatenate([np.arange(kd_lo), np.arange(k_hi + 1, half)])
    placed = ([(i, fl, r) for i, r in enumerate(left_rows)]
              + [(half - n_right + i, f, r) for i, (f, r) in enumerate(to_scaling)]
              + [(half - N + i, fr, r) for i, r in enumerate(right_rows)]
              + [(half + i, f, r) for i, (f, r) in zip(free, to_detail, strict=True)])

    # orthogonality, checked locally: boundary rows against every row they
    # overlap, interior rows through the filters' shift-orthogonality.  A
    # boundary row must end 2N columns short of its frame's inner side, so
    # that every interior row it overlaps lies whole inside the frame.
    err = _filter_ortho_err(h, g)
    for frame in frames:
        rows = np.array([r for _, f, r in placed if f == frame])
        reach = np.nonzero(np.any(rows != 0.0, axis=0))[0]
        if not whole and (reach[0] < 2 * N if frame == fr
                          else reach[-1] >= width - 2 * N):
            raise GeometryError("boundary rows outgrew their frame")
        gram = rows @ np.vstack([rows, *bands[frame]]).T
        gram[:, : len(rows)] -= np.eye(len(rows))
        err = max(err, float(np.max(np.abs(gram))))
    if err > _ORTHO_TOL:
        raise GeometryError(f"level map failed orthogonality check ({err:.2e})")

    edges = []
    for frame in frames:
        idx = np.array([i for i, f, _ in placed if f == frame])
        rows = np.array([r for _, f, r in placed if f == frame])
        cols = np.nonzero(np.any(rows != 0.0, axis=0))[0]
        edges.append(_Edge(_frozen(idx), frame[0] + int(cols[0]),
                           _frozen(rows[:, cols[0] : cols[-1] + 1])))
    return _Level(L, S, D, tuple(edges)), n_right


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class BasisRow(NamedTuple):
    """One row of the transform: ``values`` start at sample ``offset``; the
    row is zero elsewhere."""

    offset: int
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class IntervalSystem:
    """Orthogonal transform for the interval wavelet basis, in banded form.

    ``levels[i]`` is the map of level j = coarse_level + i: it takes the
    2^(j+1) scaling coefficients of level j+1 (the samples, at j = J-1) to
    the 2^j scaling and 2^j detail coefficients of level j.  Together they
    make the orthogonal n x n transform W, which maps samples to
    sqrt(n)-scaled coefficients ordered approx block first, then detail
    levels coarse to fine.  W is never stored: :meth:`analyze` and
    :meth:`synthesize` apply it and its transpose, :meth:`row` composes one
    of its rows on demand.
    """

    moments: int
    coarse_level: int
    n: int
    levels: tuple[_Level, ...] = field(repr=False)
    c_phi_estimate: float = 1.0

    @property
    def finest_level(self) -> int:
        return int(math.log2(self.n))

    @property
    def nbytes(self) -> int:
        """Bytes held by the level maps."""
        taps = self.levels[0].scaling.taps.nbytes * 2 if self.levels else 0
        return taps + sum(e.index.nbytes + e.rows.nbytes
                          for level in self.levels for e in level.edges)

    def analyze(self, samples) -> np.ndarray:
        """W applied along the last axis: (..., n) -> (..., n)."""
        s = np.asarray(samples, dtype=float)
        details = []
        for level in reversed(self.levels):
            out = level.analyze(s)
            half = level.size // 2
            details.append(out[..., half:])
            s = out[..., :half]
        return np.concatenate([s, *details[::-1]], axis=-1)

    def synthesize(self, coeffs) -> np.ndarray:
        """W.T applied along the last axis: the inverse of :meth:`analyze`."""
        c = np.asarray(coeffs, dtype=float)
        pos = 2 ** self.coarse_level
        s = c[..., :pos]
        for level in self.levels:
            half = level.size // 2
            s = level.synthesize(np.concatenate([s, c[..., pos : pos + half]], axis=-1))
            pos += half
        return s

    def row(self, j: int, k: int, kind: str = "detail") -> BasisRow:
        """Row of W for the level-j scaling or detail coefficient k."""
        if not self.coarse_level <= j < self.finest_level:
            raise IndexError(f"level {j} out of range")
        if not 0 <= k < 2 ** j:
            raise IndexError(f"shift {k} out of range at level {j}")
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        i = j - self.coarse_level
        start, values = self.levels[i].row(k if kind == "scaling" else 2 ** j + k)
        for finer in self.levels[i + 1 :]:
            start, values = finer.lift(start, values)
        return BasisRow(start, np.array(values))

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
    if moments == 1:
        return 0  # Haar needs no boundary adaptation
    return 1 + math.ceil(math.log2(2 * moments - 1))


def build_interval_system(moments: int, n: int, coarse_level: int) -> IntervalSystem:
    """Assemble the banded level maps of the interval wavelet transform."""
    if not is_power_of_two(n) or n < 2:
        raise GeometryError(f"n must be a power of two >= 2, got {n}")
    J = int(math.log2(n))
    if not min_coarse_level(moments) <= coarse_level <= J:
        raise GeometryError(
            f"coarse level {coarse_level} out of range "
            f"[{min_coarse_level(moments)}, {J}] for N={moments}"
        )
    h = _frozen(daubechies_filter(moments))
    g = _frozen(highpass_from_lowpass(h))
    left, right = _sample_bases(n, moments)

    levels = []
    margin_left = margin_right = 0
    for m in range(J - 1, coarse_level - 1, -1):
        L = 2 ** (m + 1)
        level, margin_right = _level_map(h, g, L, left, right,
                                         margin_left, margin_right)
        levels.append(level)
        # propagate the polynomial span
        coarse = level.analyze(np.vstack([left.vecs, right.vecs]))[:, : L // 2]
        left_cols, right_cols = _end_cols(L // 2, moments)
        left = _level_basis(coarse[:moments], left_cols)
        right = _level_basis(coarse[moments:], right_cols)
        margin_left = 0 if moments == 1 else moments
    system = IntervalSystem(moments=moments, coarse_level=coarse_level, n=n,
                            levels=tuple(reversed(levels)))

    # c_phi: the largest scaled entry of any row.  Rows at clean shifts are
    # translates of the first one, so one of them stands for all.
    c_phi = 1.0
    for j in range(coarse_level, J):
        f = 2.0 ** ((J - j) / 2.0)
        for kind in KINDS:
            clean = system.clean_shifts(j, kind)
            for k in chain(range(clean.start), range(clean.stop, 2 ** j), clean[:1]):
                c_phi = max(c_phi, f * float(np.max(np.abs(system.row(j, k, kind).values))))
    return replace(system, c_phi_estimate=c_phi)


class LevelWeights(NamedTuple):
    alphas: np.ndarray
    betas: np.ndarray
    offset: int  # sample index where the joint support starts


def extract_weights(system: IntervalSystem, j: int, k: int) -> LevelWeights:
    """Per-sample coefficient weights of the (j, k) scaling and detail rows.

    Normalized so that the integral-convention coefficient equals
    2^(-J + j/2) * sum_i weight_i * sample_{offset + i}.
    """
    if not system.coarse_level <= j < system.finest_level:
        raise IndexError(f"level {j} out of range")
    if not 0 <= k < 2 ** j:
        raise IndexError(f"shift {k} out of range at level {j}")
    factor = 2.0 ** ((system.finest_level - j) / 2.0)
    a, b = system.row(j, k, "scaling"), system.row(j, k, "detail")
    lo = min(a.offset, b.offset)
    hi = max(a.offset + len(a.values), b.offset + len(b.values))
    rows = np.zeros((2, hi - lo))
    for r, (offset, values) in zip(rows, (a, b)):
        r[offset - lo : offset - lo + len(values)] = values * factor
    support = np.nonzero(np.any(np.abs(rows) > 1e-14, axis=0))[0]
    if len(support) == 0:
        return LevelWeights(np.zeros(0), np.zeros(0), 0)
    s0, s1 = support[0], support[-1] + 1
    return LevelWeights(rows[0, s0:s1], rows[1, s0:s1], int(lo + s0))


def interval_dwt(samples, system: IntervalSystem) -> CoefficientPyramid:
    y = _as_samples(samples)
    if len(y) != system.n:
        raise ValueError(f"expected {system.n} samples, got {len(y)}")
    coeffs = system.analyze(y)
    J0, J = system.coarse_level, system.finest_level
    approx = coeffs[: 2 ** J0]
    details, pos = [], 2 ** J0
    for j in range(J0, J):
        details.append(coeffs[pos : pos + 2 ** j])
        pos += 2 ** j
    pyr = CoefficientPyramid(J0, approx, tuple(details), scaled=True)
    return pyr.with_scaling(False)


def interval_idwt(pyramid: CoefficientPyramid, system: IntervalSystem) -> np.ndarray:
    if pyramid.n != system.n or pyramid.coarse_level != system.coarse_level:
        raise ValueError("pyramid geometry does not match the system")
    return system.synthesize(pyramid.with_scaling(True).flat())
