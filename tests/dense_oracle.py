"""Dense interval wavelet system: a test-only oracle for the banded one.

This is the builder the package used before it switched to banded level
maps: every level map is an explicit L x L orthogonal matrix, the transform
W is their dense product, and every composed row is kept.  It costs O(n^3)
time and O(n^2) memory, so it only runs at small n.

It differs from that builder in the places marked "changed", which the
banded builder shares, because the original result depended on rounding:

* a complement null space of more than one dimension gets the basis that
  diagonalizes column position (``_canonical``); the original took the basis
  the SVD happened to return, which rounding decides;
* the polynomial span is carried by one basis per end, well scaled near that
  end, plus a triangular factor to the original's reference basis (sampled
  Legendre polynomials, then an orthonormal basis per level).  The boundary
  scaling rows are the same principal directions of the reference residuals
  as in the original, but the original formed those residuals directly and
  lost up to (n/N)^(N-1) in accuracy, so that for N >= 3 rounding picked
  them too;
* the residual leak check is relative to the summed magnitudes, since the
  per-end bases grow away from their end.
"""
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from waveshrink.interval import (
    _NULL_TOL,
    _ORTHO_TOL,
    GeometryError,
    _canonical,
    _EndBasis,
    _end_cols,
    _graded_right_vectors,
    _level_basis,
    _sample_bases,
    daubechies_filter,
    highpass_from_lowpass,
    min_coarse_level,
)
from waveshrink.transform import is_power_of_two


class _LevelBlock(NamedTuple):
    scaling: np.ndarray   # (L/2, L)
    detail: np.ndarray    # (L/2, L)
    margin_right: int     # non-polynomial coarse entries at the right end


def _fix_signs(rows: np.ndarray) -> np.ndarray:
    out = rows.copy()
    for i, r in enumerate(out):
        j = np.argmax(np.abs(r))
        if r[j] < 0:
            out[i] = -r
    return out


def _boundary_details(stacked: np.ndarray, L: int, needed: int, left: bool,
                      start_width: int) -> np.ndarray:
    """Locally supported orthonormal complement rows at one boundary."""
    if needed == 0:
        return np.zeros((0, L))
    width = start_width
    while width <= L:
        null = _window_null(stacked, L, width, left)
        if len(null) == needed:
            return _by_center(null)
        if len(null) > needed:
            raise GeometryError(
                f"boundary complement too large ({len(null)} > {needed})"
            )
        width += 1
    raise GeometryError("boundary complement window grew past the block")


def _window_null(stacked: np.ndarray, L: int, width: int, left: bool) -> np.ndarray:
    """Orthonormal vectors supported on a boundary window of ``width`` columns
    that are orthogonal to every row of ``stacked``, embedded into length L."""
    cols = np.arange(width) if left else np.arange(L - width, L)
    touching = np.any(stacked[:, cols] != 0.0, axis=1)
    sub = stacked[np.ix_(touching, cols)]
    _, svals, vt = np.linalg.svd(sub)
    rank = int(np.sum(svals > _NULL_TOL))
    null = _canonical(vt[rank:])  # changed
    rows = np.zeros((len(null), L))
    rows[:, cols] = null
    return _fix_signs(rows)


def _mgs(rows: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt; keeps the row order."""
    out = rows.copy()
    for i in range(len(out)):
        for p in range(i):
            out[i] -= (out[i] @ out[p]) * out[p]
        out[i] /= np.linalg.norm(out[i])
    return out


def _by_center(rows: np.ndarray) -> np.ndarray:
    """Sort rows by the center of mass of their energy."""
    idx = np.arange(rows.shape[1])
    centers = [np.average(idx, weights=r ** 2) for r in rows]
    return rows[np.argsort(centers)]


def _left_complement(stacked: np.ndarray, L: int, at_most: int,
                     start_width: int) -> np.ndarray:
    """All complement vectors that live at the left edge.

    The dimension is not known a priori (it depends on the filter phase), so
    the window grows until the null space stops gaining directions.  A wrong
    count cannot pass silently: the right-edge search and the final
    orthogonality check both validate it.
    """
    width = start_width
    best = np.zeros((0, L))
    stall = 0
    while width <= L and stall <= 4 and len(best) < at_most:
        null = _window_null(stacked, L, width, True)
        if len(null) > len(best):
            best, stall = null, 0
        else:
            stall += 1
        width += 1
    return _by_center(best)


def _level_block(h: np.ndarray, L: int, left: _EndBasis, right: _EndBasis,
                 margin_left: int, margin_right: int) -> _LevelBlock:
    """One analysis step: L fine coefficients -> L/2 scaling + L/2 detail.

    ``left``/``right`` are bases of the polynomial-like vectors, well scaled
    near the left and right end, with their factors (changed).
    ``margin_left``/``margin_right`` count the entries at each end of the
    ``poly_vecs`` that are no longer polynomial samples (boundary coordinates
    produced by earlier levels).  Interior filter rows must not touch them,
    otherwise the exact-cancellation arguments below break down.
    """
    N = len(h) // 2
    half = L // 2
    g = highpass_from_lowpass(h)

    if N == 1:
        # no boundary functions needed: plain Haar level map
        scaling = np.zeros((half, L))
        detail = np.zeros((half, L))
        k = np.arange(half)
        scaling[k, 2 * k] = scaling[k, 2 * k + 1] = h[0]
        detail[k, 2 * k], detail[k, 2 * k + 1] = g[0], g[1]
        return _LevelBlock(scaling, detail, 0)

    # row budget: N left boundary scaling rows, R right boundary scaling rows,
    # ceil(margin_left/2) left and R right boundary detail rows; everything
    # else carries the interior filters
    n_right = max(N, N + math.ceil(margin_right / 2) - 1)
    k_lo, k_hi = N, half - 1 - n_right
    kd_lo = math.ceil(margin_left / 2)
    win_l, win_r = 4 * N - 2, 2 * n_right
    if k_hi < k_lo or k_hi < kd_lo or win_l + win_r > L:
        raise GeometryError(f"block of {half} coefficients too small for N={N}")

    scaling = np.zeros((half, L))
    k_int = np.arange(k_lo, k_hi + 1)
    for s in range(2 * N):
        scaling[k_int, 2 * k_int + s] = h[s]

    # boundary scaling rows: orthonormalized residuals of the polynomial-like
    # vectors after interior reconstruction (keeps sampled polynomials inside
    # the scaling span, which is what gives the detail rows vanishing moments)
    res_left = np.zeros((N, win_l))
    res_right = np.zeros((N, win_r))
    for vecs, res, is_left in ((left.vecs, res_left, True),
                               (right.vecs, res_right, False)):
        for i, v in enumerate(vecs):
            coeffs = np.array([h @ v[2 * k : 2 * k + 2 * N] for k in k_int])
            recon = np.zeros(L)
            scale = np.abs(v)
            for s in range(2 * N):
                recon[2 * k_int + s] += coeffs * h[s]
                scale[2 * k_int + s] += np.abs(coeffs * h[s])
            resid = v - recon
            # changed: relative to the summed magnitudes
            mid = slice(win_l, L - win_r)
            if np.any(np.abs(resid[mid]) > 1e-8 * np.maximum(1.0, scale[mid])):
                raise GeometryError("polynomial residual leaked outside the boundary")
            res[i] = resid[:win_l] if is_left else resid[L - win_r :]

    detail = np.zeros((half, L))
    kd = np.arange(kd_lo, k_hi + 1)
    for s in range(2 * N):
        detail[kd, 2 * kd + s] = g[s]

    right_res = np.zeros((N, L))
    interior = np.vstack([scaling[k_lo : k_hi + 1], detail[kd]])
    for resid, factor, is_left in ((res_left, left.factor, True),
                                   (res_right, right.factor, False)):
        _, svals, vt = np.linalg.svd(resid, full_matrices=False)
        if svals[-1] < 1e-13 * svals[0]:
            raise GeometryError("degenerate boundary residuals")
        vt = _graded_right_vectors(factor @ resid)  # changed
        rows = np.zeros((N, L))
        if is_left:
            rows[:, :win_l] = vt
        else:
            rows[:, L - win_r :] = vt
        # tiny residual singular values leave cancellation noise in the row
        # directions; project it out against the (exact) interior rows
        for _ in range(2):
            rows = rows - (rows @ interior.T) @ interior
            rows = _mgs(rows)
        rows = _fix_signs(rows)
        if is_left:
            scaling[:N] = rows
        else:
            right_res[:] = rows

    # the remaining rows are the locally supported orthonormal complement of
    # everything above; how many live at each edge depends on the filter
    # phase, so take the left edge as it comes and require the rest on the
    # right, then distribute by position
    missing = kd_lo + 2 * n_right - N
    stacked = np.vstack([scaling[: k_hi + 1], right_res, detail[kd]])
    left_part = _left_complement(stacked, L, missing, 2 * N)
    stacked = np.vstack([stacked, left_part])
    right_part = _boundary_details(stacked, L, missing - len(left_part), False, win_r)

    comp = np.vstack([left_part, right_part])
    # same refinement for the null vectors, which come from rank decisions on
    # marginal singular values
    base = np.vstack([scaling[: k_hi + 1], right_res, detail[kd]])
    for _ in range(2):
        comp = comp - (comp @ base.T) @ base
        comp = _mgs(comp)

    n_extra = n_right - N  # complement rows that go to the scaling side
    if n_extra:
        scaling[half - n_right : half - N] = comp[-n_extra:]
        comp = comp[:-n_extra]
    scaling[half - N :] = right_res
    free = np.concatenate([np.arange(kd_lo), np.arange(k_hi + 1, half)])
    detail[free] = comp

    T = np.vstack([scaling, detail])
    err = np.max(np.abs(T @ T.T - np.eye(L)))
    if err > _ORTHO_TOL:
        raise GeometryError(f"level map failed orthogonality check ({err:.2e})")
    return _LevelBlock(scaling, detail, n_right)


@dataclass
class DenseSystem:
    """Explicit orthogonal transform for the interval wavelet basis.

    ``matrix`` maps samples to sqrt(n)-scaled coefficients, ordered approx
    block first, then detail levels coarse to fine.  ``scaling_rows[j]`` holds
    the composed scaling analysis rows of level j (2**j x n), used for the
    per-level coefficient weights.
    """

    moments: int
    coarse_level: int
    n: int
    matrix: np.ndarray
    scaling_rows: dict[int, np.ndarray] = field(repr=False)
    detail_rows: dict[int, np.ndarray] = field(repr=False)
    c_phi_estimate: float = 1.0

    @property
    def finest_level(self) -> int:
        return int(math.log2(self.n))


def build_dense_system(moments: int, n: int, coarse_level: int) -> DenseSystem:
    """Assemble the n x n orthogonal interval wavelet matrix."""
    if not is_power_of_two(n) or n < 2:
        raise GeometryError(f"n must be a power of two >= 2, got {n}")
    J = int(math.log2(n))
    if not min_coarse_level(moments) <= coarse_level <= J:
        raise GeometryError(
            f"coarse level {coarse_level} out of range "
            f"[{min_coarse_level(moments)}, {J}] for N={moments}"
        )
    h = daubechies_filter(moments)
    # changed: one Legendre basis per end, scaled to a window at that end
    left, right = _sample_bases(n, moments)

    cum = np.eye(n)
    scaling_rows = {J: cum}
    detail_rows: dict[int, np.ndarray] = {}
    margin_left = margin_right = 0
    for m in range(J - 1, coarse_level - 1, -1):
        block = _level_block(h, 2 ** (m + 1), left, right, margin_left,
                             margin_right)
        detail_rows[m] = block.detail @ cum
        cum = block.scaling @ cum
        scaling_rows[m] = cum
        # changed: propagate each end's basis, rescaled at that end
        left_cols, right_cols = _end_cols(2 ** m, moments)
        left = _level_basis(np.vstack([block.scaling @ v for v in left.vecs]),
                            left_cols)
        right = _level_basis(np.vstack([block.scaling @ v for v in right.vecs]),
                             right_cols)
        margin_left = 0 if moments == 1 else moments
        margin_right = block.margin_right

    W = np.vstack([scaling_rows[coarse_level]]
                  + [detail_rows[j] for j in range(coarse_level, J)])
    c_phi = 1.0
    for j in range(coarse_level, J):
        f = 2.0 ** ((J - j) / 2.0)
        c_phi = max(c_phi, f * np.max(np.abs(scaling_rows[j])),
                    f * np.max(np.abs(detail_rows[j])))
    return DenseSystem(
        moments=moments, coarse_level=coarse_level, n=n, matrix=W,
        scaling_rows=scaling_rows, detail_rows=detail_rows,
        c_phi_estimate=float(c_phi),
    )


