"""The banded interval transform against the dense oracle, and at sizes the
dense form cannot reach."""
import math

import numpy as np
import pytest
from dense_oracle import build_dense_system

from waveshrink.interval import (
    KINDS,
    GeometryError,
    _Band,
    _graded_right_vectors,
    _level_basis,
    _residuals,
    _sample_bases,
    build_interval_system,
    daubechies_filter,
    extract_weights,
    interval_dwt,
    interval_idwt,
    min_coarse_level,
)
from waveshrink.noise import NOISE_FAMILIES, NoiseSpec, in_event_A, sample_noise

TOL = 1e-8


def _dense_row(dense, j, k, kind):
    rows = dense.scaling_rows if kind == "scaling" else dense.detail_rows
    return rows[j][k]


def _as_dense(row, n):
    full = np.zeros(n)
    full[row.offset : row.offset + len(row.values)] = row.values
    return full


def _dense_weights(dense, j, k):
    """extract_weights on the dense rows, as the dense system computed it."""
    factor = 2.0 ** ((dense.finest_level - j) / 2.0)
    a_row = dense.scaling_rows[j][k] * factor
    b_row = dense.detail_rows[j][k] * factor
    support = np.nonzero((np.abs(a_row) > 1e-14) | (np.abs(b_row) > 1e-14))[0]
    lo, hi = support[0], support[-1] + 1
    return a_row[lo:hi], b_row[lo:hi], int(lo)


def _dense_event_A(e, b, dense):
    """The interval branch of in_event_A on dense composed rows: each row
    summed over its own dyadic block.  Near-ties go to the first block, as in
    the banded version; translates of one row differ in their last bits here."""
    n = len(e)
    J = int(math.log2(n))
    log_j = int(math.log2(J))
    margin, worst = 0.0, (-1, 0)
    for level_offset in range(-1, J - log_j + 1):
        bound = b * J * 2.0 ** (level_offset / 2.0) * math.sqrt(0.5 * math.log(2.0))
        j = J - log_j - level_offset
        if not dense.coarse_level <= j < J:
            continue
        n_blocks, stride = 2 ** j, 2 ** (J - j)
        factor = 2.0 ** ((J - j) / 2.0)
        for rows in (dense.scaling_rows[j], dense.detail_rows[j]):
            sums = np.array([rows[k, k * stride : (k + 1) * stride] * factor
                             @ e[k * stride : (k + 1) * stride]
                             for k in range(n_blocks)])
            mags = np.abs(sums)
            k = int(np.argmax(mags >= np.max(mags) * (1.0 - 1e-12)))
            if mags[k] / bound > margin:
                margin, worst = mags[k] / bound, (level_offset, k)
    return margin <= 1.0, worst, margin


@pytest.mark.parametrize("N", range(1, 6))
@pytest.mark.parametrize("n", [2 ** J for J in range(5, 12)])
def test_matches_dense_oracle(N, n):
    J0 = min_coarse_level(N)
    try:
        system = build_interval_system(N, n, J0)
    except GeometryError:
        with pytest.raises(GeometryError):
            build_dense_system(N, n, J0)
        return
    dense = build_dense_system(N, n, J0)

    y = np.random.default_rng(N * n).standard_normal((3, n))
    assert np.max(np.abs(system.analyze(y) - y @ dense.matrix.T)) < 1e-12
    assert np.max(np.abs(system.synthesize(y) - y @ dense.matrix)) < 1e-12

    for j in range(J0, system.finest_level):
        for kind in KINDS:
            for k in range(2 ** j):
                got = _as_dense(system.row(j, k, kind), n)
                assert np.max(np.abs(got - _dense_row(dense, j, k, kind))) < 1e-12
        for k in {0, 2 ** j // 2, 2 ** j - 1}:
            w = extract_weights(system, j, k)
            alphas, betas, offset = _dense_weights(dense, j, k)
            assert w.offset == offset
            assert np.max(np.abs(w.alphas - alphas), initial=0.0) < 1e-12
            assert np.max(np.abs(w.betas - betas), initial=0.0) < 1e-12

    assert system.c_phi_estimate == pytest.approx(dense.c_phi_estimate, rel=1e-12)


@pytest.mark.parametrize("family", NOISE_FAMILIES)
def test_event_A_matches_dense_oracle(family):
    N, n = 2, 256
    dense = build_dense_system(N, n, min_coarse_level(N))
    system = build_interval_system(N, n, min_coarse_level(N))
    for seed in range(200):
        e = sample_noise(NoiseSpec(family, 1.0, seed), n)
        rep = in_event_A(e, 1.0, system)
        member, worst, margin = _dense_event_A(e, 1.0, dense)
        assert rep.member == member
        assert rep.worst_block == worst
        assert rep.margin == pytest.approx(margin, abs=1e-12)


@pytest.mark.parametrize("N, n", [(2, 256), (2, 2048), (3, 128)])
def test_boundary_rule_matches_direct_residuals(N, n):
    """Left boundary scaling rows: the principal directions of the residuals
    of the sampled Legendre polynomials at the finest level, and of an
    orthonormal basis of the carried span one level down.  At these sizes
    forming those residuals directly is accurate, and gives the same rows."""
    h = daubechies_filter(N)
    win = 4 * N - 2

    def compare(vecs, basis, L):
        band = _Band(h, N, L // 2 - 1 - 2 * N)
        direct = np.linalg.svd(_residuals(band, vecs, win, win)[:, :win])[2][:N]
        rows = _graded_right_vectors(
            basis.factor @ _residuals(band, basis.vecs, win, win)[:, :win])
        rows *= np.sign(np.sum(rows * direct, axis=1))[:, None]
        assert np.max(np.abs(rows - direct)) < 1e-10

    t = np.arange(1, n + 1) / n
    legendre = np.vstack([np.polynomial.Legendre.basis(i, domain=[0, 1])(t)
                          for i in range(N)])
    left, _ = _sample_bases(n, N)
    compare(legendre, left, n)

    level = build_interval_system(N, n, min_coarse_level(N)).levels[-1]
    coarse = level.analyze(left.vecs)[:, : n // 2]
    orthonormal = np.linalg.qr(coarse.T)[0].T
    compare(orthonormal, _level_basis(coarse, slice(0, 4 * N)), n // 2)


@pytest.fixture(scope="module", params=[(N, J) for N in range(1, 6) for J in (14, 16)],
                ids=lambda p: f"N{p[0]}-n2^{p[1]}")
def large(request):
    N, J = request.param
    return build_interval_system(N, 2 ** J, min_coarse_level(N))


class TestLargeSizes:
    def test_round_trip(self, large):
        y = np.random.default_rng(1).standard_normal(large.n)
        back = interval_idwt(interval_dwt(y, large), large)
        assert np.max(np.abs(back - y)) < TOL

    def test_details_annihilate_polynomials(self, large):
        t = np.arange(1, large.n + 1) / large.n
        for p in range(large.moments):
            pyr = interval_dwt(t ** p, large)
            assert max(np.max(np.abs(d)) for d in pyr.details) < 1e-9

    def test_inner_products_preserved(self, large):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, large.n))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        Wx = large.analyze(x)
        assert np.max(np.abs(Wx @ Wx.T - x @ x.T)) < 1e-9


@pytest.mark.parametrize("N", range(1, 6))
def test_storage_is_linear(N):
    small = build_interval_system(N, 2 ** 12, min_coarse_level(N))
    big = build_interval_system(N, 2 ** 16, min_coarse_level(N))
    assert big.nbytes <= 17 * small.nbytes


def test_row_matches_analysis():
    system = build_interval_system(3, 512, min_coarse_level(3))
    y = np.random.default_rng(4).standard_normal(512)
    coeffs = system.analyze(y)
    pos = 2 ** system.coarse_level
    for j in range(system.coarse_level, system.finest_level):
        for k in (0, 1, 2 ** j - 2, 2 ** j - 1):
            row = system.row(j, k)
            seg = y[row.offset : row.offset + len(row.values)]
            assert coeffs[pos + k] == pytest.approx(row.values @ seg, abs=1e-12)
        pos += 2 ** j


def test_clean_shifts_are_translates():
    system = build_interval_system(2, 1024, min_coarse_level(2))
    for j in range(system.coarse_level, system.finest_level):
        for kind in KINDS:
            clean = system.clean_shifts(j, kind)
            assert len(clean) > 0
            first = system.row(j, clean[0], kind)
            for k in (clean[-1], clean[len(clean) // 2]):
                row = system.row(j, k, kind)
                assert row.offset == first.offset + (k - clean[0]) * 2 ** (10 - j)
                assert np.array_equal(row.values, first.values)


def test_row_rejects_bad_arguments():
    system = build_interval_system(2, 128, min_coarse_level(2))
    with pytest.raises(IndexError):
        system.row(system.finest_level, 0)
    with pytest.raises(IndexError):
        system.row(system.coarse_level, 2 ** system.coarse_level)
    with pytest.raises(ValueError):
        system.row(system.coarse_level, 0, "wavelet")
