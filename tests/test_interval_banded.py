"""The banded interval transform against the dense oracle, and at sizes the
dense form cannot reach."""

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
    interval_dwt,
    interval_idwt,
    min_coarse_level,
)

TOL = 1e-8


def _dense_row(dense, j, k, kind):
    rows = dense.scaling_rows if kind == "scaling" else dense.detail_rows
    return rows[j][k]


def _as_dense(row, n):
    full = np.zeros(n)
    full[row.offset : row.offset + len(row.values)] = row.values
    return full


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

    assert system.c_phi_estimate == pytest.approx(dense.c_phi_estimate, rel=1e-12)


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


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("lead", [(), (1,), (3,), (40,), (2, 5)])
def test_batched_rows_equal_single_rows_bit_for_bit(N, lead):
    """A row of a batch goes through the same operations as the row alone,
    whatever the leading shape, so batching cannot change a trial's bits."""
    n = 256
    system = build_interval_system(N, n, min_coarse_level(N))
    rng = np.random.default_rng(N)
    x = rng.standard_normal(lead + (n,))
    coeffs, back = system.analyze(x), system.synthesize(x)
    assert coeffs.shape == back.shape == x.shape
    for idx in np.ndindex(*lead):
        assert np.array_equal(coeffs[idx], system.analyze(x[idx]))
        assert np.array_equal(back[idx], system.synthesize(x[idx]))
