"""The banded interval transform against the dense oracle, and at sizes the
dense form cannot reach."""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from dense_oracle import build_dense_system

from waveshrink import interval
from waveshrink.interval import (
    _FRAME,
    KINDS,
    GeometryError,
    IntervalSystem,
    _Band,
    _Edge,
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
from waveshrink.shrinkage import wavelet_system
from waveshrink.transform import HaarSystem, finest_level

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
    """At N = 1 the pipeline's interval system is HaarSystem, which has no
    composed rows; the transform and c_phi are compared all the same."""
    J0 = min_coarse_level(N)
    try:
        if N == 1:
            system = wavelet_system("interval", n, 1.0, 1)
            assert isinstance(system, HaarSystem) and system.coarse_level == J0
        else:
            system = build_interval_system(N, n, J0)
    except GeometryError:
        with pytest.raises(GeometryError):
            build_dense_system(N, n, J0)
        return
    dense = build_dense_system(N, n, J0)

    y = np.random.default_rng(N * n).standard_normal((3, n))
    assert np.max(np.abs(system.analyze(y) - y @ dense.matrix.T)) < 1e-12
    assert np.max(np.abs(system.synthesize(y) - y @ dense.matrix)) < 1e-12

    if N > 1:
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
    finest = IntervalSystem(N, finest_level(n) - 1, n, (level,))
    coarse = finest.analyze(left.vecs)[:, : n // 2]
    orthonormal = np.linalg.qr(coarse.T)[0].T
    compare(orthonormal, _level_basis(coarse, slice(0, 4 * N)), n // 2)


@pytest.fixture(scope="module", params=[(N, J) for N in range(2, 6) for J in (14, 16)],
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


@pytest.mark.parametrize("N", range(2, 6))
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


@pytest.mark.parametrize("N", [2, 3, 4, 5])
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


def _edge_by_columns(edge, x):
    """The edge rows applied to the window of x one column at a time: the
    reference order of the running sum that _Edge.apply must keep."""
    acc = x[..., edge.start, None] * edge.rows[:, 0]
    for s in range(1, edge.rows.shape[1]):
        acc += x[..., edge.start + s, None] * edge.rows[:, s]
    return acc


def _edge_transpose_by_rows(edge, c):
    """The transpose of the edge rows applied to the stacked coefficients c
    one row at a time: the reference for _Edge.apply_transpose."""
    acc = c[..., edge.index[0], None] * edge.rows[0]
    for r in range(1, len(edge.index)):
        acc += c[..., edge.index[r], None] * edge.rows[r]
    return acc


@pytest.mark.parametrize("N", [2, 3, 4, 5])
@pytest.mark.parametrize("lead", [(), (1,), (32,), (2, 5)])
def test_edge_products_match_the_column_loop(N, lead):
    """apply keeps the column loop's bytes, and apply_transpose, on the
    coefficients laid out by kind, the row loop's."""
    system = build_interval_system(N, 1024, min_coarse_level(N))
    x = np.random.default_rng(N).standard_normal(lead + (1024,))
    for level in system.levels:
        for edge in level.edges:
            assert isinstance(edge, _Edge)
            xs = x[..., : level.size]
            assert edge.apply(xs).tobytes() == _edge_by_columns(edge, xs).tobytes()
            by_kind = xs.reshape(lead + (2, level.size // 2))
            assert (edge.apply_transpose(by_kind).tobytes()
                    == _edge_transpose_by_rows(edge, xs).tobytes())


# The strided band loops the interval transform ran before _Band.analyze and
# _Band.synthesize held the one interior filter product, with the drivers
# that copied each level's details out and concatenated them back.  Under
# _band_loops() every caller of the kernel runs this code instead, so a
# system built and applied there is the reference for the one built and
# applied with the kernel.  Applied to a system whose small levels keep one
# edge (_whole_frame_edges), they are also the transform as it ran before
# each level became one stream over the batch with one edge per end.
def _loop_level_analyze(level, x):
    out = np.empty(x.shape)
    half = level.size // 2
    for band, base in ((level.scaling, 0), (level.detail, half)):
        seg = out[..., base + band.lo : base + band.hi + 1]
        stop = 2 * band.hi + 1
        seg[...] = band.taps[0] * x[..., 2 * band.lo : stop : 2]
        for s in range(1, len(band.taps)):
            seg += band.taps[s] * x[..., 2 * band.lo + s : stop + s : 2]
    for e in level.edges:
        out[..., e.index] = e.apply(x)
    return out


def _loop_level_synthesize(level, c):
    x = np.zeros(c.shape)
    half = level.size // 2
    for band, base in ((level.scaling, 0), (level.detail, half)):
        seg = c[..., base + band.lo : base + band.hi + 1]
        stop = 2 * band.hi + 1
        for s, tap in enumerate(band.taps):
            x[..., 2 * band.lo + s : stop + s : 2] += tap * seg
    for e in level.edges:
        x[..., e.start : e.stop] += _edge_transpose_by_rows(e, c)
    return x


def _loop_lift(level, start, values):
    stop = start + len(values)
    pieces = []
    for band, base in ((level.scaling, 0), (level.detail, level.size // 2)):
        lo, hi = max(start - base, band.lo), min(stop - 1 - base, band.hi)
        if lo <= hi:
            seg = values[base + lo - start : base + hi - start + 1]
            acc = np.zeros(2 * (hi - lo) + len(band.taps))
            for s, tap in enumerate(band.taps):
                acc[s : s + 2 * (hi - lo) + 1 : 2] += tap * seg
            pieces.append((2 * lo, acc))
    for e in level.edges:
        sel = np.nonzero((e.index >= start) & (e.index < stop))[0]
        if len(sel):
            pieces.append((e.start, values[e.index[sel] - start] @ e.rows[sel]))
    return interval._merge(pieces)


def _loop_residuals(band, vecs, mid_lo, mid_hi):
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


def _loop_analyze(system, samples):
    s = np.asarray(samples, dtype=float)
    coeffs = np.empty(s.shape)
    for level in reversed(system.levels):
        out = _loop_level_analyze(level, s)
        half = level.size // 2
        coeffs[..., half : level.size] = out[..., half:]
        s = out[..., :half]
    coeffs[..., : s.shape[-1]] = s
    return coeffs


def _loop_synthesize(system, coeffs):
    c = np.asarray(coeffs, dtype=float)
    pos = 2 ** system.coarse_level
    s = c[..., :pos]
    for level in system.levels:
        half = level.size // 2
        s = _loop_level_synthesize(level, np.concatenate([s, c[..., pos : pos + half]], axis=-1))
        pos += half
    return s


@contextmanager
def _band_loops():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interval, "_residuals", _loop_residuals)
        mp.setattr(interval._Level, "lift", _loop_lift)
        mp.setattr(interval.IntervalSystem, "analyze", _loop_analyze)
        mp.setattr(interval.IntervalSystem, "synthesize", _loop_synthesize)
        yield


def _outputs(system, inputs):
    """Bytes of everything a system gives out: its edges and c_phi, analysis
    and synthesis of each input, and rows at five shifts per level."""
    out = [system.c_phi_estimate.hex()]
    out += [(e.index.tobytes(), e.start, e.rows.tobytes())
            for level in system.levels for e in level.edges]
    out += [(system.analyze(x).tobytes(), system.synthesize(x).tobytes()) for x in inputs]
    for j in range(system.coarse_level, system.finest_level):
        for kind in KINDS:
            for k in sorted({0, 1, 2 ** j // 2, 2 ** j - 2, 2 ** j - 1}):
                row = system.row(j, k, kind)
                out.append((row.offset, row.values.tobytes()))
    return out


@pytest.mark.parametrize("N", [2, 3, 4, 5])
@pytest.mark.parametrize("J", [6, 9, 12])
def test_band_kernel_matches_the_band_loops(N, J):
    """Built and applied with the kernel or with the loops it replaced, a
    system gives out the same bytes, 1-D and batched."""
    n = 2 ** J
    rng = np.random.default_rng(J)
    inputs = [rng.standard_normal(n), rng.standard_normal((3, n)),
              rng.standard_normal((2, 5, n))]
    for J0 in sorted({min_coarse_level(N), J - 1}):
        with _band_loops():
            expected = _outputs(build_interval_system(N, n, J0), inputs)
        assert _outputs(build_interval_system(N, n, J0), inputs) == expected


# How IntervalSystem.row composed a row before every row came from the
# transpose: the row was looked up at its own level (in the edges, or laid
# out as (2k, taps) in a band) and lifted through the finer levels only.
# The reference build in _assert_rows_match_the_looked_up_rows runs its c_phi
# loop on this code.
def _looked_up_level_row(level, i):
    for e in level.edges:
        hit = np.nonzero(e.index == i)[0]
        if len(hit):
            return e.start, e.rows[hit[0]]
    half = level.size // 2
    band, k = (level.scaling, i) if i < half else (level.detail, i - half)
    return 2 * k, band.taps


def _looked_up_row(system, j, k, kind="detail"):
    i = j - system.coarse_level
    start, values = _looked_up_level_row(system.levels[i],
                                         k if kind == "scaling" else 2 ** j + k)
    for finer in system.levels[i + 1 :]:
        start, values = _loop_lift(finer, start, values)
    return interval.BasisRow(start, np.array(values))


def _assert_rows_match_the_looked_up_rows(system, shifts):
    """Rows from the transpose equal the looked-up rows in offset and values
    (np.array_equal: an edge entry looked up as -0.0 comes out of the
    transpose as +0.0), and c_phi keeps every bit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interval.IntervalSystem, "row", _looked_up_row)
        expected = build_interval_system(system.moments, system.n, system.coarse_level)
    assert system.c_phi_estimate.hex() == expected.c_phi_estimate.hex()
    for j in range(system.coarse_level, system.finest_level):
        for kind in KINDS:
            for k in shifts(j):
                got, want = system.row(j, k, kind), _looked_up_row(system, j, k, kind)
                assert got.offset == want.offset
                assert np.array_equal(got.values, want.values)


@pytest.mark.parametrize("N", [2, 3, 4, 5])
@pytest.mark.parametrize("J", [6, 9, 12])
def test_rows_match_the_looked_up_rows(N, J):
    for J0 in sorted({min_coarse_level(N), J - 1}):
        system = build_interval_system(N, 2 ** J, J0)
        _assert_rows_match_the_looked_up_rows(system, lambda j: range(2 ** j))


def test_rows_match_the_looked_up_rows_at_large_sizes(large):
    _assert_rows_match_the_looked_up_rows(
        large, lambda j: sorted({0, 1, 2 ** j // 2, 2 ** j - 2, 2 ** j - 1}))


@pytest.mark.parametrize("N", [2, 3, 4])
def test_residual_check_matches_the_band_loops(N):
    """_residuals returns the same bytes as the loops, and raises exactly when
    they do, for sampled polynomials with a bump at a middle column whose
    size runs across the check's tolerance."""
    L = 256
    # the finest level's scaling band and middle columns, as _level_map has
    # them with no margins
    band = _Band(daubechies_filter(N), N, L // 2 - 1 - N)
    mid = (4 * N - 2, L - 2 * N)
    t = np.arange(1, L + 1) / L
    base = np.vstack([(3.0 * t) ** p for p in range(N)])
    raised = set()
    for col in (L // 2, L // 2 + 1):
        for size in np.geomspace(1e-9, 1e-6, 241):
            vecs = base.copy()
            vecs[:, col] += size
            try:
                expected = _loop_residuals(band, vecs, *mid)
            except GeometryError:
                with pytest.raises(GeometryError):
                    _residuals(band, vecs, *mid)
                raised.add(True)
            else:
                assert _residuals(band, vecs, *mid).tobytes() == expected.tobytes()
                raised.add(False)
    assert raised == {True, False}


def _whole_frame_edges(system):
    """``system`` with every level of one frame (L <= 2 _FRAME N) holding its
    boundary rows in one edge, in row order, over the columns they reach: the
    edges such levels had before each end got its own."""
    levels = []
    for level in system.levels:
        if level.size > 2 * _FRAME * system.moments or len(level.edges) == 1:
            levels.append(level)
            continue
        start = min(e.start for e in level.edges)
        rows = np.zeros((0, max(e.stop for e in level.edges) - start))
        for e in level.edges:
            block = np.zeros((len(e.index), rows.shape[1]))
            block[:, e.start - start : e.stop - start] = e.rows
            rows = np.vstack([rows, block])
        index = np.concatenate([e.index for e in level.edges])
        order = np.argsort(index)
        edge = _Edge(index[order], start, rows[order], np.divmod(index[order], level.size // 2))
        levels.append(replace(level, edges=(edge,)))
    return replace(system, levels=tuple(levels))


def _coarse_levels(N, J):
    J0s = [J0 for J0 in sorted({min_coarse_level(N), J - 1}) if min_coarse_level(N) <= J0 <= J]
    if not J0s:
        pytest.skip(f"no coarse level fits n = 2^{J} at N = {N}")
    return J0s


@pytest.mark.parametrize("N", [2, 3, 4, 5])
@pytest.mark.parametrize("J", [3, 6, 9, 10, 12])
def test_flat_stream_matches_the_strided_levels(N, J):
    """One stream per level over the whole batch, with one edge per end,
    gives the bytes of the strided per-row levels with whole-frame edges:
    every leading shape, a non-contiguous view, and zeros of both signs
    (signbits included).  c_phi keeps every bit of the whole-frame edges'."""
    n = 2 ** J
    rng = np.random.default_rng(J)
    for J0 in _coarse_levels(N, J):
        system = build_interval_system(N, n, J0)
        reference = _whole_frame_edges(system)
        assert interval._c_phi(reference).hex() == system.c_phi_estimate.hex()
        inputs = [rng.standard_normal(lead + (n,))
                  for lead in [(), (1,), (3,), (40,), (2, 5), (0,)]]
        inputs += [rng.standard_normal((3, 2 * n))[:, ::2], np.zeros((3, n)),
                   np.full((3, n), -0.0), np.full(n, -0.0)]
        for x in inputs:
            for got, want in ((system.analyze(x), _loop_analyze(reference, x)),
                              (system.synthesize(x), _loop_synthesize(reference, x))):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("N", [2, 5])
@pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
def test_inputs_stay_untouched(N, lead):
    """analyze and synthesize read their input and write only their output,
    which shares no memory with it; a read-only input, contiguous or a
    view, is accepted."""
    n = 256
    system = build_interval_system(N, n, min_coarse_level(N))
    rng = np.random.default_rng(N)
    for x in (rng.standard_normal(lead + (n,)), rng.standard_normal(lead + (2 * n,))[..., 1::2]):
        before = x.copy()
        x.flags.writeable = False
        for transform in (system.analyze, system.synthesize):
            out = transform(x)
            assert out.shape == x.shape and not np.shares_memory(out, x)
            assert x.tobytes() == before.tobytes()


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_edges_fit_a_frame(N):
    """Every edge spans at most one frame of columns, at every level, and
    the system holds fewer bytes than with whole-frame edges."""
    for J in range(min_coarse_level(N) + 1, 13):
        for J0 in _coarse_levels(N, J):
            system = build_interval_system(N, 2 ** J, J0)
            for level in system.levels:
                assert all(e.rows.shape[1] <= _FRAME * N for e in level.edges)
            if any(_FRAME * N < level.size <= 2 * _FRAME * N for level in system.levels):
                assert system.nbytes < _whole_frame_edges(system).nbytes
