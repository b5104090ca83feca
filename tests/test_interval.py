import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveshrink.interval import (
    GeometryError,
    build_interval_system,
    daubechies_filter,
    highpass_from_lowpass,
    interval_dwt,
    interval_idwt,
    min_coarse_level,
)
from waveshrink.transform import HaarSystem, haar_dwt

TOL = 1e-8


@pytest.fixture(scope="module")
def systems():
    """Interval systems keyed by (N, n), and the Haar system under ("haar", n)."""
    out = {(N, n): build_interval_system(N, n, min_coarse_level(N))
           for N in (1, 2, 3) for n in (128, 256)}
    out.update({("haar", n): HaarSystem(n, 0) for n in (128, 256)})
    return out


class TestFilters:
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    def test_quadrature_conditions(self, N):
        h = daubechies_filter(N)
        assert len(h) == 2 * N
        assert np.sum(h) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        for shift in range(1, N):
            assert np.dot(h[: -2 * shift], h[2 * shift:]) == pytest.approx(
                0.0, abs=1e-12)
        assert np.dot(h, h) == pytest.approx(1.0, abs=1e-12)

    def test_haar_filter(self):
        assert np.allclose(daubechies_filter(1), [1, 1] / np.sqrt(2))

    def test_highpass_moments(self):
        for N in (2, 3):
            g = highpass_from_lowpass(daubechies_filter(N))
            k = np.arange(len(g))
            for p in range(N):
                assert abs(np.sum(g * k ** p)) < 1e-9

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            daubechies_filter(6)
        with pytest.raises(ValueError):
            daubechies_filter(0)


class TestOrthogonality:
    @pytest.mark.parametrize("N", [1, 2, 3, "haar"])
    @pytest.mark.parametrize("n", [128, 256])
    def test_matrix_is_orthogonal(self, systems, N, n):
        # row i is W e_i: the transpose of W, in one batched call
        Wt = systems[(N, n)].analyze(np.eye(n))
        assert np.max(np.abs(Wt @ Wt.T - np.eye(n))) < TOL

    @pytest.mark.parametrize("N", [1, 2, 3, "haar"])
    def test_round_trip(self, systems, N):
        rng = np.random.default_rng(N if N != "haar" else 0)
        system = systems[(N, 256)]
        y = rng.standard_normal(256)
        assert np.max(np.abs(system.synthesize(system.analyze(y)) - y)) < TOL
        back = interval_idwt(interval_dwt(y, system), system)
        assert np.max(np.abs(back - y)) < TOL

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_random(self, systems, seed):
        rng = np.random.default_rng(seed)
        y = rng.uniform(-10, 10, 128)
        for system in (systems[(2, 128)], systems[("haar", 128)]):
            back = system.synthesize(system.analyze(y))
            assert np.max(np.abs(back - y)) < TOL


class TestVanishingMoments:
    @pytest.mark.parametrize("N", [2, 3])
    def test_details_annihilate_polynomials(self, systems, N):
        system = systems[(N, 256)]
        t = np.arange(1, 257) / 256
        for p in range(N):
            pyr = interval_dwt(t ** p, system)
            worst = max(np.max(np.abs(d)) for d in pyr.details)
            assert worst < 1e-9

    def test_haar_case_matches_fast_transform(self, systems):
        system = systems[(1, 256)]
        rng = np.random.default_rng(7)
        y = rng.standard_normal(256)
        a = interval_dwt(y, system).flat()
        b = haar_dwt(y, 0).flat()
        assert np.max(np.abs(np.abs(a) - np.abs(b))) < 1e-10

    def test_smooth_signal_decay_slope(self, systems):
        system = build_interval_system(2, 1024, min_coarse_level(2))
        f = np.sin(2 * math.pi * np.arange(1, 1025) / 1024)
        pyr = interval_dwt(f, system)
        js = np.arange(system.coarse_level, pyr.finest_level)
        maxima = [np.max(np.abs(pyr.detail(j))) for j in js]
        slope = np.polyfit(js, np.log2(maxima), 1)[0]
        assert slope <= -2.3


class TestWeights:
    """Composed rows (:meth:`IntervalSystem.row`), which c_phi reads, against
    the transform."""

    def test_haar_weights_are_unit(self, systems):
        system = systems[(1, 256)]
        factor = 2.0 ** ((system.finest_level - 3) / 2.0)
        for kind in ("scaling", "detail"):
            offset, values = system.row(3, 2, kind)
            assert offset == 2 * 32
            assert np.allclose(np.abs(values * factor), 1.0, atol=1e-12)

    @pytest.mark.parametrize("N", [2, 3])
    def test_weight_identity(self, systems, N):
        system = systems[(N, 256)]
        rng = np.random.default_rng(N + 10)
        y = rng.standard_normal(256)
        pyr = interval_dwt(y, system)
        J, J0 = system.finest_level, system.coarse_level

        def coeff(j, k, kind):
            offset, values = system.row(j, k, kind)
            return 2.0 ** (-J / 2.0) * float(values @ y[offset : offset + len(values)])

        for j in (J0, J - 2):
            for k in (0, 2 ** j - 1, 2 ** (j - 1)):
                assert pyr.detail(j)[k] == pytest.approx(coeff(j, k, "detail"),
                                                         abs=1e-10)
        for k in range(2 ** J0):
            assert pyr.approx[k] == pytest.approx(coeff(J0, k, "scaling"), abs=1e-10)

    def test_c_phi_at_least_one(self, systems):
        for system in systems.values():
            assert system.c_phi_estimate >= 1.0


class TestGeometryAndSerialization:
    def test_geometry_errors(self):
        with pytest.raises(GeometryError):
            build_interval_system(2, 100, 3)
        with pytest.raises(GeometryError):
            build_interval_system(2, 128, min_coarse_level(2) - 1)
        with pytest.raises(GeometryError):
            build_interval_system(2, 128, 8)

    def test_min_coarse_level_values(self):
        assert min_coarse_level(1) == 0
        assert min_coarse_level(2) == 1 + math.ceil(math.log2(3))
        assert min_coarse_level(3) == 1 + math.ceil(math.log2(5))

    def test_dwt_length_mismatch(self, systems):
        with pytest.raises(ValueError):
            interval_dwt(np.zeros(64), systems[(2, 128)])

    @pytest.mark.parametrize("length", [128, 512, 255])
    @pytest.mark.parametrize("method", ["analyze", "synthesize"])
    @pytest.mark.parametrize("N", [2, "haar"])
    def test_wrong_last_axis_rejected(self, systems, N, method, length):
        # 512 is a valid Haar length and a whole number of interval blocks:
        # only the system's own n may pass
        with pytest.raises(ValueError, match="last axis"):
            getattr(systems[(N, 256)], method)(np.ones((2, length)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_dwt_rejects_non_finite(self, systems, bad):
        y = np.zeros(128)
        y[5] = bad
        with pytest.raises(ValueError, match="finite"):
            interval_dwt(y, systems[(2, 128)])

    def test_dwt_rejects_non_vector(self, systems):
        with pytest.raises(ValueError):
            interval_dwt(np.zeros((2, 64)), systems[(2, 128)])
