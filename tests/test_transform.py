import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveshrink.transform import (
    CoefficientPyramid,
    HaarSystem,
    haar_analyze,
    haar_coeff_closed_form,
    haar_dwt,
    haar_idwt,
    haar_synthesize,
    is_power_of_two,
)


def _signals(max_log_n=10):
    return st.integers(1, max_log_n).flatmap(
        lambda j: st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=2 ** j, max_size=2 ** j,
        )
    )


class TestRoundTrip:
    @given(_signals())
    @settings(max_examples=60, deadline=None)
    def test_idwt_inverts_dwt(self, values):
        y = np.asarray(values)
        scale = max(1.0, np.max(np.abs(y)))
        for coarse in {0, int(np.log2(len(y)))}:
            back = haar_idwt(haar_dwt(y, coarse))
            assert np.max(np.abs(back - y)) <= 1e-10 * scale

    @given(_signals())
    @settings(max_examples=60, deadline=None)
    def test_parseval_in_discrete_convention(self, values):
        y = np.asarray(values)
        flat = haar_dwt(y, 0).with_scaling(True).flat()
        scale = max(1.0, float(np.sum(y ** 2)))
        assert abs(np.sum(flat ** 2) - np.sum(y ** 2)) <= 1e-10 * scale

    def test_integral_convention_energy(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(256)
        flat = haar_dwt(y, 0).flat()
        assert abs(np.sum(flat ** 2) - np.mean(y ** 2)) < 1e-12


class TestOracle:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_pyramid_matches_blockwise_summation(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(64)
        pyr = haar_dwt(y, 0)
        levels = pyr.finest_level
        assert abs(pyr.approx[0]
                   - haar_coeff_closed_form(y, 0, 0, "approx")) < 1e-12
        for j in range(levels):
            for k in range(2 ** j):
                assert abs(pyr.detail(j)[k]
                           - haar_coeff_closed_form(y, j, k, "detail")) < 1e-12

    def test_closed_form_index_errors(self):
        y = np.ones(16)
        with pytest.raises(IndexError):
            haar_coeff_closed_form(y, 5, 0, "detail")
        with pytest.raises(IndexError):
            haar_coeff_closed_form(y, 2, 4, "detail")
        with pytest.raises(IndexError):
            haar_coeff_closed_form(y, 4, 0, "detail")  # finest level: approx only
        with pytest.raises(ValueError):
            haar_coeff_closed_form(y, 0, 0, "other")


class TestValidation:
    @pytest.mark.parametrize("n", [0, 1, 3, 6, 100])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError):
            haar_dwt(np.zeros(n), 0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            haar_dwt([1.0, np.nan, 0.0, 0.0], 0)

    def test_rejects_bad_coarse_level(self):
        with pytest.raises(ValueError):
            haar_dwt(np.zeros(8), 4)
        with pytest.raises(ValueError):
            haar_dwt(np.zeros(8), -1)

    def test_pyramid_shape_invariants(self):
        with pytest.raises(ValueError):
            CoefficientPyramid(0, np.zeros(2), ())
        with pytest.raises(ValueError):
            CoefficientPyramid(0, np.zeros(1), (np.zeros(3),))

    def test_is_power_of_two(self):
        assert [n for n in range(1, 20) if is_power_of_two(n)] == [1, 2, 4, 8, 16]


class TestPyramidApi:
    def test_with_scaling_round_trips(self):
        pyr = haar_dwt(np.arange(16.0), 2)
        again = pyr.with_scaling(True).with_scaling(False)
        assert np.allclose(again.flat(), pyr.flat(), atol=1e-14)

    def test_detail_indexing(self):
        pyr = haar_dwt(np.arange(32.0), 1)
        assert pyr.finest_level == 5
        assert len(pyr.detail(3)) == 8
        with pytest.raises(IndexError):
            pyr.detail(5)
        with pytest.raises(IndexError):
            pyr.detail(0)


def _recursive_haar_dwt(values, coarse_level):
    """haar_dwt as a per-level recursion on pyramid arrays, the form it had
    before the flat batched kernel: the bits the wrappers must reproduce."""
    s = np.asarray(values, dtype=float).copy()
    details = []
    for _ in range(int(np.log2(len(s))) - coarse_level):
        even, odd = s[0::2], s[1::2]
        details.append((even - odd) / np.sqrt(2.0))
        s = (even + odd) / np.sqrt(2.0)
    details.reverse()
    factor = 1.0 / np.sqrt(len(values))
    return s * factor, [d * factor for d in details]


def _recursive_haar_idwt(pyramid):
    factor = np.sqrt(pyramid.n)
    s = pyramid.approx * factor
    for d in pyramid.details:
        d = d * factor
        out = np.empty(2 * len(s))
        out[0::2] = (s + d) / np.sqrt(2.0)
        out[1::2] = (s - d) / np.sqrt(2.0)
        s = out
    return s


class TestFlatKernel:
    @given(st.integers(1, 12), st.data(), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_wrappers_match_the_recursion_bit_for_bit(self, J, data, seed):
        coarse = data.draw(st.integers(0, J))
        y = np.random.default_rng(seed).standard_normal(2 ** J) * 10.0 ** (seed % 7 - 3)
        pyr = haar_dwt(y, coarse)
        approx, details = _recursive_haar_dwt(y, coarse)
        assert np.array_equal(pyr.approx, approx)
        assert len(pyr.details) == len(details)
        for got, want in zip(pyr.details, details):
            assert np.array_equal(got, want)
        assert np.array_equal(haar_idwt(pyr), _recursive_haar_idwt(pyr))

    def test_flat_layout_is_the_scaled_pyramid(self):
        y = np.random.default_rng(1).standard_normal(64)
        flat = haar_analyze(y, 2)
        assert np.array_equal(flat, haar_dwt(y, 2).scaled_flat())
        assert np.allclose(haar_synthesize(flat, 2), y, atol=1e-13)

    @pytest.mark.parametrize("lead", [(), (1,), (3,), (40,), (2, 5)])
    def test_batched_rows_equal_single_rows_bit_for_bit(self, lead):
        x = np.random.default_rng(7).standard_normal(lead + (128,))
        for coarse in (0, 3, 7):
            coeffs = haar_analyze(x, coarse)
            back = haar_synthesize(coeffs, coarse)
            for idx in np.ndindex(*lead):
                assert np.array_equal(coeffs[idx], haar_analyze(x[idx], coarse))
                assert np.array_equal(back[idx], haar_synthesize(coeffs[idx], coarse))

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            haar_analyze(np.zeros((2, 6)), 0)
        with pytest.raises(ValueError):
            haar_synthesize(np.zeros(8), 4)

    def test_coarsest_level_returns_a_copy(self):
        c = np.arange(4.0)
        out = haar_synthesize(c, 2)
        out[0] = 9.0
        assert c[0] == 0.0


class TestHaarSystem:
    def test_interface(self):
        system = HaarSystem(64, 2)
        assert (system.n, system.coarse_level, system.finest_level) == (64, 2, 6)
        assert (system.moments, system.c_phi_estimate) == (1, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            system.coarse_level = 3

    def test_applies_the_flat_kernels(self):
        x = np.random.default_rng(2).standard_normal((3, 64))
        system = HaarSystem(64, 2)
        assert np.array_equal(system.analyze(x), haar_analyze(x, 2))
        assert np.array_equal(system.synthesize(x), haar_synthesize(x, 2))

    @pytest.mark.parametrize("n, coarse", [(6, 0), (1, 0), (8, 4), (8, -1)])
    def test_rejects_bad_geometry(self, n, coarse):
        with pytest.raises(ValueError):
            HaarSystem(n, coarse)
