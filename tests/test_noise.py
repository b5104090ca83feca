import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveshrink.interval import GeometryError, build_interval_system, min_coarse_level
from waveshrink.noise import (
    NOISE_FAMILIES,
    NoiseSpec,
    hoeffding_bound,
    in_event_A,
    noise_coeff_bound_check,
    sample_noise,
)
from waveshrink.transform import HaarSystem

seeds = st.integers(0, 2 ** 31 - 1)


class TestSampling:
    @pytest.mark.parametrize("family", NOISE_FAMILIES)
    @given(seed=seeds, b=st.floats(0.1, 5.0))
    @settings(max_examples=15, deadline=None)
    def test_support_bound(self, family, seed, b):
        e = sample_noise(NoiseSpec(family, b, seed), 512)
        assert np.max(np.abs(e)) <= b / 2 + 1e-15

    @pytest.mark.parametrize("family", NOISE_FAMILIES)
    def test_deterministic_given_seed(self, family):
        spec = NoiseSpec(family, 1.0, 42)
        assert np.array_equal(sample_noise(spec, 256), sample_noise(spec, 256))

    def test_rademacher_values(self):
        e = sample_noise(NoiseSpec("rademacher", 2.0, 0), 1000)
        assert set(np.unique(e)) == {-1.0, 1.0}

    @pytest.mark.parametrize("family", NOISE_FAMILIES)
    def test_empirical_mean_near_zero(self, family):
        e = sample_noise(NoiseSpec(family, 1.0, 1), 200_000)
        # CLT scale: sd of the mean is at most 0.5/sqrt(n) ~ 0.0011
        assert abs(np.mean(e)) < 0.006

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            NoiseSpec("gaussian", 1.0, 0)
        with pytest.raises(ValueError):
            NoiseSpec("uniform", 0.0, 0)
        with pytest.raises(ValueError):
            sample_noise(NoiseSpec("uniform", 1.0, 0), 0)


class TestEventA:
    def test_geometry_restrictions(self):
        with pytest.raises(GeometryError):
            in_event_A(np.zeros(100), 1.0)
        with pytest.raises(GeometryError):
            in_event_A(np.zeros(1024), 1.0)  # J = 10 is not a power of two

    def test_zero_noise_is_member(self):
        rep = in_event_A(np.zeros(256), 1.0)
        assert rep.member and rep.margin == 0.0

    def test_saturated_noise_is_not_member(self):
        # all samples at +b/2: every block sum is at its maximum
        rep = in_event_A(np.full(256, 0.5), 1.0)
        assert not rep.member and rep.margin > 1.0

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_membership_matches_direct_recomputation(self, seed):
        e = sample_noise(NoiseSpec("uniform", 1.0, seed), 256)
        J, log_j = 8, 3
        worst = 0.0
        for l in range(-1, J - log_j + 1):
            m = int(J * 2.0 ** (l - 1))
            stride = max(1, 2 * m)
            bound = 1.0 * J * 2.0 ** (l / 2.0) * math.sqrt(0.5 * math.log(2.0))
            for k in range(2 ** (J - log_j - l)):
                s = abs(np.sum(e[k * stride : k * stride + m]))
                worst = max(worst, s / bound)
        rep = in_event_A(e, 1.0)
        assert rep.margin == pytest.approx(worst, rel=1e-12)
        assert rep.member == (worst <= 1.0)
        assert in_event_A(e, 1.0, HaarSystem(256, 3)) == rep

    @pytest.mark.parametrize("system", ["haar", "interval", "haar-system"])
    def test_rejects_non_finite_noise(self, system):
        system = _system(system)
        e = np.zeros(256)
        e[17] = np.nan
        with pytest.raises(ValueError, match="finite"):
            in_event_A(e, 1.0, system)

    def test_interval_variant_runs(self):
        system = build_interval_system(2, 256, min_coarse_level(2))
        e = sample_noise(NoiseSpec("uniform", 1.0, 5), 256)
        rep = in_event_A(e, 1.0, system)
        assert isinstance(rep.member, bool)
        with pytest.raises(ValueError):
            in_event_A(sample_noise(NoiseSpec("uniform", 1.0, 5), 16), 1.0, system)

    def test_unknown_system_name(self):
        with pytest.raises(ValueError, match="unknown wavelet system"):
            in_event_A(np.zeros(256), 1.0, "daubechies")
        with pytest.raises(ValueError, match="size"):
            in_event_A(np.zeros(256), 1.0, HaarSystem(16, 0))


class TestHoeffding:
    def test_block_substitution_value(self):
        # the finest block family at n = 256: 2^l J samples per block with
        # bound b J 2^(l/2) sqrt(ln 2 / 2) gives exactly 1 - 1/n
        n, J = 256, 8
        l = J - 3  # any l: the exponent is level-independent
        m = J * 2 ** l
        t = J * 2.0 ** (l / 2.0) * math.sqrt(0.5 * math.log(2.0))
        assert hoeffding_bound(m, t, -0.5, 0.5) == pytest.approx(1 - 1 / n,
                                                                 abs=1e-12)

    @given(st.integers(1, 1000), st.floats(0.01, 100), st.floats(-5, 0.0),
           st.floats(0.1, 5))
    @settings(max_examples=50)
    def test_bound_in_unit_interval(self, m, t, lo, width):
        p = hoeffding_bound(m, t, lo, lo + width)
        # the exponential can underflow to exactly 0 for huge t
        assert 0.0 < p <= 1.0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            hoeffding_bound(0, 1.0, -1, 1)
        with pytest.raises(ValueError):
            hoeffding_bound(1, 0.0, -1, 1)
        with pytest.raises(ValueError):
            hoeffding_bound(1, 1.0, 1, -1)


class TestCoefficientBound:
    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_members_satisfy_coefficient_bound(self, seed):
        e = sample_noise(NoiseSpec("uniform", 1.0, seed), 256)
        if in_event_A(e, 1.0).member:
            assert noise_coeff_bound_check(e, 1.0)
            assert noise_coeff_bound_check(e, 1.0, HaarSystem(256, 0))

    @pytest.mark.parametrize("system", ["haar", "interval", "haar-system"])
    def test_rejects_non_finite_noise(self, system):
        system = _system(system)
        e = np.zeros(256)
        e[0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            noise_coeff_bound_check(e, 1.0, system)

    def test_large_noise_fails(self):
        assert not noise_coeff_bound_check(np.full(256, 0.5), 1.0)

    def test_haar_name_is_the_haar_system(self):
        e = sample_noise(NoiseSpec("uniform", 1.0, 3), 256)
        for coarse in (0, 4):
            for b in (0.05, 0.1, 0.2, 1.0):
                assert noise_coeff_bound_check(e, b, "haar", coarse) == \
                    noise_coeff_bound_check(e, b, HaarSystem(256, coarse))
        with pytest.raises(ValueError, match="unknown wavelet system"):
            noise_coeff_bound_check(e, 1.0, "daubechies")


def _system(name):
    """The system a parametrized test names: "haar", "interval" (N=2) or
    "haar-system" (the HaarSystem object), at n = 256."""
    if name == "interval":
        return build_interval_system(2, 256, min_coarse_level(2))
    return HaarSystem(256, 0) if name == "haar-system" else name
