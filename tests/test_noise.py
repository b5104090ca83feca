import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveshrink.interval import GeometryError, build_interval_system, min_coarse_level
from waveshrink.noise import (
    NOISE_FAMILIES,
    NoiseSpec,
    coefficient_bound,
    event_probability_floor,
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


def _oracle_truncated(rng, half, n):
    out = rng.normal(0.0, half / 2.0, n)
    bad = np.abs(out) > half
    while np.any(bad):
        out[bad] = rng.normal(0.0, half / 2.0, int(np.sum(bad)))
        bad = np.abs(out) > half
    return out


def oracle_noise(spec, n):
    """sample_noise as first written: the mixture picks from a (3, n) stack
    and the truncated Gaussian rescans all n entries after every redraw."""
    rng = np.random.default_rng(spec.seed)
    half = spec.b / 2.0
    if spec.family == "uniform":
        return rng.uniform(-half, half, n)
    if spec.family == "rademacher":
        return (2.0 * rng.integers(0, 2, n) - 1.0) * half
    if spec.family == "truncated":
        return _oracle_truncated(rng, half, n)
    draws = np.empty((3, n))
    draws[0] = rng.uniform(-half, half, n)
    draws[1] = (2.0 * rng.integers(0, 2, n) - 1.0) * half
    draws[2] = _oracle_truncated(rng, half, n)
    return draws[np.arange(n) % 3, np.arange(n)]


@pytest.mark.parametrize("family", NOISE_FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 5, 16, 256, 65536])
def test_sampling_matches_oracle_bytes(family, n):
    for k in range(20):
        # integer seeds and the SeedSequence form simulate uses
        seed = k if k % 2 else np.random.SeedSequence(7, spawn_key=(k, 3))
        spec = NoiseSpec(family, (0.5, 1.0, 3.0)[k % 3], seed)
        got, want = sample_noise(spec, n), oracle_noise(spec, n)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestEventA:
    def test_geometry_restrictions(self):
        with pytest.raises(GeometryError):
            in_event_A(np.zeros(100), 1.0)

    @pytest.mark.parametrize("n", [64, 512, 1024])
    def test_any_power_of_two(self, n):
        # J = log2 n need not be a power of two
        assert in_event_A(np.zeros(n), 1.0) == (True, 0.0)
        assert not in_event_A(np.full(n, 0.5), 1.0).member

    def test_zero_noise_is_member(self):
        rep = in_event_A(np.zeros(256), 1.0)
        assert rep.member and rep.margin == 0.0

    def test_saturated_noise_is_not_member(self):
        # all samples at +b/2: the approximation coefficient is 8 > sqrt(8)
        rep = in_event_A(np.full(256, 0.5), 1.0)
        assert not rep.member and rep.margin > 1.0

    @pytest.mark.parametrize("system", ["haar", "interval", "haar-system"])
    @given(seed=seeds, b=st.floats(0.1, 5.0))
    @settings(max_examples=20, deadline=None)
    def test_membership_is_the_largest_coefficient(self, system, seed, b):
        system = _system(system)
        e = sample_noise(NoiseSpec("uniform", b, seed), 256)
        resolved = HaarSystem(256, 0) if system == "haar" else system
        top = np.max(np.abs(resolved.analyze(e)))
        bound = coefficient_bound(b, resolved)
        assert bound == b * resolved.c_phi_estimate * math.sqrt(8)
        rep = in_event_A(e, b, system)
        assert rep == (top <= bound, top / bound)
        assert noise_coeff_bound_check(e, b, system) == rep.member

    def test_coarse_level_counts(self):
        # the constant noise 0.2081 b: its one approximation coefficient at
        # coarse level 0 is 0.2081 b * 16 > b sqrt(8); at coarse level 3 each
        # of the eight is 0.2081 b * sqrt(32) < b sqrt(8)
        e = np.full(256, 0.2081)
        assert not in_event_A(e, 1.0).member
        assert not in_event_A(e, 1.0, HaarSystem(256, 0)).member
        assert in_event_A(e, 1.0, HaarSystem(256, 3)).member

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

    @pytest.mark.parametrize("n, floor", [(2, 1 - 4 * math.exp(-2)),
                                          (16, 1 - 32 * math.exp(-8)),
                                          (256, 1 - 512 * math.exp(-16))])
    def test_event_probability_floor(self, n, floor):
        assert event_probability_floor(HaarSystem(n, 0)) == \
            pytest.approx(floor, rel=1e-13)

    def test_event_probability_floor_uses_c_phi(self):
        system = build_interval_system(2, 256, min_coarse_level(2))
        c = system.c_phi_estimate
        assert c > 1
        assert event_probability_floor(system) == \
            pytest.approx(1 - 512 * math.exp(-16 * c * c), rel=1e-13)


class TestHoeffding:
    def test_block_substitution_value(self):
        # 2^l J samples in [-1/2, 1/2] with t = J 2^(l/2) sqrt(ln 2 / 2) give
        # exactly 1 - 2/n at n = 256, for any l: the exponent is -J ln 2
        n, J = 256, 8
        l = J - 3
        m = J * 2 ** l
        t = J * 2.0 ** (l / 2.0) * math.sqrt(0.5 * math.log(2.0))
        assert hoeffding_bound(m, t, -0.5, 0.5) == pytest.approx(1 - 2 / n,
                                                                 abs=1e-12)

    def test_two_sided(self):
        # one Rademacher draw of +-1/2: P(|S| <= 0.49) = 0, and the one-sided
        # constant would claim 1 - exp(-2 * 0.49^2) = 0.381
        draws = np.array([-0.5, 0.5])
        exact = float(np.mean(np.abs(draws) <= 0.49))
        assert exact == 0.0
        assert hoeffding_bound(1, 0.49, -0.5, 0.5) <= exact
        assert hoeffding_bound(1, 0.49, -0.5, 0.5) == 0.0

    @given(st.integers(1, 1000), st.floats(0.01, 100), st.floats(-5, 0.0),
           st.floats(0.1, 5))
    @settings(max_examples=50)
    def test_bound_in_unit_interval(self, m, t, lo, width):
        p = hoeffding_bound(m, t, lo, lo + width)
        # clipped at 0 for small t; 1 when the exponential underflows
        assert 0.0 <= p <= 1.0
        hi = lo + width
        assert p == max(0.0, 1 - 2 * math.exp(-2 * t * t / (m * (hi - lo) ** 2)))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            hoeffding_bound(0, 1.0, -1, 1)
        with pytest.raises(ValueError):
            hoeffding_bound(1, 0.0, -1, 1)
        with pytest.raises(ValueError):
            hoeffding_bound(1, 1.0, 1, -1)
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite t"):
                hoeffding_bound(1, t, -1, 1)
        with pytest.raises(ValueError, match="finite hi"):
            hoeffding_bound(1, 1.0, -1, math.nan)


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
        coarse4 = np.abs(HaarSystem(256, 4).analyze(e)) / np.sqrt(256)
        for b in (0.05, 0.1, 0.2, 1.0):
            assert noise_coeff_bound_check(e, b, "haar") == \
                noise_coeff_bound_check(e, b, HaarSystem(256, 0))
            assert noise_coeff_bound_check(e, b, HaarSystem(256, 4)) == \
                bool(np.max(coarse4) <= b * math.sqrt(8 / 256))
        with pytest.raises(ValueError, match="unknown wavelet system"):
            noise_coeff_bound_check(e, 1.0, "daubechies")


def _system(name):
    """The system a parametrized test names: "haar", "interval" (N=2) or
    "haar-system" (the HaarSystem object), at n = 256."""
    if name == "interval":
        return build_interval_system(2, 256, min_coarse_level(2))
    return HaarSystem(256, 0) if name == "haar-system" else name
