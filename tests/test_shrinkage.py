import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveshrink.interval import (
    build_interval_system,
    interval_dwt,
    interval_idwt,
    min_coarse_level,
)
from waveshrink.shrinkage import (
    ShrinkageConfig,
    _threshold_in_place,
    apply_threshold,
    coarse_level_for,
    compute_levels,
    compute_threshold,
    hard_threshold,
    min_samples,
    shrink,
    soft_threshold,
    system_moments,
    wavelet_system,
)
from waveshrink.signals import make_signal
from waveshrink.transform import HaarSystem, haar_dwt, haar_idwt

finite = st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)
lams = st.floats(0, 1e6, allow_nan=False, allow_infinity=False)


class TestThresholdFunctions:
    @given(finite, lams)
    def test_soft_moves_by_at_most_lambda(self, x, lam):
        out = float(soft_threshold(x, lam))
        assert abs(out - x) <= lam + 1e-12 * max(1.0, abs(x))
        assert abs(out) <= abs(x)

    @given(finite, lams)
    def test_small_values_zeroed(self, x, lam):
        if abs(x) <= lam:
            assert float(soft_threshold(x, lam)) == 0.0
            assert float(hard_threshold(x, lam)) == 0.0
        else:
            assert float(hard_threshold(x, lam)) == x
            assert np.sign(soft_threshold(x, lam)) == np.sign(x)

    @given(st.lists(finite, min_size=1, max_size=20), lams)
    def test_vectorized_matches_scalar(self, xs, lam):
        xs = np.asarray(xs)
        assert np.array_equal(soft_threshold(xs, lam),
                              [soft_threshold(x, lam) for x in xs])

    @given(st.one_of(finite, st.sampled_from([0.0, -0.0]),
                     st.lists(st.one_of(finite, st.sampled_from([0.0, -0.0])),
                              max_size=20).map(np.array)), lams)
    def test_soft_matches_the_formula(self, x, lam):
        want = np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)
        got = soft_threshold(x, lam)
        assert type(got) is type(want)  # a numpy scalar for a scalar input
        assert np.array_equal(got, want)

    def test_soft_leaves_its_input_alone(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        soft_threshold(x, 1.0)
        assert np.array_equal(x, [-2.0, -0.5, 0.0, 0.5, 2.0])

    @given(st.lists(st.one_of(finite, st.sampled_from([0.0, -0.0])),
                    min_size=1, max_size=40), lams, st.booleans())
    def test_in_place_gives_the_bytes_of_the_rules(self, xs, lam, scratch):
        """Signed zeros included: a killed negative coefficient is -0.0 under
        soft thresholding and 0.0 under hard thresholding.  The values are
        the details of a flat vector at J0 = 0, after its approximation."""
        x = np.array(xs + [lam, -lam])
        c = np.zeros(2 ** len(x).bit_length())
        c[0], c[1 : x.size + 1] = -3.0 * lam - 1.0, x
        for mode, fn in (("soft", soft_threshold), ("hard", hard_threshold)):
            got = c.copy()
            _threshold_in_place(got, lam, mode,
                                np.empty(c.size - 1) if scratch else None, 0)
            assert got[:1].tobytes() == c[:1].tobytes()
            assert got[1:].tobytes() == fn(c[1:], lam).tobytes()

    def test_negative_lambda_rejected(self):
        for fn in (soft_threshold, hard_threshold):
            with pytest.raises(ValueError):
                fn(1.0, -0.1)

    def test_apply_threshold_leaves_approx_alone(self):
        pyr = haar_dwt(np.arange(16.0), 1)
        out = apply_threshold(pyr, 1e9, "soft")
        assert np.array_equal(out.approx, pyr.approx)
        assert all(np.all(d == 0) for d in out.details)
        with pytest.raises(ValueError):
            apply_threshold(pyr, 1.0, "medium")


class TestThresholdFormula:
    def test_reference_values(self):
        assert compute_threshold(256, 0.0, 1.0) == pytest.approx(
            (1 + 2 * math.sqrt(math.log(2))) * math.sqrt(8 / 256), rel=1e-12)
        assert compute_threshold(256, 0.0, 1.0) == pytest.approx(0.47113, abs=5e-6)
        assert compute_threshold(512, 1.0, 1.0) == pytest.approx(0.44479, abs=5e-6)

    @given(st.integers(1, 20), st.floats(0, 10, allow_nan=False),
           st.floats(0.01, 10, allow_nan=False))
    @settings(max_examples=50)
    def test_monotonicity(self, log_n, delta, b):
        n = 2 ** log_n
        lam = compute_threshold(n, delta, b)
        assert compute_threshold(n, delta + 0.5, b) > lam
        assert compute_threshold(n, delta, 2 * b) == pytest.approx(2 * lam)
        assert compute_threshold(n, delta, b, c_phi=1.5) == pytest.approx(1.5 * lam)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            compute_threshold(100, 1.0, 1.0)
        with pytest.raises(ValueError):
            compute_threshold(256, -0.1, 1.0)
        with pytest.raises(ValueError):
            compute_threshold(256, 1.0, 0.0)
        with pytest.raises(ValueError):
            compute_threshold(256, 1.0, 1.0, c_phi=0.5)


class TestLevelsAndMinSamples:
    def test_levels_reference(self):
        lv = compute_levels(512, 1.0)
        assert (lv.finest, lv.coarse, lv.boundary) == (9, 0, 2)

    def test_coarse_level_zero_for_low_smoothness(self):
        for alpha in (0.25, 0.5, 1.0):
            assert compute_levels(4096, alpha).coarse == 0

    def test_coarse_level_for_high_smoothness(self):
        # J0 = 1 + ceil(log2(2 ceil(alpha) - 1))
        n = 2 ** 25
        assert compute_levels(n, 2.0).coarse == 1 + math.ceil(math.log2(3))

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.01, 2.0, 2.5, 3.0, 4.7])
    def test_coarse_level_is_the_boundary_construction_rule(self, alpha):
        written_out = 0 if alpha <= 1 else \
            1 + math.ceil(math.log2(2 * math.ceil(alpha) - 1))
        assert compute_levels(2 ** 60, alpha).coarse == written_out \
            == min_coarse_level(math.ceil(alpha))

    def test_too_small_n_raises(self):
        with pytest.raises(ValueError):
            compute_levels(1024, 2.0)

    def test_min_samples(self):
        assert min_samples(1.0) == (512.0, 512)
        ms = min_samples(2.0)
        assert abs(ms.raw / 1.1e7 - 1.0) < 0.01
        assert ms.padded == 2 ** math.ceil(math.log2(ms.raw))
        with pytest.raises(ValueError):
            min_samples(0.0)

    @given(st.floats(0.05, 1.0, allow_nan=False))
    def test_min_samples_low_smoothness_constant(self, alpha):
        assert min_samples(alpha).padded == 512


class TestConfigAndPipeline:
    def test_build_matches_formula(self):
        cfg = ShrinkageConfig.build(1024, 1.0, 1.0, 1.0, 1.0)
        assert cfg.threshold == pytest.approx(
            compute_threshold(1024, 1.0, 1.0), rel=1e-15)
        assert cfg.coarse_level == 0

    def test_threshold_and_boundary_level_are_derived(self):
        cfg = ShrinkageConfig.build(1024, 1.0, 1.0, 1.0, 1.0)
        assert len(dataclasses.fields(cfg)) == 9
        assert cfg.coarse_level == coarse_level_for(1024, 1.0, 1)
        wider = dataclasses.replace(cfg, delta=2.0, noise_bound=3.0)
        assert wider.threshold == compute_threshold(1024, 2.0, 3.0)
        assert cfg.boundary_level == compute_levels(1024, 1.0).boundary
        pushed = ShrinkageConfig.build(256, 1.0, 1.0, 1.0, 1.0, system="interval",
                                       moments=3, system_const=2.0)
        assert pushed.coarse_level == min_coarse_level(3)
        assert pushed.boundary_level == pushed.coarse_level  # J1 = 2 < J0 = 4

    @pytest.mark.parametrize("n", [256, 512])
    def test_orthonormal_threshold_is_derived(self, n):
        cfg = ShrinkageConfig.build(n, 1.0, 1.0, 1.0, 1.0)
        assert cfg.orthonormal_threshold == cfg.threshold * math.sqrt(n)
        wider = dataclasses.replace(cfg, noise_bound=3.0)
        assert wider.orthonormal_threshold == wider.threshold * math.sqrt(n)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.orthonormal_threshold = 1.0
        with pytest.raises(TypeError):
            dataclasses.replace(cfg, orthonormal_threshold=1.0)

    @pytest.mark.parametrize("kind, moments", [("haar", None), ("interval", 2)])
    def test_default_system_const_is_the_resolvers(self, kind, moments):
        c_phi = wavelet_system(kind, 1024, 1.0, moments).c_phi_estimate
        assert ShrinkageConfig.build(1024, 1.0, 1.0, 1.0, 1.0, system=kind,
                                     moments=moments) == \
            ShrinkageConfig.build(1024, 1.0, 1.0, 1.0, 1.0, system=kind,
                                  moments=moments, system_const=c_phi)

    def test_noise_free_shrink_preserves_constant(self):
        cfg = ShrinkageConfig.build(256, 1.0, 1.0, 1.0, 0.0)
        y = np.full(256, 3.0)
        assert np.max(np.abs(shrink(y, cfg) - y)) < 1e-12

    def test_shrink_reduces_noise_energy(self):
        rng = np.random.default_rng(11)
        n = 4096
        f = np.abs(np.arange(1, n + 1) / n - 0.5)
        y = f + rng.uniform(-0.5, 0.5, n)
        cfg = ShrinkageConfig.build(n, 1.0, 1.0, 1.0, 1.0)
        out = shrink(y, cfg)
        assert np.mean((out - f) ** 2) < 0.5 * np.mean((y - f) ** 2)

    def test_length_mismatch(self):
        cfg = ShrinkageConfig.build(256, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            shrink(np.zeros(128), cfg)


def _pipeline(kind, n, moments, mode):
    """A system from the resolver and the config that matches it."""
    alpha = 0.5 if kind == "haar" else 1.0
    system = wavelet_system(kind, n, alpha, moments)
    cfg = ShrinkageConfig.build(n, alpha, 1.0, 1.0, 1.0, mode, system=kind,
                                moments=moments, system_const=system.c_phi_estimate)
    return system, cfg


class TestShrinkDifferential:
    """shrink against the pyramid compositions it replaced: bit for bit at
    even J, where sqrt(n) is a power of two, and to rounding at odd J."""

    @pytest.mark.parametrize("mode", ["soft", "hard"])
    @pytest.mark.parametrize("n", [256, 4096])
    @pytest.mark.parametrize("kind, moments", [("haar", None), ("interval", 1),
                                               ("interval", 2), ("interval", 3)])
    def test_matches_pyramid_pipeline(self, kind, moments, n, mode):
        system, cfg = _pipeline(kind, n, moments, mode)
        y = np.random.default_rng(n + (moments or 0)).uniform(-1, 1, (3, n))
        y += np.sin(7 * np.arange(n) / n)
        batch = shrink(y, cfg, system)
        for row, got in zip(y, batch):
            if kind == "haar":
                pyr = haar_dwt(row, cfg.coarse_level)
                want = haar_idwt(apply_threshold(pyr, cfg.threshold, mode))
            else:
                pyr = interval_dwt(row, system)
                want = interval_idwt(apply_threshold(pyr, cfg.threshold, mode), system)
            assert np.array_equal(got, want)
            assert np.array_equal(shrink(row, cfg, system), want)
        assert np.array_equal(shrink(y, cfg), batch)  # the resolver's system

    @pytest.mark.parametrize("mode", ["soft", "hard"])
    @pytest.mark.parametrize("n", [512, 2048])
    @pytest.mark.parametrize("kind, moments", [("haar", None), ("interval", 1),
                                               ("interval", 2), ("interval", 3)])
    def test_odd_levels_match_pyramid_pipeline_closely(self, kind, moments, n, mode):
        """At odd J, sqrt(n) is not a power of two: thresholding at
        lambda * sqrt(n) rounds differently from the pyramid's passes by
        1/sqrt(n) and back, so the outputs agree to rounding, not in bits.
        Batched rows still equal single rows bit for bit."""
        system, cfg = _pipeline(kind, n, moments, mode)
        y = np.random.default_rng(n + (moments or 0)).uniform(-1, 1, (3, n))
        y += np.sin(7 * np.arange(n) / n)
        batch = shrink(y, cfg, system)
        for row, got in zip(y, batch):
            if kind == "haar":
                pyr = haar_dwt(row, cfg.coarse_level)
                want = haar_idwt(apply_threshold(pyr, cfg.threshold, mode))
            else:
                pyr = interval_dwt(row, system)
                want = interval_idwt(apply_threshold(pyr, cfg.threshold, mode), system)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            assert np.array_equal(shrink(row, cfg, system), got)
        assert np.array_equal(shrink(y, cfg), batch)  # the resolver's system

    def test_rejects_non_finite_samples(self):
        system, cfg = _pipeline("interval", 256, 2, "soft")
        y = np.zeros((2, 256))
        y[1, 9] = np.nan
        with pytest.raises(ValueError, match="finite"):
            shrink(y, cfg, system)


class TestShrinkIsLipschitz:
    """Soft ``shrink`` is 1-Lipschitz in l2 as a function of the noise, since
    it is an orthogonal analysis, a coordinatewise 1-Lipschitz threshold and
    an orthogonal synthesis.  Hard thresholding jumps at the threshold, so it
    has no such bound and is left out."""

    @pytest.mark.parametrize("kind, moments", [("haar", None), ("interval", 2),
                                               ("interval", 3)])
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([256, 512]),
           spread=st.floats(0.01, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_soft_shrink_is_one_lipschitz(self, kind, moments, seed, n, spread):
        system, cfg = _pipeline(kind, n, moments, "soft")
        lam = cfg.orthonormal_threshold
        rng = np.random.default_rng(seed)
        # a pair of noisy vectors whose coefficients straddle +lam and -lam:
        # magnitudes within lam * spread of lam, or of 3 lam, where both are
        # shrunk by the same lam; a quarter of the signs flipped
        signs = rng.choice([-1.0, 1.0], n)
        centers = lam * rng.choice([1.0, 3.0], n)
        c1 = signs * (centers + lam * spread * rng.uniform(-1, 1, n))
        c2 = np.where(rng.random(n) < 0.25, -signs, signs) \
            * (centers + lam * spread * rng.uniform(-1, 1, n))
        f = make_signal("sine", 1.0, 1.0).sample(n)
        e = system.synthesize(np.stack([c1, c2])) - f
        out = shrink(f + e, cfg, system)
        ratio = np.linalg.norm(out[0] - out[1]) / np.linalg.norm(e[0] - e[1])
        assert ratio <= 1 + 1e-12


class TestShrinkSystemMatch:
    @pytest.mark.parametrize("case", ["n", "coarse level", "interval under haar",
                                      "N=3 under N=2", "c_phi"])
    def test_mismatched_system_rejected(self, case):
        n = 256
        system, cfg = _pipeline("interval", n, 2, "soft")  # J0 = 3
        haar_system, haar_cfg = _pipeline("haar", n, None, "soft")
        bad = {
            "n": (HaarSystem(2 * n, 0), haar_cfg),
            "coarse level": (build_interval_system(2, n, 4), cfg),
            "interval under haar": (system, haar_cfg),
            "N=3 under N=2": (build_interval_system(3, n, min_coarse_level(3)), cfg),
            "c_phi": (system, dataclasses.replace(
                cfg, system_const=cfg.system_const * 1.01)),
        }[case]
        with pytest.raises(ValueError, match="does not match"):
            shrink(np.zeros(n), *bad[::-1])

    def test_matching_systems_accepted(self):
        for kind, moments in (("haar", None), ("interval", 2)):
            system, cfg = _pipeline(kind, 256, moments, "soft")
            assert shrink(np.zeros(256), cfg, system).shape == (256,)


class TestWaveletSystem:
    def test_haar(self):
        system = wavelet_system("haar", 1024, 1.0)
        assert system == HaarSystem(1024, compute_levels(1024, 1.0).coarse)
        assert wavelet_system("haar", 1024, 1.0, 1) == system

    def test_interval_defaults_and_coarse_rule(self):
        assert system_moments("interval", 2.5) == 3  # ceil(alpha)
        assert system_moments("interval", 0.5) == 1
        assert wavelet_system("interval", 1024, 1.0).moments == 1
        system = wavelet_system("interval", 1024, 1.0, 2)
        assert system.coarse_level == min_coarse_level(2)
        assert wavelet_system("interval", 1024, 1.0, 2) is system  # built once

    @pytest.mark.parametrize("kind, n, alpha, moments", [
        ("daubechies", 256, 1.0, None),  # unknown kind
        ("haar", 256, 1.0, 3),           # Haar has one vanishing moment
        ("interval", 256, 2.5, 2),       # fewer moments than alpha
        ("interval", 256, 1.0, 0),
        ("interval", 16, 1.0, 3),        # no room above the coarse level
        ("interval", 256, 1.0, True),    # a bool is not a count
        ("haar", 256, 1.0, True),
    ])
    def test_rejects(self, kind, n, alpha, moments):
        with pytest.raises(ValueError):
            wavelet_system(kind, n, alpha, moments)
        with pytest.raises(ValueError):
            ShrinkageConfig.build(n, alpha, 1.0, 1.0, 1.0, system=kind,
                                  moments=moments, system_const=1.0)
