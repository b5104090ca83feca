import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveshrink.signals import (
    SIGNAL_KINDS,
    check_holder,
    make_signal,
    sample_grid,
)


class TestGrid:
    def test_endpoints(self):
        g = sample_grid(8)
        assert g[0] == pytest.approx(1 / 8)
        assert g[-1] == 1.0
        assert len(g) == 8


class TestCertificates:
    @pytest.mark.parametrize("kind", SIGNAL_KINDS)
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_all_kinds_certified(self, kind, alpha):
        sig = make_signal(kind, alpha, 1.0)
        chk = check_holder(sig.sample(256), alpha, 1.0)
        assert chk.ok, f"{kind} alpha={alpha}: worst ratio {chk.worst_ratio}"

    @pytest.mark.parametrize("kind", ["linear", "sine", "ripple"])
    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_smooth_kinds_certified_above_one(self, kind, alpha, n):
        chk = check_holder(make_signal(kind, alpha, 1.0).sample(n), alpha, 1.0)
        assert chk.ok, f"{kind} alpha={alpha} n={n}: worst ratio {chk.worst_ratio}"

    @given(st.floats(0.1, 1.0), st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_cusp_certificate_is_tight_in_m(self, alpha, M):
        y = make_signal("cusp", alpha, M).sample(128)
        assert check_holder(y, alpha, M).ok
        # halving M must break the certificate: the cusp attains its bound
        assert not check_holder(y, alpha, M / 2).ok

    def test_oddcusp_attains_its_bound(self):
        y = make_signal("oddcusp", 0.5, 1.0).sample(256)
        chk = check_holder(y, 0.5, 1.0)
        assert chk.ok and chk.worst_ratio == pytest.approx(1.0, abs=1e-9)

    def test_violation_detected(self):
        step = np.zeros(64)
        step[32:] = 1.0
        chk = check_holder(step, 0.5, 1.0)
        assert not chk.ok
        i, j = chk.pair
        assert abs(step[j] - step[i]) > (abs(j - i) / 64) ** 0.5


class TestMakeSignal:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_signal("spline", 1.0, 1.0)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            make_signal("cusp", 0.0, 1.0)
        with pytest.raises(ValueError):
            make_signal("cusp", 1.0, 0.0)

    @pytest.mark.parametrize("kind", ["cusp", "oddcusp", "weierstrass"])
    def test_rough_kinds_reject_alpha_above_one(self, kind):
        with pytest.raises(ValueError):
            make_signal(kind, 1.5, 1.0)

    def test_sampling_is_deterministic(self):
        a = make_signal("weierstrass", 0.5, 1.0).sample(128)
        b = make_signal("weierstrass", 0.5, 1.0).sample(128)
        assert np.array_equal(a, b)

    def test_constant_value(self):
        assert np.all(make_signal("constant", 1.0, 2.5).sample(16) == 2.5)

    def test_scaling_in_m(self):
        a = make_signal("sine", 1.0, 1.0).sample(64)
        b = make_signal("sine", 1.0, 3.0).sample(64)
        assert np.allclose(b, 3 * a)


class TestCheckHolderValidation:
    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            check_holder([1.0], 0.5, 1.0)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            check_holder([0.0, 1.0], -1.0, 1.0)
        with pytest.raises(ValueError):
            check_holder([0.0, 1.0], 0.5, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_samples(self, bad):
        y = np.linspace(0.0, 1.0, 64)
        y[5] = bad
        for alpha in (0.5, 1.5):
            with pytest.raises(ValueError, match="samples must be finite"):
                check_holder(y, alpha, 1.0)
        with pytest.raises(ValueError, match="samples must be finite"):
            check_holder(np.full(8, bad), 0.5, 1.0)

    def test_a_nan_does_not_hide_a_violation(self):
        # a NaN drops out of every pair it belongs to (NaN > worst is False),
        # which would hide the spike at 40 and certify the signal
        y = np.linspace(0.0, 1.0, 64)
        y[40] = 1e6
        chk = check_holder(y, 0.5, 1.0)
        assert not chk.ok and chk.pair == (39, 40)
        y[5] = np.nan
        for alpha in (0.5, 1.5):
            with pytest.raises(ValueError, match="samples must be finite"):
                check_holder(y, alpha, 1.0)

    def test_rejects_non_vector_samples(self):
        with pytest.raises(ValueError, match="expected a 1-d sample vector"):
            check_holder(np.zeros((2, 8)), 0.5, 1.0)

    def test_alpha_above_one_uses_difference_quotients(self):
        t = sample_grid(128)
        assert check_holder(0.5 * t ** 2, 2.0, 1.0).ok
        assert not check_holder(5.0 * t ** 2, 2.0, 1.0).ok

    def test_alpha_above_one_keeps_the_grid_spacing(self):
        # |f'| <= 0.501 and f'' = 1.002 M: the second difference quotients,
        # taken 1/n apart, exceed M by the factor 1.002
        t = sample_grid(256)
        chk = check_holder(0.5 * 1.002 * (t - 0.5) ** 2, 2.0, 1.0)
        assert not chk.ok
        assert chk.worst_ratio == pytest.approx(1.002, rel=1e-9)
