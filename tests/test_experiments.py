import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveshrink.experiments import (
    ExperimentPlan,
    TrialReport,
    estimate_event_probability,
    fit_rate,
    read_reports,
    run_plan,
    run_trial,
    summarize,
    threshold_exceedance_census,
    wilson_interval,
    write_reports,
    write_summaries,
)
from waveshrink.noise import NoiseSpec, in_event_A, sample_noise
from waveshrink.transform import HaarSystem


def tiny_plan(**overrides):
    base = dict(signal_kind="cusp", alpha=0.5, holder_const=1.0,
                noise_family="uniform", noise_bound=1.0,
                ns=(256, 512), deltas=(0.0, 1.0), trials=3, master_seed=9)
    base.update(overrides)
    return ExperimentPlan(**base)


class TestPlan:
    def test_cells_enumeration(self):
        plan = tiny_plan()
        assert plan.cells() == [(0, 256, 0.0), (1, 256, 1.0),
                                (2, 512, 0.0), (3, 512, 1.0)]

    def test_noise_free_needs_threshold_bound(self):
        with pytest.raises(ValueError):
            tiny_plan(noise_bound=0.0)
        plan = tiny_plan(noise_bound=0.0, threshold_bound=1.0)
        assert plan.threshold_bound == 1.0

    def test_whole_float_sample_counts_are_counts(self):
        assert tiny_plan(ns=(256.0, np.float64(512))).ns == (256, 512)
        for bad in (256.5, float("inf"), "256"):
            with pytest.raises(ValueError, match="whole numbers"):
                tiny_plan(ns=(bad,))

    def test_below_range(self):
        assert tiny_plan().below_range(256)
        assert not tiny_plan().below_range(512)


class TestDeterminism:
    def test_trial_is_pure(self):
        plan = tiny_plan()
        a = run_trial(plan, 0, 256, 0.0, 2)
        b = run_trial(plan, 0, 256, 0.0, 2)
        assert a == b

    def test_parallel_matches_serial(self):
        plan = tiny_plan()
        serial = run_plan(plan, workers=1)
        parallel = run_plan(plan, workers=4)
        assert serial == parallel

    def test_distinct_seeds_across_cells_and_trials(self):
        plan = tiny_plan()
        seeds = [r.seed for r in run_plan(plan, workers=1)]
        assert len(seeds) == len(set(seeds)) == 12

    def test_master_seed_changes_results(self):
        a = run_trial(tiny_plan(), 0, 256, 1.0, 0)
        b = run_trial(tiny_plan(master_seed=10), 0, 256, 1.0, 0)
        assert a.max_sq_err != b.max_sq_err


class TestTrialSemantics:
    def test_noise_free_trial_has_tiny_error(self):
        plan = tiny_plan(signal_kind="constant", noise_bound=0.0,
                         threshold_bound=1.0)
        rep = run_trial(plan, 0, 256, 1.0, 0)
        assert rep.max_sq_err < 1e-20
        assert rep.in_A is True
        assert rep.exceed_count == 0

    def test_event_flag_only_at_supported_sizes(self):
        plan = tiny_plan()
        assert run_trial(plan, 0, 256, 1.0, 0).in_A is not None
        assert run_trial(plan, 2, 512, 1.0, 0).in_A is None

    def test_interval_system_trial(self):
        plan = tiny_plan(signal_kind="sine", alpha=1.0, system="interval",
                         moments=2, ns=(256,), deltas=(1.0,), trials=1)
        rep = run_trial(plan, 0, 256, 1.0, 0)
        assert math.isfinite(rep.max_sq_err)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            TrialReport(trial=0, n=8, delta=0.0, max_sq_err=1.0, mse=2.0,
                        in_A=None, exceed_count=0, seed=0)
        with pytest.raises(ValueError):
            TrialReport(trial=0, n=8, delta=0.0, max_sq_err=math.nan, mse=0.0,
                        in_A=None, exceed_count=0, seed=0)


class TestStatistics:
    def test_wilson_known_value(self):
        # symmetric at p = 1/2, and matching the closed form at z = 1
        lo, hi = wilson_interval(5, 10, z=1.0)
        assert lo + hi == pytest.approx(1.0)
        assert lo == pytest.approx((5.5 - math.sqrt(2.75)) / 11, abs=1e-12)

    @given(st.integers(1, 1000), st.integers(0, 1000))
    @settings(max_examples=50)
    def test_wilson_contains_point_estimate(self, trials, successes):
        successes = min(successes, trials)
        lo, hi = wilson_interval(successes, trials)
        p = successes / trials
        assert 0.0 <= lo <= p + 1e-12 and p - 1e-12 <= hi <= 1.0

    @given(st.integers(1, 10 ** 6), st.data())
    @settings(max_examples=200)
    def test_wilson_bounds_contain_estimate_exactly(self, trials, data):
        successes = data.draw(st.one_of(st.just(0), st.just(trials),
                                        st.integers(0, trials)))
        lo, hi = wilson_interval(successes, trials)
        assert 0.0 <= lo <= successes / trials <= hi <= 1.0

    def test_fit_rate_recovers_exact_power_law(self):
        ns = [2 ** j for j in (8, 10, 12, 14)]
        meds = [3.0 * (math.log2(n) / n) ** 0.61 for n in ns]
        fit = fit_rate(ns, meds, 1.0)
        assert fit.exponent == pytest.approx(0.61, abs=1e-12)
        assert fit.residual < 1e-12
        assert fit.target == pytest.approx(2 / 3)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, math.nan, math.inf])
    def test_fit_rate_checks_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite and > 0"):
            fit_rate([256, 1024, 4096, 16384], [0.1, 0.05, 0.02, 0.01], alpha)

    def test_fit_rate_needs_four_points(self):
        with pytest.raises(ValueError):
            fit_rate([256, 512, 1024], [1, 1, 1], 1.0)

    def test_fit_rate_needs_four_distinct_n(self):
        with pytest.raises(ValueError, match="4 or more distinct n"):
            fit_rate([256] * 4, [0.1, 0.2, 0.3, 0.4], 1.0)
        with pytest.raises(ValueError, match="4 or more distinct n"):
            fit_rate([256, 256, 1024, 4096], [0.1, 0.2, 0.3, 0.4], 1.0)

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf])
    def test_fit_rate_needs_finite_positive_medians(self, bad):
        with pytest.raises(ValueError, match="need finite medians > 0"):
            fit_rate([256, 1024, 4096, 16384], [0.1, bad, 0.02, 0.01], 1.0)

    def test_event_probability_wilson(self):
        p, (lo, hi) = estimate_event_probability("uniform", 1.0, 256, 50,
                                                 master_seed=1)
        assert 0 <= lo <= p <= hi <= 1

    @pytest.mark.parametrize("b", [-1.0, math.nan, math.inf])
    def test_event_probability_rejects_bad_noise_range(self, b):
        with pytest.raises(ValueError, match="noise range b must be finite and > 0"):
            estimate_event_probability("uniform", b, 256, 3)

    def test_event_probability_noise_free(self):
        assert estimate_event_probability("uniform", 0.0, 64, 3) == \
            (1.0, wilson_interval(3, 3))

    @pytest.mark.parametrize("trials", [0, -3, 2.0, 2.5, "10", True])
    def test_event_probability_rejects_bad_trials(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            estimate_event_probability("uniform", 1.0, 256, trials)

    @pytest.mark.parametrize("successes, trials", [(-1, 3), (5, 3), (1.5, 3),
                                                   (1, 3.0), (0, 0), (True, 3),
                                                   (1, True)])
    def test_wilson_needs_integer_counts_in_range(self, successes, trials):
        with pytest.raises(ValueError):
            wilson_interval(successes, trials)

    @pytest.mark.parametrize("b", [0.0, 1.0])
    def test_event_probability_checks_family_and_system_first(self, b):
        with pytest.raises(ValueError, match="unknown noise family"):
            estimate_event_probability("gauss", b, 256, 3)
        with pytest.raises(ValueError, match="unknown wavelet system"):
            estimate_event_probability("uniform", b, 256, 3, system="daub")
        with pytest.raises(ValueError, match="does not match"):
            estimate_event_probability("uniform", b, 256, 3,
                                       system=HaarSystem(16, 0))

    def test_event_probability_seeds(self):
        # trial t draws from SeedSequence(master_seed, spawn_key=(0, t))
        hits = sum(in_event_A(sample_noise(NoiseSpec(
            "mixture", 1.0, np.random.SeedSequence(4, spawn_key=(0, t))), 16),
            1.0).member for t in range(30))
        p, ci = estimate_event_probability("mixture", 1.0, 16, 30, master_seed=4)
        assert p == hits / 30 and ci == wilson_interval(hits, 30)


class TestSummaries:
    def test_census_totals(self):
        plan = tiny_plan()
        reports = run_plan(plan, workers=1)
        census = threshold_exceedance_census(reports)
        assert census["trials"] == len(reports)
        assert census["total"] == sum(r.exceed_count for r in reports)
        assert census["total"] == sum(census["by_level"].values())

    def test_summarize_shape_and_envelope(self):
        plan = tiny_plan(trials=8)
        reports = run_plan(plan, workers=1)
        summaries = summarize(plan, reports)
        assert {(s.n, s.delta) for s in summaries} == {
            (n, d) for n in plan.ns for d in plan.deltas}
        for s in summaries:
            assert 0.0 <= s.p_within_envelope <= 1.0
            if s.n == 256:
                assert 0.0 <= s.ci_lo <= s.p_A_hat <= s.ci_hi <= 1.0
            else:
                assert math.isnan(s.p_A_hat)


class TestSerialization:
    def test_jsonl_round_trip(self, tmp_path):
        plan = tiny_plan()
        reports = run_plan(plan, workers=1)
        path = tmp_path / "r.jsonl"
        write_reports(path, reports)
        loaded = read_reports(path)
        assert len(loaded) == len(reports)
        for a, b in zip(loaded, reports):
            assert a == TrialReport(**{k: getattr(b, k) for k in (
                "trial", "n", "delta", "max_sq_err", "mse", "in_A",
                "exceed_count", "seed")})

    def test_csv_format(self, tmp_path):
        plan = tiny_plan(trials=2)
        summaries = summarize(plan, run_plan(plan, workers=1))
        path = tmp_path / "s.csv"
        write_summaries(path, summaries)
        text = path.read_text()
        lines = text.split("\n")
        assert lines[0] == ("n,delta,q50_max,q50_mse,p_within_envelope,"
                            "p_A_hat,ci_lo,ci_hi")
        assert len(lines) == len(summaries) + 2 and lines[-1] == ""
        # 17-significant-digit floats survive a parse round trip exactly
        val = float(lines[1].split(",")[2])
        assert val == summaries[0].q50_max

    def test_no_partial_files(self, tmp_path):
        path = tmp_path / "out.jsonl"
        class Boom(Exception):
            pass
        bad = [TrialReport(trial=0, n=8, delta=0.0, max_sq_err=1.0, mse=0.5,
                           in_A=None, exceed_count=0, seed=0)]
        def exploding():
            yield bad[0]
            raise Boom
        with pytest.raises(Boom):
            write_reports(path, exploding())
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []
