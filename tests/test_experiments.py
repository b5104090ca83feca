import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trial_oracle import assert_same_columns
from waveshrink import experiments
from waveshrink.experiments import (
    _JSONL_FIELDS,
    CellResult,
    ExperimentPlan,
    estimate_event_probability,
    fit_rate,
    run_plan,
    run_trial,
    summarize,
    wilson_interval,
    write_reports,
    write_summaries,
)
from waveshrink.noise import EVENT_A_SIZES, NoiseSpec, in_event_A, sample_noise
from waveshrink.transform import HaarSystem


def tiny_plan(**overrides):
    base = dict(signal_kind="cusp", alpha=0.5, holder_const=1.0,
                noise_family="uniform", noise_bound=1.0,
                ns=(256, 512), deltas=(0.0, 1.0), trials=3, master_seed=9)
    base.update(overrides)
    return ExperimentPlan(**base)


def cell_of(max_sq_err, mse, in_A=None):
    """A CellResult with the given error columns and no exceedance."""
    max_sq_err, mse = np.asarray(max_sq_err, float), np.asarray(mse, float)
    T = len(max_sq_err)
    return CellResult(8, 0.0, np.arange(T), np.arange(T, dtype=np.uint64),
                      max_sq_err, mse, in_A, np.zeros((T, 3), np.intp))


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


class TestDeterminism:
    def test_trial_is_pure(self):
        plan = tiny_plan()
        a = run_trial(plan, 0, 256, 0.0, 2)
        b = run_trial(plan, 0, 256, 0.0, 2)
        assert_same_columns(a, b)

    def test_parallel_matches_serial(self, monkeypatch):
        # every plan pays for a pool, so four workers shard the tasks
        monkeypatch.setattr(experiments, "_POOL_VALUES", 1)
        plan = tiny_plan()
        serial = run_plan(plan, workers=1)
        parallel = run_plan(plan, workers=4)
        assert_same_columns(serial, parallel)

    def test_distinct_seeds_across_cells_and_trials(self):
        plan = tiny_plan()
        seeds = np.concatenate([c.seed for c in run_plan(plan, workers=1)])
        assert len(seeds) == len(set(seeds.tolist())) == 12

    def test_master_seed_changes_results(self):
        a = run_trial(tiny_plan(), 0, 256, 1.0, 0)
        b = run_trial(tiny_plan(master_seed=10), 0, 256, 1.0, 0)
        assert a.max_sq_err[0] != b.max_sq_err[0]


class TestTrialSemantics:
    def test_noise_free_trial_has_tiny_error(self):
        plan = tiny_plan(signal_kind="constant", noise_bound=0.0,
                         threshold_bound=1.0)
        rep = run_trial(plan, 0, 256, 1.0, 0)
        assert rep.max_sq_err[0] < 1e-20
        assert rep.in_A.tolist() == [True]
        assert not rep.exceed_by_level.any()

    def test_event_flag_written_only_at_supported_sizes(self, tmp_path):
        # the columns carry event A at every n; the reports print it, and
        # the summaries estimate P(A), only at n in EVENT_A_SIZES
        plan = tiny_plan()
        cells = run_plan(plan, workers=1)
        assert [(c.n, c.in_A.dtype, c.in_A.shape) for c in cells] == \
            [(n, bool, (3,)) for n in (256, 256, 512, 512)]
        write_reports(tmp_path / "r.jsonl", cells)
        text = (tmp_path / "r.jsonl").read_text()
        rows = [json.loads(line) for line in text.splitlines()]
        assert {(r["n"], type(r["in_A"])) for r in rows} == \
            {(256, bool), (512, type(None))}
        for s in summarize(plan, cells):
            p = (s.p_A_hat, s.ci_lo, s.ci_hi)
            assert all(map(math.isnan, p)) == (s.n == 512)

    def test_interval_system_trial(self):
        plan = tiny_plan(signal_kind="sine", alpha=1.0, system="interval",
                         moments=2, ns=(256,), deltas=(1.0,), trials=1)
        rep = run_trial(plan, 0, 256, 1.0, 0)
        assert math.isfinite(rep.max_sq_err[0])

    def test_report_validation(self):
        with pytest.raises(ValueError):
            cell_of([1.0], [2.0])
        with pytest.raises(ValueError):
            cell_of([math.nan], [0.0])

    @pytest.mark.parametrize("column", ["max_sq_err", "mse"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_error_in_any_row_is_rejected(self, column, bad):
        errors = {"max_sq_err": [1.0, 1.0, 1.0], "mse": [0.5, 0.5, 0.5]}
        errors[column][1] = bad
        with pytest.raises(ValueError, match="^error fields must be finite$"):
            cell_of(**errors)

    def test_mse_over_max_in_any_row_is_rejected(self):
        # the slack is relative to the max, n * eps (n = 8 here), for the
        # rounding of a mean of n values
        eps = np.finfo(float).eps
        cell_of([1.0, 2.0, 0.0], [0.5, 2.0 * (1 + 8 * eps), 0.0])
        # a zero max admits only a zero mse: there is no absolute slack
        for mse in ([0.5, 2.0 * (1 + 1e-9), 0.0], [0.5, 2.0 + 1e-14, 0.0],
                    [0.5, 1.0, 1e-300]):
            with pytest.raises(ValueError, match="^mean square error cannot exceed "
                                                 "max square error$"):
                cell_of([1.0, 2.0, 0.0], mse)

    @pytest.mark.parametrize("family", ["uniform", "mixture"])
    def test_mse_of_a_killed_signal_rounds_within_the_slack(self, family):
        # every detail is killed at b = 1000, so the squared error is nearly
        # constant across samples and the mean can round above the max
        plan = tiny_plan(signal_kind="constant", alpha=1.0, noise_family=family,
                         noise_bound=1000.0, ns=(64,), deltas=(1.0,), trials=400,
                         master_seed=3)
        (cell,) = run_plan(plan)
        assert np.any(cell.mse > cell.max_sq_err)  # the case the slack is for


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
    def test_summarize_shape_and_envelope(self):
        plan = tiny_plan(trials=8)
        summaries = summarize(plan, run_plan(plan, workers=1))
        assert {(s.n, s.delta) for s in summaries} == {
            (n, d) for n in plan.ns for d in plan.deltas}
        for s in summaries:
            assert 0.0 <= s.p_within_envelope <= 1.0
            if s.n == 256:
                assert 0.0 <= s.ci_lo <= s.p_A_hat <= s.ci_hi <= 1.0
            else:
                assert math.isnan(s.p_A_hat)


class TestSerialization:
    def test_jsonl_lines_match_the_columns(self, tmp_path):
        plan = tiny_plan(noise_family="rademacher", deltas=(0.0, 2.5))
        cells = run_plan(plan, workers=1)
        path = tmp_path / "r.jsonl"
        write_reports(path, cells)
        lines = path.read_text().splitlines()
        assert len(lines) == plan.trials * len(plan.cells())
        want = []
        for c in cells:
            for i in range(len(c.trial)):
                in_A = None if c.n not in EVENT_A_SIZES else bool(c.in_A[i])
                want.append([int(c.trial[i]), c.n, c.delta, float(c.max_sq_err[i]),
                             float(c.mse[i]), in_A, int(c.exceed_by_level[i].sum()),
                             int(c.seed[i])])
        assert {c.n for c in cells} - set(EVENT_A_SIZES) == {512}
        for line, values in zip(lines, want):
            row = json.loads(line)
            assert tuple(row) == _JSONL_FIELDS == (
                "trial", "n", "delta", "max_sq_err", "mse", "in_A",
                "exceed_count", "seed")
            # a float's repr round-trips its bits, so equal reprs of equal
            # types are the same value exactly
            assert [(type(v), repr(v)) for v in row.values()] == \
                [(type(v), repr(v)) for v in values]

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
        def exploding():
            yield cell_of([1.0], [0.5])
            raise Boom
        with pytest.raises(Boom):
            write_reports(path, exploding())
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []
