"""The batched Monte Carlo harness against the per-trial oracle, its
contraction check, and the worker-count contract of ``run_plan``."""
import concurrent.futures
import math

import numpy as np
import pytest

from trial_oracle import run_trial as oracle_trial
from waveshrink import experiments
from waveshrink.experiments import (
    ExperimentPlan,
    _assert_detail_contraction,
    _chunk_trials,
    run_cell,
    run_plan,
    run_trial,
)
from waveshrink.shrinkage import soft_threshold


def plan_of(**overrides):
    base = dict(signal_kind="oddcusp", alpha=0.5, holder_const=1.0,
                noise_family="uniform", noise_bound=1.0, ns=(16, 256, 512),
                deltas=(0.0, 1.0), trials=3, master_seed=21)
    base.update(overrides)
    return ExperimentPlan(**base)


def interval_plan(**overrides):
    base = dict(signal_kind="sine", alpha=1.0, system="interval", moments=2,
                ns=(16, 256, 512))
    base.update(overrides)
    return plan_of(**base)


HAAR_PLANS = {
    "soft": plan_of(),
    "hard": plan_of(mode="hard", noise_family="rademacher"),
    "noise-free": plan_of(noise_bound=0.0, threshold_bound=1.0),
    "noise-free-hard": plan_of(noise_bound=0.0, threshold_bound=0.5, mode="hard"),
    "mixture": plan_of(noise_family="mixture", signal_kind="weierstrass",
                       deltas=(0.0, 0.5, 2.5)),
    "truncated": plan_of(noise_family="truncated", signal_kind="ripple",
                         alpha=1.0, ns=(256, 1024)),
    # chunks of 32 at n = 1024 and 2 at n = 2^14: 37 and 3 trials leave a
    # partial last chunk
    "partial-chunk": plan_of(ns=(1024,), deltas=(1.0,), trials=37),
    "two-per-chunk": plan_of(ns=(2 ** 14,), deltas=(1.0,), trials=3),
    "one-trial": plan_of(trials=1),
    "no-trials": plan_of(trials=0),
}
INTERVAL_PLANS = {
    "soft": interval_plan(),
    "hard": interval_plan(mode="hard", noise_family="mixture"),
    "noise-free": interval_plan(noise_bound=0.0, threshold_bound=1.0),
    "N=3": interval_plan(signal_kind="sine", alpha=1.0, moments=3,
                         ns=(256, 1024), deltas=(1.0,)),
    "partial-chunk": interval_plan(ns=(1024,), deltas=(1.0,), trials=35),
}


def oracle_reports(plan):
    return [oracle_trial(plan, cell, n, delta, t)
            for cell, n, delta in plan.cells() for t in range(plan.trials)]


@pytest.mark.parametrize("name", sorted(HAAR_PLANS))
def test_haar_matches_per_trial_oracle_exactly(name):
    plan = HAAR_PLANS[name]
    got, want = run_plan(plan, workers=1), oracle_reports(plan)
    assert len(got) == len(want) == plan.trials * len(plan.cells())
    for g, w in zip(got, want):
        assert g == w
        assert g.exceed_by_level == w.exceed_by_level


@pytest.mark.parametrize("name", sorted(INTERVAL_PLANS))
def test_interval_matches_per_trial_oracle(name):
    plan = INTERVAL_PLANS[name]
    got, want = run_plan(plan, workers=1), oracle_reports(plan)
    assert len(got) == len(want) == plan.trials * len(plan.cells())
    for g, w in zip(got, want):
        assert (g.trial, g.n, g.delta, g.seed, g.in_A, g.exceed_count) == \
            (w.trial, w.n, w.delta, w.seed, w.in_A, w.exceed_count)
        assert g.max_sq_err == pytest.approx(w.max_sq_err, rel=1e-12, abs=0)
        assert g.mse == pytest.approx(w.mse, rel=1e-12, abs=0)


@pytest.mark.parametrize("plan", [HAAR_PLANS["partial-chunk"],
                                  HAAR_PLANS["hard"],
                                  INTERVAL_PLANS["partial-chunk"]])
def test_run_trial_equals_its_run_plan_row(plan):
    rows = {(r.n, r.delta, r.trial): r for r in run_plan(plan, workers=1)}
    for cell, n, delta in plan.cells():
        for t in sorted({0, plan.trials // 2, plan.trials - 1}):
            one = run_trial(plan, cell, n, delta, t)
            row = rows[n, delta, t]
            assert one == row
            assert (one.max_sq_err, one.mse, one.exceed_by_level) == \
                (row.max_sq_err, row.mse, row.exceed_by_level)


def test_reports_do_not_depend_on_chunking():
    plan = INTERVAL_PLANS["soft"]
    cell, n, delta = plan.cells()[3]
    whole = run_cell(plan, cell, n, delta, range(0, 6))
    split = run_cell(plan, cell, n, delta, range(0, 2)) \
        + run_cell(plan, cell, n, delta, range(2, 6))
    for a, b in zip(whole, split):
        assert (a, a.max_sq_err, a.mse, a.exceed_by_level) == \
            (b, b.max_sq_err, b.mse, b.exceed_by_level)


def test_chunks_depend_on_n_only():
    assert _chunk_trials(2 ** 8) == 128
    assert _chunk_trials(2 ** 14) == 2
    assert _chunk_trials(2 ** 20) == 1
    tasks = experiments._plan_tasks(HAAR_PLANS["partial-chunk"])
    assert [len(t[-1]) for t in tasks] == [32, 5]
    assert [t for task in tasks for t in task[-1]] == list(range(37))


class TestContractionCheck:
    @staticmethod
    def batch(trials=5, n=64, coarse=2, lam=0.3):
        rng = np.random.default_rng(4)
        signal = rng.normal(0.0, 1.0, n)
        shrunk = np.tile(signal, (trials, 1))
        shrunk[:, 2 ** coarse :] = soft_threshold(signal[2 ** coarse :], lam)
        return shrunk, signal, coarse, lam

    def test_passes_on_soft_thresholded_signal(self):
        shrunk, signal, coarse, lam = self.batch()
        _assert_detail_contraction(shrunk, signal, lam, coarse,
                                   np.zeros(len(shrunk), dtype=int), "soft")

    def test_raises_on_violation_in_one_trial(self):
        shrunk, signal, coarse, lam = self.batch()
        shrunk[3, 40] = signal[40] + 2.5 * lam  # level 5: [32, 64)
        with pytest.raises(RuntimeError, match="level 5 .batch row 3"):
            _assert_detail_contraction(shrunk, signal, lam, coarse,
                                       np.zeros(len(shrunk), dtype=int), "soft")

    def test_raises_when_move_exceeds_the_signal_coefficient(self):
        shrunk, signal, coarse, lam = self.batch()
        k = 2 ** coarse + int(np.argmin(np.abs(signal[2 ** coarse :])))
        shrunk[0, k] = signal[k] + math.copysign(abs(signal[k]) + 1e-6, signal[k])
        assert abs(shrunk[0, k] - signal[k]) < 2 * lam
        with pytest.raises(RuntimeError):
            _assert_detail_contraction(shrunk, signal, lam, coarse,
                                       np.zeros(len(shrunk), dtype=int), "soft")

    def test_skips_trials_with_exceedance_and_hard_mode(self):
        shrunk, signal, coarse, lam = self.batch()
        shrunk[3, 40] = signal[40] + 2.5 * lam
        exceed = np.array([0, 0, 0, 1, 0])
        _assert_detail_contraction(shrunk, signal, lam, coarse, exceed, "soft")
        _assert_detail_contraction(shrunk, signal, lam, coarse,
                                   np.zeros(5, dtype=int), "hard")

    def test_approximation_block_is_not_checked(self):
        shrunk, signal, coarse, lam = self.batch()
        shrunk[1, 0] = signal[0] + 10.0
        _assert_detail_contraction(shrunk, signal, lam, coarse,
                                   np.zeros(len(shrunk), dtype=int), "soft")


class TestWorkers:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Replace the process pool with an in-process one that records the
        processes it was asked for."""
        made = []

        class FakePool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        return made

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one_worker(self, workers, pools):
        with pytest.raises(ValueError, match="worker count"):
            run_plan(plan_of(), workers=workers)
        assert pools == []

    @pytest.mark.parametrize("raw", ["two", "2.5", "", "0"])
    def test_rejects_bad_environment_value(self, raw, monkeypatch, pools):
        monkeypatch.setenv("WAVESHRINK_WORKERS", raw)
        with pytest.raises(ValueError, match="WAVESHRINK_WORKERS|worker count"):
            run_plan(plan_of())
        assert pools == []

    def test_environment_sets_the_default(self, monkeypatch, pools):
        monkeypatch.setenv("WAVESHRINK_WORKERS", "3")
        plan = plan_of()
        assert run_plan(plan) == run_plan(plan, workers=1)
        assert pools == [3]

    def test_pool_never_exceeds_the_task_count(self, pools):
        plan = plan_of(ns=(256, 512), deltas=(1.0,))  # one chunk per cell
        assert run_plan(plan, workers=8) == run_plan(plan, workers=1)
        assert pools == [2]

    def test_single_task_runs_without_a_pool(self, pools):
        plan = plan_of(ns=(256,), deltas=(1.0,))
        run_plan(plan, workers=4)
        assert pools == []
