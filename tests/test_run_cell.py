"""The batched Monte Carlo harness against the per-trial oracle, its
contraction check, the worker-count contract of ``run_plan``, and where
``run_plan`` builds the interval systems it needs."""
import concurrent.futures
import dataclasses
import math
import multiprocessing
import os
import pickle
import tracemalloc

import numpy as np
import pytest

from trial_oracle import run_trial as oracle_trial
from waveshrink import experiments, interval, noise, shrinkage, signals
from waveshrink.experiments import (
    ExperimentPlan,
    _assert_detail_contraction,
    _chunk_trials,
    run_cell,
    run_plan,
    run_trial,
)
from waveshrink.shrinkage import soft_threshold, wavelet_system
from waveshrink.transform import HaarSystem


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
    # batches of 32 at n = 1024 and 2 at n = 2^14: 37 and 3 trials leave a
    # partial last batch
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


def linear_trial(plan, cell, n, delta, trial):
    """One trial as run_cell computes it, alone: the noise and the signal
    analyzed apart, W(f + e) = Wf + We, then thresholded and synthesized.
    The other fields are the oracle's."""
    want = oracle_trial(plan, cell, n, delta, trial)
    f = signals.make_signal(plan.signal_kind, plan.alpha, plan.holder_const).sample(n)
    system = wavelet_system(plan.system, n, plan.alpha, plan.moments)
    cfg = shrinkage.ShrinkageConfig.build(
        n, plan.alpha, plan.holder_const, plan.noise_bound or plan.threshold_bound,
        delta, plan.mode, system=plan.system, moments=system.moments,
        system_const=system.c_phi_estimate)
    e = np.zeros(n)
    if plan.noise_bound > 0:
        e = noise.sample_noise(noise.NoiseSpec(
            plan.noise_family, plan.noise_bound,
            experiments._trial_seed(plan.master_seed, cell, trial)), n)
    c = system.analyze(e) + system.analyze(f)
    lo = 2 ** cfg.coarse_level
    c[lo:] = shrinkage.threshold_rule(plan.mode)(c[lo:], cfg.orthonormal_threshold)
    sq = (system.synthesize(c) - f) ** 2
    return dataclasses.replace(want, max_sq_err=float(np.max(sq)),
                               mse=float(np.mean(sq)))


def linear_reports(plan):
    return [linear_trial(plan, cell, n, delta, t)
            for cell, n, delta in plan.cells() for t in range(plan.trials)]


@pytest.mark.parametrize("name", sorted(HAAR_PLANS))
def test_haar_matches_per_trial_oracle_exactly(name):
    """Seeds, event A and the exceedances agree exactly.  The oracle
    analyzes f + e and run_cell adds Wf to We, so the errors agree to
    rounding."""
    plan = HAAR_PLANS[name]
    got, want = run_plan(plan, workers=1), oracle_reports(plan)
    assert len(got) == len(want) == plan.trials * len(plan.cells())
    for g, w in zip(got, want):
        assert (g.trial, g.n, g.delta, g.seed, g.in_A, g.exceed_count,
                g.exceed_by_level) == (w.trial, w.n, w.delta, w.seed, w.in_A,
                                       w.exceed_count, w.exceed_by_level)
        assert g.max_sq_err == pytest.approx(w.max_sq_err, rel=1e-12, abs=0)
        assert g.mse == pytest.approx(w.mse, rel=1e-12, abs=0)


@pytest.mark.parametrize("plan", [pytest.param(p, id=f"haar-{k}")
                                  for k, p in sorted(HAAR_PLANS.items())]
                         + [pytest.param(p, id=f"interval-{k}")
                            for k, p in sorted(INTERVAL_PLANS.items())])
def test_run_cell_is_linear_per_trial_exactly(plan):
    """Every report, errors included, is bit-equal to its trial computed
    alone as synthesize(threshold(analyze(e) + analyze(f)))."""
    got, want = run_plan(plan, workers=1), linear_reports(plan)
    assert len(got) == len(want) == plan.trials * len(plan.cells())
    for g, w in zip(got, want):
        assert (g, g.max_sq_err, g.mse, g.exceed_by_level) == \
            (w, w.max_sq_err, w.mse, w.exceed_by_level)


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


def test_haar_odd_levels_match_per_trial_oracle():
    """At odd J, sqrt(n) is not a power of two, so thresholding at
    lambda * sqrt(n) rounds differently from the oracle's pyramid passes by
    1/sqrt(n) and back.  The errors agree to rounding, everything else
    exactly."""
    plan = plan_of(mode="hard", noise_family="mixture", ns=(512, 2048), trials=8)
    got, want = run_plan(plan, workers=1), oracle_reports(plan)
    assert len(got) == len(want) == plan.trials * len(plan.cells())
    for g, w in zip(got, want):
        assert (g.trial, g.n, g.delta, g.seed, g.in_A, g.exceed_count,
                g.exceed_by_level) == (w.trial, w.n, w.delta, w.seed, w.in_A,
                                       w.exceed_count, w.exceed_by_level)
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


@pytest.fixture
def analyzed(monkeypatch):
    """The shapes Haar analysis is applied to, in call order."""
    shapes = []
    analyze = HaarSystem.analyze

    def recording(self, samples):
        shapes.append(np.shape(samples))
        return analyze(self, samples)

    monkeypatch.setattr(HaarSystem, "analyze", recording)
    return shapes


def test_batches_depend_on_n_only(analyzed):
    assert _chunk_trials(2 ** 8) == 128
    assert _chunk_trials(2 ** 14) == 2
    assert _chunk_trials(2 ** 20) == 1
    plan = HAAR_PLANS["partial-chunk"]
    cell, n, delta = plan.cells()[0]
    assert len(run_cell(plan, cell, n, delta, range(37))) == 37
    # one analysis per batch: the noise; the signal's coefficients are added
    assert [s[0] for s in analyzed if len(s) == 2] == [32, 5]


# rows per task for 50 trials: batches of 32 rows at n = 1024, 8 at 2^12 and
# 2 at 2^14
CELL_SHARES = {
    1: {1024: [50], 2 ** 12: [50], 2 ** 14: [50]},
    2: {1024: [32, 18], 2 ** 12: [25, 25], 2 ** 14: [25, 25]},
    3: {1024: [32, 18], 2 ** 12: [17, 17, 16], 2 ** 14: [17, 17, 16]},
    4: {1024: [32, 18], 2 ** 12: [13, 13, 13, 11], 2 ** 14: [13, 13, 13, 11]},
}


@pytest.mark.parametrize("workers", sorted(CELL_SHARES))
def test_tasks_are_cell_shares(workers):
    plan = plan_of(ns=(1024, 2 ** 12, 2 ** 14), deltas=(0.5, 1.0), trials=50)
    tasks = experiments._plan_tasks(plan, workers)
    assert [(task[1], t) for task in tasks for t in task[-1]] == \
        [(cell, t) for cell, _, _ in plan.cells() for t in range(plan.trials)]
    for cell, n, delta in plan.cells():
        shares = [task for task in tasks if task[1] == cell]
        assert all(task[:4] == (plan, cell, n, delta) for task in shares)
        assert [len(task[-1]) for task in shares] == CELL_SHARES[workers][n]


def test_run_cell_makes_the_signal_once(analyzed, monkeypatch):
    plan = plan_of(ns=(2 ** 14,), deltas=(1.0,), trials=9)
    cell, n, delta = plan.cells()[0]
    want = linear_reports(plan)
    analyzed.clear()
    calls = []

    def count(cls, name):
        method = getattr(cls, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return method(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    count(signals.HolderSignal, "sample")
    count(shrinkage.ShrinkageConfig, "build")
    assert run_cell(plan, cell, n, delta, range(9)) == want
    assert sorted(calls) == ["build", "sample"]
    assert analyzed.count((n,)) == 1
    assert [s[0] for s in analyzed if len(s) == 2] == [2] * 4 + [1]


def test_more_batches_do_not_raise_the_peak():
    """Batches of one call do not overlap: ten batches at n = 2^14 peak within
    half a batch array of one batch (the reports themselves take ~16 KiB)."""
    plan = plan_of(ns=(2 ** 14,), deltas=(1.0,), trials=20)
    cell, n, delta = plan.cells()[0]
    run_cell(plan, cell, n, delta, range(2))  # warm the caches

    def peak(trials):
        tracemalloc.start()
        try:
            run_cell(plan, cell, n, delta, trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    batch_array = 8 * _chunk_trials(n) * n
    assert peak(range(20)) - peak(range(2)) < batch_array / 2


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

    def test_slack_is_1e_12_on_the_integral_scale(self):
        # orthonormal coefficients at n = 64 are 8 times the integral ones,
        # so the slack here is 8e-12
        shrunk, signal, coarse, lam = self.batch()
        k = 2 ** coarse + int(np.argmax(np.abs(signal[2 ** coarse :])))
        assert abs(signal[k]) > 2 * lam + 1e-9
        exceed = np.zeros(len(shrunk), dtype=int)
        shrunk[0, k] = signal[k] + 2 * lam + 4e-12
        _assert_detail_contraction(shrunk, signal, lam, coarse, exceed, "soft")
        shrunk[0, k] = signal[k] + 2 * lam + 16e-12
        with pytest.raises(RuntimeError):
            _assert_detail_contraction(shrunk, signal, lam, coarse, exceed, "soft")

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
        plan = plan_of(ns=(256, 512), deltas=(1.0,))  # one task per cell
        assert run_plan(plan, workers=8) == run_plan(plan, workers=1)
        assert pools == [2]

    def test_reports_do_not_depend_on_the_worker_count(self, pools):
        # two and three workers split the cells at n = 2^12 and 2^14 into
        # shares of different sizes
        plan = plan_of(ns=(16, 256, 2 ** 12, 2 ** 14), deltas=(1.0,), trials=10)
        serial = run_plan(plan, workers=1)
        for workers in (2, 3):
            shared = run_plan(plan, workers=workers)
            assert shared == serial
            for a, b in zip(shared, serial):
                assert (a.max_sq_err, a.mse, a.exceed_by_level) == \
                    (b.max_sq_err, b.mse, b.exceed_by_level)
        assert pools == [2, 3]

    def test_single_task_runs_without_a_pool(self, pools):
        plan = plan_of(ns=(256,), deltas=(1.0,))
        run_plan(plan, workers=4)
        assert pools == []


@pytest.fixture
def store(monkeypatch):
    """An empty store of interval systems, restored afterwards."""
    fresh = {}
    monkeypatch.setattr(shrinkage, "_INTERVAL_SYSTEMS", fresh)
    return fresh


def refuse(*args):
    raise AssertionError(f"unexpected call {args}")


def test_plan_without_trials_builds_nothing(store, monkeypatch):
    monkeypatch.setattr(interval, "build_interval_system", refuse)
    assert run_plan(interval_plan(trials=0), workers=2) == []
    assert store == {}


def test_store_keeps_the_most_recently_used_systems(store):
    def fake_build(fn, keys):  # stands in for the builds, in order
        return [("system", key) for key in keys]

    ns = [2 ** k for k in range(4, 14)]  # ten systems, two over the bound
    got = shrinkage.wavelet_systems("interval", ns, 1.0, 2, build_map=fake_build)
    assert got == {n: ("system", (2, n, 3)) for n in ns}
    # stored smallest first, so the two smallest went out first
    assert sorted(store) == [(2, n, 3) for n in ns[2:]]
    assert shrinkage.wavelet_system("interval", 2 ** 13, 1.0, 2) == \
        ("system", (2, 2 ** 13, 3))
    assert list(store)[-1] == (2, 2 ** 13, 3)  # a hit is used most recently
    got = shrinkage.wavelet_systems("interval", [16], 1.0, 2, build_map=fake_build)
    assert got == {16: ("system", (2, 16, 3))}
    assert len(store) == shrinkage._STORE_SIZE and (2, 32, 3) not in store


def test_run_cell_takes_the_system_it_is_given(store, monkeypatch):
    plan = INTERVAL_PLANS["soft"]
    cell, n, delta = plan.cells()[3]
    system = wavelet_system(plan.system, n, plan.alpha, plan.moments)
    shipped = pickle.loads(pickle.dumps(system))
    want = [linear_trial(plan, cell, n, delta, t) for t in range(4)]
    monkeypatch.setattr(experiments, "wavelet_system", refuse)
    monkeypatch.setattr(interval, "build_interval_system", refuse)
    assert run_cell(plan, cell, n, delta, range(0, 4), shipped) == want


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the patched build function")
class TestRealPool:
    """run_plan with a real two-process pool.  Forked workers inherit the
    build function patched here, so a build anywhere is seen."""

    PLAN = interval_plan(ns=(256, 1024), deltas=(0.5, 1.0), trials=40)

    def test_warm_store_builds_nothing(self, store, monkeypatch):
        serial = run_plan(self.PLAN, workers=1)  # fills the store here
        assert sorted(store) == [(2, 256, 3), (2, 1024, 3)]
        monkeypatch.setattr(interval, "build_interval_system", refuse)
        # each task carries its system, so none resolves one
        monkeypatch.setattr(experiments, "wavelet_system", refuse)
        assert run_plan(self.PLAN, workers=2) == serial

    def test_cold_store_builds_each_system_once(self, store, monkeypatch,
                                                tmp_path):
        log = tmp_path / "builds"
        build = interval.build_interval_system

        def logged(*args):
            with open(log, "a") as fh:  # one short append per build
                fh.write(f"{os.getpid()} {args}\n")
            return build(*args)

        monkeypatch.setattr(interval, "build_interval_system", logged)
        parallel = run_plan(self.PLAN, workers=2)
        lines = log.read_text().splitlines()
        assert sorted(line.split(" ", 1)[1] for line in lines) == \
            ["(2, 1024, 3)", "(2, 256, 3)"]
        assert all(int(line.split()[0]) != os.getpid() for line in lines)
        assert sorted(store) == [(2, 256, 3), (2, 1024, 3)]

        monkeypatch.setattr(interval, "build_interval_system", build)
        store.clear()
        serial = run_plan(self.PLAN, workers=1)
        assert parallel == serial
        for a, b in zip(parallel, serial):
            assert (a.max_sq_err, a.mse, a.exceed_by_level) == \
                (b.max_sq_err, b.mse, b.exceed_by_level)
