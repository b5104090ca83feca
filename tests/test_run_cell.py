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
import types

import numpy as np
import pytest

from trial_oracle import assert_same_columns, oracle_cells
from trial_oracle import run_trial as oracle_trial
from trial_oracle import stack, take
from waveshrink import experiments, interval, noise, shrinkage, signals
from waveshrink.experiments import (
    ExperimentPlan,
    _assert_detail_contraction,
    _chunk_trials,
    _contraction_bound,
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


# compared exactly with the oracle; the errors only to rounding
EXACT = ("trial", "seed", "in_A", "exceed_by_level")


def assert_matches_oracle(plan, columns=EXACT):
    got, want = run_plan(plan, workers=1), oracle_cells(plan)
    assert sum(len(c.trial) for c in got) == plan.trials * len(plan.cells())
    assert_same_columns(got, want, columns)
    for g, w in zip(got, want):
        assert g.max_sq_err == pytest.approx(w.max_sq_err, rel=1e-12, abs=0)
        assert g.mse == pytest.approx(w.mse, rel=1e-12, abs=0)


def linear_trial(plan, cell, n, delta, trial):
    """One trial as run_cell computes it, alone: the noise and the signal
    analyzed apart, W(f + e) = Wf + We, then thresholded and synthesized.
    The other columns are the oracle's."""
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
            np.random.SeedSequence(plan.master_seed, spawn_key=(cell, trial))), n)
    c = system.analyze(e) + system.analyze(f)
    lo = 2 ** cfg.coarse_level
    c[lo:] = shrinkage.threshold_rule(plan.mode)(c[lo:], cfg.orthonormal_threshold)
    sq = (system.synthesize(c) - f) ** 2
    return dataclasses.replace(want, max_sq_err=np.array([np.max(sq)]),
                               mse=np.array([np.mean(sq)]))


@pytest.mark.parametrize("name", sorted(HAAR_PLANS))
def test_haar_matches_per_trial_oracle_exactly(name):
    """Seeds, event A and the exceedances agree exactly.  The oracle
    analyzes f + e and run_cell adds Wf to We, so the errors agree to
    rounding."""
    assert_matches_oracle(HAAR_PLANS[name])


@pytest.mark.parametrize("plan", [pytest.param(p, id=f"haar-{k}")
                                  for k, p in sorted(HAAR_PLANS.items())]
                         + [pytest.param(p, id=f"interval-{k}")
                            for k, p in sorted(INTERVAL_PLANS.items())])
def test_run_cell_is_linear_per_trial_exactly(plan):
    """Every column, errors included, is bit-equal to its trials computed
    alone as synthesize(threshold(analyze(e) + analyze(f)))."""
    assert_same_columns(run_plan(plan, workers=1), oracle_cells(plan, linear_trial))


@pytest.mark.parametrize("name", sorted(INTERVAL_PLANS))
def test_interval_matches_per_trial_oracle(name):
    assert_matches_oracle(INTERVAL_PLANS[name])


def test_haar_odd_levels_match_per_trial_oracle():
    """At odd J, sqrt(n) is not a power of two, so thresholding at
    lambda * sqrt(n) rounds differently from the oracle's pyramid passes by
    1/sqrt(n) and back.  The errors agree to rounding, everything else
    exactly."""
    assert_matches_oracle(plan_of(mode="hard", noise_family="mixture",
                                  ns=(512, 2048), trials=8))


@pytest.mark.parametrize("plan", [HAAR_PLANS["partial-chunk"],
                                  HAAR_PLANS["hard"],
                                  INTERVAL_PLANS["partial-chunk"]])
def test_run_trial_equals_its_run_plan_row(plan):
    cells = run_plan(plan, workers=1)
    for (cell, n, delta), result in zip(plan.cells(), cells):
        for t in sorted({0, plan.trials // 2, plan.trials - 1}):
            assert_same_columns(run_trial(plan, cell, n, delta, t), take(result, t))


def test_reports_do_not_depend_on_chunking():
    plan = INTERVAL_PLANS["soft"]
    cell, n, delta = plan.cells()[3]
    whole = run_cell(plan, cell, n, delta, range(0, 6))
    split = stack([run_cell(plan, cell, n, delta, range(0, 2)),
                   run_cell(plan, cell, n, delta, range(2, 6))])
    assert_same_columns(whole, split)


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
    assert run_cell(plan, cell, n, delta, range(37)).trial.tolist() == list(range(37))
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


@pytest.mark.parametrize("shares", sorted(CELL_SHARES))
def test_tasks_are_cell_shares(shares):
    plan = plan_of(ns=(1024, 2 ** 12, 2 ** 14), deltas=(0.5, 1.0), trials=50)
    tasks = experiments._plan_tasks(plan, shares)
    assert [(task[1], t) for task in tasks for t in task[-1]] == \
        [(cell, t) for cell, _, _ in plan.cells() for t in range(plan.trials)]
    for cell, n, delta in plan.cells():
        cell_tasks = [task for task in tasks if task[1] == cell]
        assert all(task[:4] == (plan, cell, n, delta) for task in cell_tasks)
        assert [len(task[-1]) for task in cell_tasks] == CELL_SHARES[shares][n]


def test_run_cell_makes_the_signal_once(analyzed, monkeypatch):
    plan = plan_of(ns=(2 ** 14,), deltas=(1.0,), trials=9)
    cell, n, delta = plan.cells()[0]
    [want] = oracle_cells(plan, linear_trial)
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
    assert_same_columns(run_cell(plan, cell, n, delta, range(9)), want)
    assert sorted(calls) == ["build", "sample"]
    assert analyzed.count((n,)) == 1
    assert [s[0] for s in analyzed if len(s) == 2] == [2] * 4 + [1]


def test_more_batches_do_not_raise_the_peak():
    """Batches of one call do not overlap: ten batches at n = 2^14 peak within
    half a batch array of one batch (the columns of 20 trials take under
    1 KiB)."""
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


@pytest.mark.parametrize("kind, moments, alpha", [("haar", None, 0.5), ("interval", 2, 1.0)])
def test_noise_max_is_each_trials_largest_noise_coefficient(kind, moments, alpha):
    plan = plan_of(ns=(256,), deltas=(1.0,), trials=6, alpha=alpha, system=kind,
                   moments=moments, noise_family="mixture")
    cell, n, delta = plan.cells()[0]
    system = wavelet_system(kind, n, alpha, moments)
    result = run_cell(plan, cell, n, delta, range(6), system)
    bound = noise.coefficient_bound(plan.noise_bound, system)
    assert result.noise_max.dtype == np.float64 and result.noise_max.shape == (6,)
    assert np.array_equal(result.in_A, result.noise_max <= bound)
    _, e = experiments._noise_batch(plan.noise_family, plan.noise_bound, plan.master_seed,
                                    cell, range(4, 5), n)
    assert result.noise_max[4] == np.max(np.abs(system.analyze(e[0])))
    # a cell's shares join in trial order
    joined = experiments._join([run_cell(plan, cell, n, delta, range(0, 2), system),
                                run_cell(plan, cell, n, delta, range(2, 6), system)])
    assert joined.noise_max.tobytes() == result.noise_max.tobytes()


class TestContractionCheck:
    @staticmethod
    def batch(trials=5, n=64, coarse=2, lam=0.3):
        rng = np.random.default_rng(4)
        signal = rng.normal(0.0, 1.0, n)
        shrunk = np.tile(signal, (trials, 1))
        shrunk[:, 2 ** coarse :] = soft_threshold(signal[2 ** coarse :], lam)
        return shrunk, signal, coarse, lam

    @staticmethod
    def check(shrunk, signal, coarse, lam, exceed=None, mode="soft", scratch=None):
        if exceed is None:
            exceed = np.zeros(len(shrunk), dtype=bool)
        if scratch is None:
            scratch = np.empty(shrunk[:, 2 ** coarse :].shape)
        bound = _contraction_bound(signal, lam, coarse, mode)
        _assert_detail_contraction(shrunk, signal, bound, coarse, exceed, scratch)

    def test_bound_is_min_of_signal_and_two_lambda_plus_slack(self):
        _, signal, coarse, lam = self.batch()
        d = np.abs(signal[2 ** coarse :])
        want = np.minimum(d + 8e-12, 2 * lam + 8e-12)  # slack 1e-12 * sqrt(64)
        assert _contraction_bound(signal, lam, coarse, "soft").tobytes() == want.tobytes()

    def test_passes_on_soft_thresholded_signal(self):
        self.check(*self.batch())

    def test_raises_on_violation_in_one_trial(self):
        shrunk, signal, coarse, lam = self.batch()
        shrunk[3, 40] = signal[40] + 2.5 * lam  # level 5: [32, 64)
        with pytest.raises(RuntimeError, match="level 5 .batch row 3"):
            self.check(shrunk, signal, coarse, lam)

    def test_raises_when_move_exceeds_the_signal_coefficient(self):
        shrunk, signal, coarse, lam = self.batch()
        k = 2 ** coarse + int(np.argmin(np.abs(signal[2 ** coarse :])))
        shrunk[0, k] = signal[k] + math.copysign(abs(signal[k]) + 1e-6, signal[k])
        assert abs(shrunk[0, k] - signal[k]) < 2 * lam
        with pytest.raises(RuntimeError):
            self.check(shrunk, signal, coarse, lam)

    @pytest.mark.parametrize("exceed", [np.array([0, 0, 0, 1, 0]),
                                        np.array([False, False, False, True, False])])
    def test_skips_only_trials_with_exceedance(self, exceed):
        shrunk, signal, coarse, lam = self.batch()
        shrunk[3, 40] = signal[40] + 2.5 * lam
        self.check(shrunk, signal, coarse, lam, exceed)
        # a row without exceedance is checked while another row exceeds
        shrunk[1, 20] = signal[20] + 2.5 * lam  # level 4: [16, 32)
        with pytest.raises(RuntimeError, match="level 4 .batch row 1"):
            self.check(shrunk, signal, coarse, lam, exceed)

    def test_hard_mode_moves_at_most_max_of_signal_and_lambda(self):
        # a kept coefficient moves by its noise, up to lambda, even where
        # |d_f| is smaller; a killed one by |d_f|, at most 2 lambda
        shrunk, signal, coarse, lam = self.batch()
        d = np.abs(signal)
        small = 2 ** coarse + int(np.argmin(d[2 ** coarse :]))
        assert d[small] < lam / 2
        shrunk[3, small] = signal[small] + lam
        self.check(shrunk, signal, coarse, lam, mode="hard")
        with pytest.raises(RuntimeError):
            self.check(shrunk, signal, coarse, lam, mode="soft")
        shrunk[3, 40] = signal[40] + min(max(d[40], lam), 2 * lam)
        self.check(shrunk, signal, coarse, lam, mode="hard")
        shrunk[3, 40] = signal[40] + 2.5 * lam
        with pytest.raises(RuntimeError, match="level 5 .batch row 3"):
            self.check(shrunk, signal, coarse, lam, mode="hard")

    def test_hard_bound(self):
        _, signal, coarse, lam = self.batch()
        d = np.abs(signal[2 ** coarse :])
        want = np.minimum(np.maximum(d, lam) + 8e-12, 2 * lam + 8e-12)
        assert _contraction_bound(signal, lam, coarse, "hard").tobytes() == want.tobytes()

    def test_differences_go_to_the_scratch(self):
        shrunk, signal, coarse, lam = self.batch()
        shrunk[2, 40] = signal[40] + 2.5 * lam
        lo = 2 ** coarse
        kept, scratch = shrunk.copy(), np.full(shrunk[:, lo:].shape, np.nan)
        with pytest.raises(RuntimeError, match="batch row 2"):
            self.check(shrunk, signal, coarse, lam, scratch=scratch)
        assert shrunk.tobytes() == kept.tobytes()
        assert np.array_equal(scratch, np.abs(shrunk[:, lo:] - signal[lo:]))

    def test_slack_is_1e_12_on_the_integral_scale(self):
        # orthonormal coefficients at n = 64 are 8 times the integral ones,
        # so the slack here is 8e-12
        shrunk, signal, coarse, lam = self.batch()
        k = 2 ** coarse + int(np.argmax(np.abs(signal[2 ** coarse :])))
        assert abs(signal[k]) > 2 * lam + 1e-9
        shrunk[0, k] = signal[k] + 2 * lam + 4e-12
        self.check(shrunk, signal, coarse, lam)
        shrunk[0, k] = signal[k] + 2 * lam + 16e-12
        with pytest.raises(RuntimeError):
            self.check(shrunk, signal, coarse, lam)

    def test_approximation_block_is_not_checked(self):
        shrunk, signal, coarse, lam = self.batch()
        shrunk[1, 0] = signal[0] + 10.0
        self.check(shrunk, signal, coarse, lam)


# lambda scaled down, on both sides, so that in a batch some rows have a
# noise coefficient over it and others do not; no plan at the paper's lambda
# reaches one.  The factors put about half the rows over at n = 256 and 2^14.
EXCEEDING = {
    "haar-soft": (plan_of(), 0.08),
    "haar-hard": (plan_of(mode="hard"), 0.08),
    "interval": (interval_plan(), 0.048),
}


@pytest.mark.parametrize("name", sorted(EXCEEDING))
@pytest.mark.parametrize("n, trials", [(256, 129), (2 ** 14, 8)])
def test_exceedance_path_matches_per_trial_oracle(name, n, trials, monkeypatch):
    """Rows over lambda are counted per level, and the others count zero; in
    soft mode the contraction check passes over the rows that exceed."""
    plan, factor = EXCEEDING[name]
    plan = dataclasses.replace(plan, ns=(n,), deltas=(1.0,), trials=trials)
    threshold = shrinkage.compute_threshold
    monkeypatch.setattr(shrinkage, "compute_threshold",
                        lambda *args: factor * threshold(*args))
    assert_matches_oracle(plan)
    [got] = run_plan(plan)
    assert_same_columns(got, oracle_cells(plan, linear_trial)[0])
    for start in range(0, trials, _chunk_trials(n)):  # 128 rows, or pairs
        over = got.exceed_by_level[start : start + _chunk_trials(n)].any(axis=-1)
        if len(over) > 1 and over.any() and not over.all():
            break
    else:
        pytest.fail("no batch mixes rows over lambda with rows under it")


class TestSeedWords:
    """Each trial's PCG64 is seeded from the four words of its SeedSequence,
    through noise._SeedWords: the seed column is word 0, and each row is the
    row that the SeedSequence itself draws."""

    MASTERS = [0, 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1, 10 ** 30]

    @pytest.mark.parametrize("master", MASTERS)
    @pytest.mark.parametrize("cell", [0, 3])
    @pytest.mark.parametrize("family", noise.NOISE_FAMILIES)
    def test_rows_and_seeds_are_the_seed_sequences(self, master, cell, family,
                                                   monkeypatch):
        n, b = 2 ** 14, 0.75
        plan = plan_of(noise_family=family, noise_bound=b, ns=(n,), deltas=(1.0,),
                       master_seed=master)
        rows = []
        sample = experiments.sample_noise

        def recording(spec, size):
            row = sample(spec, size)
            rows.append(row.copy())  # a one-row batch becomes the scratch
            return row

        monkeypatch.setattr(experiments, "sample_noise", recording)
        trials = range(5, 8)  # batches [5, 6] and [7]
        assert _chunk_trials(n) == 2
        got = run_cell(plan, cell, n, 1.0, trials)
        seqs = [np.random.SeedSequence(master, spawn_key=(cell, t)) for t in trials]
        assert got.seed.tolist() == [s.generate_state(1, np.uint64)[0] for s in seqs]
        assert len(rows) == len(seqs)
        for row, seq in zip(rows, seqs):
            want = noise.sample_noise(noise.NoiseSpec(family, b, seq), n)
            assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (2, np.uint64),
                                                (3, np.uint64), (8, np.uint32),
                                                (624, np.uint32), (5, np.uint64)])
    def test_any_other_request_raises(self, n_words, dtype):
        words = np.random.SeedSequence(7).generate_state(4, np.uint64)
        with pytest.raises(ValueError, match="holds 4 uint64 words"):
            noise._SeedWords(words).generate_state(n_words, dtype)

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.SFC64,
                                               np.random.Philox])
    def test_another_bit_generator_fails_loudly(self, bit_generator):
        words = np.random.SeedSequence(7).generate_state(4, np.uint64)
        with pytest.raises(ValueError, match="holds 4 uint64 words"):
            bit_generator(noise._SeedWords(words))


@pytest.fixture
def pooled_tasks(monkeypatch):
    """Every plan pays for a pool: its tasks are sharded over the workers,
    whatever its size."""
    monkeypatch.setattr(experiments, "_POOL_VALUES", 1)


class TestWorkers:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Replace the process pool with an in-process one that records the
        processes each pool was asked for, and the functions it mapped."""
        made = types.SimpleNamespace(sizes=[], mapped=[])

        class FakePool:
            def __init__(self, max_workers):
                made.sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                made.mapped.append(fn.__name__)
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        return made

    @pytest.mark.parametrize("workers", [0, -1, 2.5, 2.0, "2", None, True])
    def test_rejects_a_bad_worker_count(self, workers, pools):
        with pytest.raises(ValueError, match="worker count must be an integer >= 1"):
            run_plan(plan_of(), workers=workers)
        assert pools.sizes == []

    def test_one_worker_is_the_default(self, pools):
        plan = plan_of(ns=(256, 512), deltas=(1.0,))
        assert_same_columns(run_plan(plan), run_plan(plan, workers=1))
        assert pools.sizes == []

    def test_pool_never_exceeds_the_task_count(self, pools, pooled_tasks):
        plan = plan_of(ns=(256, 512), deltas=(1.0,))  # one task per cell
        assert_same_columns(run_plan(plan, workers=8), run_plan(plan, workers=1))
        assert pools.sizes == [2]

    def test_reports_do_not_depend_on_the_worker_count(self, pools, pooled_tasks):
        # two and three workers split the cells at n = 2^12 and 2^14 into
        # shares of different sizes
        plan = plan_of(ns=(16, 256, 2 ** 12, 2 ** 14), deltas=(1.0,), trials=10)
        serial = run_plan(plan, workers=1)
        for workers in (2, 3):
            assert_same_columns(run_plan(plan, workers=workers), serial)
        assert pools.sizes == [2, 3]

    def test_single_task_runs_without_a_pool(self, pools, pooled_tasks):
        plan = plan_of(ns=(256,), deltas=(1.0,))
        run_plan(plan, workers=4)
        assert pools.sizes == []

    # a cell at n = 2^14 holds 2^18 values per 16 trials; four workers cut
    # each cell into four tasks, two workers into two
    @pytest.mark.parametrize("workers, deltas, trials, sizes", [
        (4, (1.0,), 31, []), (4, (1.0,), 32, [2]), (4, (1.0,), 47, [2]),
        (4, (1.0,), 48, [3]), (2, (1.0,), 48, [2]),
        (4, (0.0, 1.0), 15, []), (4, (0.0, 1.0), 16, [2]),
    ])
    def test_tasks_get_a_process_per_pool_values(self, pools, workers, deltas,
                                                 trials, sizes):
        plan = plan_of(ns=(2 ** 14,), deltas=deltas, trials=trials)
        assert experiments._POOL_VALUES == 2 ** 18
        assert_same_columns(run_plan(plan, workers=workers), run_plan(plan))
        assert pools.sizes == sizes
        assert pools.mapped == ["_run_task"] * len(sizes)

    def test_warm_store_under_the_rule_starts_no_pool(self, pools, store):
        plan = interval_plan()
        serial = run_plan(plan)  # fills the store here
        assert_same_columns(run_plan(plan, workers=2), serial)
        assert pools.sizes == []

    def test_cold_store_under_the_rule_starts_no_pool(self, pools, store,
                                                      monkeypatch):
        plan = interval_plan()  # three systems, under the rule
        ran = []
        monkeypatch.setattr(experiments, "_run_task",
                            lambda task: ran.append(task) or run_cell(*task))
        got = run_plan(plan, workers=2)
        assert pools.sizes == []
        # the systems are built and stored here, one task per cell runs here
        assert sorted(store) == [(2, 16, 3), (2, 256, 3), (2, 512, 3)]
        assert [t[1] for t in ran] == list(range(len(plan.cells())))
        store.clear()
        assert_same_columns(got, run_plan(plan))

    def test_tasks_are_cut_for_the_processes(self, pools, monkeypatch):
        # 32 trials at n = 2^14 draw 2 * 2^18 values: eight workers get a
        # pool of two, and the cell two tasks, not eight
        plan = plan_of(ns=(2 ** 14,), deltas=(1.0,), trials=32)
        ran = []
        monkeypatch.setattr(experiments, "_run_task",
                            lambda task: ran.append(task) or run_cell(*task))
        got = run_plan(plan, workers=8)
        assert pools.sizes == [2]
        assert [t[-2] for t in ran] == [range(0, 16), range(16, 32)]
        assert_same_columns(got, run_plan(plan, workers=1))


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


def test_store_keeps_every_system_it_builds(store):
    built = []

    def fake_build(fn, keys):  # stands in for the builds, in order
        built.extend(keys)
        return [("system", key) for key in keys]

    ns = [2 ** k for k in range(4, 14)]  # ten systems
    got = shrinkage.wavelet_systems("interval", ns, 1.0, 2, build_map=fake_build)
    assert got == {n: ("system", (2, n, 3)) for n in ns}
    # a later request builds only what the store lacks
    more = ns + [2 ** 14]
    got = shrinkage.wavelet_systems("interval", more, 1.0, 2, build_map=fake_build)
    assert got == {n: ("system", (2, n, 3)) for n in more}
    assert sorted(built) == sorted(store) == [(2, n, 3) for n in more]


def test_store_builds_largest_first(store):
    def fake_build(fn, keys):
        assert keys == sorted(keys, key=lambda key: key[1], reverse=True)
        return [("system", key) for key in keys]

    shrinkage.wavelet_systems("interval", [256, 16, 4096, 64], 1.0, 2,
                              build_map=fake_build)
    assert sorted(store) == [(2, n, 3) for n in (16, 64, 256, 4096)]


def test_run_cell_takes_the_system_it_is_given(store, monkeypatch):
    plan = INTERVAL_PLANS["soft"]
    cell, n, delta = plan.cells()[3]
    system = wavelet_system(plan.system, n, plan.alpha, plan.moments)
    shipped = pickle.loads(pickle.dumps(system))
    want = stack([linear_trial(plan, cell, n, delta, t) for t in range(4)])
    monkeypatch.setattr(experiments, "wavelet_system", refuse)
    monkeypatch.setattr(interval, "build_interval_system", refuse)
    assert_same_columns(run_cell(plan, cell, n, delta, range(0, 4), shipped), want)


def log_calls(monkeypatch, module, name, log):
    """Wrap ``module.name`` so that each call appends "pid args" to ``log``,
    in whichever process makes it."""
    fn = getattr(module, name)

    def logged(*args):
        with open(log, "a") as fh:  # one short append per call
            fh.write(f"{os.getpid()} {args}\n")
        return fn(*args)

    monkeypatch.setattr(module, name, logged)
    return fn


def logged_pids(log):
    return [int(line.split()[0]) for line in log.read_text().splitlines()]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the patched build function")
class TestRealPool:
    """run_plan with a real two-process pool.  Forked workers inherit the
    build function patched here, so a build anywhere is seen."""

    PLAN = interval_plan(ns=(256, 1024), deltas=(0.5, 1.0), trials=40)

    @pytest.mark.usefixtures("pooled_tasks")
    def test_warm_store_builds_nothing(self, store, monkeypatch):
        serial = run_plan(self.PLAN, workers=1)  # fills the store here
        assert sorted(store) == [(2, 256, 3), (2, 1024, 3)]
        monkeypatch.setattr(interval, "build_interval_system", refuse)
        # each task carries its system, so none resolves one
        monkeypatch.setattr(experiments, "wavelet_system", refuse)
        assert_same_columns(run_plan(self.PLAN, workers=2), serial)

    @pytest.mark.usefixtures("pooled_tasks")
    def test_cold_store_builds_each_system_once(self, store, monkeypatch,
                                                tmp_path):
        log = tmp_path / "builds"
        build = log_calls(monkeypatch, interval, "build_interval_system", log)
        parallel = run_plan(self.PLAN, workers=2)
        lines = log.read_text().splitlines()
        assert sorted(line.split(" ", 1)[1] for line in lines) == \
            ["(2, 1024, 3)", "(2, 256, 3)"]
        assert os.getpid() not in logged_pids(log)
        assert sorted(store) == [(2, 256, 3), (2, 1024, 3)]

        monkeypatch.setattr(interval, "build_interval_system", build)
        store.clear()
        assert_same_columns(parallel, run_plan(self.PLAN, workers=1))

    def test_cold_store_under_the_rule_runs_everything_here(self, store,
                                                            monkeypatch, tmp_path):
        builds, tasks = tmp_path / "builds", tmp_path / "tasks"
        log_calls(monkeypatch, interval, "build_interval_system", builds)
        log_calls(monkeypatch, experiments, "_run_task", tasks)
        got = run_plan(self.PLAN, workers=2)
        assert logged_pids(builds) == [os.getpid()] * 2
        assert logged_pids(tasks) == [os.getpid()] * len(self.PLAN.cells())
        assert_same_columns(got, run_plan(self.PLAN, workers=1))
