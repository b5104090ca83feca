"""estimate_event_probability splits its trials into contiguous shares, one
thread each: the estimate must not depend on the share count, and no thread
may outlive a call.  Its hits are cell 0's event-A column of run_cell."""
import os
import threading

import numpy as np
import pytest

from waveshrink import experiments
from waveshrink.experiments import (
    ExperimentPlan,
    _chunk_trials,
    _share_count,
    estimate_event_probability,
    run_cell,
)
from waveshrink.noise import NOISE_FAMILIES, NoiseSpec, sample_noise
from waveshrink.shrinkage import wavelet_system
from waveshrink.transform import HaarSystem

SYSTEMS = {
    "haar-2^14": lambda: HaarSystem(2 ** 14, 0),
    "haar-2^16": lambda: HaarSystem(2 ** 16, 0),
    "interval-N2-2^14": lambda: wavelet_system("interval", 2 ** 14, 1.0, 2),
}


@pytest.fixture
def shares(monkeypatch):
    """``shares(p)`` makes every estimate run in p shares, and ``shares()``
    keeps the real rule; returns the share counts that calls then hand to
    ``_run_blocks``."""
    used = []
    real_run = experiments._run_blocks

    def recording_run(fn, args):
        used.append(len(args))
        return real_run(fn, args)

    monkeypatch.setattr(experiments, "_run_blocks", recording_run)

    def force(p=None):
        if p is not None:
            monkeypatch.setattr(experiments, "_share_count", lambda n, trials: p)
        used.clear()
        return used
    return force


def _tight_bound(monkeypatch, family, system, trials, seed):
    """Makes event A's bound the median of the trials' largest |We|, so about
    half the trials are members and a trial counted under the wrong seed or
    in no share changes the estimate.  Returns the members' count."""
    top = [np.max(np.abs(system.analyze(sample_noise(NoiseSpec(
        family, 1.0, np.random.SeedSequence(seed, spawn_key=(0, t))), system.n))))
        for t in range(trials)]
    bound = float(np.median(top))
    monkeypatch.setattr(experiments, "coefficient_bound", lambda b, system: bound)
    return sum(t <= bound for t in top)


@pytest.mark.parametrize("family", NOISE_FAMILIES)
@pytest.mark.parametrize("name", SYSTEMS)
def test_shares_give_the_estimate_of_one_share(shares, monkeypatch, name, family):
    system, trials = SYSTEMS[name](), 10
    members = _tight_bound(monkeypatch, family, system, trials, seed=5)
    assert 0 < members < trials
    results = []
    for p in (1, 2, 3, 4):
        used = shares(p)
        results.append(estimate_event_probability(
            family, 1.0, system.n, trials, master_seed=5, system=system))
        assert used == [p]
    assert results[0] == (members / trials, experiments.wilson_interval(members, trials))
    assert results == [results[0]] * 4


@pytest.mark.parametrize("trials", [1, 2, 3, 5])
def test_fewer_or_uneven_trials_than_shares(shares, monkeypatch, trials):
    system = HaarSystem(2 ** 14, 0)
    members = _tight_bound(monkeypatch, "mixture", system, trials, seed=8)
    for p in (1, 2, 3, 4):
        shares(p)
        assert estimate_event_probability("mixture", 1.0, system.n, trials, master_seed=8) \
            == (members / trials, experiments.wilson_interval(members, trials))


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_noise_free_shares(shares, p):
    shares(p)
    assert estimate_event_probability("uniform", 0.0, 2 ** 14, 7) == \
        (1.0, experiments.wilson_interval(7, 7))


@pytest.mark.parametrize("name", SYSTEMS)
def test_noise_free_estimate_draws_nothing(shares, monkeypatch, name):
    """Every noise-free trial is in A: no trial's stream is derived and no
    share runs."""
    def refuse(*args):
        raise AssertionError(f"noise drawn for {args}")

    monkeypatch.setattr(experiments, "_noise_batch", refuse)
    used, system = shares(), SYSTEMS[name]()
    assert estimate_event_probability("mixture", 0.0, system.n, 4000, 3, system) == \
        (1.0, experiments.wilson_interval(4000, 4000))
    assert used == []


def test_share_count_rule(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
    assert _share_count(2 ** 13, 10 ** 4) == 1   # rows too short
    assert _share_count(2 ** 14, 31) == 1        # under 2**19 values
    assert _share_count(2 ** 14, 32) == 2
    assert _share_count(2 ** 16, 16) == 4        # six cores: the power of two below
    assert _share_count(2 ** 20, 1) == 1         # never more shares than trials
    assert _share_count(2 ** 20, 3) == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _share_count(2 ** 16, 16) == 1


def test_small_rows_run_as_one_share(shares, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    used = shares()

    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    p_hat, _ = estimate_event_probability("mixture", 1.0, 256, 4000, master_seed=2)
    assert used == [1] and p_hat == 1.0


def test_helper_share_exception_reaches_the_caller(shares, monkeypatch):
    real = experiments._event_hits

    def failing(family, b, system, bound, master_seed, trials):
        if trials.start > 0:
            raise FloatingPointError(f"share at {trials.start}")
        return real(family, b, system, bound, master_seed, trials)

    monkeypatch.setattr(experiments, "_event_hits", failing)
    before = threading.active_count()
    shares(4)
    with pytest.raises(FloatingPointError, match="share at"):
        estimate_event_probability("uniform", 1.0, 2 ** 14, 8)
    assert threading.active_count() == before


def test_no_thread_outlives_the_call(shares):
    before = threading.active_count()
    for p in (2, 4):
        shares(p)
        estimate_event_probability("truncated", 1.0, 2 ** 16, 6)
        assert threading.active_count() == before


def test_usable_cores_give_the_estimate_of_one_share(shares, monkeypatch):
    # the unforced rule, on however many cores this process may use
    system = HaarSystem(2 ** 16, 0)
    members = _tight_bound(monkeypatch, "rademacher", system, 16, seed=3)
    used = shares()
    assert estimate_event_probability("rademacher", 1.0, system.n, 16, master_seed=3) \
        == (members / 16, experiments.wilson_interval(members, 16))
    assert used == [_share_count(system.n, 16)]


@pytest.mark.parametrize("b", [-1.0, float("nan"), float("inf")])
def test_bad_range_is_caught_before_any_share(shares, monkeypatch, b):
    def refuse(*args):
        raise AssertionError("a share ran")

    monkeypatch.setattr(experiments, "_event_hits", refuse)
    used = shares(4)
    with pytest.raises(ValueError, match="noise range b must be finite and > 0"):
        estimate_event_probability("uniform", b, 2 ** 14, 8)
    assert used == []


# (system, plan fields) at which run_cell runs on the system the estimate
# gets: Haar at coarse level 0, and interval N = 2
CELL_SYSTEMS = {
    "haar": (lambda n: HaarSystem(n, 0), dict(signal_kind="oddcusp", alpha=0.5)),
    "interval-N2": (lambda n: wavelet_system("interval", n, 1.0, 2),
                    dict(signal_kind="sine", alpha=1.0, system="interval", moments=2)),
}


@pytest.mark.parametrize("family", NOISE_FAMILIES)
@pytest.mark.parametrize("name, n", [("haar", 16), ("haar", 256), ("haar", 2 ** 10),
                                     ("haar", 2 ** 14), ("interval-N2", 256),
                                     ("interval-N2", 2 ** 10), ("interval-N2", 2 ** 14)])
@pytest.mark.parametrize("b", [1.0, 0.0])
def test_estimate_is_cell_0_of_run_cell(monkeypatch, name, n, family, b):
    """With a partial last batch and the bound at the median trial, so that
    a trial drawn from another stream or counted in no batch changes the
    count; b = 0 against a noise-free plan."""
    make_system, fields = CELL_SYSTEMS[name]
    system, trials, seed = make_system(n), 2 * _chunk_trials(n) + 1, 13
    if b:
        members = _tight_bound(monkeypatch, family, system, trials, seed)
        assert 0 < members < trials
    plan = ExperimentPlan(holder_const=1.0, noise_family=family, noise_bound=b,
                          threshold_bound=None if b else 1.0, ns=(n,), deltas=(1.0,),
                          trials=trials, master_seed=seed, **fields)
    hits = int(run_cell(plan, 0, n, 1.0, range(trials), system).in_A.sum())
    assert hits == (members if b else trials)
    assert estimate_event_probability(family, b, n, trials, seed, system) == \
        (hits / trials, experiments.wilson_interval(hits, trials))
