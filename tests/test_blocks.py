"""Large Haar transforms and shrink split into dyadic blocks, one thread
each: the bytes must not depend on the block count, and no thread may
outlive a call.  The ``blocks`` fixture is in conftest.py."""
import os
import threading
import time

import numpy as np
import pytest

from waveshrink import transform
from waveshrink.experiments import ExperimentPlan, run_plan
from waveshrink.shrinkage import ShrinkageConfig, shrink
from waveshrink.signals import make_signal
from waveshrink.transform import HaarSystem, _block_count, _run_blocks

SIZES = [2 ** 3, 2 ** 10, 2 ** 19, 2 ** 20]


def _coarse_levels(J, p):
    log_p = p.bit_length() - 1
    return sorted({0, 1, log_p - 1, log_p, J - 1, J} & set(range(J + 1)))


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("p", [2, 4, 8])
def test_blocks_give_the_bytes_of_one_block(blocks, p, n, lead):
    J = n.bit_length() - 1
    x = np.random.default_rng(n + p).standard_normal(lead + (n,))
    for J0 in _coarse_levels(J, p):
        system = HaarSystem(n, J0)
        blocks(1)
        coeffs, back = system.analyze(x), system.synthesize(x)
        used = blocks(p)
        assert system.analyze(x).tobytes() == coeffs.tobytes()
        assert system.synthesize(x).tobytes() == back.tobytes()
        # each block runs at least the finest level
        assert used == [min(p, 2 ** (J - max(J0, 1)))] * 2


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("mode", ["soft", "hard"])
@pytest.mark.parametrize("n, alpha", [(2 ** 3, 0.5), (2 ** 10, 0.5), (2 ** 19, 0.5),
                                      (2 ** 19, 2.0), (2 ** 20, 0.5), (2 ** 20, 2.0)])
@pytest.mark.parametrize("p", [2, 4, 8])
def test_shrink_in_blocks_gives_the_bytes_of_one_block(blocks, p, n, alpha, mode, lead):
    config = ShrinkageConfig.build(n, alpha, 1.0, 1.0, 1.0, mode)
    f = make_signal("cusp", 0.5, 1.0).sample(n)
    y = f + np.random.default_rng(n).uniform(-0.5, 0.5, lead + (n,))
    blocks(1)
    want = shrink(y, config)
    blocks(p)
    assert shrink(y, config).tobytes() == want.tobytes()


def test_block_count_rule(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
    assert _block_count(2 ** 19 - 1, 30) == 1
    assert _block_count(2 ** 19, 30) == 2
    assert _block_count(3 * 2 ** 18, 30) == 2
    assert _block_count(2 ** 20, 30) == 4
    assert _block_count(2 ** 24, 30) == 4  # six cores: the power of two below
    assert _block_count(2 ** 24, 1) == 2
    assert _block_count(2 ** 24, 0) == 1


def test_one_usable_core_gives_one_block(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _block_count(2 ** 24, 30) == 1


def test_cpu_count_where_there_is_no_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _block_count(2 ** 24, 30) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _block_count(2 ** 24, 30) == 1


def test_helper_block_exception_reaches_the_caller(blocks, monkeypatch):
    real = transform._analyze_levels

    def failing(s, out, levels, block, p, bufs):
        if block == 1:
            raise FloatingPointError("block 1")
        return real(s, out, levels, block, p, bufs)

    monkeypatch.setattr(transform, "_analyze_levels", failing)
    before = threading.active_count()
    blocks(4)
    with pytest.raises(FloatingPointError, match="block 1"):
        HaarSystem(2 ** 10, 0).analyze(np.ones(2 ** 10))
    assert threading.active_count() == before


def test_caller_block_exception_joins_the_helpers():
    finished = []

    def fn(i):
        if i == 0:
            raise KeyError(i)
        time.sleep(0.05)
        finished.append(i)

    before = threading.active_count()
    with pytest.raises(KeyError):
        _run_blocks(fn, [(0,), (1,), (2,)])
    assert sorted(finished) == [1, 2]
    assert threading.active_count() == before
    assert _run_blocks(lambda i: i * i, [(1,), (2,), (3,)]) == [1, 4, 9]


# the plans of the CI step that compares simulate output across worker counts
CI_PLANS = [
    dict(signal_kind="sine", alpha=1.0, holder_const=1.0, noise_family="uniform",
         noise_bound=1.0, ns=[256, 1024, 2048, 16384], deltas=[1.0], trials=8,
         system="interval", moments=2),
    dict(signal_kind="sine", alpha=1.0, holder_const=1.0, noise_family="mixture",
         noise_bound=1.0, ns=[16, 256, 512, 1024, 16384], deltas=[0.0, 1.0],
         trials=8, mode="hard", system="haar"),
    dict(signal_kind="sine", alpha=1.0, holder_const=1.0, noise_family="uniform",
         noise_bound=1.0, ns=[16, 256, 16384], deltas=[0.0, 1.0], trials=8,
         mode="soft", system="haar"),
]


@pytest.mark.parametrize("plan", CI_PLANS)
def test_run_plan_starts_no_thread(monkeypatch, plan):
    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    cells = run_plan(ExperimentPlan(**plan, master_seed=11))
    assert [len(c.trial) for c in cells] == \
        [plan["trials"]] * len(plan["ns"]) * len(plan["deltas"])
