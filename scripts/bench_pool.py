"""run_plan time at 1 and k workers over a grid of plan sizes, with the task
process count that run_plan's pool rule picks at k workers.

Each row is one plan: Haar oddcusp (alpha = 1/2) at n = 2^8, 2^10, 2^12, 2^14
or interval N = 2 sine (alpha = 1) at n = 2^8, 2^10, 2^12, one delta, at each
trial count of ``--trials``.  Its interval systems are built before any timed
run.  The 1-worker and k-worker runs alternate, ``--repeats`` times each, and
the medians are printed.  The k-worker runs shard the tasks over
``min(k, tasks)`` processes whatever the plan's size (``_POOL_VALUES`` set to
1), so every row shows what a pool costs or saves; ``rule`` is the process
count run_plan cuts the plan's tasks for at k workers, where 1 means they run
in the caller.  A ratio under 1 where ``rule`` is 1, or over 1 where it is
more, says the constant does not fit this host.

    PYTHONPATH=src python scripts/bench_pool.py --workers 2 --trials 40 160 640
"""
from __future__ import annotations

import argparse
import statistics
import sys
import time

from waveshrink import experiments
from waveshrink.experiments import ExperimentPlan, run_plan
from waveshrink.transform import _usable_cores

PLANS = {
    "haar": dict(signal_kind="oddcusp", alpha=0.5, system="haar",
                 ns=(2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14)),
    "interval": dict(signal_kind="sine", alpha=1.0, system="interval", moments=2,
                     ns=(2 ** 8, 2 ** 10, 2 ** 12)),
}


def timed_run(plan: ExperimentPlan, workers: int) -> float:
    """Seconds of one run_plan call that shards its tasks over
    ``min(workers, tasks)`` processes, whatever the plan's size."""
    saved, experiments._POOL_VALUES = experiments._POOL_VALUES, 1
    try:
        start = time.perf_counter()
        run_plan(plan, workers)
        return time.perf_counter() - start
    finally:
        experiments._POOL_VALUES = saved


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workers", type=int, default=2,
                    help="k, the worker count compared with 1 (default 2)")
    ap.add_argument("--trials", type=int, nargs="+", default=[40, 160, 640])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    if args.workers < 2 or args.repeats < 1 or min(args.trials) < 1:
        ap.error("--workers must be >= 2, --repeats and --trials >= 1")
    k = args.workers
    print(f"usable cores {_usable_cores()}, k = {k}")
    print(f"{'system':>8} {'trials':>6} {'Mi values':>9} {'w1_ms':>9} "
          f"{'wk_ms':>9} {'wk/w1':>6} {'rule':>4}")
    for name, fields in PLANS.items():
        for trials in args.trials:
            plan = ExperimentPlan(holder_const=1.0, noise_family="uniform",
                                  noise_bound=1.0, deltas=(1.0,), trials=trials,
                                  master_seed=1, **fields)
            run_plan(plan)  # builds the interval systems, untimed
            one, many = [], []
            for r in range(args.repeats):
                # alternate which side runs first
                sides = [(one, 1), (many, k)] if r % 2 == 0 else [(many, k), (one, 1)]
                for times, workers in sides:
                    times.append(timed_run(plan, workers))
            values = plan.trials * len(plan.deltas) * sum(plan.ns)
            rule = max(1, experiments._task_processes(plan, k))
            w1, wk = statistics.median(one), statistics.median(many)
            print(f"{name:>8} {trials:>6} {values / 2 ** 20:>9.2f} {1e3 * w1:>9.1f} "
                  f"{1e3 * wk:>9.1f} {wk / w1:>6.2f} {rule:>4}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
