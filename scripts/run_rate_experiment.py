#!/usr/bin/env python3
"""Rate-recovery experiment: fit the convergence exponent of the median
max-square-error against the theoretical 2a/(1+2a) and check the tail
envelope calibrated at the smallest sample count.

Writes per-trial JSONL and per-cell CSV summaries next to the chosen
output prefix and prints the fitted exponents.  ``--system interval`` runs
the study on the interval system with ``--moments`` vanishing moments; both
plans then use the same systems, which the process builds once.
"""
import argparse
import os
import sys

import numpy as np

from waveshrink.experiments import (
    ExperimentPlan,
    fit_rate,
    run_plan,
    summarize,
    write_reports,
    write_summaries,
)
from waveshrink.shrinkage import SYSTEM_KINDS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--seed", type=int, default=20240817)
    ap.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    ap.add_argument("--system", choices=SYSTEM_KINDS, default="haar")
    ap.add_argument("--moments", type=int, default=None,
                    help="vanishing moments of the interval system")
    ap.add_argument("--out-prefix", default="results/rate")
    args = ap.parse_args()

    os.makedirs(os.path.dirname(args.out_prefix) or ".", exist_ok=True)
    for kind, alpha in (("oddcusp", 0.5), ("ripple", 1.0)):
        plan = ExperimentPlan(
            signal_kind=kind, alpha=alpha, holder_const=1.0,
            noise_family="uniform", noise_bound=1.0,
            ns=(2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14), deltas=(1.0,),
            trials=args.trials, mode="soft", system=args.system,
            moments=args.moments, master_seed=args.seed,
        )
        cells = run_plan(plan, workers=args.workers)
        tag = f"{args.out_prefix}_{kind}_a{alpha:g}"
        write_reports(f"{tag}.jsonl", cells)
        summaries = summarize(plan, cells)
        write_summaries(f"{tag}.csv", summaries)
        medians = {s.n: s.q50_max for s in summaries}
        fit = fit_rate(plan.ns, [medians[n] for n in plan.ns], alpha)
        print(f"{kind:8s} alpha={alpha:<4g} exponent={fit.exponent:+.4f} "
              f"target={fit.target:.4f} residual={fit.residual:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
