#!/usr/bin/env python3
"""Estimate the probability of the good event A (all noise block sums under
their Hoeffding-scale bounds) at n = 256 and compare the Wilson 99%
confidence interval against the analytic floor 1 - 4/log2(n) + 1/n.
"""
import argparse
import math
import sys

from waveshrink.experiments import estimate_event_probability
from waveshrink.noise import EVENT_A_SIZES, NOISE_FAMILIES


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=256, choices=EVENT_A_SIZES)
    ap.add_argument("--trials", type=int, default=10_000)
    ap.add_argument("--b", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    floor = 1.0 - 4.0 / math.log2(args.n) + 1.0 / args.n
    print(f"n={args.n} b={args.b} trials={args.trials} "
          f"analytic floor={floor:.6f}")
    for family in NOISE_FAMILIES:
        p_hat, (lo, hi) = estimate_event_probability(
            family, args.b, args.n, args.trials, master_seed=args.seed)
        ok = "OK " if lo >= floor else "LOW"
        print(f"  {family:10s} p_hat={p_hat:.4f} wilson99=[{lo:.4f}, {hi:.4f}] "
              f"{ok}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
