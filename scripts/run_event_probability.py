#!/usr/bin/env python3
"""Estimate the probability of the good event A (every noise wavelet
coefficient within b * c_phi * sqrt(log2 n)) on the Haar system and compare
the Wilson 99% confidence interval with the derived floor
1 - 2n exp(-2 c_phi^2 log2 n), which holds for every noise family.

A family whose interval lies wholly below the floor refutes it and is marked
LOW; the script then exits 1.
"""
import argparse
import sys

from waveshrink.experiments import estimate_event_probability
from waveshrink.noise import NOISE_FAMILIES, event_probability_floor
from waveshrink.transform import HaarSystem


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=256)
    ap.add_argument("--trials", type=int, default=10_000)
    ap.add_argument("--b", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    floor = event_probability_floor(HaarSystem(args.n, 0))
    print(f"n={args.n} b={args.b} trials={args.trials} "
          f"derived floor={floor:.6f}")
    refuted = False
    for family in NOISE_FAMILIES:
        p_hat, (lo, hi) = estimate_event_probability(
            family, args.b, args.n, args.trials, master_seed=args.seed)
        ok = "OK " if hi >= floor else "LOW"
        refuted |= hi < floor
        print(f"  {family:10s} p_hat={p_hat:.4f} wilson99=[{lo:.4f}, {hi:.4f}] "
              f"{ok}")
    return 1 if refuted else 0


if __name__ == "__main__":
    sys.exit(main())
