#!/usr/bin/env python3
"""Coefficient-decay diagnostics: per-level maxima of |d_{j,k}| against the
smoothness-class ceiling M * 2^(-j(1/2+alpha)) for the Haar system, and the
fitted per-level decay slope of a smooth signal under the interval system.

A Haar signal whose ratio to the ceiling is 1 or more is marked OVER, and the
script then exits 1.  The interval slope is printed beside its target but
not enforced: no tolerance for it is derived.
"""
import argparse
import math
import sys

import numpy as np

from waveshrink.shrinkage import wavelet_system
from waveshrink.signals import make_signal, sample_grid


def detail_maxima(system, f) -> dict:
    """max |d_{j,k}| of each detail level j of f, in the integral convention:
    the orthonormal maximum (level j at [2^j, 2^(j+1)) of analyze(f)) over
    sqrt(n)."""
    coeffs = system.analyze(f)
    return {j: float(np.max(np.abs(coeffs[2 ** j : 2 ** (j + 1)]))) / math.sqrt(system.n)
            for j in range(system.coarse_level, system.finest_level)}


def report_haar(signals) -> bool:
    """Print one row per (label, alpha, samples) of a signal with M = 1: its
    worst ratio of max |d_{j,k}| to the ceiling over the Haar detail levels,
    marked OVER at 1 or more.  True if any row is OVER."""
    over = False
    for label, alpha, f in signals:
        maxima = detail_maxima(wavelet_system("haar", len(f), alpha), f)
        worst = max(m / 2.0 ** (-j * (0.5 + alpha)) for j, m in maxima.items())
        over |= worst >= 1
        print(f"haar {label:12s} alpha={alpha:<4g} "
              f"max |d|/ceiling = {worst:.4f} (< 1 required) "
              f"{'OK' if worst < 1 else 'OVER'}")
    return over


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=4096)
    args = ap.parse_args()

    over = report_haar([(kind, alpha, make_signal(kind, alpha, 1.0).sample(args.n))
                        for kind, alpha in (("cusp", 0.5), ("cusp", 1.0),
                                            ("weierstrass", 0.5), ("weierstrass", 1.0))])

    n, moments = 1024, 2
    f = np.sin(2 * math.pi * sample_grid(n))
    maxima = detail_maxima(wavelet_system("interval", n, 1.0, moments), f)
    slope = np.polyfit(list(maxima), np.log2(list(maxima.values())), 1)[0]
    print(f"interval N={moments} sin(2 pi t): per-level decay slope "
          f"{slope:.3f} (target -2.5, not enforced)")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
