#!/usr/bin/env python3
"""Coefficient-decay diagnostics: per-level maxima of |d_{j,k}| against the
smoothness-class ceiling M * 2^(-j(1/2+alpha)) for the Haar system, and the
fitted per-level decay slope of a smooth signal under the interval system.
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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=4096)
    args = ap.parse_args()

    for kind, alpha in (("cusp", 0.5), ("cusp", 1.0),
                        ("weierstrass", 0.5), ("weierstrass", 1.0)):
        f = make_signal(kind, alpha, 1.0).sample(args.n)
        maxima = detail_maxima(wavelet_system("haar", args.n, alpha), f)
        worst = max(m / 2.0 ** (-j * (0.5 + alpha)) for j, m in maxima.items())
        print(f"haar {kind:12s} alpha={alpha:<4g} "
              f"max |d|/ceiling = {worst:.4f} (< 1 required)")

    n, moments = 1024, 2
    f = np.sin(2 * math.pi * sample_grid(n))
    maxima = detail_maxima(wavelet_system("interval", n, 1.0, moments), f)
    slope = np.polyfit(list(maxima), np.log2(list(maxima.values())), 1)[0]
    print(f"interval N={moments} sin(2 pi t): per-level decay slope "
          f"{slope:.3f} (target -2.5)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
