"""Build time, dwt+idwt time and peak RSS of the interval system over an n grid.

Each n runs in a fresh interpreter, so its peak RSS is its own.  The script
uses only ``build_interval_system``, ``interval_dwt`` and ``interval_idwt``,
so the same file measures any checkout: point PYTHONPATH at its ``src``.

    PYTHONPATH=src python scripts/bench_interval.py --moments 2 --max-exp 16
"""
from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time


def measure(moments: int, n: int, repeats: int) -> dict:
    import numpy as np

    from waveshrink.interval import (
        build_interval_system,
        interval_dwt,
        interval_idwt,
        min_coarse_level,
    )

    start = time.perf_counter()
    system = build_interval_system(moments, n, min_coarse_level(moments))
    build_s = time.perf_counter() - start
    y = np.random.default_rng(0).standard_normal(n)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        back = interval_idwt(interval_dwt(y, system), system)
        times.append(time.perf_counter() - start)
    return {"n": n, "build_s": build_s,
            "dwt_idwt_ms": 1e3 * sorted(times)[len(times) // 2],
            "roundtrip_err": float(np.max(np.abs(back - y))),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--moments", type=int, default=2)
    ap.add_argument("--min-exp", type=int, default=8)
    ap.add_argument("--max-exp", type=int, default=16)
    ap.add_argument("--repeats", type=int, default=21)
    ap.add_argument("--one", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one is not None:
        print(json.dumps(measure(args.moments, args.one, args.repeats)))
        return 0
    print(f"{'n':>7} {'build_s':>9} {'dwt+idwt_ms':>12} {'peak_rss_mb':>12}")
    for e in range(args.min_exp, args.max_exp + 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--moments", str(args.moments),
             "--repeats", str(args.repeats), "--one", str(2 ** e)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{2 ** e:>7} failed: {proc.stderr.strip().splitlines()[-1]}")
            continue
        r = json.loads(proc.stdout)
        print(f"{r['n']:>7} {r['build_s']:>9.4f} {r['dwt_idwt_ms']:>12.3f} "
              f"{r['peak_rss_mb']:>12.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
