"""Build time, transform time and peak RSS of the interval system over an n grid.

Each n runs in a fresh interpreter, so its peak RSS is its own; an n whose
run fails prints its last error line and makes the script exit 1.  dwt+idwt
is one ``IntervalSystem.analyze`` and one ``synthesize`` of a single signal:
the orthonormal transform and its inverse in the flat coefficient layout,
with no rescaling and no split into levels.  The same pair is also timed on
one batch of ``run_cell`` (``experiments._chunk_trials(n)`` rows), and both
are given in ns per value, beside the Haar system's batch at the same coarse
level and the interval-to-Haar ratio.  The script uses only
``build_interval_system``, ``HaarSystem``, ``_chunk_trials`` and the two
methods, so the same file measures any checkout that has them: point
PYTHONPATH at its ``src``.

    PYTHONPATH=src python scripts/bench_interval.py --moments 2 --max-exp 16
"""
from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time


def _round_trip_s(system, x, repeats: int) -> tuple[float, object]:
    """Median seconds of one analyze and one synthesize of x, and the result."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        back = system.synthesize(system.analyze(x))
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2], back


def measure(moments: int, n: int, repeats: int) -> dict:
    import numpy as np

    from waveshrink.experiments import _chunk_trials
    from waveshrink.interval import build_interval_system, min_coarse_level
    from waveshrink.transform import HaarSystem

    start = time.perf_counter()
    system = build_interval_system(moments, n, min_coarse_level(moments))
    build_s = time.perf_counter() - start
    rng = np.random.default_rng(0)
    y = rng.standard_normal(n)
    one_s, back = _round_trip_s(system, y, repeats)
    batch = rng.standard_normal((_chunk_trials(n), n))
    batch_s, _ = _round_trip_s(system, batch, repeats)
    haar_s, _ = _round_trip_s(HaarSystem(n, system.coarse_level), batch, repeats)
    return {"n": n, "build_s": build_s, "dwt_idwt_ms": 1e3 * one_s,
            "one_ns_per_value": 1e9 * one_s / n, "batch_rows": len(batch),
            "batch_ns_per_value": 1e9 * batch_s / batch.size,
            "haar_ns_per_value": 1e9 * haar_s / batch.size,
            "roundtrip_err": float(np.max(np.abs(back - y))),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # N = 1 is the Haar basis, which has no banded build
    ap.add_argument("--moments", type=int, choices=range(2, 6), default=2)
    ap.add_argument("--min-exp", type=int, default=8)
    ap.add_argument("--max-exp", type=int, default=16)
    ap.add_argument("--repeats", type=int, default=21)
    ap.add_argument("--one", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one is not None:
        print(json.dumps(measure(args.moments, args.one, args.repeats)))
        return 0
    print(f"{'n':>7} {'build_s':>9} {'dwt+idwt_ms':>12} {'1row_ns/v':>10} {'rows':>5} "
          f"{'batch_ns/v':>11} {'haar_ns/v':>10} {'ratio':>6} {'peak_rss_mb':>12}")
    failed = False
    for e in range(args.min_exp, args.max_exp + 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--moments", str(args.moments),
             "--repeats", str(args.repeats), "--one", str(2 ** e)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{2 ** e:>7} failed: {proc.stderr.strip().splitlines()[-1]}")
            failed = True
            continue
        r = json.loads(proc.stdout)
        print(f"{r['n']:>7} {r['build_s']:>9.4f} {r['dwt_idwt_ms']:>12.3f} "
              f"{r['one_ns_per_value']:>10.1f} {r['batch_rows']:>5} "
              f"{r['batch_ns_per_value']:>11.1f} {r['haar_ns_per_value']:>10.1f} "
              f"{r['batch_ns_per_value'] / r['haar_ns_per_value']:>6.2f} "
              f"{r['peak_rss_mb']:>12.1f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
