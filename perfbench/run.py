#!/usr/bin/env python3
"""waveshrink benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc_haar --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all            # every workload, one table
    python3 perfbench/run.py --all --smoke    # every workload at tiny size

The package is imported from ``src/`` of the checkout this file sits in, never
from an installed copy; without it the run exits 2 and prints no result.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  README.md next to this file
defines every workload and metric.
"""
import time

_T0 = time.perf_counter()  # process start, for setup_s

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 0  # the seed whose outputs reference.json holds
# setup_s is the median of several set-ups per run: at least SETUP_MIN, and
# more (up to SETUP_MAX) while the fresh-process probes have taken less than
# SETUP_BUDGET_S, so cheap set-ups get the samples their noise needs.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 3.0
# Call latency is reported at the median and at the highest of these
# percentiles that has at least ten calls beyond it.
TAIL_PERCENTILES = (99, 98, 95, 90, 75)


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def import_package():
    init = os.path.join(SRC, "waveshrink", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no package source at {init}")
    sys.path.insert(0, SRC)
    import waveshrink
    if os.path.realpath(waveshrink.__file__) != os.path.realpath(init):
        raise BenchError(f"waveshrink imported from {waveshrink.__file__}, "
                         f"not from {SRC}")
    return waveshrink


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def percentile(values, pct):
    """Linear-interpolated percentile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment(workload, args):
    import numpy
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "waveshrink")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    largest = workload.largest_array_bytes()
    units = {"K": 2 ** 10, "M": 2 ** 20, "G": 2 ** 30}
    cache_bytes = {k: int(v[:-1]) * units[v[-1]] if v[-1] in units else int(v)
                   for k, v in caches.items()}
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model, "caches": caches,
        "largest_array_bytes": largest,
        "largest_array_over_cache": {k: largest / v for k, v in cache_bytes.items()},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def run_calls(workload, indices, reference, tracer=None):
    """Run the calls with the given indices; returns per-call records."""
    from workloads import compare
    quiet = tracer.pause if tracer else nullcontext
    records = []
    for i in indices:
        record = {"i": i, "ok": False, "seconds": None, "ops": 0, "bytes": 0}
        try:
            with quiet():
                inp = workload.make_input(i)
            start = time.perf_counter()
            out = workload.call(inp)
            record["seconds"] = time.perf_counter() - start
            with quiet():
                problems, summary = workload.check(i, inp, out)
                key = workload.reference_key(i)
                if reference is not None and key is not None:
                    if key in reference:
                        problems += compare(f"call {i}", summary, reference[key])
                    else:
                        problems.append(f"call {i}: no reference entry {key}")
                record["summary"] = summary
                if hasattr(workload, "artifact_bytes"):
                    record["bytes"] = workload.artifact_bytes()
            record["ops"] = workload.ops(inp)
        except Exception:  # one failed call is counted, the run goes on
            problems = [traceback.format_exc()]
        for p in problems[:5]:
            print(f"FAIL {workload.name} {p}", file=sys.stderr)
        record["ok"] = not problems
        records.append(record)
    return records


def make_workload(args):
    from workloads import WORKLOADS
    out_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    return WORKLOADS[args.workload](args.seed, args.smoke, out_dir), out_dir


def load_reference(args):
    if args.smoke or args.seed != DEFAULT_SEED:
        return None
    with open(REFERENCE) as fh:
        return json.load(fh)[args.workload]


def peak_rss_mb():
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def setup_probe(args):
    """One fresh-process setup; prints its duration from process start."""
    import_package()
    workload, out_dir = make_workload(args)
    workload.setup()
    elapsed = time.perf_counter() - _T0
    shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))


def timed_run(args):
    """End-to-end metrics: measure for --seconds, then extra set-ups."""
    import_package()
    workload, out_dir = make_workload(args)
    workload.setup()
    setups = [time.perf_counter() - _T0]
    reference = load_reference(args)
    records, start, i = [], time.perf_counter(), 0
    while i == 0 or time.perf_counter() - start < args.seconds:
        records += run_calls(workload, [i], reference)
        i += 1
    env = environment(workload, args)
    op_unit = workload.op_unit
    groups = {}
    for r in records:
        if r["seconds"] is not None:
            groups.setdefault(workload.group(r["i"]), []).append(r["seconds"])
    del workload
    gc.collect()
    shutil.rmtree(out_dir, ignore_errors=True)
    probes_start = time.perf_counter()
    while len(setups) < SETUP_MIN or (
            len(setups) < SETUP_MAX
            and time.perf_counter() - probes_start < SETUP_BUDGET_S):
        probe = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)]
            + (["--smoke"] if args.smoke else []),
            capture_output=True, text=True, timeout=170)
        if probe.returncode != 0:
            raise BenchError(f"setup probe failed: {probe.stderr.strip()}")
        setups.append(json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"])

    timed = [r["seconds"] for r in records if r["seconds"] is not None]
    ops = sum(r["ops"] for r in records)
    failed = sum(not r["ok"] for r in records)
    if not timed:
        raise BenchError("no call completed")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops / sum(timed) if ops else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "ops_per_s": f"{op_unit}s per second of timed calls, {ops} {op_unit}s "
                     f"in {len(timed)} calls",
        "peak_rss_mb": "max ru_maxrss of this process and its children",
    }
    latency = {}
    for group, seconds in groups.items():
        entry = latency[group] = {"calls": len(seconds),
                                  "ms_p50": 1e3 * percentile(seconds, 50)}
        line = f"latency {group}_ms_p50 = {entry['ms_p50']:.6g} ms"
        tail = next((p for p in TAIL_PERCENTILES
                     if len(seconds) * (100 - p) / 100 >= 10), None)
        if tail is not None:
            entry[f"ms_p{tail}"] = 1e3 * percentile(seconds, tail)
            line += f", {group}_ms_p{tail} = {entry[f'ms_p{tail}']:.6g} ms"
        print(f"{line}  ({len(seconds)} calls)")
    return env, metrics, notes, len(records), failed, {"latency": latency, "records": [
        {k: v for k, v in r.items() if k != "summary"} for r in records]}


def traced_run(args):
    """Per-layer metrics: the same calls untraced, then traced."""
    import_package()
    from tracer import Tracer, self_times
    workload, out_dir = make_workload(args)
    reference = load_reference(args)
    spool = os.path.join(out_dir, "spool")
    os.makedirs(spool)
    tracer = Tracer(spool)
    calls = list(range(2 if args.smoke else workload.trace_calls))

    workload.setup()
    plain = run_calls(workload, calls[:1], reference)  # warm-up, not timed
    start = time.perf_counter()
    plain += run_calls(workload, calls, reference)
    untraced_s = time.perf_counter() - start
    env = environment(workload, args)
    workload_cls = type(workload)
    del workload
    gc.collect()

    tracer.install()
    try:
        workload = workload_cls(args.seed, args.smoke, out_dir)
        tracer.phase = "setup"
        with tracer.span("harness"):
            workload.setup()
        tracer.phase = "loop"
        start = time.perf_counter()
        with tracer.span("harness"):
            traced = run_calls(workload, calls, reference, tracer)
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    workers = tracer.collect_workers()
    shutil.rmtree(out_dir, ignore_errors=True)

    records = plain + traced
    failed = sum(not r["ok"] for r in records)
    ops = sum(r["ops"] for r in traced) or 1
    worker_spans = [s for w in workers for s in w["spans"]]
    parent_loop = [s for s in tracer.spans if s[6] == "loop"]
    table = self_times(parent_loop + worker_spans)
    build = self_times(tracer.spans + worker_spans).get("interval.build", [0, 0.0, 0.0])
    sources = [tracer.counters] + [w["counters"] for w in workers]
    counters = {}
    for source in sources:
        for k, v in source.items():
            counters[k] = counters.get(k, 0) + v

    def calls_of(name):
        return table.get(name, [0, 0.0, 0.0])[0]

    def self_s(*names):
        return sum(table.get(n, [0, 0.0, 0.0])[2] for n in names)

    tests = counters.get("noise.event_A.tests", 0)
    metrics = {
        "experiments.run_trial.self_ms": (1e3 * self_s("experiments.run_trial"), "ms"),
        "experiments.contraction_check.self_ms":
            (1e3 * self_s("experiments.contraction_check"), "ms"),
        "experiments.summarize_s": (self_s("experiments.summarize"), "s"),
        "experiments.write_reports_s":
            (self_s("experiments.write_reports", "experiments.write_summaries"), "s"),
        "cli.simulate.self_s": (self_s("cli.simulate"), "s"),
        "cli.artifact_bytes": (sum(r["bytes"] for r in traced), "B"),
        "transform.haar_dwt.calls_per_trial":
            (calls_of("transform.haar_dwt") / ops, "count"),
        "transform.haar_dwt.self_ms": (1e3 * self_s("transform.haar_dwt"), "ms"),
        "transform.haar_idwt.self_ms": (1e3 * self_s("transform.haar_idwt"), "ms"),
        "transform.with_scaling.calls_per_op":
            (calls_of("transform.with_scaling") / ops, "count"),
        "transform.bytes_moved_computed":
            (counters.get("transform.bytes_moved_computed", 0), "B"),
        "interval.build.calls": (build[0], "count"),
        "interval.build_s": (build[2], "s"),
        "interval.dwt.self_ms": (1e3 * self_s("interval.dwt"), "ms"),
        "interval.idwt.self_ms": (1e3 * self_s("interval.idwt"), "ms"),
        "interval.bytes_moved_computed":
            (counters.get("interval.bytes_moved_computed", 0), "B"),
        "interval.system_mb_computed":
            (max(src.get("interval.system_bytes_computed", 0) for src in sources)
             / 2 ** 20, "MB"),
        "shrinkage.apply_threshold.self_ms":
            (1e3 * self_s("shrinkage.apply_threshold"), "ms"),
        "shrinkage.config_build.calls_per_trial":
            (calls_of("shrinkage.config_build") / ops, "count"),
        "signals.sample.calls_per_trial": (calls_of("signals.sample") / ops, "count"),
        "signals.sample.self_ms": (1e3 * self_s("signals.sample"), "ms"),
        "noise.sample_noise.self_ms": (1e3 * self_s("noise.sample_noise"), "ms"),
        "noise.in_event_A.haar.self_ms":
            (1e3 * self_s("noise.in_event_A.haar"), "ms"),
        "noise.in_event_A.interval.self_ms":
            (1e3 * self_s("noise.in_event_A.interval"), "ms"),
        "noise.event_A.member_ratio":
            (counters.get("noise.event_A.members", 0) / tests if tests else 0.0,
             "ratio"),
        "trace.overhead_pct": (100.0 * (traced_s - untraced_s) / untraced_s, "%"),
        "trace.harness_s": (self_s("harness"), "s"),
        "trace.accounted_ratio":
            (sum(s[5] for s in parent_loop) / traced_s, "ratio"),
        "trace.spans": (len(tracer.spans) + len(worker_spans), "count"),
    }
    notes = {
        "trace.overhead_pct": f"traced {traced_s:.3f} s vs untraced "
                              f"{untraced_s:.3f} s for the same {len(calls)} calls",
        "trace.accounted_ratio": "parent-process self times (layers + harness) "
                                 "over traced wall time",
        "trace.spans": f"{len(workers)} worker processes",
    }
    for name, (count, total, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print(f"span {name:45s} calls={count:<7d} total_ms={1e3 * total:<11.3f} "
              f"self_ms={1e3 * own:.3f}")
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["id", "parent", "name", "start", "end", "self_s",
                              "phase"],
                   "parent": tracer.spans, "workers": workers}, fh)
    return env, metrics, notes, len(records), failed, {"spans_file": spans_path}


def run_all(args):
    """Every workload in its own process; one table of every metric."""
    names = [w["name"] for w in load_spec()["workloads"]]
    status = 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                              cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        notes = [line for line in lines if line.startswith(("metric ", "latency "))]
        print(f"== {name}: attempted={result['attempted']} failed={result['failed']} "
              f"fail_ratio={result['failed'] / result['attempted']:.4g}")
        for line in notes:
            print("  " + line.split(" ", 1)[1])
        status |= 0 if result["correct"] else 1
    return status


def write_reference(args):
    """Regenerate reference.json: the first calls of every workload at the
    default seed, at full size."""
    import_package()
    from workloads import WORKLOADS
    reference = {}
    for name, cls in WORKLOADS.items():
        out_dir = os.path.join(OUT, f"reference-{name}")
        os.makedirs(out_dir, exist_ok=True)
        workload = cls(DEFAULT_SEED, False, out_dir)
        workload.setup()
        entries = {}
        i = 0
        while workload.reference_key(i) is not None:
            inp = workload.make_input(i)
            problems, summary = workload.check(i, inp, workload.call(inp))
            if problems:
                raise BenchError(f"{name}: {problems}")
            entries[workload.reference_key(i)] = summary
            i += 1
        reference[name] = entries
        del workload
        gc.collect()
        shutil.rmtree(out_dir, ignore_errors=True)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=None, separators=(",", ":"))
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at tiny size, for the benchmark's test")
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-reference", action="store_true",
                    help="regenerate reference.json from this checkout")
    args = ap.parse_args(argv)
    try:
        if args.write_reference:
            write_reference(args)
            return 0
        if args.all:
            return run_all(args)
        spec = load_spec()
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        if args.setup_probe:
            setup_probe(args)
            return 0
        os.makedirs(OUT, exist_ok=True)
        run = traced_run if args.trace else timed_run
        env, metrics, notes, attempted, failed, extra = run(args)
    except (BenchError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = {m["name"] for m in wanted} ^ set(metrics)
    if missing:
        print(f"error: metric set differs from BENCHMARK.json: {sorted(missing)}",
              file=sys.stderr)
        return 2
    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"metric {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"metric fail_ratio = {failed / attempted:.6g}  "
          f"({failed} of {attempted} calls failed their output check)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"BENCH_{tag}.json"), "w") as fh:
        json.dump(dict(result, env=env, notes=notes, **extra), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
