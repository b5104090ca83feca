"""The benchmark's workloads: inputs from the seed, one timed call, checks.

Every workload is a closed loop in one process: the next call starts when the
previous one has returned and been checked.  ``mc_interval`` alone starts a
process pool (two workers, a fresh pool on every call).  Why each workload
exists is written down in README.md next to this file.

A workload exposes ``setup()`` (everything before the first timed call),
``make_input(i)`` and ``check(i, inp, out)`` (untimed), and ``call(inp)``
(timed).  ``check`` returns the problems it found and a summary of the output
that is compared with ``reference.json`` for the calls ``reference_key``
names.  ``ops(inp)`` is the number of trials, denoise calls or noise draws
that one call performs.
"""
from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

REFERENCE_ROWS = 8  # JSONL rows per cell kept in the reference (trial < 8)
_EVENT_SIZES = (16, 256, 65536)
# wilson_interval computes its bounds in floating point: at p_hat = 1 the upper
# bound comes out as 1 - 2^-53, one rounding step below p_hat.  Containment is
# therefore checked to within this rounding slack.
_WILSON_SLACK = 1e-12


def _close(a, b) -> bool:
    """Float comparison used for every reference value: a faithful
    re-implementation may change the last digits, not more."""
    if isinstance(a, float) or isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=1e-7, abs_tol=1e-10)
    return a == b


def compare(tag: str, got, want) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{tag}: keys differ from the reference"]
        return [p for k in want for p in compare(f"{tag}.{k}", got[k], want[k])]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{tag}: length differs from the reference"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in compare(f"{tag}[{i}]", g, w)]
    return [] if _close(got, want) else [f"{tag}: {got!r} != reference {want!r}"]


def _contains(lo: float, p: float, hi: float) -> bool:
    return lo - _WILSON_SLACK <= p <= hi + _WILSON_SLACK


class Workload:
    name = ""
    op_unit = "call"
    trace_calls = 1  # calls in each phase of a traced run

    def __init__(self, seed: int, smoke: bool, out_dir: str):
        self.seed, self.smoke, self.out_dir = seed, smoke, out_dir

    def reference_key(self, i: int):
        """Key of call i in reference.json (default seed only), or None."""
        return "call0" if i == 0 else None

    def group(self, i: int) -> str:
        """Calls of one group share a latency distribution."""
        return self.name

    def largest_array_bytes(self) -> int:
        raise NotImplementedError


class MonteCarlo(Workload):
    """``waveshrink simulate`` in-process through ``cli.main``."""

    op_unit = "trial"
    workers = 1
    plans: list[dict] = []

    def setup(self):
        from waveshrink import cli
        self.cli = cli
        self.plan_paths = []
        for k, plan in enumerate(self.plans):
            path = os.path.join(self.out_dir, f"plan{k}.json")
            with open(path, "w") as fh:
                json.dump(plan, fh)
            self.plan_paths.append(path)
        self.reports = os.path.join(self.out_dir, "reports.jsonl")
        self.summary = os.path.join(self.out_dir, "summary.csv")

    def make_input(self, i):
        k = i % len(self.plans)
        return k, self.seed * 1_000_000 + i

    def ops(self, inp) -> int:
        plan = self.plans[inp[0]]
        return plan["trials"] * len(plan["ns"]) * len(plan["deltas"])

    def call(self, inp):
        k, master = inp
        return self.cli.main(["simulate", self.plan_paths[k], self.reports,
                              self.summary, "--seed", str(master),
                              "--workers", str(self.workers)])

    def reference_key(self, i):
        return f"call{i}" if i < len(self.plans) else None

    def artifact_bytes(self) -> int:
        return os.path.getsize(self.reports) + os.path.getsize(self.summary)

    def check(self, i, inp, rc):
        if rc != 0:
            return [f"call {i}: simulate exited {rc}"], None
        plan = self.plans[inp[0]]
        with open(self.reports) as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
        with open(self.summary, newline="") as fh:
            table = list(csv.reader(fh))
        problems = []
        cells = [(n, d) for n in plan["ns"] for d in plan["deltas"]]
        if len(rows) != plan["trials"] * len(cells):
            problems.append(f"call {i}: {len(rows)} JSONL rows")
        for r in rows:
            if not (math.isfinite(r["max_sq_err"]) and math.isfinite(r["mse"])
                    and r["mse"] <= r["max_sq_err"]):
                problems.append(f"call {i}: bad errors in {r}")
            if (r["in_A"] is None) == (r["n"] in _EVENT_SIZES):
                problems.append(f"call {i}: in_A {r['in_A']} at n={r['n']}")
        if table[0] != ["n", "delta", "q50_max", "q50_mse", "p_within_envelope",
                        "p_A_hat", "ci_lo", "ci_hi"] or len(table) != 1 + len(cells):
            problems.append(f"call {i}: unexpected summary CSV shape")
            return problems, None
        summary_rows = [[float(v) for v in row] for row in table[1:]]
        for row in summary_rows:
            n, _d, q_max, q_mse, p_env, p_a, lo, hi = row
            if not all(math.isfinite(v) for v in (q_max, q_mse, p_env)) \
                    or q_mse > q_max or not 0 <= p_env <= 1:
                problems.append(f"call {i}: bad summary row {row}")
            if int(n) in _EVENT_SIZES and not _contains(lo, p_a, hi):
                problems.append(f"call {i}: Wilson interval misses p_hat in {row}")
        return problems, {"jsonl": [r for r in rows if r["trial"] < REFERENCE_ROWS],
                          "csv": summary_rows}


class McHaar(MonteCarlo):
    name = "mc_haar"
    trace_calls = 20

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        ns = [2 ** 8, 2 ** 10] if smoke else [2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14]
        trials = 2 if smoke else 50
        # the rate study of scripts/run_rate_experiment.py, trials cut to 50
        self.plans = [dict(signal_kind=kind, alpha=alpha, holder_const=1.0,
                           noise_family="uniform", noise_bound=1.0, ns=ns,
                           deltas=[1.0], trials=trials, mode="soft",
                           system="haar")
                      for kind, alpha in (("oddcusp", 0.5), ("ripple", 1.0))]

    def largest_array_bytes(self):
        return 8 * max(self.plans[0]["ns"])


class McInterval(MonteCarlo):
    name = "mc_interval"
    workers = 2

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        ns = [2 ** 8] if smoke else [2 ** 8, 2 ** 10, 2 ** 12]
        self.plans = [dict(signal_kind="sine", alpha=1.0, holder_const=1.0,
                           noise_family="uniform", noise_bound=1.0, ns=ns,
                           deltas=[1.0], trials=4 if smoke else 40, mode="soft",
                           system="interval", moments=2)]

    def largest_array_bytes(self):
        n = max(self.plans[0]["ns"])
        return 8 * n * n


class Denoise(Workload):
    """``shrink`` on a fresh noisy vector per call, one caller.  Calls take
    turns: Haar at n=2^20, then interval N=2 at n=2^12 with a system built
    once in set-up."""

    name = "denoise"
    trace_calls = 200

    def setup(self):
        from waveshrink import interval, shrinkage, signals, transform
        self.shrinkage = shrinkage
        n_haar = 2 ** 10 if self.smoke else 2 ** 20
        n_int = 2 ** 8 if self.smoke else 2 ** 12
        system = interval.build_interval_system(2, n_int, 3)
        haar_cfg = shrinkage.ShrinkageConfig.build(n_haar, 0.5, 1.0, 1.0, 1.0)
        int_cfg = shrinkage.ShrinkageConfig.build(
            n_int, 1.0, 1.0, 1.0, 1.0, system="interval", moments=2,
            system_const=system.c_phi_estimate)
        self.cases = [
            ("denoise_haar", haar_cfg, None,
             signals.make_signal("cusp", 0.5, 1.0).sample(n_haar),
             lambda y: transform.haar_idwt(
                 transform.haar_dwt(y, haar_cfg.coarse_level))),
            ("denoise_interval", int_cfg, system,
             signals.make_signal("sine", 1.0, 1.0).sample(n_int),
             lambda y: interval.interval_idwt(
                 interval.interval_dwt(y, system), system)),
        ]

    def group(self, i) -> str:
        return self.cases[i % 2][0]

    def make_input(self, i):
        f = self.cases[i % 2][3]
        rng = np.random.default_rng([self.seed, i])
        return i % 2, f + rng.uniform(-0.5, 0.5, len(f))

    def ops(self, inp) -> int:
        return 1

    def call(self, inp):
        k, y = inp
        _, cfg, system, _, _ = self.cases[k]
        return self.shrinkage.shrink(y, cfg, system)

    def reference_key(self, i):
        return f"call{i}" if i < 2 else None

    def check(self, i, inp, out):
        k, y = inp
        if out.shape != y.shape or not np.all(np.isfinite(out)):
            return [f"call {i}: output not finite or wrong shape"], None
        problems = []
        if i % 16 < 2:
            err = float(np.max(np.abs(self.cases[k][4](y) - y)))
            if err > 1e-8:
                problems.append(f"call {i}: idwt(dwt(y)) off by {err:.3g}")
        stride = max(1, len(y) // 256)
        return problems, {"samples": [float(v) for v in out[::stride]],
                          "mean": float(np.mean(out)),
                          "mean_sq": float(np.mean(out ** 2))}

    def largest_array_bytes(self):
        n_int = len(self.cases[1][3])
        return 8 * n_int * n_int


class EventA(Workload):
    """One call is a pass of ``estimate_event_probability`` over all four
    noise families on Haar n=256, interval N=2 n=256 and Haar n=65536."""

    name = "event_A"
    op_unit = "draw"
    trace_calls = 10
    families = ("uniform", "rademacher", "truncated", "mixture")

    def setup(self):
        from waveshrink import experiments, interval
        self.experiments = experiments
        self.trials = 2 if self.smoke else 16
        system = interval.build_interval_system(2, 256, 3)
        self.configs = [(256, "haar"), (256, system), (65536, "haar")]

    def make_input(self, i):
        return self.seed * 1_000_000 + i

    def ops(self, inp) -> int:
        return self.trials * len(self.configs) * len(self.families)

    def call(self, master):
        est = self.experiments.estimate_event_probability
        return [est(fam, 1.0, n, self.trials, master_seed=master + 7919 * c,
                    system=system)
                for c, (n, system) in enumerate(self.configs)
                for fam in self.families]

    def check(self, i, master, results):
        problems, summary = [], []
        for p_hat, (lo, hi) in results:
            if not (math.isfinite(p_hat) and 0 <= p_hat <= 1
                    and _contains(lo, p_hat, hi)):
                problems.append(f"call {i}: p_hat {p_hat} outside [{lo}, {hi}]")
            summary.append([p_hat, lo, hi])
        return problems, summary

    def largest_array_bytes(self):
        return 8 * 3 * 65536  # the mixture family draws three n-vectors


WORKLOADS = {w.name: w for w in (McHaar, McInterval, Denoise, EventA)}
