"""Command-line front end: denoise files, run experiment plans, fit rates,
and self-verify the library invariants.

Exit codes: 0 success, 1 usage error, 2 invariant/verification failure.
All output files are written atomically (write to a temp file, then rename).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from .experiments import (
    ExperimentPlan,
    fit_rate,
    run_plan,
    summarize,
    write_reports,
    write_summaries,
    atomic_write,
)
from .interval import (
    build_interval_system,
    interval_dwt,
    interval_idwt,
    min_coarse_level,
)
from .shrinkage import (
    SYSTEM_KINDS,
    ShrinkageConfig,
    hard_threshold,
    min_samples,
    shrink,
    soft_threshold,
    wavelet_system,
)
from .transform import haar_coeff_closed_form, haar_dwt, haar_idwt, is_power_of_two

_PLAN_FIELDS = {
    "signal_kind", "alpha", "holder_const", "noise_family", "noise_bound",
    "ns", "deltas", "trials", "mode", "system", "moments", "master_seed",
    "threshold_bound",
}


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _read_column(path: str) -> np.ndarray:
    try:
        values = np.loadtxt(path, delimiter=",", ndmin=1, dtype=float)
    except OSError as exc:
        raise ValueError(f"cannot read {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path!r} is not a one-column numeric CSV: {exc}") from exc
    if values.ndim != 1:
        raise ValueError(f"{path!r} must contain a single column of numbers")
    return values


def _write_column(path: str, values: np.ndarray) -> None:
    def write(fh):
        for v in values:
            fh.write(f"{v:.17g}\n")
    atomic_write(path, write)


def cmd_denoise(args: argparse.Namespace) -> int:
    y = _read_column(args.input)
    n_orig = len(y)
    if not is_power_of_two(n_orig) or n_orig < 2:
        if not args.n_pad:
            return _fail_usage(
                f"input length {n_orig} is not a power of two; pass --n-pad to "
                "zero-pad (padding changes the level geometry, so it is never "
                "implicit)"
            )
        n = 2 ** max(1, math.ceil(math.log2(max(n_orig, 2))))
        print(f"warning: zero-padding input from {n_orig} to {n} samples",
              file=sys.stderr)
        y = np.concatenate([y, np.zeros(n - n_orig)])
    n = len(y)

    if n < min_samples(args.alpha).padded:
        print(
            f"warning: n={n} is below the minimal sample count "
            f"{min_samples(args.alpha).padded} for alpha={args.alpha}; the "
            "deviation bounds do not apply at this size",
            file=sys.stderr,
        )

    system = wavelet_system(args.system, n, args.alpha, args.moments)
    cfg = ShrinkageConfig.build(
        n, args.alpha, args.M, args.b, args.delta, args.mode,
        system=args.system, moments=system.moments,
        system_const=system.c_phi_estimate,
    )
    print(f"J0={cfg.coarse_level} J1={cfg.boundary_level} "
          f"lambda={cfg.threshold:.17g}", file=sys.stderr)
    _write_column(args.output, shrink(y, cfg, system)[:n_orig])
    return 0


def _load_plan(path: str, seed: Optional[int]) -> ExperimentPlan:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("plan JSON must be an object")
    unknown = set(raw) - _PLAN_FIELDS
    if unknown:
        raise ValueError(f"unknown plan fields: {sorted(unknown)}")
    missing = {"signal_kind", "alpha", "holder_const", "noise_family",
               "noise_bound", "ns", "deltas", "trials"} - set(raw)
    if missing:
        raise ValueError(f"plan is missing required fields: {sorted(missing)}")
    if seed is not None:
        raw["master_seed"] = seed
    raw["ns"] = tuple(raw["ns"])
    raw["deltas"] = tuple(raw["deltas"])
    return ExperimentPlan(**raw)


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        plan = _load_plan(args.plan, args.seed)
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        return _fail_usage(f"bad plan: {exc}")
    reports = run_plan(plan, workers=args.workers)
    write_reports(args.reports, reports)
    write_summaries(args.summary, summarize(plan, reports))
    return 0


def cmd_rates(args: argparse.Namespace) -> int:
    print(f"{'file':<32} {'delta':>8} {'exponent':>10} {'target':>8} "
          f"{'residual':>10}")
    status = 0
    for path in args.summaries:
        try:
            rows = np.genfromtxt(path, delimiter=",", names=True)
        except OSError as exc:
            return _fail_usage(f"cannot read {path!r}: {exc}")
        rows = np.atleast_1d(rows)
        for delta in sorted(set(rows["delta"])):
            sel = rows[rows["delta"] == delta]
            ns = [int(v) for v in sel["n"]]
            meds = list(sel["q50_max"])
            if len(ns) < 4:
                print(f"warning: {path}: need >= 4 sample counts per delta, "
                      f"got {len(ns)}", file=sys.stderr)
                status = 1
                continue
            fit = fit_rate(ns, meds, args.alpha)
            print(f"{os.path.basename(path):<32} {delta:>8.3g} "
                  f"{fit.exponent:>10.4f} {fit.target:>8.4f} "
                  f"{fit.residual:>10.4f}")
    return status


def _verify_haar(rng: np.random.Generator) -> list[str]:
    problems = []
    for n in (8, 64, 1024):
        y = rng.standard_normal(n)
        pyr = haar_dwt(y, 0)
        if np.max(np.abs(haar_idwt(pyr) - y)) > 1e-10:
            problems.append(f"haar roundtrip failed at n={n}")
        if abs(np.sum(pyr.flat() ** 2) - np.mean(y ** 2)) > 1e-10:
            problems.append(f"haar Parseval failed at n={n}")
    y = rng.standard_normal(256)
    pyr = haar_dwt(y, 0)
    for j in range(8):
        for k in range(2 ** j):
            if abs(pyr.detail(j)[k] - haar_coeff_closed_form(y, j, k, "detail")) \
                    > 1e-10:
                problems.append(f"haar oracle mismatch at (j={j}, k={k})")
    return problems


def _verify_interval(rng: np.random.Generator) -> list[str]:
    problems = []
    for moments, n in ((2, 128), (3, 256)):
        system = build_interval_system(moments, n, min_coarse_level(moments))
        y = rng.standard_normal(n)
        back = interval_idwt(interval_dwt(y, system), system)
        if np.max(np.abs(back - y)) > 1e-8:
            problems.append(f"interval roundtrip failed (N={moments}, n={n})")
        # row i is W e_i, so this is the transpose of W
        Wt = system.analyze(np.eye(n))
        if np.max(np.abs(Wt @ Wt.T - np.eye(n))) > 1e-8:
            problems.append(f"interval orthogonality failed (N={moments}, n={n})")
    return problems


def _verify_thresholding(rng: np.random.Generator) -> list[str]:
    problems = []
    d_f = rng.uniform(-3, 3, 100)
    lams = rng.uniform(1e-6, 2, 100)
    for lam in lams:
        for e in np.linspace(-lam, lam, 11):
            shift = np.abs(soft_threshold(d_f + e, lam) - d_f)
            if np.any(shift > np.abs(d_f) + 1e-12) or np.any(shift > 2 * lam + 1e-12):
                problems.append("soft-threshold contraction violated")
                return problems
        kept = hard_threshold(d_f, lam)
        if np.any((np.abs(d_f) <= lam) & (kept != 0)):
            problems.append("hard threshold kept a small coefficient")
            return problems
    return problems


def cmd_verify(_args: argparse.Namespace) -> int:
    rng = np.random.default_rng(0)
    problems = _verify_haar(rng) + _verify_interval(rng) + \
        _verify_thresholding(rng)
    if abs(min_samples(2.0).raw / 1.1e7 - 1.0) > 0.01:
        problems.append("min_samples(2) far from expected magnitude")
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    print("verify: " + ("FAIL" if problems else "OK"))
    return 2 if problems else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waveshrink",
        description="Wavelet-shrinkage denoising and Monte Carlo experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("denoise", help="denoise a one-column CSV file")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--M", type=float, required=True,
                   help="smoothness-class constant")
    p.add_argument("--b", type=float, required=True, help="total noise range")
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--mode", choices=("soft", "hard"), default="soft")
    p.add_argument("--system", choices=SYSTEM_KINDS, default="haar")
    p.add_argument("--moments", type=int, default=None,
                   help="vanishing moments for the interval system")
    p.add_argument("--n-pad", action="store_true",
                   help="zero-pad non-power-of-two inputs (with a warning)")
    p.set_defaults(fn=cmd_denoise)

    p = sub.add_parser("simulate", help="run an experiment plan")
    p.add_argument("plan", help="plan JSON file (see docs/plan-schema.md)")
    p.add_argument("reports", help="output JSONL path for per-trial reports")
    p.add_argument("summary", help="output CSV path for per-cell summaries")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed; overrides the plan's master_seed")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: WAVESHRINK_WORKERS or 1)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("rates", help="fit convergence rates from summary CSVs")
    p.add_argument("summaries", nargs="+")
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(fn=cmd_rates)

    p = sub.add_parser("verify", help="run the invariant self-checks")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        return _fail_usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())
