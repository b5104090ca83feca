"""Command-line front end: denoise files, run experiment plans, fit rates,
and self-verify the library invariants.

Exit codes: 0 success, 1 usage error, 2 invariant/verification failure.
All output files are written atomically (write to a temp file, then rename).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import warnings
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
from .shrinkage import (
    SYSTEM_KINDS,
    ShrinkageConfig,
    _check_alpha,
    hard_threshold,
    min_samples,
    shrink,
    soft_threshold,
    wavelet_system,
)
from .transform import haar_coeff_closed_form, is_power_of_two


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _read_column(path: str) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # an input with no samples is reported below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            values = np.loadtxt(path, delimiter=",", ndmin=1, dtype=float)
    except OSError as exc:
        raise ValueError(f"cannot read {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path!r} is not a one-column numeric CSV: {exc}") from exc
    if values.ndim != 1:
        raise ValueError(f"{path!r} must contain a single column of numbers")
    if values.size == 0:
        raise ValueError(f"{path!r} holds no samples")
    return values


def _write_column(path: str, values: np.ndarray) -> None:
    """One value per line at 17 significant digits, one ``%`` per 2^16 values."""
    blocks = (values[i:i + 2 ** 16].tolist() for i in range(0, len(values), 2 ** 16))
    atomic_write(path, (("%.17g\n" * len(b)) % tuple(b) for b in blocks))


def cmd_denoise(args: argparse.Namespace) -> int:
    y = _read_column(args.input)
    n_orig = len(y)
    if n_orig < 2 or not is_power_of_two(n_orig):
        if not args.n_pad:
            return _fail_usage(
                f"input length {n_orig} is not a power of two; pass --n-pad to "
                "zero-pad (padding changes the level geometry, so it is never "
                "implicit)"
            )
        n = 2 ** max(1, math.ceil(math.log2(n_orig)))
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

    cfg = ShrinkageConfig.build(n, args.alpha, args.M, args.b, args.delta,
                                args.mode, system=args.system, moments=args.moments)
    print(f"J0={cfg.coarse_level} J1={cfg.boundary_level} "
          f"lambda={cfg.threshold:.17g}", file=sys.stderr)
    _write_column(args.output, shrink(y, cfg)[:n_orig])
    return 0


def _load_plan(path: str, seed: Optional[int]) -> ExperimentPlan:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("plan JSON must be an object")
    fields = dataclasses.fields(ExperimentPlan)
    unknown = set(raw) - {f.name for f in fields}
    if unknown:
        raise ValueError(f"unknown plan fields: {sorted(unknown)}")
    missing = {f.name for f in fields if f.default is dataclasses.MISSING} - set(raw)
    if missing:
        raise ValueError(f"plan is missing required fields: {sorted(missing)}")
    if seed is not None:
        raw["master_seed"] = seed
    return ExperimentPlan(**raw)


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        plan = _load_plan(args.plan, args.seed)
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        return _fail_usage(f"bad plan: {exc}")
    cells = run_plan(plan, workers=args.workers)
    write_reports(args.reports, cells)
    write_summaries(args.summary, summarize(plan, cells))
    return 0


def cmd_rates(args: argparse.Namespace) -> int:
    _check_alpha(args.alpha)  # a usage error before any file is read
    print(f"{'file':<32} {'delta':>8} {'exponent':>10} {'target':>8} "
          f"{'residual':>10}")
    status = 0
    for path in args.summaries:
        try:
            with warnings.catch_warnings():
                # an empty file is reported below, as a file without rows
                warnings.filterwarnings("ignore", "genfromtxt: Empty input file")
                rows = np.genfromtxt(path, delimiter=",", names=True)
        except OSError as exc:
            return _fail_usage(f"cannot read {path!r}: {exc}")
        except IndexError:  # genfromtxt's failure on a file without a header
            rows = np.empty(0)
        rows = np.atleast_1d(rows)
        if rows.size == 0:  # an empty file, or a plan without trials' summary
            print(f"warning: {path}: no summary rows to fit", file=sys.stderr)
            status = 1
            continue
        for delta in sorted(set(rows["delta"])):
            sel = rows[rows["delta"] == delta]
            try:
                fit = fit_rate([int(v) for v in sel["n"]], list(sel["q50_max"]),
                               args.alpha)
            except ValueError as exc:
                print(f"warning: {path}: delta {delta:g}: {exc}", file=sys.stderr)
                status = 1
                continue
            print(f"{os.path.basename(path):<32} {delta:>8.3g} "
                  f"{fit.exponent:>10.4f} {fit.target:>8.4f} "
                  f"{fit.residual:>10.4f}")
    return status


# (system, vanishing moments, n) checked by ``verify``, each the same way:
# the round trip, Parseval and the orthogonality of W
_VERIFY_SYSTEMS = (("haar", None, 8), ("haar", None, 64), ("haar", None, 1024),
                   ("interval", 2, 128), ("interval", 3, 256))


def _verify_systems(rng: np.random.Generator) -> list[str]:
    problems = []
    for kind, moments, n in _VERIFY_SYSTEMS:
        system = wavelet_system(kind, n, 1.0, moments)
        where = f"{kind} N={system.moments}, n={n}"
        y = rng.standard_normal(n)
        coeffs = system.analyze(y)
        if np.max(np.abs(system.synthesize(coeffs) - y)) > 1e-10:
            problems.append(f"roundtrip failed ({where})")
        if abs(np.sum(coeffs ** 2) - np.sum(y ** 2)) > 1e-10 * n:
            problems.append(f"Parseval failed ({where})")
        # row i is W e_i, so this is the transpose of W
        Wt = system.analyze(np.eye(n))
        if np.max(np.abs(Wt @ Wt.T - np.eye(n))) > 1e-8:
            problems.append(f"orthogonality failed ({where})")
    y = rng.standard_normal(256)
    system = wavelet_system("haar", 256, 1.0)
    coeffs = system.analyze(y)
    for j in range(system.coarse_level, system.finest_level):
        for k in range(2 ** j):
            oracle = haar_coeff_closed_form(y, j, k, "detail")  # integral convention
            if abs(coeffs[2 ** j + k] / 16 - oracle) > 1e-10:  # 16 = sqrt(n)
                problems.append(f"haar oracle mismatch at (j={j}, k={k})")
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
    problems = _verify_systems(rng) + _verify_thresholding(rng)
    if abs(min_samples(2.0).raw / 1.1e7 - 1.0) > 0.01:
        problems.append("min_samples(2) far from expected magnitude")
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    print("verify: " + ("FAIL" if problems else "OK"))
    return 2 if problems else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: every parse starts
    from a fresh namespace, so calls share no parsed value."""
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
    p.add_argument("--workers", type=int, default=1,
                   help="most worker processes (default 1); a plan under "
                        "2 * 2^18 noise values runs in this process")
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
