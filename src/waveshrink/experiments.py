"""Seeded Monte Carlo harness: deviation probabilities, event probabilities,
and empirical convergence rates.

Every trial is a pure function of (plan, cell index, trial index); seeds are
derived with a splittable scheme so results are bit-for-bit reproducible
regardless of execution order or worker count.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .interval import (
    IntervalSystem,
    build_interval_system,
    interval_dwt,
    interval_idwt,
    min_coarse_level,
)
from .noise import NoiseSpec, in_event_A, sample_noise
from .shrinkage import ShrinkageConfig, apply_threshold, compute_levels, min_samples
from .signals import make_signal
from .transform import haar_dwt, haar_idwt

_EVENT_A_SIZES = (16, 256, 65536)


@dataclass(frozen=True)
class ExperimentPlan:
    """Full description of one Monte Carlo experiment."""

    signal_kind: str
    alpha: float
    holder_const: float
    noise_family: str
    noise_bound: float           # b; 0 means noise-free trials
    ns: tuple[int, ...]
    deltas: tuple[float, ...]
    trials: int
    mode: str = "soft"
    system: str = "haar"
    moments: Optional[int] = None
    master_seed: int = 0
    threshold_bound: Optional[float] = None  # b used for lambda when noise_bound=0

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError("trials must be >= 0")
        if self.noise_bound < 0:
            raise ValueError("noise bound must be >= 0")
        if self.noise_bound == 0 and self.threshold_bound is None:
            raise ValueError("noise-free plans need an explicit threshold_bound")
        object.__setattr__(self, "ns", tuple(int(n) for n in self.ns))
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))

    def below_range(self, n: int) -> bool:
        """True when n is below the deviation bounds' minimal sample count; such
        cells still run but are reported as out-of-range."""
        return n < min_samples(self.alpha).padded

    def cells(self) -> list[tuple[int, int, float]]:
        """(cell index, n, delta) in deterministic order."""
        return [(i, n, d)
                for i, (n, d) in enumerate((n, d) for n in self.ns for d in self.deltas)]


@dataclass(frozen=True)
class TrialReport:
    trial: int
    n: int
    delta: float
    max_sq_err: float
    mse: float
    in_A: Optional[bool]
    exceed_count: int
    seed: int
    exceed_by_level: Optional[dict] = field(default=None, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.max_sq_err) and math.isfinite(self.mse)):
            raise ValueError("error fields must be finite")
        if self.mse > self.max_sq_err + 1e-15:
            raise ValueError("mean square error cannot exceed max square error")


@dataclass(frozen=True)
class CellSummary:
    n: int
    delta: float
    q50_max: float
    q50_mse: float
    p_within_envelope: float
    p_A_hat: float
    ci_lo: float
    ci_hi: float


@dataclass(frozen=True)
class RateFit:
    exponent: float
    intercept: float
    residual: float
    target: float


@lru_cache(maxsize=8)
def _cached_system(moments: int, n: int, coarse_level: int) -> IntervalSystem:
    return build_interval_system(moments, n, coarse_level)


def interval_system_for(n: int, alpha: float, moments: int) -> IntervalSystem:
    """The interval system the shrinkage pipeline uses for (n, alpha, N):
    coarse level max(J0(n, alpha), min_coarse_level(N)).  Built once per
    process and shared, so callers must not modify it."""
    coarse = max(compute_levels(n, alpha).coarse, min_coarse_level(moments))
    return _cached_system(moments, n, coarse)


def _trial_seed(master_seed: int, cell: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master_seed, spawn_key=(cell, trial))


def run_trial(plan: ExperimentPlan, cell: int, n: int, delta: float,
              trial: int) -> TrialReport:
    """One pure Monte Carlo trial."""
    signal = make_signal(plan.signal_kind, plan.alpha, plan.holder_const)
    f = signal.sample(n)
    seed_seq = _trial_seed(plan.master_seed, cell, trial)
    seed_id = int(seed_seq.generate_state(1, np.uint64)[0])

    b_threshold = plan.noise_bound if plan.noise_bound > 0 else plan.threshold_bound
    if plan.noise_bound > 0:
        e = sample_noise(NoiseSpec(plan.noise_family, plan.noise_bound, seed_seq), n)
    else:
        e = np.zeros(n)

    system = None
    if plan.system == "interval":
        moments = plan.moments or max(1, math.ceil(plan.alpha))
        system = interval_system_for(n, plan.alpha, moments)
        cfg = ShrinkageConfig.build(
            n, plan.alpha, plan.holder_const, b_threshold, delta, plan.mode,
            system="interval", moments=moments,
            system_const=system.c_phi_estimate,
        )
        noise_pyr = interval_dwt(e, system)
        signal_pyr = interval_dwt(f, system)
        y_pyr = interval_dwt(f + e, system)
    else:
        cfg = ShrinkageConfig.build(
            n, plan.alpha, plan.holder_const, b_threshold, delta, plan.mode,
        )
        noise_pyr = haar_dwt(e, cfg.coarse_level)
        signal_pyr = haar_dwt(f, cfg.coarse_level)
        y_pyr = haar_dwt(f + e, cfg.coarse_level)

    shrunk = apply_threshold(y_pyr, cfg.threshold, cfg.mode)
    estimate = interval_idwt(shrunk, system) if system is not None \
        else haar_idwt(shrunk)

    sq = (estimate - f) ** 2
    max_sq, mse = float(np.max(sq)), float(np.mean(sq))

    by_level = {cfg.coarse_level: int(np.sum(np.abs(noise_pyr.approx) > cfg.threshold))}
    for j in range(cfg.coarse_level, noise_pyr.finest_level):
        by_level[j] = by_level.get(j, 0) \
            + int(np.sum(np.abs(noise_pyr.detail(j)) > cfg.threshold))
    exceed = int(sum(by_level.values()))

    if exceed == 0 and plan.mode == "soft":
        _assert_detail_contraction(shrunk, signal_pyr, cfg.threshold)

    member: Optional[bool] = None
    if n in _EVENT_A_SIZES and plan.noise_bound > 0:
        member = in_event_A(e, plan.noise_bound,
                            system if system is not None else "haar").member
    elif n in _EVENT_A_SIZES:
        member = True  # zero noise is trivially inside A

    return TrialReport(trial=trial, n=n, delta=delta, max_sq_err=max_sq, mse=mse,
                       in_A=member, exceed_count=exceed, seed=seed_id,
                       exceed_by_level=by_level)


def _assert_detail_contraction(shrunk, signal_pyr, lam: float) -> None:
    """When every noise coefficient is under lambda, soft thresholding must
    move each detail coefficient by at most min(|d_f|, 2 lambda)."""
    for j in range(shrunk.coarse_level, shrunk.finest_level):
        diff = np.abs(shrunk.detail(j) - signal_pyr.detail(j))
        d_f = np.abs(signal_pyr.detail(j))
        bad = (diff > d_f + 1e-12) | (diff > 2 * lam + 1e-12)
        if np.any(bad):
            raise RuntimeError(
                f"thresholding contraction violated at level {j}"
            )


def _run_cell_args(args):
    plan, cell, n, delta, trial = args
    return run_trial(plan, cell, n, delta, trial)


def run_plan(plan: ExperimentPlan, workers: Optional[int] = None) -> list[TrialReport]:
    """All trial reports for the plan, in deterministic (cell, trial) order."""
    tasks = [(plan, cell, n, delta, trial)
             for cell, n, delta in plan.cells()
             for trial in range(plan.trials)]
    if workers is None:
        workers = int(os.environ.get("WAVESHRINK_WORKERS", "1"))
    if workers > 1 and len(tasks) > 1:
        # imported here: multiprocessing costs a tenth of the package import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_cell_args, tasks, chunksize=16))
    return [_run_cell_args(t) for t in tasks]


def wilson_interval(successes: int, trials: int,
                    z: float = 2.5758293035489004) -> tuple[float, float]:
    """Wilson score interval; the default z is the two-sided 99% quantile.

    The bounds always contain the point estimate: rounding alone would put
    the upper bound one step below it at successes == trials.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials ** 2)) / denom
    return min(p, max(0.0, center - half)), max(p, min(1.0, center + half))


def estimate_event_probability(noise_family: str, b: float, n: int, trials: int,
                               master_seed: int = 0,
                               system="haar") -> tuple[float, tuple[float, float]]:
    """Empirical P(A) with a Wilson 99% confidence interval."""
    if n not in _EVENT_A_SIZES:
        raise ValueError(f"event-A geometry supports n in {_EVENT_A_SIZES}")
    hits = 0
    for t in range(trials):
        if b == 0:
            hits += 1
            continue
        seed = np.random.SeedSequence(master_seed, spawn_key=(0, t))
        e = sample_noise(NoiseSpec(noise_family, b, seed), n)
        hits += in_event_A(e, b, system).member
    return hits / trials, wilson_interval(hits, trials)


def fit_rate(ns: Sequence[int], medians: Sequence[float], alpha: float) -> RateFit:
    """Least-squares slope of log(median error) vs log(log2(n)/n)."""
    if len(ns) < 4 or len(ns) != len(medians):
        raise ValueError("need matching values for at least 4 distinct n")
    x = np.log([math.log2(n) / n for n in ns])
    y = np.log(np.asarray(medians, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return RateFit(exponent=float(slope), intercept=float(intercept),
                   residual=resid, target=2 * alpha / (1 + 2 * alpha))


def threshold_exceedance_census(reports: Iterable[TrialReport]) -> dict:
    """Aggregate per-level exceedance counts across reports."""
    by_level: dict[int, int] = {}
    total = trials = trials_with_any = 0
    for r in reports:
        trials += 1
        total += r.exceed_count
        if r.exceed_count:
            trials_with_any += 1
        if r.exceed_by_level:
            for j, c in r.exceed_by_level.items():
                by_level[j] = by_level.get(j, 0) + c
    return {"total": total, "trials": trials,
            "trials_with_any": trials_with_any, "by_level": by_level}


def summarize(plan: ExperimentPlan, reports: Sequence[TrialReport],
              envelope_quantile: float = 99.9) -> list[CellSummary]:
    """Per-cell summaries; the error envelope constant is calibrated at the
    smallest n (per delta) and applied as c * (log2 n / n)^(2a/(1+2a))."""
    target = 2 * plan.alpha / (1 + 2 * plan.alpha)
    rate = lambda n: (math.log2(n) / n) ** target
    out = []
    for delta in plan.deltas:
        cells = {n: [r for r in reports if r.n == n and r.delta == delta]
                 for n in plan.ns}
        n0 = min(plan.ns)
        base = cells[n0]
        envelope = float(np.percentile(
            [r.max_sq_err / rate(n0) for r in base], envelope_quantile)) \
            if base else math.inf
        for n in plan.ns:
            rs = cells[n]
            if not rs:
                continue
            maxes = [r.max_sq_err for r in rs]
            mses = [r.mse for r in rs]
            within = np.mean([m <= envelope * rate(n) for m in maxes])
            flags = [r.in_A for r in rs if r.in_A is not None]
            if flags:
                p_a = float(np.mean(flags))
                lo, hi = wilson_interval(int(np.sum(flags)), len(flags))
            else:
                p_a, lo, hi = math.nan, math.nan, math.nan
            out.append(CellSummary(
                n=n, delta=delta, q50_max=float(np.median(maxes)),
                q50_mse=float(np.median(mses)), p_within_envelope=float(within),
                p_A_hat=p_a, ci_lo=lo, ci_hi=hi,
            ))
    return out


_JSONL_FIELDS = ("trial", "n", "delta", "max_sq_err", "mse", "in_A",
                 "exceed_count", "seed")
_CSV_FIELDS = ("n", "delta", "q50_max", "q50_mse", "p_within_envelope",
               "p_A_hat", "ci_lo", "ci_hi")


def atomic_write(path, write_fn) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", newline="") as fh:
            write_fn(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_reports(path, reports: Iterable[TrialReport]) -> None:
    """JSON-lines, one report per line with the fixed field set."""
    def write(fh):
        for r in reports:
            row = {k: getattr(r, k) for k in _JSONL_FIELDS}
            fh.write(json.dumps(row) + "\n")
    atomic_write(path, write)


def read_reports(path) -> list[TrialReport]:
    out = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                out.append(TrialReport(**json.loads(line)))
    return out


def write_summaries(path, summaries: Iterable[CellSummary]) -> None:
    """CSV with the fixed header, 17 significant digits."""
    def write(fh):
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(_CSV_FIELDS)
        for s in summaries:
            row = [getattr(s, k) for k in _CSV_FIELDS]
            w.writerow([f"{v:.17g}" if isinstance(v, float) else str(v)
                        for v in row])
    atomic_write(path, write)
