"""Seeded Monte Carlo harness: deviation probabilities, event probabilities,
and empirical convergence rates.

Every trial is a pure function of (plan, cell index, trial index); seeds are
derived with a splittable scheme so results are bit-for-bit reproducible
regardless of execution order or worker count.

Trials run a cell at a time (:func:`run_cell`): the signal, the config, the
wavelet system and the signal's coefficients are made once per chunk, and the
chunk's trials go through the transform, thresholding, error and exceedance
computations as one (trials, n) batch.  A chunk holds at most
``_CHUNK_ELEMENTS`` values per batched array, a fixed constant, so the split
depends on n alone.  Each row of a batch goes through the same floating-point
operations as the trial would alone, so the output bytes depend neither on
the chunking nor on the worker count.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .interval import (
    IntervalSystem,
    build_interval_system,
    interval_dwt,
    interval_idwt,
)
from .noise import NoiseSpec, in_event_A, sample_noise
from .shrinkage import (
    ShrinkageConfig,
    apply_threshold,
    min_samples,
    system_moments,
    threshold_rule,
    wavelet_system,
)
from .signals import make_signal
from .transform import haar_dwt, haar_idwt

# Trials run batched through the system objects, so the pyramid functions
# haar_dwt, haar_idwt, interval_dwt, interval_idwt, apply_threshold and
# build_interval_system are not called here; they stay bound in this
# namespace because perfbench/tracer.py wraps them by name.

_EVENT_A_SIZES = (16, 256, 65536)
# Most float64 values in one batched (trials, n) array: 2^15 values, 256 KiB.
# Batching amortizes per-call overhead; the cap keeps peak memory near that of
# one trial at a time.
_CHUNK_ELEMENTS = 2 ** 15


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
        if not isinstance(self.trials, (int, np.integer)) or self.trials < 0:
            raise ValueError(f"trials must be an integer >= 0, got {self.trials!r}")
        system_moments(self.system, self.alpha, self.moments)
        threshold_rule(self.mode)
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


def interval_system_for(n: int, alpha: float, moments: int) -> IntervalSystem:
    """The interval system the shrinkage pipeline uses for (n, alpha, N); see
    :func:`~waveshrink.shrinkage.wavelet_system`."""
    return wavelet_system("interval", n, alpha, moments)


def _trial_seed(master_seed: int, cell: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master_seed, spawn_key=(cell, trial))


def _chunk_trials(n: int) -> int:
    """Trials per batch at sample count n.  Depends on n alone, so the split
    of a cell into chunks never depends on the worker count."""
    return max(1, _CHUNK_ELEMENTS // n)


def run_cell(plan: ExperimentPlan, cell: int, n: int, delta: float,
             trials: range) -> list[TrialReport]:
    """Reports for a range of trials of one cell, computed as one batch.

    The signal, the config, the system and the signal's coefficients are made
    once.  Each trial draws its noise from its own seed, and the rows of the
    (trials, n) batch go through the same elementwise operations as a single
    trial would, so a report does not depend on which trials share its batch.
    """
    signal = make_signal(plan.signal_kind, plan.alpha, plan.holder_const)
    f = signal.sample(n)
    b_threshold = plan.noise_bound if plan.noise_bound > 0 else plan.threshold_bound
    system = wavelet_system(plan.system, n, plan.alpha, plan.moments)
    cfg = ShrinkageConfig.build(
        n, plan.alpha, plan.holder_const, b_threshold, delta, plan.mode,
        system=plan.system, moments=system.moments,
        system_const=system.c_phi_estimate,
    )
    lam, lo = cfg.threshold, 2 ** cfg.coarse_level

    seeds = [_trial_seed(plan.master_seed, cell, t) for t in trials]
    noise = np.zeros((len(seeds), n))
    if plan.noise_bound > 0:
        for row, seed in zip(noise, seeds):
            row[...] = sample_noise(NoiseSpec(plan.noise_family, plan.noise_bound, seed), n)

    if n not in _EVENT_A_SIZES:
        members = [None] * len(seeds)
    elif plan.noise_bound > 0:
        members = [in_event_A(e, plan.noise_bound, system).member for e in noise]
    else:
        members = [True] * len(seeds)  # zero noise is trivially inside A

    # Coefficients in the integral convention, as the pyramid functions return
    # them.  Arrays are reused in place where the values are no longer needed,
    # which keeps the number of live (trials, n) arrays small.
    to_integral = 1.0 / np.sqrt(n)
    over = system.analyze(noise)
    over *= to_integral
    over = np.abs(over, out=over) > lam
    levels = range(cfg.coarse_level, n.bit_length() - 1)
    by_level = np.empty((len(seeds), len(levels)), dtype=int)
    for i, j in enumerate(levels):
        by_level[:, i] = np.count_nonzero(over[:, 2 ** j : 2 ** (j + 1)], axis=-1)
    by_level[:, 0] += np.count_nonzero(over[:, :lo], axis=-1)
    exceed = by_level.sum(axis=-1)

    signal_c = system.analyze(f) * to_integral
    # noise is not needed again
    shrunk = system.analyze(np.add(noise, f, out=noise))
    shrunk *= to_integral
    shrunk[:, lo:] = threshold_rule(cfg.mode)(shrunk[:, lo:], lam)
    _assert_detail_contraction(shrunk, signal_c, lam, cfg.coarse_level,
                               exceed, cfg.mode)

    shrunk *= np.sqrt(n)
    sq = system.synthesize(shrunk)
    sq -= f
    np.square(sq, out=sq)
    max_sq, mse = np.max(sq, axis=-1), np.mean(sq, axis=-1)

    return [TrialReport(trial=t, n=n, delta=delta, max_sq_err=float(max_sq[i]),
                        mse=float(mse[i]), in_A=members[i],
                        exceed_count=int(exceed[i]),
                        seed=int(seeds[i].generate_state(1, np.uint64)[0]),
                        exceed_by_level=dict(zip(levels, by_level[i].tolist())))
            for i, t in enumerate(trials)]


def run_trial(plan: ExperimentPlan, cell: int, n: int, delta: float,
              trial: int) -> TrialReport:
    """One pure Monte Carlo trial: the one-trial case of :func:`run_cell`."""
    return run_cell(plan, cell, n, delta, range(trial, trial + 1))[0]


def _assert_detail_contraction(shrunk: np.ndarray, signal: np.ndarray, lam: float,
                               coarse_level: int, exceed: np.ndarray,
                               mode: str) -> None:
    """When every noise coefficient of a trial is under lambda, soft
    thresholding must move each of its detail coefficients by at most
    min(|d_f|, 2 lambda).

    ``shrunk`` holds the thresholded coefficients of a batch (trials, n) and
    ``signal`` those of the noise-free signal (n,), both flat and in the
    integral convention.  Trials with ``exceed`` > 0 and hard thresholding are
    not checked.
    """
    if mode != "soft":
        return
    lo = 2 ** coarse_level
    d_f = np.abs(signal[lo:])
    diff = np.subtract(shrunk[:, lo:], signal[lo:])
    np.abs(diff, out=diff)
    bad = (diff > d_f + 1e-12) | (diff > 2 * lam + 1e-12)
    bad &= (np.asarray(exceed) == 0)[:, None]
    if np.any(bad):
        row, i = np.argwhere(bad)[0]
        level = (lo + int(i)).bit_length() - 1
        raise RuntimeError(
            f"thresholding contraction violated at level {level} "
            f"(batch row {row})"
        )


def _run_chunk(task) -> list[TrialReport]:
    return run_cell(*task)


def _plan_tasks(plan: ExperimentPlan) -> list[tuple]:
    """(plan, cell, n, delta, trial range) for every chunk, in report order."""
    tasks = []
    for cell, n, delta in plan.cells():
        step = _chunk_trials(n)
        for start in range(0, plan.trials, step):
            tasks.append((plan, cell, n, delta,
                          range(start, min(start + step, plan.trials))))
    return tasks


def run_plan(plan: ExperimentPlan, workers: Optional[int] = None) -> list[TrialReport]:
    """All trial reports for the plan, in deterministic (cell, trial) order.

    ``workers`` defaults to the WAVESHRINK_WORKERS environment variable, else
    1; a pool never gets more processes than there are chunks.
    """
    if workers is None:
        raw = os.environ.get("WAVESHRINK_WORKERS", "1")
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"WAVESHRINK_WORKERS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    tasks = _plan_tasks(plan)
    workers = min(workers, len(tasks))
    if workers > 1:
        # imported here: multiprocessing costs a tenth of the package import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_chunk, tasks))
    else:
        chunks = [_run_chunk(t) for t in tasks]
    return [r for chunk in chunks for r in chunk]


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
