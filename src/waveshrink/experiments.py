"""Seeded Monte Carlo harness: deviation probabilities, event probabilities,
and empirical convergence rates.

Every trial is a pure function of (plan, cell index, trial index); seeds are
derived with a splittable scheme so results are bit-for-bit reproducible
regardless of execution order or worker count.

:func:`run_plan` runs each cell as tasks, each a share of the cell's trials:
one task per cell with one worker, and with a pool about one share per worker,
never smaller than one batch.  A task is one :func:`run_cell` call, which
makes the signal, the config and the signal's coefficients Wf once and runs
its trials through the transform, thresholding, error and exceedance
computations in (trials, n) batches.  A batch holds at most
``_CHUNK_ELEMENTS`` values per array, a fixed constant, so its row count
depends on n alone.  Each row of a batch goes through the same
floating-point operations as the trial would alone, so the output bytes
depend neither on the batches nor on the tasks or the worker count.

The transforms are linear, so a batch analyzes its noise once: |We| gives
event A and the exceedance counts, and We + Wf is thresholded and
synthesized.  This rounds differently from analyzing f + e (at most about
3e-14 relative in the error fields); seeds, event A and the exceedances are
the same either way.  Reports carry event A at n in ``EVENT_A_SIZES`` only.

Interval systems come from one bounded store per process
(:func:`~waveshrink.shrinkage.wavelet_systems`).  :func:`run_plan` resolves
the system of each n before any task runs: systems missing from the
caller's store are built once each, in the pool's workers if there is a pool,
and kept in the caller.  Every task then carries its system, so workers
never build one for a task, whatever the start method, and a process that
runs several plans on the same systems builds each once.
"""
from __future__ import annotations

import csv
import json
import math
import numbers
import os
from contextlib import ExitStack
from dataclasses import dataclass, field, fields
from typing import Iterable, Optional, Sequence

import numpy as np

from .interval import (
    build_interval_system,
    interval_dwt,
    interval_idwt,
)
from .noise import EVENT_A_SIZES as _EVENT_A_SIZES
from .noise import (
    NoiseSpec,
    _system_at,
    check_family,
    coefficient_bound,
    in_event_A,
    sample_noise,
)
from .shrinkage import (
    ShrinkageConfig,
    _check_alpha,
    apply_threshold,
    coarse_level_for,
    min_samples,
    system_moments,
    threshold_rule,
    wavelet_system,
    wavelet_systems,
)
from .signals import make_signal
from .transform import haar_dwt, haar_idwt, is_integer

# Trials run batched through the system objects and read event A off their
# noise coefficients, so the pyramid functions haar_dwt, haar_idwt,
# interval_dwt, interval_idwt, apply_threshold and build_interval_system, and
# in_event_A, are not called here; they stay bound in this namespace because
# perfbench/tracer.py wraps them by name.

# Most float64 values in one batched (trials, n) array: 2^15 values, 256 KiB.
# Batching amortizes per-call overhead; the cap keeps peak memory near that of
# one trial at a time.
_CHUNK_ELEMENTS = 2 ** 15
# Percentile of max_sq_err / rate at the smallest n that sets the envelope.
_ENVELOPE_QUANTILE = 99.9
# The plan's fields that are not numbers.
_TEXT_FIELDS = ("signal_kind", "noise_family", "mode", "system")


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
        # a JSON plan can hold any JSON value in any field; name the field
        # before a check would fail on the value's type
        for name in _TEXT_FIELDS + ("ns", "deltas"):
            value = getattr(self, name)
            text = name in _TEXT_FIELDS
            if not isinstance(value, str if text else (list, tuple)):
                raise ValueError(f"{name}: must be {'a string' if text else 'a list'}, "
                                 f"got {value!r}")
        ns, deltas = tuple(self.ns), tuple(self.deltas)
        # JSON true and false load as bools, which pass as the numbers 1 and 0,
        # and a JSON string would fail in a check that names no field
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _TEXT_FIELDS or (value is None and f.default is None):
                continue
            for v in {"ns": ns, "deltas": deltas}.get(f.name, (value,)):
                if isinstance(v, (bool, np.bool_)):
                    raise ValueError(f"{f.name}: a boolean is not a number, got {value!r}")
                # ns entries have their own rule, whole numbers, below
                if f.name != "ns" and not isinstance(v, numbers.Real):
                    raise ValueError(f"{f.name}: must be a number, got {value!r}")
        if not is_integer(self.trials) or self.trials < 0:
            raise ValueError(f"trials must be an integer >= 0, got {self.trials!r}")
        moments = system_moments(self.system, self.alpha, self.moments)
        threshold_rule(self.mode)
        check_family(self.noise_family)
        # the seed rule of SeedSequence; None would draw fresh entropy
        if not (is_integer(self.master_seed) and self.master_seed >= 0):
            raise ValueError(f"master_seed must be a non-negative integer, "
                             f"got {self.master_seed!r}")
        if not (math.isfinite(self.noise_bound) and self.noise_bound >= 0):
            raise ValueError(
                f"noise bound must be finite and >= 0, got {self.noise_bound}")
        if self.noise_bound == 0 and self.threshold_bound is None:
            raise ValueError("noise-free plans need an explicit threshold_bound")
        if self.threshold_bound is not None and not (
                math.isfinite(self.threshold_bound) and self.threshold_bound > 0):
            raise ValueError(
                f"threshold_bound must be finite and > 0, got {self.threshold_bound}")
        if not ns:
            raise ValueError("ns must name at least one sample count")
        for n in ns:
            # 256 and 256.0 are the same count; 256.5 is not a count
            if not (isinstance(n, numbers.Real) and float(n).is_integer()):
                raise ValueError(f"ns entries must be whole numbers, got {n!r}")
            coarse_level_for(int(n), self.alpha, moments)  # power of two, large enough
        if not deltas:
            raise ValueError("deltas must name at least one delta")
        if not all(math.isfinite(d) and d >= 0 for d in deltas):
            raise ValueError(f"deltas must be finite and >= 0, got {list(deltas)}")
        make_signal(self.signal_kind, self.alpha, self.holder_const)
        ns, deltas = tuple(int(n) for n in ns), tuple(float(d) for d in deltas)
        for name, values in (("ns", ns), ("deltas", deltas)):
            if len(set(values)) < len(values):  # each cell would run twice
                raise ValueError(f"{name} must not repeat a value, got {list(values)}")
        object.__setattr__(self, "ns", ns)
        object.__setattr__(self, "deltas", deltas)

    def below_range(self, n: int) -> bool:
        """True when n is below the deviation bounds' minimal sample count.
        Such cells still run, and the bounds do not apply to them."""
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


def _trial_seed(master_seed: int, cell: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master_seed, spawn_key=(cell, trial))


def _chunk_trials(n: int) -> int:
    """Rows per batch at sample count n.  Depends on n alone, so the batches
    never depend on the worker count."""
    return max(1, _CHUNK_ELEMENTS // n)


def _noise_batch(family: str, b: float, seeds, n: int) -> np.ndarray:
    """(len(seeds), n) noise, row i drawn from seeds[i]; zeros for b = 0."""
    noise = np.zeros((len(seeds), n))
    if b != 0:  # NoiseSpec rejects any other b that is not > 0
        for row, seed in zip(noise, seeds):
            row[...] = sample_noise(NoiseSpec(family, b, seed), n)
    return noise


def run_cell(plan: ExperimentPlan, cell: int, n: int, delta: float,
             trials: range, system=None) -> list[TrialReport]:
    """Reports for a range of trials of one cell.

    ``system`` is the cell's wavelet system; by default it is resolved with
    :func:`~waveshrink.shrinkage.wavelet_system` for the plan and n.
    The signal, the config and the signal's coefficients are made once per
    call.  The trials then run in batches of :func:`_chunk_trials` rows: each
    trial draws its noise from its own seed, and the rows of a (trials, n)
    batch go through the same elementwise operations as a single trial would,
    so a report does not depend on which trials share its batch or its call.
    """
    signal = make_signal(plan.signal_kind, plan.alpha, plan.holder_const)
    f = signal.sample(n)
    b_threshold = plan.noise_bound if plan.noise_bound > 0 else plan.threshold_bound
    if system is None:
        system = wavelet_system(plan.system, n, plan.alpha, plan.moments)
    cfg = ShrinkageConfig.build(
        n, plan.alpha, plan.holder_const, b_threshold, delta, plan.mode,
        system=plan.system, moments=system.moments,
        system_const=system.c_phi_estimate,
    )
    lam, lo = cfg.orthonormal_threshold, 2 ** cfg.coarse_level
    bound = coefficient_bound(plan.noise_bound, system)
    signal_c = system.analyze(f)
    levels = range(cfg.coarse_level, system.finest_level)
    starts = [0] + [2 ** j for j in levels[1:]]

    reports = []
    step = _chunk_trials(n)
    for start in range(0, len(trials), step):
        batch = trials[start : start + step]
        seeds = [_trial_seed(plan.master_seed, cell, t) for t in batch]
        noise = _noise_batch(plan.noise_family, plan.noise_bound, seeds, n)

        # W(f + e) = Wf + We: the noise is analyzed once, for event A, the
        # exceedances and, with Wf added, the estimate.  |We| goes into the
        # noise buffer, not a new (trials, n) array.
        c = system.analyze(noise)
        np.abs(c, out=noise)
        members = (np.max(noise, axis=-1) <= bound).tolist() \
            if n in _EVENT_A_SIZES else [None] * len(seeds)
        over = noise > lam
        # the approximation block counts with the coarsest level
        by_level = np.add.reduceat(over, starts, axis=-1, dtype=np.intp)
        exceed = by_level.sum(axis=-1)

        c += signal_c
        c[:, lo:] = threshold_rule(cfg.mode)(c[:, lo:], lam)
        _assert_detail_contraction(c, signal_c, lam, cfg.coarse_level,
                                   exceed, cfg.mode)

        sq = system.synthesize(c)
        sq -= f
        np.square(sq, out=sq)
        max_sq, mse = np.max(sq, axis=-1), np.mean(sq, axis=-1)
        # sq would stay alive through the next batch's synthesis, one more
        # (trials, n) array at the peak
        del sq

        reports += [TrialReport(trial=t, n=n, delta=delta,
                                max_sq_err=float(max_sq[i]), mse=float(mse[i]),
                                in_A=members[i], exceed_count=int(exceed[i]),
                                seed=int(seeds[i].generate_state(1, np.uint64)[0]),
                                exceed_by_level=dict(zip(levels, by_level[i].tolist())))
                    for i, t in enumerate(batch)]
    return reports


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
    ``signal`` those of the noise-free signal (n,), both flat and orthonormal,
    and ``lam`` is their threshold, lambda * sqrt(n).  The slack is 1e-12 in
    the integral convention, so 1e-12 * sqrt(n) here.  Trials with
    ``exceed`` > 0 and hard thresholding are not checked.
    """
    if mode != "soft":
        return
    lo = 2 ** coarse_level
    tol = 1e-12 * math.sqrt(shrunk.shape[-1])
    # one comparison over the batch: rounding is monotone, so
    # min(|d_f|, 2 lambda) + tol is exactly min(|d_f| + tol, 2 lambda + tol)
    bound = np.abs(signal[lo:])
    np.minimum(bound, 2 * lam, out=bound)
    bound += tol
    diff = np.subtract(shrunk[:, lo:], signal[lo:])
    np.abs(diff, out=diff)
    bad = diff > bound
    bad &= (np.asarray(exceed) == 0)[:, None]
    if np.any(bad):
        row, i = np.argwhere(bad)[0]
        level = (lo + int(i)).bit_length() - 1
        raise RuntimeError(
            f"thresholding contraction violated at level {level} "
            f"(batch row {row})"
        )


def _run_task(task) -> list[TrialReport]:
    return run_cell(*task)


def _plan_tasks(plan: ExperimentPlan, workers: int) -> list[tuple]:
    """(plan, cell, n, delta, trial range) for every task, in report order.

    A task is a share of one cell: ``trials / workers`` trials, rounded up,
    but never fewer than one batch of :func:`_chunk_trials`, so one worker
    gets one task per cell and no cell has more tasks than batches.
    """
    tasks = []
    for cell, n, delta in plan.cells():
        step = max(_chunk_trials(n), -(-plan.trials // workers))
        for start in range(0, plan.trials, step):
            tasks.append((plan, cell, n, delta,
                          range(start, min(start + step, plan.trials))))
    return tasks


def run_plan(plan: ExperimentPlan, workers: Optional[int] = None) -> list[TrialReport]:
    """All trial reports for the plan, in deterministic (cell, trial) order.

    ``workers`` defaults to the WAVESHRINK_WORKERS environment variable, else
    1; a pool never gets more processes than there are tasks.  The system of
    each n is resolved once, before any task runs, and sent with every task
    of that n.  Interval systems missing from this process's store are built
    by the pool, if there is one, else here, and stored here, so a later call
    with the same systems builds none.
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
    tasks = _plan_tasks(plan, workers)
    workers = min(workers, len(tasks))
    with ExitStack() as stack:
        run_map = map
        if workers > 1:
            # imported here: multiprocessing costs a tenth of the package import
            from concurrent.futures import ProcessPoolExecutor
            run_map = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        systems = wavelet_systems(plan.system, {t[2] for t in tasks},
                                  plan.alpha, plan.moments, build_map=run_map)
        shares = list(run_map(_run_task, [t + (systems[t[2]],) for t in tasks]))
    return [r for share in shares for r in share]


def wilson_interval(successes: int, trials: int,
                    z: float = 2.5758293035489004) -> tuple[float, float]:
    """Wilson score interval; the default z is the two-sided 99% quantile.

    The bounds always contain the point estimate: rounding alone would put
    the upper bound one step below it at successes == trials.
    """
    if not (is_integer(successes) and is_integer(trials)
            and 0 <= successes <= trials and trials >= 1):
        raise ValueError(f"need integers 0 <= successes <= trials with trials >= 1, "
                         f"got successes={successes!r}, trials={trials!r}")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials ** 2)) / denom
    return min(p, max(0.0, center - half)), max(p, min(1.0, center + half))


def estimate_event_probability(noise_family: str, b: float, n: int, trials: int,
                               master_seed: int = 0,
                               system="haar") -> tuple[float, tuple[float, float]]:
    """Empirical P(A) on ``system`` (as for :func:`~waveshrink.noise.in_event_A`)
    with a Wilson 99% confidence interval.  Trial t draws its noise from
    ``SeedSequence(master_seed, spawn_key=(0, t))``."""
    if not is_integer(trials) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    check_family(noise_family)
    system = _system_at(system, n)
    bound = coefficient_bound(b, system)
    hits, step = 0, _chunk_trials(n)
    for start in range(0, trials, step):
        seeds = [_trial_seed(master_seed, 0, t)
                 for t in range(start, min(start + step, trials))]
        c = system.analyze(_noise_batch(noise_family, b, seeds, n))
        hits += int(np.count_nonzero(np.max(np.abs(c, out=c), axis=-1) <= bound))
    return hits / trials, wilson_interval(hits, trials)


def fit_rate(ns: Sequence[int], medians: Sequence[float], alpha: float) -> RateFit:
    """Least-squares slope of log(median error) vs log(log2(n)/n)."""
    _check_alpha(alpha)
    y = np.asarray(medians, dtype=float)
    if len(set(ns)) < 4 or len(ns) != len(y) or not np.all(np.isfinite(y) & (y > 0)):
        raise ValueError(f"need finite medians > 0 at 4 or more distinct n, "
                         f"got n={list(ns)} and medians={y.tolist()}")
    x, y = np.log([math.log2(n) / n for n in ns]), np.log(y)
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


def summarize(plan: ExperimentPlan, reports: Sequence[TrialReport]) -> list[CellSummary]:
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
            [r.max_sq_err / rate(n0) for r in base], _ENVELOPE_QUANTILE)) \
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
