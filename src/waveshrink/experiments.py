"""Seeded Monte Carlo harness: deviation probabilities, event probabilities,
and empirical convergence rates.

Every trial is a pure function of (plan, cell index, trial index); seeds are
derived with a splittable scheme so results are bit-for-bit reproducible
regardless of execution order or worker count.

:func:`run_plan` runs each cell as tasks, each a share of the cell's trials:
one task per cell in the calling process, and with a pool about one share per
process, never smaller than one batch.  A plan gets a pool only when it draws
enough noise values to pay for one (``_POOL_VALUES``).  A task
is one :func:`run_cell` call, which makes the signal, the config and the
signal's coefficients Wf once and runs its trials through the transform,
thresholding, error and exceedance computations in (trials, n) batches.  A
batch holds at most ``_CHUNK_ELEMENTS`` values per array, a fixed constant,
so its row count depends on n alone.  Each row of a batch goes through the
same floating-point operations as the trial would alone, so the output bytes
depend neither on the batches nor on the tasks or the worker count.

The transforms are linear, so a batch analyzes its noise once: each row's
max |We| gives event A, the exceedances are counted in the rows where it
passes the threshold, and We + Wf is thresholded and synthesized.  This
rounds differently from analyzing f + e (at most about 3e-14 relative in
the error fields); seeds, event A and the exceedances are the same either
way.  The thresholding finds the finest level that keeps a coefficient in
the batch, and the synthesis stops its general levels there: above it every
detail is +-0, and the closed form it takes instead gives the bytes of the
full synthesis, so a row still does not depend on which trials share its
batch.  A cell's results are one :class:`CellResult` of columns, event A and
each trial's max |We| among them at every n; the writers print event A only
at n in ``EVENT_A_SIZES``, and never the max.

Interval systems come from one store per process
(:func:`~waveshrink.shrinkage.wavelet_systems`).  :func:`run_plan` resolves
the system of each n before any task runs: systems missing from the
caller's store are built once each, by the plan's pool if it has one, else
in the caller, and kept in the caller.  Every task then carries its system,
so workers never build one for a task, whatever the start method, and a
process that runs several plans on the same systems builds each once.
"""
from __future__ import annotations

import csv
import json
import math
import numbers
import os
from contextlib import nullcontext
from dataclasses import dataclass, replace
from itertools import groupby, repeat
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
    _SeedWords,
    _check_noise_bound,
    _system_at,
    check_family,
    check_noise_range,
    coefficient_bound,
    in_event_A,
    sample_noise,
)
from .shrinkage import (
    ShrinkageConfig,
    _check_alpha,
    _check_delta,
    _check_holder_const,
    _threshold_in_place,
    apply_threshold,
    coarse_level_for,
    system_moments,
    threshold_rule,
    wavelet_system,
    wavelet_systems,
)
from .signals import make_signal
from .transform import (
    _block_count,
    _count,
    _real,
    _run_blocks,
    haar_dwt,
    haar_idwt,
    is_integer,
)

# Trials run batched through the system objects and read event A off their
# noise coefficients, so the pyramid functions haar_dwt, haar_idwt,
# interval_dwt, interval_idwt, apply_threshold and build_interval_system, and
# in_event_A, are not called here; they stay bound in this namespace because
# perfbench/tracer.py wraps them by name.

# Most float64 values in one batched (trials, n) array: 2^15 values, 256 KiB.
# Batching amortizes per-call overhead; the cap keeps peak memory near that of
# one trial at a time.
_CHUNK_ELEMENTS = 2 ** 15
# Sample count below which estimate_event_probability draws its trials on one
# thread: on a 2-core x86 VM, mixture noise on Haar took 1.5x, 1.2x, 0.75x
# and 0.63x as long on two threads as on one at n = 2**8, 2**12, 2**14 and
# 2**16 (4000, 512, 128 and 32 trials, median of 6).  The call must also hold
# 2**19 values, the rule of the Haar blocks (transform._block_count).
_SHARE_MIN_N = 2 ** 14
# Noise values per task process: run_plan gives a plan that draws v values
# (trials x deltas x sum of ns) at most v // _POOL_VALUES processes for its
# tasks, so they run in the caller below 2 * _POOL_VALUES.  On a 2-core x86 VM
# an empty 2-process pool took 13-60 ms per call.  run_plan time at 2 workers,
# tasks always in the pool, over 1 worker (scripts/bench_pool.py, median of 5
# alternating runs, one delta), by the plan's Mi (2**20) values:
#   Haar oddcusp, n = 2^8..2^14:  0.42 1.46, 0.83 1.05, 1.66 0.78, 3.3 0.64
#   interval N = 2, n = 2^8..2^12:  0.21 1.85, 0.41 1.17, 0.82 0.98, 3.3 0.61
# Both cross 1 between 0.4 and 1 Mi values.  The 0.83 Mi Haar plan gets two
# processes, the rule's one miss; the 0.82 Mi interval plan gets two at a tie.
# Under the rule the missing interval systems are built in the caller too: a
# cold N = 2 plan at n = 2^8, 2^10, 2^12 with 40 trials took 0.096 s that
# way, against 0.122 s with a 2-process pool for its builds alone (median of
# 10 fresh processes); a cold N = 5 plan at n = 2^10..2^16 with 4 trials,
# whose builds cost far more than its trials, took 0.87 s against 0.57 s.
_POOL_VALUES = 2 ** 18
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
        # each number goes to its owner; a message not led by the field gets it
        _check_alpha(self.alpha)
        for field, check, values in (
                ("holder_const", _check_holder_const, [self.holder_const]),
                ("noise_bound", _check_noise_bound, [self.noise_bound]),
                ("threshold_bound", check_noise_range,
                 [] if self.threshold_bound is None else [self.threshold_bound]),
                ("deltas", _check_delta, deltas)):
            for value in values:
                try:
                    check(value)
                except ValueError as exc:
                    raise ValueError(f"{field}: {exc}") from None
        _count("trials", self.trials, 0)
        check_master_seed(self.master_seed)
        moments = system_moments(self.system, self.alpha, self.moments)
        threshold_rule(self.mode)
        check_family(self.noise_family)
        if (self.noise_bound == 0) != (self.threshold_bound is not None):
            raise ValueError("threshold_bound must be set exactly when noise_bound is 0 "
                             f"(lambda uses it then), got noise_bound={self.noise_bound}")
        if not ns:
            raise ValueError("ns must name at least one sample count")
        for n in ns:
            # 256 and 256.0 are the same count; 256.5 and true are not counts
            if isinstance(n, bool) or not (isinstance(n, numbers.Real)
                                           and float(n).is_integer()):
                raise ValueError(f"ns entries must be whole numbers, got {n!r}")
            coarse_level_for(int(n), self.alpha, moments)  # power of two, large enough
        if not deltas:
            raise ValueError("deltas must name at least one delta")
        make_signal(self.signal_kind, self.alpha, self.holder_const)
        ns, deltas = tuple(int(n) for n in ns), tuple(float(d) for d in deltas)
        for name, values in (("ns", ns), ("deltas", deltas)):
            if len(set(values)) < len(values):  # each cell would run twice
                raise ValueError(f"{name} must not repeat a value, got {list(values)}")
        object.__setattr__(self, "ns", ns)
        object.__setattr__(self, "deltas", deltas)

    def cells(self) -> list[tuple[int, int, float]]:
        """(cell index, n, delta) in deterministic order."""
        return [(i, n, d)
                for i, (n, d) in enumerate((n, d) for n in self.ns for d in self.deltas)]


@dataclass(frozen=True, eq=False)
class CellResult:
    """One cell's trials as columns, in trial order: ``trial``, ``seed``
    (uint64), ``max_sq_err`` and ``mse`` are (T,); ``in_A`` is (T,) bool,
    event A at every n; ``exceed_by_level`` is (T, levels),
    the noise coefficients over the threshold per level from the coarse
    level up, the approximation block counted with the coarsest level;
    ``noise_max`` is (T,), each trial's max |We| over all its noise
    coefficients, the number event A and the exceedances are read from.
    The writers do not print it."""

    n: int
    delta: float
    trial: np.ndarray
    seed: np.ndarray
    max_sq_err: np.ndarray
    mse: np.ndarray
    in_A: np.ndarray
    exceed_by_level: np.ndarray
    noise_max: Optional[np.ndarray] = None

    def __post_init__(self):
        if not (np.all(np.isfinite(self.max_sq_err)) and np.all(np.isfinite(self.mse))):
            raise ValueError("error fields must be finite")
        # a float mean of n values in [0, max] is at most max * (1 + eps/2)^n,
        # in any summation order (Higham 2002, Accuracy and Stability, sec. 4.2)
        if np.any(self.mse > self.max_sq_err * (1.0 + self.n * np.finfo(float).eps)):
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


def check_master_seed(master_seed) -> None:
    """The one master-seed rule, SeedSequence's: a non-negative integer.
    None would draw fresh entropy, so no run could be repeated."""
    _count("master_seed", master_seed, 0)


def _chunk_trials(n: int) -> int:
    """Rows per batch at sample count n.  Depends on n alone, so the batches
    never depend on the worker count."""
    return max(1, _CHUNK_ELEMENTS // n)


def _noise_batch(family: str, b: float, master_seed: int, cell: int,
                 trials: range, n: int, out=None) -> tuple[np.ndarray, np.ndarray]:
    """The seed column and the (len(trials), n) noise, zeros for b = 0, of a
    batch of one cell's trials, written to the first rows of ``out`` where
    it is given.  Trial t's PCG64 takes the four words of
    ``SeedSequence(master_seed, spawn_key=(cell, t)).generate_state(4, uint64)``,
    and its seed is word 0."""
    states = [np.random.SeedSequence(master_seed, spawn_key=(cell, t))
              .generate_state(4, np.uint64) for t in trials]
    seeds = np.array([words[0] for words in states], np.uint64)
    if out is None and len(states) == 1 and b > 0:  # the row is the batch: no copy
        return seeds, sample_noise(NoiseSpec(family, b, _SeedWords(states[0])), n)[None]
    noise = (np.empty((len(states), n)) if out is None else out)[: len(states)]
    if b == 0:  # NoiseSpec rejects any other b that is not > 0
        noise[...] = 0.0
    else:
        for row, words in zip(noise, states):
            row[...] = sample_noise(NoiseSpec(family, b, _SeedWords(words)), n)
    return seeds, noise


def run_cell(plan: ExperimentPlan, cell: int, n: int, delta: float,
             trials: range, system=None) -> CellResult:
    """Results for a range of trials of one cell, as columns in trial order.

    ``system`` is the cell's wavelet system; by default it is resolved with
    :func:`~waveshrink.shrinkage.wavelet_system` for the plan and n.  The
    signal, the config, the signal's coefficients, the contraction bound and
    the columns are made once per call.  Batches of :func:`_chunk_trials`
    rows fill the columns: each trial draws its noise from its own seed, and
    the rows of a (trials, n) batch go through the same elementwise
    operations as a single trial would, so a row does not depend on which
    trials share its batch or its call.

    A call makes one work buffer for one batch, which every batch reuses,
    so no batch's arrays outlive it: the noise, its coefficients, the
    synthesis output, each (trials, n), and the transforms' scratch.  Once
    each row's max |We| is read, the noise array is the thresholding's
    scratch and then holds the contraction check's differences.
    Exceedances are counted only for rows whose max |We| passes lambda; the
    others count zero on every level.  The thresholding returns the finest
    level that keeps a coefficient in the batch, and the synthesis takes the
    levels above it in closed form, with the bytes of the full synthesis
    (see the systems' ``_synthesize_into``).
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
    contraction = _contraction_bound(signal_c, lam, cfg.coarse_level, cfg.mode)
    levels = range(cfg.coarse_level, system.finest_level)
    starts = [0] + [2 ** j for j in levels[1:]]

    T = len(trials)
    seed, max_sq, mse = np.empty(T, np.uint64), np.empty(T), np.empty(T)
    in_A, noise_max = np.empty(T, bool), np.empty(T)
    by_level = np.zeros((T, len(levels)), np.intp)
    step = _chunk_trials(n)
    width = min(step, T)
    work = np.empty(width * (2 * n + system._scratch_per_row))
    noise_rows, out_rows = work[: 2 * width * n].reshape(2, width, n)
    scratch_rows = work[2 * width * n :].reshape(width, system._scratch_per_row)
    for start in range(0, T, step):
        rows = slice(start, start + step)
        seed[rows], noise = _noise_batch(plan.noise_family, plan.noise_bound,
                                         plan.master_seed, cell, trials[rows], n,
                                         noise_rows)
        k = len(noise)

        # W(f + e) = Wf + We: the noise is analyzed once, for event A, the
        # exceedances and, with Wf added, the estimate.  The noise is dead
        # once analyzed: |We| goes into its buffer, and then the scratch of
        # the thresholding and of the contraction check.
        c = system.analyze(noise)
        batch_max = noise_max[rows] = np.max(np.abs(c, out=noise), axis=-1)
        in_A[rows] = batch_max <= bound
        exceeds = batch_max > lam
        over = np.flatnonzero(exceeds)
        if over.size:  # the approximation block counts with the coarsest level
            by_level[start + over] = np.add.reduceat(noise[over] > lam, starts,
                                                     axis=-1, dtype=np.intp)

        c += signal_c
        # packed from the buffer's start: as noise[:, lo:], the same scratch
        # ran up to twice as slow at 32 and 128 rows
        details = (k, n - lo)
        scratch = noise.reshape(-1)[: math.prod(details)].reshape(details)
        kept = _threshold_in_place(c, lam, cfg.mode, scratch, cfg.coarse_level)
        _assert_detail_contraction(c, signal_c, contraction, cfg.coarse_level,
                                   exceeds, scratch)

        sq = system._synthesize_into(c, out_rows[:k], scratch_rows[:k], kept)
        sq -= f
        np.square(sq, out=sq)
        max_sq[rows], mse[rows] = np.max(sq, axis=-1), np.mean(sq, axis=-1)
        del c  # alive through the next batch's draws, one more array at the peak
    return CellResult(n, delta, np.arange(trials.start, trials.stop, trials.step),
                      seed, max_sq, mse, in_A, by_level, noise_max)


def run_trial(plan: ExperimentPlan, cell: int, n: int, delta: float,
              trial: int) -> CellResult:
    """One pure Monte Carlo trial: the one-row case of :func:`run_cell`."""
    return run_cell(plan, cell, n, delta, range(trial, trial + 1))


def _contraction_bound(signal: np.ndarray, lam: float, coarse_level: int,
                       mode: str) -> np.ndarray:
    """min(|d_f|, 2 lambda) soft and min(max(|d_f|, lambda), 2 lambda) hard
    (a kept coefficient moves by its noise), plus tol, over the detail
    coefficients of ``signal``, the noise-free signal's flat orthonormal
    coefficients (n,), at the threshold ``lam``, lambda * sqrt(n).  The
    slack tol is 1e-12 in the integral convention, so 1e-12 * sqrt(n) here."""
    tol = 1e-12 * math.sqrt(signal.shape[-1])
    # rounding is monotone, so this is exactly the bound + tol
    bound = np.abs(signal[2 ** coarse_level :])
    if mode == "hard":
        np.maximum(bound, lam, out=bound)
    np.minimum(bound, 2 * lam, out=bound)
    bound += tol
    return bound


def _assert_detail_contraction(shrunk: np.ndarray, signal: np.ndarray,
                               bound: np.ndarray, coarse_level: int,
                               exceed: np.ndarray, scratch: np.ndarray) -> None:
    """When every noise coefficient of a trial is under lambda, thresholding
    must move each of its detail coefficients by at most ``bound``.

    ``shrunk`` holds the thresholded coefficients of a batch (trials, n) and
    ``signal`` those of the noise-free signal (n,), both flat and orthonormal,
    and ``bound`` is :func:`_contraction_bound` of ``signal``.  Trials with
    nonzero ``exceed`` (trials,) are not checked.  ``scratch``, an array of
    the shape of the detail columns ``shrunk[:, lo:]``, is overwritten with
    the differences.
    """
    lo = 2 ** coarse_level
    diff = np.subtract(shrunk[:, lo:], signal[lo:], out=scratch)
    np.abs(diff, out=diff)
    bad = diff > bound
    if exceed.any():
        bad &= (exceed == 0)[:, None]
    if np.any(bad):
        row, i = np.argwhere(bad)[0]
        level = (lo + int(i)).bit_length() - 1
        raise RuntimeError(
            f"thresholding contraction violated at level {level} "
            f"(batch row {row})"
        )


def _run_task(task) -> CellResult:
    return run_cell(*task)


def _plan_tasks(plan: ExperimentPlan, shares: int) -> list[tuple]:
    """(plan, cell, n, delta, trial range) per task, in (cell, trial) order.

    A task is a share of one cell: ``trials / shares`` trials, rounded up,
    but never fewer than one batch of :func:`_chunk_trials`, so one share
    is one task per cell and no cell has more tasks than batches.
    """
    tasks = []
    for cell, n, delta in plan.cells():
        step = max(_chunk_trials(n), -(-plan.trials // shares))
        for start in range(0, plan.trials, step):
            tasks.append((plan, cell, n, delta,
                          range(start, min(start + step, plan.trials))))
    return tasks


def run_plan(plan: ExperimentPlan, workers: int = 1) -> list[CellResult]:
    """One :class:`CellResult` per cell in ``plan.cells()`` order; none without trials.

    ``workers`` is an integer >= 1, the most processes a pool gets.  The
    tasks are cut for p = :func:`_task_processes` processes, and a pool of
    ``min(p, tasks)`` processes builds the interval systems missing from
    this process's store and then runs the tasks.  When that is 1 or less,
    both run here, one task per cell, and no process starts.  The system of
    each n is resolved once, before any task runs, stored here and sent
    with every task of that n, so a later call with the same systems
    builds none.
    """
    _count("worker count", workers, 1)
    p = _task_processes(plan, workers)
    tasks = _plan_tasks(plan, max(p, 1))
    processes = min(p, len(tasks))
    with _pool(processes) if processes > 1 else nullcontext() as pool:
        task_map = pool.map if pool else map
        systems = wavelet_systems(plan.system, {t[2] for t in tasks},
                                  plan.alpha, plan.moments, build_map=task_map)
        shares = list(task_map(_run_task, [t + (systems[t[2]],) for t in tasks]))
    return [_join(list(cell)) for _, cell in groupby(shares, lambda s: (s.n, s.delta))]


def _task_processes(plan: ExperimentPlan, workers: int) -> int:
    """p = ``min(workers, values // _POOL_VALUES)``, the processes a plan's
    tasks are cut for, where ``values`` is the number of noise values the
    plan draws; at 1 or less everything runs in the caller."""
    values = plan.trials * len(plan.deltas) * sum(plan.ns)
    return min(workers, values // _POOL_VALUES)


def _pool(processes: int):
    """A process pool of ``processes`` workers."""
    # imported here: multiprocessing costs a tenth of the package import
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=processes)


def _join(shares: Sequence[CellResult]) -> CellResult:
    """One cell's task shares, in trial order, as one result."""
    columns = ("trial", "seed", "max_sq_err", "mse", "in_A", "exceed_by_level", "noise_max")
    return replace(shares[0], **{k: np.concatenate([getattr(s, k) for s in shares])
                                 for k in columns})


def wilson_interval(successes: int, trials: int,
                    z: float = 2.5758293035489004) -> tuple[float, float]:
    """Wilson score interval; the default z is the two-sided 99% quantile.

    The bounds always contain the point estimate: rounding alone would put
    the upper bound one step below it at successes == trials.
    """
    _real("Wilson z", z, 0, strict=True)
    _count("successes", successes, 0)
    _count("trials", trials, 1)
    if successes > trials:
        raise ValueError(f"successes must be <= trials, got successes={successes!r}, "
                         f"trials={trials!r}")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials ** 2)) / denom
    return min(p, max(0.0, center - half)), max(p, min(1.0, center + half))


def estimate_event_probability(noise_family: str, b: float, n: int, trials: int,
                               master_seed: int = 0,
                               system="haar") -> tuple[float, tuple[float, float]]:
    """Empirical P(A) on ``system`` (as for :func:`~waveshrink.noise.in_event_A`)
    with a Wilson 99% confidence interval.  Trial t draws the noise of
    :func:`run_cell`'s trial t of cell 0, and b = 0 is noise-free: for a plan
    of this family, b and master seed, the hits over ``trials`` trials are
    ``run_cell(plan, 0, n, delta, range(trials), system).in_A.sum()``, so at
    b = 0 every trial, and no noise is drawn.

    The trials run in p = :func:`_share_count` contiguous shares, share 0 on
    this thread and each other share on a thread of its own; the hits are
    summed.  A trial's membership does not depend on its share, so the result
    does not depend on p.
    """
    _count("trials", trials, 1)
    check_master_seed(master_seed)
    check_family(noise_family)
    _check_noise_bound(b)
    system = _system_at(system, n)
    if b == 0:  # every noise-free trial is in A: nothing to draw
        return 1.0, wilson_interval(trials, trials)
    bound = coefficient_bound(b, system)
    p = _share_count(n, trials)
    hits = sum(_run_blocks(_event_hits, [
        (noise_family, b, system, bound, master_seed,
         range(trials * i // p, trials * (i + 1) // p)) for i in range(p)]))
    return hits / trials, wilson_interval(hits, trials)


def _share_count(n: int, trials: int) -> int:
    """p, the number of trial shares of :func:`estimate_event_probability`:
    1 below n = ``_SHARE_MIN_N``, else the Haar block count of the call's
    trials * n values, at most ``trials``."""
    if n < _SHARE_MIN_N:
        return 1
    return _block_count(trials * n, trials.bit_length() - 1)


def _event_hits(family: str, b: float, system, bound: float, master_seed: int,
                trials: range) -> int:
    """How many of ``trials`` draw noise in event A, in batches of
    :func:`_chunk_trials` rows.  Runs on helper threads: numpy's draws and
    large ufuncs release the GIL."""
    hits, step = 0, _chunk_trials(system.n)
    for start in range(0, len(trials), step):
        c = system.analyze(_noise_batch(family, b, master_seed, 0,
                                        trials[start : start + step], system.n)[1])
        hits += int(np.count_nonzero(np.max(np.abs(c, out=c), axis=-1) <= bound))
    return hits


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


def summarize(plan: ExperimentPlan, cells: Sequence[CellResult]) -> list[CellSummary]:
    """Per-cell summaries; the error envelope constant is calibrated at the
    smallest n (per delta) and applied as c * (log2 n / n)^(2a/(1+2a))."""
    target = 2 * plan.alpha / (1 + 2 * plan.alpha)
    rate = lambda n: (math.log2(n) / n) ** target
    cells = {(c.n, c.delta): c for c in cells}
    out = []
    for delta in plan.deltas:
        n0 = min(plan.ns)
        base = cells.get((n0, delta))
        envelope = float(np.percentile(base.max_sq_err / rate(n0), _ENVELOPE_QUANTILE)) \
            if base is not None else math.inf
        for n in plan.ns:
            c = cells.get((n, delta))
            if c is None:
                continue
            within = np.mean(c.max_sq_err <= envelope * rate(n))
            if n in _EVENT_A_SIZES:
                p_a = float(np.mean(c.in_A))
                lo, hi = wilson_interval(int(np.sum(c.in_A)), len(c.in_A))
            else:
                p_a, lo, hi = math.nan, math.nan, math.nan
            out.append(CellSummary(
                n=n, delta=delta, q50_max=float(np.median(c.max_sq_err)),
                q50_mse=float(np.median(c.mse)), p_within_envelope=float(within),
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


def write_reports(path, cells: Iterable[CellResult]) -> None:
    """JSON lines from the cells' columns, one per trial with the fixed field set."""
    def write(fh):
        for c in cells:
            in_A = c.in_A.tolist() if c.n in _EVENT_A_SIZES else repeat(None)
            for row in zip(c.trial.tolist(), repeat(c.n), repeat(c.delta),
                           c.max_sq_err.tolist(), c.mse.tolist(), in_A,
                           c.exceed_by_level.sum(axis=-1).tolist(), c.seed.tolist()):
                fh.write(json.dumps(dict(zip(_JSONL_FIELDS, row))) + "\n")
    atomic_write(path, write)


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
