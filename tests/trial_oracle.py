"""Per-trial Monte Carlo trial: a test-only oracle for the batched harness.

This is ``run_trial`` and ``_assert_detail_contraction`` as the package had
them before trials ran batched, cell by cell (:func:`waveshrink.experiments.run_cell`).
One trial at a time, it rebuilds the signal and the config, analyzes the
noise, the signal and the noisy samples through the pyramid functions, and
walks the levels in Python.  The body is unchanged but for the imports, the
seed stream, built here from ``SeedSequence(master_seed, spawn_key=(cell,
trial))``, and the event-A test: at every n, on the run's Haar system at its
coarse level, not "haar" (coarse level 0), since the event covers the
approximation block; and for the result: a one-row
:class:`~waveshrink.experiments.CellResult`.

The helpers at the end stack one-row results into a cell's columns and
compare columns by their bytes, so a signed zero or a NaN cannot hide.
"""
import dataclasses
import math
import numpy as np

from waveshrink.experiments import CellResult, ExperimentPlan
from waveshrink.interval import interval_dwt, interval_idwt
from waveshrink.noise import NoiseSpec, in_event_A, sample_noise
from waveshrink.shrinkage import ShrinkageConfig, apply_threshold, wavelet_system
from waveshrink.signals import make_signal
from waveshrink.transform import HaarSystem, haar_dwt, haar_idwt


def run_trial(plan: ExperimentPlan, cell: int, n: int, delta: float,
              trial: int) -> CellResult:
    """One pure Monte Carlo trial."""
    signal = make_signal(plan.signal_kind, plan.alpha, plan.holder_const)
    f = signal.sample(n)
    seed_seq = np.random.SeedSequence(plan.master_seed, spawn_key=(cell, trial))
    seed_id = int(seed_seq.generate_state(1, np.uint64)[0])

    b_threshold = plan.noise_bound if plan.noise_bound > 0 else plan.threshold_bound
    if plan.noise_bound > 0:
        e = sample_noise(NoiseSpec(plan.noise_family, plan.noise_bound, seed_seq), n)
    else:
        e = np.zeros(n)

    system = None
    if plan.system == "interval":
        moments = plan.moments or max(1, math.ceil(plan.alpha))
        system = wavelet_system("interval", n, plan.alpha, moments)
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

    if plan.noise_bound > 0:
        member = in_event_A(e, plan.noise_bound,
                            system if system is not None
                            else HaarSystem(n, cfg.coarse_level)).member
    else:
        member = True  # zero noise is trivially inside A

    return CellResult(n, delta, np.array([trial]), np.array([seed_id], np.uint64),
                      np.array([max_sq]), np.array([mse]),
                      np.array([member]),
                      np.array([list(by_level.values())], np.intp))


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


COLUMNS = ("trial", "seed", "max_sq_err", "mse", "in_A", "exceed_by_level")


def stack(rows):
    """One cell's results, in order, as one result."""
    return dataclasses.replace(rows[0], **{
        k: np.concatenate([getattr(r, k) for r in rows]) for k in COLUMNS})


def take(result, i):
    """Row i of a result, as a one-row result."""
    return dataclasses.replace(result, **{
        k: getattr(result, k)[i : i + 1] for k in COLUMNS})


def oracle_cells(plan, trial=run_trial):
    """Every cell of the plan from ``trial`` (the oracle by default), one
    call per trial; no cell when the plan has no trials."""
    return [stack([trial(plan, cell, n, delta, t) for t in range(plan.trials)])
            for cell, n, delta in plan.cells() if plan.trials]


def assert_same_columns(got, want, columns=COLUMNS):
    """The results (one or a list) have the same cells and the same bytes,
    dtypes and shapes in ``columns``."""
    if isinstance(got, CellResult):
        got, want = [got], [want]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.n, float(g.delta).hex()) == (w.n, float(w.delta).hex())
        for k in columns:
            a, b = getattr(g, k), getattr(w, k)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), k
