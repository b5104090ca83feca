"""Per-trial Monte Carlo trial: a test-only oracle for the batched harness.

This is ``run_trial`` and ``_assert_detail_contraction`` as the package had
them before trials ran batched, cell by cell (:func:`waveshrink.experiments.run_cell`).
One trial at a time, it rebuilds the signal and the config, analyzes the
noise, the signal and the noisy samples through the pyramid functions, and
walks the levels in Python.  The body is unchanged but for the imports and
the event-A system: the run's Haar system at its coarse level, not "haar"
(coarse level 0), since the event covers the approximation block.
"""
import math
from typing import Optional

import numpy as np

from waveshrink.experiments import (
    _EVENT_A_SIZES,
    ExperimentPlan,
    TrialReport,
    _trial_seed,
)
from waveshrink.interval import interval_dwt, interval_idwt
from waveshrink.noise import NoiseSpec, in_event_A, sample_noise
from waveshrink.shrinkage import ShrinkageConfig, apply_threshold, wavelet_system
from waveshrink.signals import make_signal
from waveshrink.transform import HaarSystem, haar_dwt, haar_idwt


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

    member: Optional[bool] = None
    if n in _EVENT_A_SIZES and plan.noise_bound > 0:
        member = in_event_A(e, plan.noise_bound,
                            system if system is not None
                            else HaarSystem(n, cfg.coarse_level)).member
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

