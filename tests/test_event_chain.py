"""The chain the harness relies on, exactly: event A => every noise
coefficient within b c_phi sqrt(J) => no noise coefficient over the threshold
(exceed_count = 0) => soft thresholding moves each detail coefficient by at
most min(|d_f|, 2 lambda).

Each noise vector goes through ``run_cell`` itself, injected in place of the
trial's draw, for Haar at coarse levels 0 and 3 and the interval system with
N = 2, in both modes and at delta 0 and 1.  The vectors are hypothesis draws
pushed towards single rows of W, and adversarial ones at the bound.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveshrink import experiments
from waveshrink.experiments import ExperimentPlan, run_cell
from waveshrink.noise import (
    NOISE_FAMILIES,
    NoiseSpec,
    in_event_A,
    sample_noise,
)
from waveshrink.shrinkage import ShrinkageConfig, soft_threshold, wavelet_system
from waveshrink.signals import make_signal

# (system, n, signal, alpha, moments): the pipeline's coarse level is 0 for
# Haar at alpha 0.5 and 3 for Haar at alpha 2 and for the interval system
CONFIGS = {
    "haar-J0=0": ("haar", 256, "oddcusp", 0.5, None),
    "haar-J0=3": ("haar", 65536, "sine", 2.0, None),
    "interval-256": ("interval", 256, "sine", 1.0, 2),
    "interval-65536": ("interval", 65536, "sine", 1.0, 2),
}
RUNS = [(config, mode, delta) for config in CONFIGS
        for mode in ("soft", "hard") for delta in (0.0, 1.0)]


def _system(config):
    kind, n, _, alpha, moments = CONFIGS[config]
    return wavelet_system(kind, n, alpha, moments)


def _row(system, i):
    """Row i of W: W is orthogonal, so W.T maps the unit vector e_i to it."""
    unit = np.zeros(system.n)
    unit[i] = 1.0
    return system.synthesize(unit)


def check_chain(config, mode, delta, e, b=1.0):
    """Run ``e`` through run_cell as a trial's noise and check each link of
    the chain; return whether ``e`` is in A."""
    kind, n, signal, alpha, moments = CONFIGS[config]
    assert np.max(np.abs(e)) <= b / 2
    system = _system(config)
    plan = ExperimentPlan(signal_kind=signal, alpha=alpha, holder_const=1.0,
                          noise_family="uniform", noise_bound=b, ns=(n,),
                          deltas=(delta,), trials=1, mode=mode, system=kind,
                          moments=moments)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "sample_noise", lambda spec, size: e.copy())
        # run_cell raises when a trial with exceed_count = 0 breaks the
        # contraction
        result = run_cell(plan, 0, n, delta, range(1), system)

    event = in_event_A(e, b, system)
    assert result.in_A.tolist() == [event.member]
    if not event.member:
        return False
    noise_c = system.analyze(e)
    top = np.max(np.abs(noise_c))
    assert top <= b * system.c_phi_estimate * math.sqrt(system.finest_level)
    cfg = ShrinkageConfig.build(n, alpha, 1.0, b, delta, mode, system=kind,
                                moments=system.moments,
                                system_const=system.c_phi_estimate)
    lam, lo = cfg.orthonormal_threshold, 2 ** cfg.coarse_level
    assert top < lam
    assert not result.exceed_by_level.any()
    if mode == "soft":
        signal_c = system.analyze(make_signal(signal, alpha, 1.0).sample(n))
        shift = np.abs(soft_threshold((signal_c + noise_c)[lo:], lam) - signal_c[lo:])
        allowed = np.minimum(np.abs(signal_c[lo:]), 2 * lam) + 1e-12 * math.sqrt(n)
        assert np.all(shift <= allowed)
    return True


@pytest.mark.parametrize("config, mode, delta", RUNS)
@given(family=st.sampled_from(NOISE_FAMILIES), seed=st.integers(0, 2 ** 31 - 1),
       b=st.floats(0.1, 3.0), weight=st.floats(0.0, 1.0), row=st.integers(0))
@settings(max_examples=10, deadline=None)
def test_chain_on_draws(config, mode, delta, family, seed, b, weight, row):
    """A draw of a noise family, mixed with b/2 sign(w) for a row w of W: the
    mix stays in [-b/2, b/2] and, with weight near 1, can leave A."""
    system = _system(config)
    w = _row(system, row % system.n)
    e = (1 - weight) * sample_noise(NoiseSpec(family, b, seed), system.n) \
        + weight * (b / 2) * np.sign(w)
    check_chain(config, mode, delta, np.clip(e, -b / 2, b / 2), b)


@pytest.mark.parametrize("config, mode, delta", RUNS)
def test_chain_on_constant_noise(config, mode, delta):
    """e = 0.2081 b: within a block-sum event of the same Hoeffding scale, yet
    its approximation coefficient is over the bound on Haar at coarse level 0."""
    member = check_chain(config, mode, delta, np.full(CONFIGS[config][1], 0.2081))
    assert member == (config == "interval-256")


@pytest.mark.parametrize("config, mode, delta", RUNS)
def test_chain_at_the_bound(config, mode, delta):
    """s sign(w) for each approximation row w, s = bound / ||w||_1 scaled by
    1 -+ 1e-12: that coefficient is just inside and just over the bound, and
    no other is larger.  Rows whose s exceeds b/2 cannot reach the bound with
    noise in range and are left out."""
    system = _system(config)
    bound = system.c_phi_estimate * math.sqrt(system.finest_level)
    cases = 0
    for k in range(2 ** system.coarse_level):
        w = _row(system, k)
        s = bound / np.sum(np.abs(w))
        if s * (1 + 1e-12) > 0.5:
            continue
        cases += 1
        assert check_chain(config, mode, delta, np.sign(w) * s * (1 - 1e-12))
        assert not check_chain(config, mode, delta, np.sign(w) * s * (1 + 1e-12))
    assert cases > 0 or config == "interval-256"


def test_interval_256_noise_in_range_is_always_in_A():
    """On the interval system at n = 256 no noise in [-b/2, b/2] leaves A: the
    largest coefficient it can make, b/2 ||w||_1 over the rows w of W, is
    under the bound, so the adversarial rows above have nothing to scale."""
    system = _system("interval-256")
    rows = system.synthesize(np.eye(system.n))
    largest = 0.5 * np.max(np.sum(np.abs(rows), axis=-1))
    assert largest < system.c_phi_estimate * math.sqrt(system.finest_level)
    worst = np.sign(rows[np.argmax(np.sum(np.abs(rows), axis=-1))]) / 2
    assert in_event_A(worst, 1.0, system).member
