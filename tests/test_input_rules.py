"""Each input rule has one owner, and every entry point that takes the input
rejects a bad value with the owner's exception and message."""
import math

import numpy as np
import pytest

from waveshrink.experiments import ExperimentPlan, estimate_event_probability, fit_rate
from waveshrink.interval import GeometryError, build_interval_system, interval_dwt
from waveshrink.noise import NoiseSpec, in_event_A
from waveshrink.shrinkage import (
    ShrinkageConfig,
    compute_levels,
    compute_threshold,
    min_samples,
    shrink,
    wavelet_system,
)
from waveshrink.signals import SIGNAL_KINDS, check_holder, make_signal
from waveshrink.transform import HaarSystem, haar_coeff_closed_form, haar_dwt

SAMPLE_COUNT_MESSAGE = "sample count must be a power of two >= 2"
NOISE_RANGE_MESSAGE = "noise range b must be finite and > 0"

# entry points that take a sample count n, or n samples
SAMPLE_COUNT_ENTRY_POINTS = {
    "compute_threshold": lambda n: compute_threshold(n, 1.0, 1.0),
    "compute_levels": lambda n: compute_levels(n, 1.0),
    "HaarSystem": lambda n: HaarSystem(n, 0),
    "build_interval_system": lambda n: build_interval_system(2, n, 3),
    "in_event_A": lambda n: in_event_A(np.zeros(n), 1.0),
    "haar_coeff_closed_form": lambda n: haar_coeff_closed_form(np.zeros(n), 0, 0),
}


@pytest.mark.parametrize("entry", SAMPLE_COUNT_ENTRY_POINTS)
@pytest.mark.parametrize("n", [0, 1, 6, 100, 1000])
def test_sample_count_rule(entry, n):
    with pytest.raises(GeometryError, match=SAMPLE_COUNT_MESSAGE):
        SAMPLE_COUNT_ENTRY_POINTS[entry](n)


@pytest.mark.parametrize("entry", ["compute_threshold", "compute_levels",
                                   "HaarSystem", "build_interval_system"])
def test_sample_count_must_be_an_integer(entry):
    with pytest.raises(GeometryError, match=SAMPLE_COUNT_MESSAGE):
        SAMPLE_COUNT_ENTRY_POINTS[entry](256.0)
    SAMPLE_COUNT_ENTRY_POINTS[entry](np.int64(256))  # numpy integers are counts


# entry points that take a noise range b
NOISE_RANGE_ENTRY_POINTS = {
    "NoiseSpec": lambda b: NoiseSpec("uniform", b),
    "in_event_A": lambda b: in_event_A(np.zeros(256), b),
    "in_event_A_system": lambda b: in_event_A(np.zeros(256), b, HaarSystem(256, 0)).member,
    "compute_threshold": lambda b: compute_threshold(256, 1.0, b),
}


# a bool passes as the number 1 or 0, and JSON true and false load as bools
BOOLEANS = [True, False, np.True_, np.False_]


@pytest.mark.parametrize("entry", NOISE_RANGE_ENTRY_POINTS)
@pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf, 0.0, -1.0] + BOOLEANS)
def test_noise_range_rule(entry, b):
    with pytest.raises(ValueError, match=NOISE_RANGE_MESSAGE):
        NOISE_RANGE_ENTRY_POINTS[entry](b)


@pytest.mark.parametrize("b", BOOLEANS)
def test_event_estimate_takes_no_boolean_range(b):
    # b = 0 is the estimate's noise-free case, and False must not pass as it
    with pytest.raises(ValueError, match=NOISE_RANGE_MESSAGE):
        estimate_event_probability("uniform", b, 16, 2)


def config(**overrides):
    base = dict(n=512, alpha=1.0, holder_const=1.0, noise_bound=1.0, delta=1.0)
    return ShrinkageConfig.build(**{**base, **overrides})


# (entry point, message) per number that a rule owns, for the bool cases
NUMBER_ENTRY_POINTS = {
    "compute_threshold-delta": (lambda v: compute_threshold(256, v, 1.0),
                                "delta must be finite and >= 0"),
    "compute_threshold-c_phi": (lambda v: compute_threshold(256, 1.0, 1.0, v),
                                "wavelet-system constant must be finite and >= 1"),
    "ShrinkageConfig-delta": (lambda v: config(delta=v), "delta must be finite and >= 0"),
    "ShrinkageConfig-b": (lambda v: config(noise_bound=v), NOISE_RANGE_MESSAGE),
    "ShrinkageConfig-M": (lambda v: config(holder_const=v),
                          "smoothness-class constant M must be finite and > 0"),
    "ShrinkageConfig-alpha": (lambda v: config(alpha=v), "alpha must be finite and > 0"),
    "compute_levels-alpha": (lambda v: compute_levels(256, v), "alpha must be finite and > 0"),
    "min_samples-alpha": (min_samples, "alpha must be finite and > 0"),
    "fit_rate-alpha": (lambda v: fit_rate([16, 32, 64, 128], [1.0, 0.5, 0.25, 0.125], v),
                       "alpha must be finite and > 0"),
    "make_signal-alpha": (lambda v: make_signal("sine", v, 1.0),
                          "need finite alpha > 0 and M > 0"),
    "make_signal-M": (lambda v: make_signal("sine", 1.0, v), "need finite alpha > 0 and M > 0"),
}


@pytest.mark.parametrize("entry", NUMBER_ENTRY_POINTS)
@pytest.mark.parametrize("value", BOOLEANS)
def test_booleans_are_not_numbers(entry, value):
    call, message = NUMBER_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize("entry", NUMBER_ENTRY_POINTS)
def test_number_entry_points_take_numbers(entry):
    # the valid value that the bool True would pass as
    NUMBER_ENTRY_POINTS[entry][0](1)


# entry points that take a master seed
MASTER_SEED_ENTRY_POINTS = {
    "ExperimentPlan": lambda seed: ExperimentPlan(
        signal_kind="sine", alpha=1.0, holder_const=1.0, noise_family="uniform",
        noise_bound=1.0, ns=(256,), deltas=(1.0,), trials=1, master_seed=seed),
    "estimate_event_probability": lambda seed: estimate_event_probability(
        "uniform", 1.0, 16, 3, master_seed=seed),
}


@pytest.mark.parametrize("entry", MASTER_SEED_ENTRY_POINTS)
@pytest.mark.parametrize("seed", [None, -1, 1.5, "3", True])
def test_master_seed_rule(entry, seed):
    # a plan names the field before it reaches the rule, for a value that is
    # not a number at all
    with pytest.raises(ValueError, match="^master_seed"):
        MASTER_SEED_ENTRY_POINTS[entry](seed)


@pytest.mark.parametrize("entry", MASTER_SEED_ENTRY_POINTS)
def test_master_seed_accepts_numpy_integers(entry):
    MASTER_SEED_ENTRY_POINTS[entry](np.int64(3))


def test_signal_kinds_keep_their_order():
    assert SIGNAL_KINDS == ("constant", "linear", "cusp", "oddcusp", "sine",
                            "ripple", "weierstrass")


@pytest.mark.parametrize("kind, limit", [
    ("linear", 2), ("cusp", 1), ("oddcusp", 1), ("sine", 2), ("ripple", 2),
    ("weierstrass", 1),
])
def test_signal_certification_messages(kind, limit):
    make_signal(kind, float(limit), 1.0)
    with pytest.raises(ValueError) as exc:
        make_signal(kind, limit + 0.25, 1.0)
    assert str(exc.value) == f"{kind} signal is certified only for alpha <= {limit}"


def test_unknown_signal_kind_message():
    with pytest.raises(ValueError) as exc:
        make_signal("spline", 1.0, 1.0)
    assert str(exc.value) == (f"unknown signal kind 'spline'; choose from "
                              f"{SIGNAL_KINDS}")


def interval_system():
    return wavelet_system("interval", 256, 1.0, 2)


# entry points that take samples, or a batch of them along the last axis
SAMPLE_ENTRY_POINTS = {
    "shrink": lambda y: shrink(y, config(n=256, alpha=0.5)),
    "shrink-batch": lambda y: shrink(np.stack([y, y]), config(n=256, alpha=0.5)),
    "in_event_A": lambda y: in_event_A(y, 1.0),
    "haar_dwt": lambda y: haar_dwt(y, 0),
    "haar_coeff_closed_form": lambda y: haar_coeff_closed_form(y, 0, 0),
    "HaarSystem.analyze": lambda y: HaarSystem(256, 0).analyze(y),
    "HaarSystem.synthesize": lambda y: HaarSystem(256, 0).synthesize(y),
    "IntervalSystem.analyze": lambda y: interval_system().analyze(y),
    "IntervalSystem.synthesize": lambda y: interval_system().synthesize(y),
    "interval_dwt": lambda y: interval_dwt(y, interval_system()),
    "check_holder": lambda y: check_holder(y, 1.0, 1.0),
}


@pytest.mark.parametrize("entry", SAMPLE_ENTRY_POINTS)
def test_complex_samples_are_rejected(entry):
    # the cast to float would drop the imaginary parts, with only a warning
    y = np.full(256, 0.25 + 0.5j)
    with pytest.raises(ValueError, match="samples must be real, got complex values"):
        SAMPLE_ENTRY_POINTS[entry](y)
    with pytest.raises(ValueError, match="samples must be real"):
        SAMPLE_ENTRY_POINTS[entry](y.real.tolist()[:-1] + [0.5j])
    SAMPLE_ENTRY_POINTS[entry](y.real)
