"""Each input rule has one owner, and every entry point that takes the input
rejects a bad value with the owner's exception and message."""
import math

import numpy as np
import pytest

from waveshrink.experiments import ExperimentPlan, estimate_event_probability
from waveshrink.interval import GeometryError, build_interval_system
from waveshrink.noise import NoiseSpec, in_event_A
from waveshrink.shrinkage import compute_levels, compute_threshold
from waveshrink.signals import SIGNAL_KINDS, make_signal
from waveshrink.transform import HaarSystem, haar_coeff_closed_form

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


@pytest.mark.parametrize("entry", NOISE_RANGE_ENTRY_POINTS)
@pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_noise_range_rule(entry, b):
    with pytest.raises(ValueError, match=NOISE_RANGE_MESSAGE):
        NOISE_RANGE_ENTRY_POINTS[entry](b)


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
