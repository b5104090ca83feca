"""Each input rule has one owner, and every entry point that takes the input
rejects a bad value with the owner's exception and message."""
import math

import numpy as np
import pytest

from waveshrink.experiments import (
    ExperimentPlan,
    estimate_event_probability,
    fit_rate,
    run_plan,
    wilson_interval,
)
from waveshrink.interval import GeometryError, build_interval_system, interval_dwt
from waveshrink.noise import NoiseSpec, hoeffding_bound, in_event_A, sample_noise
from waveshrink.shrinkage import (
    ShrinkageConfig,
    apply_threshold,
    compute_levels,
    compute_threshold,
    hard_threshold,
    min_samples,
    shrink,
    soft_threshold,
    wavelet_system,
)
from waveshrink.signals import SIGNAL_KINDS, check_holder, make_signal
from waveshrink.transform import (
    CoefficientPyramid,
    HaarSystem,
    haar_coeff_closed_form,
    haar_dwt,
)

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


def plan(**overrides):
    base = dict(signal_kind="sine", alpha=1.0, holder_const=1.0, noise_family="uniform",
                noise_bound=1.0, ns=(256,), deltas=(1.0,), trials=1)
    return ExperimentPlan(**{**base, **overrides})


def pyramid():
    return haar_dwt(np.zeros(16), 0)


# (entry point, the message of its quantity's rule as a regular expression, a
# value out of the rule's range) per number that a rule owns; 1 is a valid
# value of each
NUMBER_ENTRY_POINTS = {
    "compute_threshold-delta": (lambda v: compute_threshold(256, v, 1.0),
                                "delta must be finite and >= 0", -0.5),
    "compute_threshold-c_phi": (lambda v: compute_threshold(256, 1.0, 1.0, v),
                                "wavelet-system constant must be finite and >= 1", 0.5),
    "ShrinkageConfig-delta": (lambda v: config(delta=v), "delta must be finite and >= 0", -0.5),
    "ShrinkageConfig-b": (lambda v: config(noise_bound=v), NOISE_RANGE_MESSAGE, 0.0),
    "ShrinkageConfig-M": (lambda v: config(holder_const=v),
                          "smoothness-class constant M must be finite and > 0", 0.0),
    "ShrinkageConfig-alpha": (lambda v: config(alpha=v), "alpha must be finite and > 0", 0.0),
    "compute_levels-alpha": (lambda v: compute_levels(256, v), "alpha must be finite and > 0",
                             -1.0),
    "min_samples-alpha": (min_samples, "alpha must be finite and > 0", 0.0),
    "fit_rate-alpha": (lambda v: fit_rate([16, 32, 64, 128], [1.0, 0.5, 0.25, 0.125], v),
                       "alpha must be finite and > 0", 0.0),
    "make_signal-alpha": (lambda v: make_signal("sine", v, 1.0), "alpha must be finite and > 0",
                          0.0),
    "make_signal-M": (lambda v: make_signal("sine", 1.0, v),
                      "smoothness-class constant M must be finite and > 0", -1.0),
    "check_holder-alpha": (lambda v: check_holder(np.zeros(16), v, 1.0),
                           "alpha must be finite and > 0", 0.0),
    "check_holder-M": (lambda v: check_holder(np.zeros(16), 1.0, v),
                       "smoothness-class constant M must be finite and > 0", 0.0),
    "NoiseSpec-b": (lambda v: NoiseSpec("uniform", v), NOISE_RANGE_MESSAGE, 0.0),
    "in_event_A-b": (lambda v: in_event_A(np.zeros(16), v), NOISE_RANGE_MESSAGE, -1.0),
    "sample_noise-n": (lambda v: sample_noise(NoiseSpec("uniform"), v),
                       "sample count n must be an integer >= 1", 0),
    "hoeffding_bound-m": (lambda v: hoeffding_bound(v, 1.0, -0.5, 0.5),
                          "draw count m must be an integer >= 1", 0),
    "hoeffding_bound-t": (lambda v: hoeffding_bound(1, v, -0.5, 0.5),
                          "Hoeffding t must be finite and > 0", 0.0),
    "hoeffding_bound-lo": (lambda v: hoeffding_bound(1, 1.0, v, 2.0),
                           "lo must be finite and >= -inf", -math.inf),
    "hoeffding_bound-hi": (lambda v: hoeffding_bound(1, 1.0, -1.0, v),
                           "hi must be finite and > -1.0", -2.0),
    "soft_threshold-lambda": (lambda v: soft_threshold(np.ones(4), v),
                              "threshold must be finite and >= 0", -1.0),
    "hard_threshold-lambda": (lambda v: hard_threshold(np.ones(4), v),
                              "threshold must be finite and >= 0", -1.0),
    "apply_threshold-lambda": (lambda v: apply_threshold(pyramid(), v),
                               "threshold must be finite and >= 0", -1.0),
    "wilson_interval-z": (lambda v: wilson_interval(3, 10, z=v),
                          "Wilson z must be finite and > 0", 0.0),
    "wilson_interval-successes": (lambda v: wilson_interval(v, 10),
                                  "successes must be an integer >= 0", -1),
    "wilson_interval-trials": (lambda v: wilson_interval(0, v),
                               "trials must be an integer >= 1", 0),
    "estimate-b": (lambda v: estimate_event_probability("uniform", v, 16, 2),
                   NOISE_RANGE_MESSAGE, -1.0),
    "estimate-trials": (lambda v: estimate_event_probability("uniform", 1.0, 16, v),
                        "trials must be an integer >= 1", 0),
    "estimate-master_seed": (lambda v: estimate_event_probability("uniform", 1.0, 16, 2, v),
                             "master_seed must be an integer >= 0", -1),
    "run_plan-workers": (lambda v: run_plan(plan(trials=0), v),
                         "worker count must be an integer >= 1", 0),
    "plan-alpha": (lambda v: plan(alpha=v), "alpha must be finite and > 0", 0.0),
    "plan-holder_const": (lambda v: plan(holder_const=v),
                          "holder_const: smoothness-class constant M must be finite and > 0",
                          0.0),
    "plan-noise_bound": (lambda v: plan(noise_bound=v), "noise_bound: " + NOISE_RANGE_MESSAGE,
                         -1.0),
    # None is the field's default, no threshold_bound, which noise_bound 0 needs
    "plan-threshold_bound": (lambda v: plan(noise_bound=0.0, threshold_bound=v),
                             f"threshold_bound(: {NOISE_RANGE_MESSAGE}| must be set exactly "
                             f"when noise_bound is 0)", 0.0),
    "plan-deltas": (lambda v: plan(deltas=(1.5, v)), "deltas: delta must be finite and >= 0",
                    -0.5),
    "plan-trials": (lambda v: plan(trials=v), "trials must be an integer >= 0", -1),
    "plan-master_seed": (lambda v: plan(master_seed=v), "master_seed must be an integer >= 0",
                         -1),
}


@pytest.mark.parametrize("entry", NUMBER_ENTRY_POINTS)
@pytest.mark.parametrize("value", BOOLEANS)
def test_booleans_are_not_numbers(entry, value):
    call, message, _ = NUMBER_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{message}"):
        call(value)


@pytest.mark.parametrize("entry", NUMBER_ENTRY_POINTS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "1", None, "out-of-range"])
def test_number_rule(entry, value):
    # one rule per quantity: a non-finite value, a string, None and a value
    # out of range each raise ValueError, led by the quantity's name
    call, message, out_of_range = NUMBER_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{message}"):
        call(out_of_range if value == "out-of-range" else value)


@pytest.mark.parametrize("entry", NUMBER_ENTRY_POINTS)
def test_number_entry_points_take_numbers(entry):
    # the valid value that the bool True would pass as, and numpy's
    NUMBER_ENTRY_POINTS[entry][0](1)
    NUMBER_ENTRY_POINTS[entry][0](np.int64(1))


@pytest.mark.parametrize("successes, trials, message", [
    (2.0, 3, "successes must be an integer >= 0, got 2.0"),
    (1, 2.0, "trials must be an integer >= 1, got 2.0"),
    (-1, 3, "successes must be an integer >= 0, got -1"),
    (4, 3, "successes must be <= trials, got successes=4, trials=3"),
])
def test_wilson_counts_are_checked_one_at_a_time(successes, trials, message):
    # each count through the count rule, then one check that names both
    with pytest.raises(ValueError) as exc:
        wilson_interval(successes, trials)
    assert str(exc.value) == message


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
    # in an object array the float cast itself fails on a complex number
    for objects in (y.astype(object), np.array(y.real.tolist()[:-1] + [1 + 0j], object)):
        with pytest.raises(ValueError, match="samples must be real"):
            SAMPLE_ENTRY_POINTS[entry](objects)
    SAMPLE_ENTRY_POINTS[entry](y.real)
    SAMPLE_ENTRY_POINTS[entry](y.real.astype(object))


@pytest.mark.parametrize("entry", SAMPLE_ENTRY_POINTS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_samples_are_rejected(entry, bad):
    y = np.full(256, 0.25)
    y[17] = bad
    with pytest.raises(ValueError, match="samples must be finite"):
        SAMPLE_ENTRY_POINTS[entry](y)


def row_system():
    return build_interval_system(2, 64, 3)  # J0 = 3, J = 6


COARSE_LEVEL_MESSAGE = "coarse level must be an integer in"
INDEX_MESSAGE = "must be an integer in"
# (entry point, its rule's exception and message, the first value past the
# end of its range) per entry point that takes a coarse level, a level or a
# shift
LEVEL_ENTRY_POINTS = {
    "HaarSystem": (lambda v: HaarSystem(16, v), GeometryError, COARSE_LEVEL_MESSAGE, 5),
    "haar_dwt": (lambda v: haar_dwt(np.zeros(16), v), GeometryError, COARSE_LEVEL_MESSAGE, 5),
    "build_interval_system": (lambda v: build_interval_system(2, 64, v), GeometryError,
                              COARSE_LEVEL_MESSAGE, 7),
    "haar_coeff_closed_form-j": (lambda v: haar_coeff_closed_form(np.zeros(16), v, 0, "approx"),
                                 IndexError, INDEX_MESSAGE, 5),
    "haar_coeff_closed_form-k": (lambda v: haar_coeff_closed_form(np.zeros(16), 2, v),
                                 IndexError, INDEX_MESSAGE, 4),
    "IntervalSystem.row-j": (lambda v: row_system().row(v, 0), IndexError, INDEX_MESSAGE, 6),
    "IntervalSystem.row-k": (lambda v: row_system().row(3, v), IndexError, INDEX_MESSAGE, 8),
    "CoefficientPyramid.detail": (lambda v: haar_dwt(np.zeros(16), 1).detail(v), IndexError,
                                  INDEX_MESSAGE, 4),
}


@pytest.mark.parametrize("entry", LEVEL_ENTRY_POINTS)
@pytest.mark.parametrize("value", [True, np.True_, 1.5, 3.0, -1, "past-the-end"])
def test_level_rule(entry, value):
    call, error, message, end = LEVEL_ENTRY_POINTS[entry]
    with pytest.raises(error, match=message):
        call(end if isinstance(value, str) else value)


@pytest.mark.parametrize("entry", LEVEL_ENTRY_POINTS)
def test_level_entry_points_take_integers(entry):
    call, _, _, end = LEVEL_ENTRY_POINTS[entry]
    call(end - 1)
    call(np.int64(3))  # numpy integers are levels


@pytest.mark.parametrize("value", [True, np.True_, 1.5, -1])
def test_pyramid_coarse_level_rule(value):
    with pytest.raises(ValueError, match="coarse level must be an integer >= 0"):
        CoefficientPyramid(value, np.zeros(2), ())
