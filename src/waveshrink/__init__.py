"""Wavelet shrinkage denoising on [0,1] with a Monte Carlo verification harness."""

from .transform import (
    CoefficientPyramid,
    haar_coeff_closed_form,
    haar_dwt,
    haar_idwt,
    is_power_of_two,
)
from .shrinkage import (
    Levels,
    MinSamples,
    ShrinkageConfig,
    apply_threshold,
    compute_levels,
    compute_threshold,
    hard_threshold,
    min_samples,
    shrink,
    soft_threshold,
)
from .interval import (
    CascadeTable,
    GeometryError,
    IntervalSystem,
    build_interval_system,
    cascade_evaluate,
    daubechies_filter,
    extract_weights,
    interval_dwt,
    interval_idwt,
)
from .signals import (
    SIGNAL_KINDS,
    HolderCheck,
    HolderSignal,
    check_holder,
    make_signal,
    sample_grid,
)
from .noise import (
    NOISE_FAMILIES,
    EventAReport,
    NoiseSpec,
    hoeffding_bound,
    in_event_A,
    noise_coeff_bound_check,
    sample_noise,
)
from .experiments import (
    CellSummary,
    ExperimentPlan,
    RateFit,
    TrialReport,
    estimate_event_probability,
    fit_rate,
    read_reports,
    run_plan,
    run_trial,
    summarize,
    threshold_exceedance_census,
    wilson_interval,
    write_reports,
    write_summaries,
)

__all__ = [
    "CoefficientPyramid", "haar_dwt", "haar_idwt", "haar_coeff_closed_form",
    "is_power_of_two",
    "soft_threshold", "hard_threshold", "apply_threshold", "compute_threshold",
    "compute_levels", "min_samples", "shrink", "ShrinkageConfig", "Levels",
    "MinSamples",
    "CascadeTable", "GeometryError", "IntervalSystem", "build_interval_system",
    "cascade_evaluate", "daubechies_filter", "extract_weights", "interval_dwt",
    "interval_idwt",
    "SIGNAL_KINDS", "HolderCheck", "HolderSignal", "check_holder", "make_signal",
    "sample_grid",
    "NOISE_FAMILIES", "EventAReport", "NoiseSpec", "hoeffding_bound",
    "in_event_A", "noise_coeff_bound_check", "sample_noise",
    "CellSummary", "ExperimentPlan", "RateFit", "TrialReport",
    "estimate_event_probability", "fit_rate", "read_reports", "run_plan",
    "run_trial", "summarize", "threshold_exceedance_census", "wilson_interval",
    "write_reports", "write_summaries",
]
