"""Acceptance suite: each test prints a single PASS/FAIL line.

The nine checks cover transform exactness, the closed-form oracle, the
coefficient-decay ceilings, the thresholding contraction, the good-event
probability and its conditional coefficient bound, rate recovery, tail
behavior of the error envelope, and the minimal-sample-count constant.
Beside checks 5 and 6, 5a tests the estimated good-event probability against
its derived floor.
"""
import math
import time

import numpy as np
import pytest

from waveshrink.experiments import (
    ExperimentPlan,
    estimate_event_probability,
    fit_rate,
    run_plan,
    wilson_interval,
)
from waveshrink.interval import (
    build_interval_system,
    interval_dwt,
    interval_idwt,
    min_coarse_level,
)
from waveshrink.noise import (
    NoiseSpec,
    _system_at,
    event_probability_floor,
    in_event_A,
    noise_coeff_bound_check,
    sample_noise,
)
from waveshrink.shrinkage import min_samples
from waveshrink.signals import make_signal, sample_grid
from waveshrink.transform import haar_coeff_closed_form, haar_dwt, haar_idwt


def report(number, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {number} [{name}]: {status}{suffix}")
    assert ok, f"acceptance criterion {number} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def event_trials():
    """10^4 noise draws per family at n=256: event membership and, for
    members, the conditional coefficient bound."""
    start = time.perf_counter()
    out = {}
    for family in ("uniform", "rademacher"):
        members = violations = 0
        for t in range(10_000):
            seed = np.random.SeedSequence(0, spawn_key=(0, t))
            e = sample_noise(NoiseSpec(family, 1.0, seed), 256)
            if in_event_A(e, 1.0).member:
                members += 1
                if not noise_coeff_bound_check(e, 1.0):
                    violations += 1
        out[family] = (members, violations)
    out["elapsed"] = time.perf_counter() - start
    return out


@pytest.fixture(scope="module")
def rate_runs():
    """500-trial Monte Carlo runs used for the rate and tail criteria."""
    start = time.perf_counter()
    out = {}
    for kind, alpha in (("oddcusp", 0.5), ("ripple", 1.0)):
        plan = ExperimentPlan(
            signal_kind=kind, alpha=alpha, holder_const=1.0,
            noise_family="uniform", noise_bound=1.0,
            ns=(2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14), deltas=(1.0,),
            trials=500, mode="soft", system="haar", master_seed=20240817,
        )
        out[alpha] = (plan, run_plan(plan, workers=1))
    out["elapsed"] = time.perf_counter() - start
    return out


def test_1_transform_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    ok, detail = True, ""
    for j in range(3, 15):
        y = rng.standard_normal(2 ** j)
        pyr = haar_dwt(y, 0)
        round_err = np.max(np.abs(haar_idwt(pyr) - y))
        pars_err = abs(np.sum(pyr.with_scaling(True).flat() ** 2)
                       - np.sum(y ** 2)) / np.sum(y ** 2)
        if round_err > 1e-10 or pars_err > 1e-10:
            ok, detail = False, f"haar failed at n=2^{j}"
    for moments in (2, 3):
        for j in range(7, 11):
            n = 2 ** j
            system = build_interval_system(moments, n, min_coarse_level(moments))
            y = rng.standard_normal(n)
            err = np.max(np.abs(
                interval_idwt(interval_dwt(y, system), system) - y))
            if err > 1e-8:
                ok, detail = False, f"interval N={moments} failed at n={n}"
    elapsed = time.perf_counter() - start
    report(1, "transform exactness", ok and elapsed < 10.0,
           detail or f"{elapsed:.1f}s")


def test_2_oracle_equivalence():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        y = rng.standard_normal(64)
        pyr = haar_dwt(y, 0)
        worst = max(worst, abs(pyr.approx[0]
                               - haar_coeff_closed_form(y, 0, 0, "approx")))
        for j in range(6):
            for k in range(2 ** j):
                worst = max(worst, abs(pyr.detail(j)[k]
                                       - haar_coeff_closed_form(y, j, k)))
    report(2, "oracle equivalence", worst <= 1e-10, f"worst gap {worst:.2e}")


def test_3_coefficient_decay():
    start = time.perf_counter()
    violations = 0
    n = 2 ** 12
    for kind in ("cusp", "weierstrass"):
        for alpha in (0.5, 1.0):
            f = make_signal(kind, alpha, 1.0).sample(n)
            pyr = haar_dwt(f, 0)
            for j in range(pyr.finest_level):
                ceiling = 2.0 ** (-j * (0.5 + alpha))
                violations += int(np.sum(np.abs(pyr.detail(j)) >= ceiling))
    system = build_interval_system(2, 1024, min_coarse_level(2))
    f = np.sin(2 * math.pi * sample_grid(1024))
    pyr = interval_dwt(f, system)
    js = np.arange(system.coarse_level, pyr.finest_level)
    maxima = [np.max(np.abs(pyr.detail(j))) for j in js]
    slope = float(np.polyfit(js, np.log2(maxima), 1)[0])
    elapsed = time.perf_counter() - start
    report(3, "coefficient decay",
           violations == 0 and slope <= -2.3 and elapsed < 30.0,
           f"haar violations {violations}, interval slope {slope:.2f}, "
           f"{elapsed:.1f}s")


def test_4_thresholding_contraction():
    start = time.perf_counter()
    d_f = np.linspace(-2.0, 2.0, 100)
    lam = np.linspace(1e-3, 1.0, 101)
    frac = np.linspace(-1.0, 1.0, 100)
    d = d_f[:, None, None]
    l = lam[None, :, None]
    e = l * frac[None, None, :]
    # broadcastable equivalent of soft_threshold(d + e, l) with per-entry l
    d_tilde = np.sign(d + e) * np.maximum(np.abs(d + e) - l, 0.0)
    shift = np.abs(d_tilde - d)
    triples = shift.size
    violations = int(np.sum((shift > np.abs(d) + 1e-12)
                            | (shift > 2 * l + 1e-12)))
    elapsed = time.perf_counter() - start
    report(4, "thresholding contraction",
           triples >= 10 ** 6 and violations == 0 and elapsed < 5.0,
           f"{triples} triples, {violations} violations, {elapsed:.1f}s")


def test_5_event_probability(event_trials):
    ok, details = True, []
    for family in ("uniform", "rademacher"):
        members, _ = event_trials[family]
        lo, _hi = wilson_interval(members, 10_000)
        details.append(f"{family} p_hat={members / 10_000:.4f} lo={lo:.4f}")
        if lo < 0.504:
            ok = False
    elapsed = event_trials["elapsed"]
    report(5, "event probability", ok and elapsed < 60.0,
           "; ".join(details) + f", {elapsed:.1f}s")


def test_6_conditional_coefficient_bound(event_trials):
    total_members = sum(event_trials[f][0] for f in ("uniform", "rademacher"))
    total_violations = sum(event_trials[f][1]
                           for f in ("uniform", "rademacher"))
    report(6, "conditional coefficient bound",
           total_members > 0 and total_violations == 0,
           f"{total_members} members, {total_violations} violations")


def test_5a_event_probability_floor():
    """P(A) >= 1 - 2n exp(-2 c_phi^2 J) for every noise family: Hoeffding's
    inequality on each coefficient (a unit-norm row of W) and a union bound
    over the n coefficients.  The floor is proven, so the estimate must not
    refute it at 99%: the floor must not exceed the Wilson upper bound.  The
    line also shows the Wilson lower bound, which clears the floor wherever
    10^4 draws can (Haar n = 16 and 64; the floor is 1 - 5.8e-5 at Haar
    n = 256 and within 1e-17 of 1 on the interval system)."""
    start = time.perf_counter()
    ok, details = True, []
    configs = [(16, "haar"), (64, "haar"), (256, "haar"),
               (256, build_interval_system(2, 256, min_coarse_level(2)))]
    for n, system in configs:
        floor = event_probability_floor(_system_at(system, n))
        name = "haar" if isinstance(system, str) else "interval N=2"
        for family in ("uniform", "rademacher"):
            p_hat, (lo, hi) = estimate_event_probability(
                family, 1.0, n, 10_000, master_seed=5, system=system)
            details.append(f"{name} n={n} {family} p_hat={p_hat:.4f} "
                           f"lo={lo:.5f} floor={floor:.5f}")
            if hi < floor:
                ok = False
    elapsed = time.perf_counter() - start
    report("5a", "derived event floor", ok and elapsed < 60.0,
           "; ".join(details) + f", {elapsed:.1f}s")


def test_7_rate_recovery(rate_runs):
    ok, details = True, []
    for alpha in (0.5, 1.0):
        plan, reports = rate_runs[alpha]
        medians = [float(np.median([r.max_sq_err for r in reports
                                    if r.n == n])) for n in plan.ns]
        fit = fit_rate(plan.ns, medians, alpha)
        details.append(f"alpha={alpha:g} exponent={fit.exponent:.3f} "
                       f"target={fit.target:.3f}")
        if abs(fit.exponent - fit.target) > 0.20:
            ok = False
    elapsed = rate_runs["elapsed"]
    report(7, "rate recovery", ok and elapsed < 600.0,
           "; ".join(details) + f", {elapsed:.1f}s")


def _binom_sf_at_least(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    if k <= 0:
        return 1.0
    return float(sum(math.comb(n, i) * p ** i * (1 - p) ** (n - i)
                     for i in range(k, n + 1)))


def test_8_tail_envelope(rate_runs):
    plan, reports = rate_runs[1.0]
    target = 2 * plan.alpha / (1 + 2 * plan.alpha)
    rate = lambda n: (math.log2(n) / n) ** target
    base = [r.max_sq_err / rate(2 ** 8) for r in reports if r.n == 2 ** 8]
    envelope = float(np.percentile(base, 99.9))
    base_frac = float(np.mean([v > envelope for v in base]))
    p0 = max(base_frac, 1.0 / len(base))
    ok, details = True, [f"envelope={envelope:.3g} base_frac={base_frac:.4f}"]
    for n in (2 ** 12, 2 ** 14):
        vals = [r.max_sq_err for r in reports if r.n == n]
        k = int(np.sum(np.asarray(vals) > envelope * rate(n)))
        p_val = _binom_sf_at_least(k, len(vals), p0)
        details.append(f"n=2^{int(math.log2(n))} exceed={k} p={p_val:.3f}")
        # reject only if the exceedance fraction is significantly above the
        # calibration fraction at the 99% level
        if p_val <= 0.01:
            ok = False
    report(8, "tail envelope", ok, "; ".join(details))


def test_9_min_samples_constant():
    raw = min_samples(2.0).raw
    rel = abs(raw / 1.1e7 - 1.0)
    report(9, "minimal sample count", rel <= 0.01,
           f"raw={raw:.4g}, rel gap {rel:.4%}")
