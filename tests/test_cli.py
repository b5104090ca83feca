import json
import warnings

import numpy as np
import pytest

from waveshrink import cli
from waveshrink.cli import main


def write_column(path, values):
    path.write_text("".join(f"{v:.17g}\n" for v in values))


@pytest.fixture
def noisy_csv(tmp_path):
    rng = np.random.default_rng(42)
    t = np.arange(1, 1025) / 1024
    y = np.abs(t - 0.5) ** 0.5 + rng.uniform(-0.5, 0.5, 1024)
    path = tmp_path / "noisy.csv"
    write_column(path, y)
    return path


def denoise_args(inp, out, **kv):
    args = ["denoise", str(inp), str(out), "--alpha", "0.5", "--M", "1",
            "--b", "1"]
    for k, v in kv.items():
        args += [f"--{k.replace('_', '-')}", str(v)]
    return args


class TestDenoise:
    def test_constant_passthrough(self, tmp_path):
        inp, out = tmp_path / "c.csv", tmp_path / "o.csv"
        write_column(inp, np.full(256, 3.0))
        assert main(denoise_args(inp, out, delta="0")) == 0
        assert np.max(np.abs(np.loadtxt(out) - 3.0)) < 1e-12

    def test_deterministic_output(self, noisy_csv, tmp_path):
        o1, o2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
        assert main(denoise_args(noisy_csv, o1)) == 0
        assert main(denoise_args(noisy_csv, o2)) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_levels_and_threshold_on_stderr(self, noisy_csv, tmp_path, capsys):
        assert main(denoise_args(noisy_csv, tmp_path / "o.csv")) == 0
        err = capsys.readouterr().err
        assert "J0=" in err and "J1=" in err and "lambda=" in err

    def test_delta_increases_printed_threshold(self, noisy_csv, tmp_path,
                                               capsys):
        def lam(delta):
            main(denoise_args(noisy_csv, tmp_path / "o.csv", delta=delta))
            err = capsys.readouterr().err
            return float(err.split("lambda=")[1].split()[0])
        assert lam("2") > lam("1") > lam("0")

    def test_non_power_of_two_needs_flag(self, tmp_path):
        inp, out = tmp_path / "odd.csv", tmp_path / "o.csv"
        write_column(inp, np.arange(1000) / 1000.0)
        assert main(denoise_args(inp, out)) == 1
        assert not out.exists()
        assert main(denoise_args(inp, out) + ["--n-pad"]) == 0
        assert len(np.loadtxt(out)) == 1000

    @pytest.mark.parametrize("pad", [[], ["--n-pad"]], ids=["no-pad", "n-pad"])
    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank"])
    def test_input_with_no_samples_is_a_usage_error(self, tmp_path, capsys, pad, text):
        inp, out = tmp_path / "empty.csv", tmp_path / "o.csv"
        inp.write_text(text)
        assert main(denoise_args(inp, out) + pad) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(inp) in err and "no samples" in err

    def test_small_n_warns_but_succeeds(self, tmp_path, capsys):
        inp, out = tmp_path / "s.csv", tmp_path / "o.csv"
        write_column(inp, np.zeros(64))
        assert main(denoise_args(inp, out)) == 0
        assert "below the minimal sample count" in capsys.readouterr().err

    def test_interval_system(self, noisy_csv, tmp_path):
        out = tmp_path / "o.csv"
        assert main(denoise_args(noisy_csv, out, system="interval",
                                 moments="2")) == 0
        assert len(np.loadtxt(out)) == 1024

    def test_non_finite_input_fails_on_both_systems(self, noisy_csv, tmp_path):
        values = np.loadtxt(noisy_csv)
        values[100] = np.nan
        inp = tmp_path / "nan.csv"
        write_column(inp, values)
        codes = []
        for extra in ({}, {"system": "interval", "moments": "2"}):
            out = tmp_path / "o.csv"
            codes.append(main(denoise_args(inp, out, **extra)))
            assert not out.exists()
        assert codes[0] != 0 and codes[1] == codes[0]

    def test_haar_takes_no_moments(self, noisy_csv, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(denoise_args(noisy_csv, out, system="haar", moments="3")) == 1
        assert "vanishing moment" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("delta", "nan", "delta must be finite"),
        ("b", "inf", "noise range b must be finite"),
        ("M", "-1", "constant M must be finite and > 0"),
        ("M", "nan", "constant M must be finite and > 0"),
        ("alpha", "nan", "alpha must be finite"),
    ])
    def test_non_finite_or_bad_numbers_rejected(self, noisy_csv, tmp_path, capsys,
                                                flag, value, message):
        out = tmp_path / "o.csv"
        # argparse keeps the last occurrence of a flag
        assert main(denoise_args(noisy_csv, out) + [f"--{flag}", value]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input(self, tmp_path):
        assert main(denoise_args(tmp_path / "nope.csv",
                                 tmp_path / "o.csv")) == 1

    def test_unknown_flag_rejected(self, noisy_csv, tmp_path):
        assert main(denoise_args(noisy_csv, tmp_path / "o.csv")
                    + ["--bogus"]) == 1


@pytest.mark.parametrize("size", [1, 2**16 - 1, 2**16, 2**16 + 1])
def test_write_column_is_one_format_per_value(tmp_path, monkeypatch, size):
    rng = np.random.default_rng(size)
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    special = [-0.0, 5e-324, -1e308, 1 / 3]
    values[:len(special)] = special[:size]
    values[-1] = special[-1]
    path = tmp_path / "o.csv"
    cli._write_column(str(path), values)
    assert path.read_bytes() == "".join(f"{v:.17g}\n" for v in values).encode()
    # one chunk per block of at most 2^16 values
    chunks = []
    monkeypatch.setattr(cli, "atomic_write", lambda path, it: chunks.extend(it))
    cli._write_column(str(path), values)
    assert [c.count("\n") for c in chunks] == \
        [min(2**16, size - i) for i in range(0, size, 2**16)]


class TestSimulate:
    def plan(self, tmp_path, **overrides):
        raw = dict(signal_kind="cusp", alpha=0.5, holder_const=1.0,
                   noise_family="uniform", noise_bound=1.0,
                   ns=[256, 512], deltas=[1.0], trials=2, master_seed=3)
        raw.update(overrides)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(raw))
        return path

    def test_outputs_written(self, tmp_path):
        plan = self.plan(tmp_path)
        rep, summ = tmp_path / "r.jsonl", tmp_path / "s.csv"
        assert main(["simulate", str(plan), str(rep), str(summ)]) == 0
        assert len(rep.read_text().splitlines()) == 4
        assert summ.read_text().startswith("n,delta,")

    def test_empty_plan(self, tmp_path):
        plan = self.plan(tmp_path, trials=0)
        rep, summ = tmp_path / "r.jsonl", tmp_path / "s.csv"
        assert main(["simulate", str(plan), str(rep), str(summ)]) == 0
        assert rep.read_text() == ""
        assert summ.read_text() == ("n,delta,q50_max,q50_mse,"
                                    "p_within_envelope,p_A_hat,ci_lo,ci_hi\n")

    def test_seed_flag_overrides_plan(self, tmp_path):
        plan = self.plan(tmp_path)
        out = []
        for seed in ("3", "4"):
            rep = tmp_path / f"r{seed}.jsonl"
            assert main(["simulate", str(plan), str(rep),
                         str(tmp_path / f"s{seed}.csv"), "--seed", seed]) == 0
            out.append(rep.read_text())
        assert out[0] != out[1]
        base = tmp_path / "rbase.jsonl"
        assert main(["simulate", str(plan), str(base),
                     str(tmp_path / "sb.csv")]) == 0
        assert base.read_text() == out[0]  # plan's master_seed is 3

    def test_calls_share_no_parsed_state(self, tmp_path, monkeypatch):
        # the parser is built once per process; each call parses afresh, so
        # an option left out falls back to its default, not to the last value
        from waveshrink import cli
        seen = []

        def recording_run_plan(plan, workers):
            seen.append((plan.master_seed, workers))
            return run_plan(plan, workers=workers)

        run_plan = cli.run_plan
        monkeypatch.setattr(cli, "run_plan", recording_run_plan)
        plan = self.plan(tmp_path)
        args = ["simulate", str(plan), str(tmp_path / "r.jsonl"), str(tmp_path / "s.csv")]
        assert main(args + ["--seed", "4", "--workers", "2"]) == 0
        assert main(args) == 0
        assert seen == [(4, 2), (3, 1)]
        assert cli.build_parser() is cli.build_parser()

    def test_workers_must_be_positive(self, tmp_path, capsys):
        plan = self.plan(tmp_path)
        rep, summ = tmp_path / "r.jsonl", tmp_path / "s.csv"
        for workers in ("0", "-2"):
            assert main(["simulate", str(plan), str(rep), str(summ),
                         "--workers", workers]) == 1
            assert "worker count" in capsys.readouterr().err
        assert not rep.exists() and not summ.exists()

    @pytest.mark.parametrize("override, message", [
        ({"system": "daubechies"}, "unknown wavelet system"),
        ({"trials": 2.5}, "trials must be an integer"),
        ({"moments": 4}, "vanishing moment"),  # the Haar system has one
        ({"mode": "medium"}, "mode must be"),
        ({"ns": []}, "ns must name"),
        # the n=16384 cell would run for a second before n=1000 failed
        ({"ns": [16384, 1000]}, "power of two"),
        ({"ns": [256.5]}, "ns entries must be whole numbers"),
        ({"alpha": 2.0, "ns": [256]}, "too small for alpha"),
        ({"system": "interval", "moments": 3, "ns": [16]},
         "too small for a system with 3 vanishing moments"),
        ({"deltas": []}, "deltas must name"),
        ({"deltas": [1.0, -0.5]}, "deltas: delta must be finite and >= 0, got -0.5"),
        # JSON true loads as a bool, which Python counts as the integer 1
        ({"trials": True}, "trials must be an integer >= 0, got True"),
        ({"master_seed": True}, "master_seed must be an integer >= 0, got True"),
        ({"system": "interval", "moments": True},
         "interval system needs an integer moments in [1, 5], got True"),
        ({"noise_bound": True}, "noise_bound: noise range b must be finite and > 0, got True"),
        ({"deltas": [1.0, False]}, "deltas: delta must be finite and >= 0, got False"),
        # a JSON string is not a number either
        ({"alpha": "0.5"}, "alpha must be finite and > 0, got '0.5'"),
        ({"noise_bound": "1"}, "noise_bound: noise range b must be finite and > 0, got '1'"),
        ({"deltas": [1.0, "2"]}, "deltas: delta must be finite and >= 0, got '2'"),
        ({"noise_bound": 0.0, "threshold_bound": "1"},
         "threshold_bound: noise range b must be finite and > 0, got '1'"),
        # lambda takes its b from noise_bound > 0, so a threshold_bound
        # would be ignored
        ({"threshold_bound": 50}, "threshold_bound must be set exactly when "
                                  "noise_bound is 0"),
        # a repeated n or delta would run each of its cells again and pool them
        ({"ns": [256, 256, 512]}, "ns must not repeat a value, got [256, 256, 512]"),
        ({"ns": [256, 256.0]}, "ns must not repeat a value"),
        ({"deltas": [1, 1.0]}, "deltas must not repeat a value, got [1.0, 1.0]"),
        # a value of the wrong JSON type names its field
        ({"mode": [1]}, "mode: must be a string, got [1]"),
        ({"system": 2}, "system: must be a string, got 2"),
        ({"signal_kind": None}, "signal_kind: must be a string, got None"),
        ({"noise_family": {"uniform": 1}}, "noise_family: must be a string"),
        ({"ns": 256}, "ns: must be a list, got 256"),
        ({"deltas": 1.0}, "deltas: must be a list, got 1.0"),
        ({"ns": "256"}, "ns: must be a list, got '256'"),
    ], ids=["system", "trials", "haar-moments", "mode", "empty-ns",
            "ns-not-power-of-two", "ns-not-whole", "ns-too-small-for-alpha",
            "ns-too-small-for-moments", "empty-deltas", "negative-delta",
            "trials-bool", "seed-bool", "moments-bool", "noise-bound-bool",
            "delta-bool", "alpha-str", "noise-bound-str", "delta-str",
            "threshold-bound-str", "threshold-bound-with-noise", "ns-repeated", "ns-repeated-as-float",
            "deltas-repeated", "mode-list", "system-int", "signal-kind-null",
            "noise-family-object", "ns-int", "deltas-float", "ns-str"])
    def test_bad_plan_values_rejected(self, tmp_path, capsys, override, message):
        plan = self.plan(tmp_path, **override)
        rep, summ = tmp_path / "r.jsonl", tmp_path / "s.csv"
        assert main(["simulate", str(plan), str(rep), str(summ)]) == 1
        assert message in capsys.readouterr().err
        assert not rep.exists() and not summ.exists()

    @pytest.mark.parametrize("override, message", [
        ({"noise_bound": float("nan")}, "noise_bound: noise range b must be finite"),
        ({"holder_const": float("nan")},
         "holder_const: smoothness-class constant M must be finite and > 0"),
        ({"holder_const": -1.0},
         "holder_const: smoothness-class constant M must be finite and > 0"),
        ({"alpha": float("nan")}, "alpha must be finite"),
        ({"noise_bound": 0.0, "threshold_bound": float("inf")},
         "threshold_bound: noise range b must be finite"),
    ], ids=["noise-bound-nan", "holder-const-nan", "holder-const-negative",
            "alpha-nan", "threshold-bound-inf"])
    def test_non_finite_plan_values_rejected(self, tmp_path, capsys, override,
                                             message):
        plan = self.plan(tmp_path, **override)
        rep, summ = tmp_path / "r.jsonl", tmp_path / "s.csv"
        assert main(["simulate", str(plan), str(rep), str(summ)]) == 1
        assert message in capsys.readouterr().err
        assert not rep.exists() and not summ.exists()

    @pytest.mark.parametrize("override, message", [
        ({"master_seed": 1.5}, "master_seed must be an integer >= 0, got 1.5"),
        ({"master_seed": -3}, "master_seed must be an integer >= 0, got -3"),
        ({"noise_family": "gaussian"}, "unknown noise family"),
        ({"system": "interval", "moments": 6},
         "interval system needs an integer moments in [1, 5]"),
    ], ids=["seed-not-integer", "seed-negative", "family", "moments-too-many"])
    def test_run_time_rules_checked_at_load(self, tmp_path, capsys, override,
                                            message):
        plan = self.plan(tmp_path, **override)
        rep, summ = tmp_path / "r.jsonl", tmp_path / "s.csv"
        assert main(["simulate", str(plan), str(rep), str(summ)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad plan:") and message in err
        assert not rep.exists() and not summ.exists()

    def test_malformed_plan(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", str(bad), str(tmp_path / "r"),
                     str(tmp_path / "s")]) == 1
        bad.write_text(json.dumps({"signal_kind": "cusp"}))
        assert main(["simulate", str(bad), str(tmp_path / "r"),
                     str(tmp_path / "s")]) == 1
        plan = self.plan(tmp_path, extra_field=1)
        assert main(["simulate", str(plan), str(tmp_path / "r"),
                     str(tmp_path / "s")]) == 1


class TestRatesAndVerify:
    def test_rates_table(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(dict(
            signal_kind="ripple", alpha=1.0, holder_const=1.0,
            noise_family="uniform", noise_bound=1.0,
            ns=[256, 1024, 4096, 16384], deltas=[1.0], trials=5,
            master_seed=5)))
        summ = tmp_path / "s.csv"
        assert main(["simulate", str(plan), str(tmp_path / "r.jsonl"),
                     str(summ), "--workers", "4"]) == 0
        capsys.readouterr()
        assert main(["rates", str(summ), "--alpha", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "exponent" in out and "0.6667" in out

    def test_rates_too_few_points(self, tmp_path, capsys):
        summ = tmp_path / "s.csv"
        summ.write_text("n,delta,q50_max,q50_mse,p_within_envelope,"
                        "p_A_hat,ci_lo,ci_hi\n"
                        "256,1,0.1,0.05,1,nan,nan,nan\n")
        assert main(["rates", str(summ), "--alpha", "1.0"]) == 1

    def test_rates_summary_without_rows(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(dict(
            signal_kind="ripple", alpha=1.0, holder_const=1.0,
            noise_family="uniform", noise_bound=1.0,
            ns=[256, 1024, 4096, 16384], deltas=[1.0], trials=0)))
        summ = tmp_path / "s.csv"
        assert main(["simulate", str(plan), str(tmp_path / "r.jsonl"),
                     str(summ)]) == 0
        capsys.readouterr()
        assert main(["rates", str(summ), "--alpha", "1.0"]) == 1
        captured = capsys.readouterr()
        assert f"warning: {summ}: no summary rows to fit" in captured.err
        assert "s.csv" not in captured.out

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["zero-byte", "blank"])
    def test_rates_summary_without_header(self, tmp_path, capsys, text):
        summ = tmp_path / "s.csv"
        summ.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["rates", str(summ), "--alpha", "1.0"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"warning: {summ}: no summary rows to fit\n"
        assert "s.csv" not in captured.out

    @pytest.mark.parametrize("rows, message", [
        (["256,1,0.1", "256,1,0.1", "256,1,0.1", "256,1,0.1"],
         "4 or more distinct n, got n=[256, 256, 256, 256]"),
        (["256,1,0.1", "1024,1,0.05", "4096,1,0", "16384,1,0.01"],
         "need finite medians > 0"),
        (["256,1,0.1", "1024,1,nan", "4096,1,0.02", "16384,1,0.01"],
         "need finite medians > 0"),
    ], ids=["one-n-repeated", "zero-median", "nan-median"])
    def test_rates_unfittable_file(self, tmp_path, capsys, rows, message):
        summ = tmp_path / "s.csv"
        summ.write_text("n,delta,q50_max\n" + "\n".join(rows) + "\n")
        assert main(["rates", str(summ), "--alpha", "1.0"]) == 1
        captured = capsys.readouterr()
        assert message in captured.err and "s.csv" not in captured.out

    @pytest.mark.parametrize("alpha", ["-0.5", "nan"])
    def test_rates_rejects_bad_alpha(self, tmp_path, capsys, alpha):
        summ = tmp_path / "s.csv"
        summ.write_text("n,delta,q50_max\n" + "\n".join(
            f"{n},1,{0.1 / k}" for k, n in enumerate([256, 1024, 4096, 16384], 1)))
        assert main(["rates", str(summ), "--alpha", alpha]) == 1
        captured = capsys.readouterr()
        assert "error: alpha must be finite and > 0" in captured.err
        assert captured.out == ""

    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        assert "verify: OK" in capsys.readouterr().out

    def test_verify_checks_every_system_the_same_way(self, monkeypatch, capsys):
        # a transform off by one part in 10^6 fails each check on each system
        class Scaled:
            def __init__(self, system):
                self.system = system

            def __getattr__(self, name):
                return getattr(self.system, name)

            def analyze(self, x):
                return self.system.analyze(x) * (1 + 1e-6)

        build = cli.wavelet_system
        monkeypatch.setattr(cli, "wavelet_system", lambda *args: Scaled(build(*args)))
        assert main(["verify"]) == 2
        err = capsys.readouterr().err
        for kind, moments, n in cli._VERIFY_SYSTEMS:
            where = f"({kind} N={moments or 1}, n={n})"
            for check in ("roundtrip", "Parseval", "orthogonality"):
                assert f"FAIL: {check} failed {where}" in err

    def test_usage_error_exit_code(self):
        assert main(["frobnicate"]) == 1
        assert main([]) == 1
