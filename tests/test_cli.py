import json

import numpy as np
import pytest

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

    def test_missing_input(self, tmp_path):
        assert main(denoise_args(tmp_path / "nope.csv",
                                 tmp_path / "o.csv")) == 1

    def test_unknown_flag_rejected(self, noisy_csv, tmp_path):
        assert main(denoise_args(noisy_csv, tmp_path / "o.csv")
                    + ["--bogus"]) == 1


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

    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        assert "verify: OK" in capsys.readouterr().out

    def test_usage_error_exit_code(self):
        assert main(["frobnicate"]) == 1
        assert main([]) == 1
