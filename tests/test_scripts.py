"""The study scripts that reach into private names of the package run at
their smallest size: a renamed helper fails here, not only in CI."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from waveshrink.signals import make_signal

ROOT = Path(__file__).resolve().parent.parent

# script arguments at the smallest size, and the start of the header line
SCRIPTS = {
    "bench_pool.py": (["--trials", "1", "--repeats", "1"],
                      "  system trials Mi values"),
    "bench_interval.py": (["--min-exp", "8", "--max-exp", "8", "--repeats", "1"],
                          "      n   build_s"),
    "check_coefficient_decay.py": (["--n", "256"], "haar cusp"),
}


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_runs_at_its_smallest_size(script):
    args, header = SCRIPTS[script]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith(header) for line in lines), proc.stdout
    assert "failed" not in proc.stdout


def load_script(name):
    spec = importlib.util.spec_from_file_location(name[:-3], ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_coefficient_decay_marks_a_signal_over_the_ceiling(capsys):
    decay = load_script("check_coefficient_decay.py")
    f = make_signal("cusp", 0.5, 1.0).sample(256)
    assert not decay.report_haar([("cusp", 0.5, f)])
    assert capsys.readouterr().out.rstrip().endswith(" OK")
    # ten times the signal of M = 1 is over the ceiling of M = 1
    assert decay.report_haar([("cusp", 0.5, f), ("cusp x10", 0.5, 10 * f)])
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].endswith(" OK") and rows[1].endswith(" OVER")
