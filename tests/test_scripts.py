"""The study scripts that reach into private names of the package run at
their smallest size: a renamed helper fails here, not only in CI."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# script arguments at the smallest size, and the start of the header line
SCRIPTS = {
    "bench_pool.py": (["--trials", "1", "--repeats", "1"],
                      "  system trials Mi values"),
    "bench_interval.py": (["--min-exp", "8", "--max-exp", "8", "--repeats", "1"],
                          "      n   build_s"),
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
