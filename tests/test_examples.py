"""The examples run as scripts and print what they promise."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_example(name):
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        capture_output=True, text=True, timeout=300,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        cwd=str(ROOT))
    assert result.returncode == 0, (
        f"{name} failed:\n{result.stdout}\n{result.stderr}")
    return result.stdout.splitlines()


def test_quasi_fd_tuning_reports_the_accepted_step():
    # 25 % noise, the quasi-FD accepted at a 30 % threshold: 17 % of the
    # citizenship members have no single continent, within tolerance
    lines = run_example("quasi_fd_tuning.py")
    assert "  step citizen -> continent: 17% of members lack a single " \
           "parent" in lines
    assert "  instance validation within tolerance: True" in lines
    assert "  25% |     30%   | LEVEL (error=22%)" in lines
