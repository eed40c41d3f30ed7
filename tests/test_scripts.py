"""The two scripts README documents, run as a user runs them: each in its own
interpreter with ``PYTHONPATH=src``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_verify_bounds_reports_app9_and_exits_three():
    proc = run_script("verify_bounds.py", "--verbose")
    assert proc.returncode == 3, proc.stderr
    lines = {line.split()[0]: line for line in proc.stdout.splitlines() if line and not line.startswith(" ")}
    assert set(lines) == {"app1", "app5", "app6", "app7", "app8", "app9", "app10"}
    assert "1681 violations" in lines["app9"]
    assert all("holds" in line for suite, line in lines.items() if suite != "app9")


def test_convergence_study_exits_zero():
    proc = run_script("convergence_study.py", "--m-list", "1,10")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n# ") == 3  # four sections, each with its CSV
    assert "n0,raw,raw_abs_err,accelerated,accelerated_abs_err" in proc.stdout
