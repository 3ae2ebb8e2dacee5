"""Smoke tests: each script in scripts/ runs at a small resolution."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script,args",
    [
        ("run_reference.py", ["--resolution", "8"]),
        ("convergence_study.py", ["--max-n", "16"]),
    ],
    ids=["run_reference", "convergence_study"],
)
def test_script_runs(script, args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "lambda" in proc.stdout
