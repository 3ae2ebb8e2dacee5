"""Smoke tests: each script in scripts/ runs at a small resolution."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from rtgrowth import Discretization, FluidConfig, cli, solve_lambda

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


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_outputs_covers_every_command():
    # checked without running the script: it runs every command on four configs
    runs = load_script("cli_outputs").RUNS
    assert {argv[0] for _, argv, _ in runs} == set(cli.COMMANDS)
    assert len({name for name, _, _ in runs}) == len(runs)


def test_bench_child_counts_modes_and_solves(tmp_path):
    # the bench child reports the final size of every mode set the run builds,
    # the growth results it validates and the time inside cli.main, read from
    # inside its process
    bench = load_script("bench")
    config = tmp_path / "reference.json"
    config.write_text(json.dumps(bench.REFERENCE))
    wall_s, proc = bench.timed(
        [
            sys.executable, "-c", bench.CHILD_SCRIPT, "growth", "--config", str(config),
            "--resolution", "8", "--out", str(tmp_path / "growth.json"),
        ]
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stderr.strip().splitlines()[-1])
    main_s = counts.pop("main_s")
    result = solve_lambda(FluidConfig(**bench.REFERENCE), Discretization(8))
    assert counts == {"modes": len(result.mode_set.modes), "solves": 1}
    assert 0.0 < main_s < wall_s
