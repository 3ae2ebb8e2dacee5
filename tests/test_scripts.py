"""Smoke tests: each script in scripts/ runs at a small resolution."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from rtgrowth import Discretization, FluidConfig, cli, oracle, solve_lambda

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


def test_bench_child_counts_modes_and_solves(tmp_path, monkeypatch):
    # the bench child reports the final size of every mode set the run builds,
    # the growth results it validates, its dispersion determinant calls and
    # the time inside cli.main, read from inside its process
    bench = load_script("bench")
    config = tmp_path / "reference.json"
    config.write_text(json.dumps(bench.REFERENCE))

    def child_counts(command):
        wall_s, proc = bench.timed(
            [
                sys.executable, "-c", bench.CHILD_SCRIPT, command, "--config", str(config),
                "--resolution", "8", "--out", str(tmp_path / f"{command}.out"),
            ]
        )
        assert proc.returncode == 0, proc.stderr
        counts = json.loads(proc.stderr.strip().splitlines()[-1])
        assert 0.0 < counts.pop("main_s") < wall_s
        return counts

    result = solve_lambda(FluidConfig(**bench.REFERENCE), Discretization(8))
    assert child_counts("growth") == {
        "modes": len(result.mode_set.modes), "solves": 1, "determinants": 0,
    }
    calls = []
    determinant = oracle.determinant

    def counting(*args):
        calls.append(args)
        return determinant(*args)

    monkeypatch.setattr(oracle, "determinant", counting)
    out = tmp_path / "in_process.csv"
    assert cli.main(["oracle-compare", "--config", str(config), "--resolution", "8",
                     "--out", str(out)]) == 0
    assert child_counts("oracle-compare") == {"modes": 0, "solves": 0, "determinants": len(calls)}
    assert (tmp_path / "oracle-compare.out").read_text() == out.read_text()
