"""Self-test of the benchmark at toy size (N = 8, a few ops); takes seconds.

    python3 -m pytest perfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from rtgrowth.model import upper_bound_m  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=150,
    )


def test_benchmark_json_lists_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_toy_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--resolution", "8", "--ops", "4")
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    result = lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    attempted = 4 if trace else 4 * run.PASSES
    assert result["attempted"] == attempted and 0 <= result["failed"] <= attempted
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {n: u for n, u, _ in expected}
    inputs = next(line["inputs"] for line in lines if "inputs" in line)
    assert inputs["seed"] == 3 and inputs["resolution"] == 8 and inputs["n_dofs"] == 30
    assert set(inputs["blas_threads"].values()) == {1}
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= run.COVERAGE_FLOOR


def test_without_solver_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "growth-ref", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_keeps_ten_samples_above():
    assert run.tail([float(x) for x in range(1, 21)]) == (10.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 3)


def test_growth_gates_reject_a_perturbed_lambda():
    w = workloads.GrowthRef(8)
    record = w.op(0.25)
    assert w.gates([record]) == [None]
    assert w.gates([{**record, "lambda": 1.05 * record["lambda"]}])[0] is not None
    m = upper_bound_m(w.cfg.with_theta(0.25 * w.theta_c))
    assert w.gates([{**record, "lambda": 1.01 * m}])[0] is not None
    assert w.gates([{**record, "branch": "transverse"}])[0] is not None


def test_growth_gate_pins_the_reference_answer():
    w = workloads.GrowthRef(32)
    pinned = {"f": 0.0, "lambda": workloads.REFERENCE_LAMBDA[32],
              "branch": "longitudinal", "argmax_k": 5.0}
    assert w.gates([pinned]) == [None]
    assert w.gates([{**pinned, "lambda": pinned["lambda"] + 2e-8}])[0] is not None
    assert w.gates([{**pinned, "argmax_k": 2.0 ** 0.5}])[0] is not None


def test_sweep_gates_reject_a_perturbed_lambda():
    w = workloads.SweepDense(8)
    w.prepare()
    records = [w.op(f) for f in (0.1, 0.2, 0.3)]
    assert w.gates(records) == [None, None, None]
    raised = [records[0], {**records[1], "lambda": records[0]["lambda"]}, records[2]]
    assert w.gates(raised)[1] is not None
    m = upper_bound_m(w.cfg.with_theta(0.1 * w.theta_c))
    assert w.gates([{**records[0], "lambda": 1.001 * m}])[0] is not None
    assert w.gates([records[0], None, records[2]]) == [None, None, None]


def test_oracle_gates_reject_a_perturbed_lambda():
    w = workloads.OracleModes(8)
    record = w.op(1.0)
    assert w.gates([record]) == [None]
    assert w.gates([{**record, "lambda_variational": 1.05 * record["lambda_variational"]}])[0]
    assert w.gates([{**record, "lambda_variational": None}])[0] is not None
