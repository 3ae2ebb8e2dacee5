"""Benchmark of rtgrowth: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload growth-ref|sweep-dense|oracle-modes \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the solver is imported from ./src. One
closed-loop client: every op starts when the previous one has returned. Each
measurement runs in a fresh interpreter (worker.py) with one BLAS thread,
because a command-line user pays imports and every cache on each run.

The op list is fixed by the seed and by --seconds: one pass is
round(seconds / (PASSES * op_seconds)) ops, at least one, where op_seconds
is one op's time at the baseline on a 2-core x86-64 machine with one BLAS
thread. The run's work therefore stays the same when the solver gets faster
or slower, so run_s and cpu_s compare across versions.

--trace 0 makes PASSES passes, each in a fresh process with its own inputs
drawn from the seed, and prints the end-to-end metrics: each is the median
over the passes of that pass's figure, which keeps them steady on a machine
whose speed varies with its neighbours' load. --trace 1 makes pass 0
untraced and then traced, each in a fresh process, and prints the per-layer
metrics of layers.py; trace.overhead_s is the traced run_s minus the
untraced one.

Earlier lines of standard output record each pass's figures with its op-tail
rank and sample count, the inputs and environment of the result, the failures,
and (traced) the full span table; the last line is the result object.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# name -> (elements per layer, seconds per op at the baseline)
WORKLOADS = {
    "growth-ref": (32, 9.0),
    "sweep-dense": (128, 0.048),
    "oracle-modes": (32, 0.044),
}

PASSES = 3
COVERAGE_FLOOR = 0.95
DEADLINE_S = 170.0
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def tail(values: list[float]) -> tuple[float, int]:
    """(value, 1-based rank) of the highest order statistic with ten samples above it.

    With ten samples or fewer no such rank exists, and the slowest is returned.
    """
    ordered = sorted(values)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[rank - 1], rank


class Runner:
    def __init__(self, workload: str, seed: int, ops: int, resolution: int):
        self.base = [
            "--workload", workload, "--seed", str(seed),
            "--ops", str(ops), "--resolution", str(resolution),
        ]
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {**os.environ, **ONE_BLAS_THREAD}

    def child(self, pass_index: int, trace: int) -> dict:
        """Run one worker to completion and return its result."""
        cmd = [sys.executable, str(HERE / "worker.py"), *self.base,
               "--pass", str(pass_index), "--trace", str(trace)]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=self.env, text=True,
                                  timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded the {DEADLINE_S:g} s deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        result = json.loads(lines[-1])
        result["setup_s"] = result["setup_end"] - spawned
        return result


def _failed(result: dict) -> int:
    return sum(result["raised"].values()) + len(result["gate_failures"])


def _report(results: list[dict], args, resolution: int, ops: int) -> None:
    """Print the inputs and outcome of a run, one JSON object per line."""
    result = results[0]
    print(json.dumps({"inputs": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "resolution": resolution, "n_dofs": 4 * resolution - 2,
        "ops_per_pass": ops, "passes": len(results),
        **result["describe"],
        "requested_blas_threads": 1,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        **result["environment"],
    }}))
    print(json.dumps({"raised": [r["raised"] for r in results],
                      "gate_failures": [r["gate_failures"] for r in results]}))


def _latency(result: dict) -> dict:
    """Median and tail op latency of one pass, over its ok ops (all ops if none is ok)."""
    times = [t for t, ok in zip(result["op_s"], result["ok"]) if ok] or result["op_s"]
    tail_s, rank = tail(times)
    return {"p50_s": statistics.median(times), "tail_s": tail_s,
            "tail_rank": rank, "samples": len(times)}


def end_to_end(runner: Runner) -> tuple[list[dict], dict]:
    results = [runner.child(p, 0) for p in range(PASSES)]
    latency = [_latency(r) for r in results]
    print(json.dumps({"passes": [
        {**{k: r[k] for k in ("setup_s", "run_s", "cpu_s", "peak_rss_mb")}, **lat}
        for r, lat in zip(results, latency)
    ]}))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(_failed(r) for r in results)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "run_s": statistics.median(r["run_s"] for r in results),
        "op_p50_ms": 1e3 * statistics.median(lat["p50_s"] for lat in latency),
        "op_tail_ms": 1e3 * statistics.median(lat["tail_s"] for lat in latency),
        "cpu_s": statistics.median(r["cpu_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "ok_ratio": (attempted - failed) / attempted,
    }
    return results, values


def per_layer(runner: Runner) -> tuple[list[dict], dict]:
    plain = runner.child(0, 0)
    traced = runner.child(0, 1)
    print(json.dumps({"spans": traced["layers"]["table"]}))
    values = dict(traced["layers"]["metrics"])
    values["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    if _failed(plain) != _failed(traced):
        raise BenchError("traced and untraced runs disagree on failed ops")
    return [traced], values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="rtgrowth benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--resolution", type=int, default=None,
                   help="elements per layer (default: the workload's); for self-tests")
    p.add_argument("--ops", type=int, default=None,
                   help="ops per pass (default: from --seconds); for self-tests")
    args = p.parse_args(argv)

    if not (SRC / "rtgrowth" / "__init__.py").is_file():
        print(f"benchmark: no solver sources at {SRC}", file=sys.stderr)
        return 2
    resolution, op_seconds = WORKLOADS[args.workload]
    resolution = args.resolution or resolution
    ops = args.ops or max(1, round(args.seconds / (PASSES * op_seconds)))
    compileall.compile_dir(str(SRC / "rtgrowth"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    runner = Runner(args.workload, args.seed, ops, resolution)
    try:
        results, values = (per_layer if args.trace else end_to_end)(runner)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    _report(results, args, resolution, ops)

    correct = not any(r["gate_failures"] for r in results)
    if args.trace:
        coverage = values["trace.coverage"]
        if coverage < COVERAGE_FLOOR:
            print(f"benchmark: spans cover {coverage:.3f} of run_s, below {COVERAGE_FLOOR}",
                  file=sys.stderr)
            correct = False
    if not all(math.isfinite(v) for v in values.values()):
        print("benchmark: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(_failed(r) for r in results),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in (PER_LAYER if args.trace else END_TO_END)
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
