"""One fresh benchmark process: set up one workload and run its ops.

Started by run.py with one BLAS thread. It prints one JSON object as its
last line: the monotonic time at which set-up ended, the op timings, CPU
time, peak RSS, per-op failures, gate verdicts and, with `--trace 1`, the
per-layer metrics of tracer.py/layers.py.

    python3 perfbench/worker.py --workload NAME --seed N --pass P --ops K \
        --resolution N --trace 0|1

The inputs of pass P of seed N are drawn from the generator seeded with
(N, P), so the passes of one run cover different inputs.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import re
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _failure_kind(exc: Exception) -> str:
    """Exception type and message with numbers masked, for grouping."""
    message = re.sub(r"[-+]?\d[\d.eE+-]*", "#", str(exc).splitlines()[0] if str(exc) else "")
    return f"{type(exc).__name__}: {message}"[:120]


def _environment() -> dict:
    """Interpreter and library versions, and the thread count of each loaded OpenBLAS."""
    blas = {}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                blas[Path(path).name] = getter()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
        "openblas_scipy": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
        "blas_threads": blas,
    }


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pass", dest="pass_index", type=int, required=True)
    p.add_argument("--ops", type=int, required=True)
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    workload = WORKLOADS[args.workload](args.resolution)
    inputs = workload.inputs(np.random.default_rng([args.seed, args.pass_index]), args.ops)
    tracer = layers.make_tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload.prepare()
    setup_end = time.monotonic()

    records: list[dict | None] = []
    op_s: list[float] = []
    failures: dict[str, int] = {}
    root_before = tracer.root_s if tracer is not None else 0.0
    cpu_before = _cpu_s()
    run_start = time.perf_counter()
    for x in inputs:
        start = time.perf_counter()
        try:
            record = workload.op(x)
        except Exception as exc:  # a failed op is counted and reported, never fatal
            record = None
            kind = _failure_kind(exc)
            failures[kind] = failures.get(kind, 0) + 1
        op_s.append(time.perf_counter() - start)
        records.append(record)
    run_s = time.perf_counter() - run_start
    cpu_s = _cpu_s() - cpu_before
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layer = None
    if tracer is not None:
        tracer.uninstall()
        layer = {
            "metrics": layers.layer_metrics(tracer, run_s, tracer.root_s - root_before),
            "table": tracer.table(),
        }
    verdicts = workload.gates(records)
    gate_failures = [
        {"input": x, "reason": v} for x, v in zip(inputs, verdicts) if v is not None
    ]
    print(json.dumps({
        "setup_end": setup_end,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "op_s": op_s,
        "ok": [r is not None and v is None for r, v in zip(records, verdicts)],
        "attempted": len(inputs),
        "raised": failures,
        "gate_failures": gate_failures,
        "describe": workload.describe(records),
        "environment": _environment(),
        "layers": layer,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
