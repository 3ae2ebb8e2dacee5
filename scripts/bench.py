#!/usr/bin/env python3
"""End-to-end timings of the command-line tool, written as one BENCH json file.

Usage: python scripts/bench.py --out BENCH_<n>.json

Rows on the reference config (rho 2/1, mu 0.1/0.1, g 9.8, L = h = 1,
theta 0): `rtgrowth growth` at N = 64 and N = 128, `sweep-theta` (default
grid) and `verify` at N = 128, `oracle-compare` (default modes) at N = 32;
`growth` at N = 128 with mu+ = mu- = 0.01 and 1e-3 (rows growth_128_mu_0.01
and growth_128_mu_0.001, whose sizing passes enumerate 406 and 7017 modes),
`growth --mode-table` at N = 128 with mu+ = mu- = 1e-3 (row
growth_128_mu_0.001_table: one alpha_k(s) solve per mode of the 7017)
and `verify` at N = 128 with mu+ = mu- = 0.01 and 1e-3 (rows
verify_128_mu_0.01 and verify_128_mu_0.001), each run REPEATS times; and the
Tier-1 test suite, run once. Every run is a fresh interpreter with one BLAS
thread, timed from start to exit (wall_s), because a command-line user pays
imports on every run. Imports dominate that time, so each command row also
records main_s, the median time the child spends inside cli.main: the part a
change to the solver moves, with the least and the largest run (main_min_s,
main_max_s), since a median of three resolves little on a shared machine.

Each command row records its exit code. Only `verify` may exit 1, its
"verification failed" code: at mu = 1e-3, N = 128 does not resolve the
maximizing mode, so its oracle and profile checks fail as they should, and
the row reads lambda and argmax_k from the fixed_point check all the same.
Any other exit stops the script. The Tier-1 row records its exit code, the
passed and failed counts and pytest's summary line; a failed suite is
reported after the file is written, by exit status 1, so the timed rows are
kept.

Each command row records its inputs (config, N, the modes sized, the number of
global solves, the dispersion determinant calls), its banded work (fixed
points, alpha solves, inertia tests, factorizations and extended-precision
residuals) and its answer (lambda and argmax_k; for oracle-compare, the
oracle root and k of every compared mode), so that a later file can check
that a speed-up kept the answer. The child counts modes as the final size
of every mode set it builds, solves as the growth results it validates,
determinants as the calls to oracle.determinant (one trial rate
each), fixed points as the calls to pencil.fixed_point, alpha solves as the
calls to pencil.mode_alpha (one alpha_k(s) each), inertia tests as the
calls to pencil.alpha_below (the scans' and mode_alpha's), last solves as
the deferred last steps of fixed points that ran (pencil._last_solve: a fixed
point runs its last solve only when its alpha, eigenvector or residual is
read, so a growth solve runs one, for its maximizer, and oracle-compare none),
factorizations as the banded Cholesky factorizations (dpbtrf: inertia tests
and solves alike) and extended residuals as the refinement residuals formed
in extended precision; all are read from its own process, not inferred from
the outputs.

Times compare only within one file: wall_s and main_s move with the machine's
load from one session to the next, and a file records no baseline of the
same session. lambda, argmax_k, modes and solves compare across files. To
measure a change, run this script on both trees in one session.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3
REFERENCE = {
    "rho_plus": 2.0, "rho_minus": 1.0, "mu_plus": 0.1, "mu_minus": 0.1, "g": 9.8,
    "theta": 0.0, "L1": 1.0, "L2": 1.0, "h_plus": 1.0, "h_minus": 1.0,
}
CONFIGS = {
    "reference": REFERENCE,
    "mu_0.01": {**REFERENCE, "mu_plus": 0.01, "mu_minus": 0.01},
    "mu_0.001": {**REFERENCE, "mu_plus": 1e-3, "mu_minus": 1e-3},
}
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# Runs the CLI in the child and reports the counts and the time inside
# cli.main on its last stderr line.
CHILD_SCRIPT = """
import json, sys, time
from rtgrowth import cli, fixedpoint, oracle, pencil, spectrum
from rtgrowth.fixedpoint import GrowthResult
from rtgrowth.spectrum import FrozenModeSet

sets = []
counts = {
    "solves": 0, "determinants": 0, "fixed_points": 0, "last_solves": 0,
    "alpha_solves": 0, "inertia_tests": 0, "factorizations": 0, "extended_residuals": 0,
}
init, validate, determinant = FrozenModeSet.__init__, GrowthResult.validate, oracle.determinant
fixed_point, last_solve, alpha_below = pencil.fixed_point, pencil._last_solve, pencil.alpha_below
mode_alpha = pencil.mode_alpha
dpbtrf, extended = pencil.lapack.dpbtrf, pencil._band_matvec_extended

def track_set(self, *args):
    init(self, *args)
    sets.append(self)

def count_solve(self):
    counts["solves"] += 1
    return validate(self)

def count_determinant(*args):
    counts["determinants"] += 1
    return determinant(*args)

def count_fixed_point(*args):
    counts["fixed_points"] += 1
    return fixed_point(*args)

def count_last_solve(*args):
    counts["last_solves"] += 1
    return last_solve(*args)

def count_alpha_solve(*args):
    counts["alpha_solves"] += 1
    return mode_alpha(*args)

def count_inertia_test(*args):
    counts["inertia_tests"] += 1
    return alpha_below(*args)

def count_factorization(*args, **kwargs):
    counts["factorizations"] += 1
    return dpbtrf(*args, **kwargs)

def count_extended(*args):
    counts["extended_residuals"] += 1
    return extended(*args)

FrozenModeSet.__init__, GrowthResult.validate = track_set, count_solve
oracle.determinant = count_determinant
spectrum.fixed_point = fixedpoint.fixed_point = count_fixed_point
pencil._last_solve = count_last_solve
spectrum.mode_alpha = pencil.mode_alpha = count_alpha_solve
spectrum.alpha_below = pencil.alpha_below = count_inertia_test
pencil.lapack.dpbtrf, pencil._band_matvec_extended = count_factorization, count_extended
start = time.perf_counter()
code = cli.main(sys.argv[1:])
counts["main_s"] = time.perf_counter() - start
counts["modes"] = sum(len(fm.modes) for fm in sets)
sys.stderr.write(json.dumps(counts) + "\\n")
sys.exit(code)
"""


def timed(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=ENV, capture_output=True, text=True)
    return time.perf_counter() - start, proc


def cli_row(
    name: str, command: str, n: int, work: Path, answer, config: str = "reference", extra: tuple[str, ...] = ()
) -> dict:
    """Time one CLI command REPEATS times on CONFIGS[config], with the
    options extra after the common ones (their paths inside work);
    answer(out_path) -> (lambda, argmax_k)."""
    out = work / f"{name}.out"
    argv = [
        sys.executable, "-c", CHILD_SCRIPT, command,
        "--config", str(work / f"{config}.json"), "--resolution", str(n), "--out", str(out), *extra,
    ]
    runs, mains = [], []
    for _ in range(REPEATS):
        wall, proc = timed(argv)
        if proc.returncode not in ((0, 1) if command == "verify" else (0,)):
            raise SystemExit(f"{name} exited {proc.returncode}: {proc.stderr.strip()}")
        counts = json.loads(proc.stderr.strip().splitlines()[-1])
        runs.append(wall)
        mains.append(counts["main_s"])
    lam, argmax_k = answer(out)
    return {
        "name": name,
        "command": " ".join(["rtgrowth", command, "--resolution", str(n), *extra]).replace(f"{work}{os.sep}", ""),
        "config": config,
        "N": n,
        "exit_code": proc.returncode,
        "modes": counts["modes"],
        "solves": counts["solves"],
        "determinants": counts["determinants"],
        "fixed_points": counts["fixed_points"],
        "last_solves": counts["last_solves"],
        "alpha_solves": counts["alpha_solves"],
        "inertia_tests": counts["inertia_tests"],
        "factorizations": counts["factorizations"],
        "extended_residuals": counts["extended_residuals"],
        "lambda": lam,
        "argmax_k": argmax_k,
        "wall_s": statistics.median(runs),
        "runs_s": runs,
        "main_s": statistics.median(mains),
        "main_min_s": min(mains),
        "main_max_s": max(mains),
        "main_runs_s": mains,
    }


def growth_answer(path: Path):
    out = json.loads(path.read_text())
    return out["lambda"], out["argmax_k"]


def sweep_answer(path: Path):
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return [float(r[2]) for r in rows], [float(r[4]) for r in rows]


def verify_answer(path: Path):
    report = json.loads(path.read_text())
    detail = next(c["detail"] for c in report["checks"] if c["name"] == "fixed_point")
    match = re.match(r"lambda (\S+) at k (\S+),", detail)
    if match is None:
        raise SystemExit(f"verify's fixed_point check failed: {detail}")
    return float(match.group(1)), float(match.group(2))


def oracle_answer(path: Path):
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return [float(r[1]) for r in rows], [float(r[0]) for r in rows]


def tier1_row() -> dict:
    wall, proc = timed(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    )
    summary = (proc.stdout.strip().splitlines() or [""])[-1]
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed)", summary)}
    return {
        "name": "tier1",
        "command": "python -m pytest -q --continue-on-collection-errors",
        "exit_code": proc.returncode,
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0),
        "summary": summary,
        "wall_s": wall,
        "runs_s": [wall],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="path of the BENCH json file to write")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, fields in CONFIGS.items():
            (work / f"{name}.json").write_text(json.dumps(fields))
        rows = [
            cli_row("growth_64", "growth", 64, work, growth_answer),
            cli_row("growth_128", "growth", 128, work, growth_answer),
            cli_row("growth_128_mu_0.01", "growth", 128, work, growth_answer, "mu_0.01"),
            cli_row("growth_128_mu_0.001", "growth", 128, work, growth_answer, "mu_0.001"),
            cli_row(
                "growth_128_mu_0.001_table", "growth", 128, work, growth_answer, "mu_0.001",
                ("--mode-table", str(work / "mode_table.csv")),
            ),
            cli_row("sweep_theta_128", "sweep-theta", 128, work, sweep_answer),
            cli_row("verify_128", "verify", 128, work, verify_answer),
            cli_row("verify_128_mu_0.01", "verify", 128, work, verify_answer, "mu_0.01"),
            cli_row("verify_128_mu_0.001", "verify", 128, work, verify_answer, "mu_0.001"),
            cli_row("oracle_compare_32", "oracle-compare", 32, work, oracle_answer),
        ]
    rows.append(tier1_row())
    for row in rows:
        main = ""
        if "main_s" in row:
            main = f"  main {row['main_s']:.3f} s ({row['main_min_s']:.3f}-{row['main_max_s']:.3f})"
        print(f"{row['name']:>20}  {row['wall_s']:8.2f} s  " + " ".join(f"{r:.2f}" for r in row["runs_s"]) + main)

    payload = {
        "config": REFERENCE,
        "configs": CONFIGS,
        "repeats": REPEATS,
        "environment": {
            "machine": platform.machine(),
            "processor_count": os.cpu_count(),
            "blas_threads": 1,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    if rows[-1]["exit_code"] != 0:
        raise SystemExit(f"Tier-1 failed: {rows[-1]['summary']}")


if __name__ == "__main__":
    main()
