#!/usr/bin/env python3
"""End-to-end timings of the command-line tool, written as one BENCH json file.

Usage: python scripts/bench.py --out BENCH_<n>.json [--ab REV]

Rows, each on a config of CONFIGS (reference: rho 2/1, mu 0.1/0.1, g 9.8,
L = h = 1, theta 0; mu_0.01 and mu_0.001: mu+ = mu- = 0.01 and 1e-3 on it;
contrast: rho 5.2/0.2, mu 0.1/5, g 20, L = 2, h = 0.3; water_air: rho
1000/1.2, mu 1e-3/1.8e-5, g 9.8, theta 0.072, L = h = 1):

- growth_64, growth_128: `rtgrowth growth` at N = 64 and 128;
- growth_128_mu_0.01, growth_128_mu_0.001: `growth` at N = 128 (sizing
  passes that enumerate 406 and 7017 modes);
- growth_128_mu_0.001_table, growth_128_contrast_table: `growth
  --mode-table` at N = 128, one alpha_k(s) solve per mode; on the contrast
  config the alpha_k(s) <= 0 bisections dominate;
- growth_128_water_air: `growth` at N = 128 on water under air;
- sweep_theta_128: `sweep-theta` (default grid) at N = 128;
- verify_128, verify_128_mu_0.01, verify_128_mu_0.001: `verify` at N = 128;
- oracle_compare_32: `oracle-compare` (default modes) at N = 32;

each run REPEATS times; and the Tier-1 test suite, run once. Every run is a
fresh interpreter with one BLAS thread, timed from start to exit (wall_s),
because a command-line user pays imports on every run. Imports dominate that
time, so each command row also records main_s, the median time the child
spends inside cli.main: the part a change to the solver moves, with the least
and the largest run (main_min_s, main_max_s), since a median of three
resolves little on a shared machine.

Each command row records its exit code. Only `verify` may exit 1, its
"verification failed" code: at mu = 1e-3, N = 128 does not resolve the
maximizing mode, so its oracle and profile checks fail as they should, and
the row reads lambda and argmax_k from the fixed_point check all the same.
Any other exit stops the script. The Tier-1 row records its exit code, the
passed and failed counts and pytest's summary line; a failed suite is
reported after the file is written, by exit status 1, so the timed rows are
kept.

Each command row records its inputs (config, N), its work and its answer
(lambda and argmax_k; for oracle-compare, the oracle root and k of every
compared mode), so that a later file can check that a speed-up kept the
answer. The work is the child's pencil.COUNTS after cli.main returns, the
counter the solver keeps where it does each kind of work (COUNTED): modes in
every mode set built, growth results validated (solves), dispersion
determinants, fixed points and the last solves they ran (a fixed point runs
its last solve only when its alpha, eigenvector or residual is read, so a
growth solve runs one, for its maximizer, and oracle-compare none), alpha_k(s)
solves, inertia tests, banded Cholesky factorizations (inertia tests and
solves alike), extended-precision residuals and pencil assemblies (a mode
set keeps no pencil, so every mode a scan visits is assembled, once per
scan, from the k-free tables cached per config and N).
Each command row also records peak_rss_mb, the median over its runs of the
child's peak resident set (ru_maxrss), and bytecode_cached: whether every
run's child started with a cached .pyc, not older than its source, for every
rtgrowth module. A child that compiles the package from source pays tens of
ms of wall_s that no change to the program made.

Times compare only within one file: wall_s and main_s move with the machine's
load from one hour to the next. lambda, argmax_k and the counts compare
across files. To measure a change, give --ab REV: after the command rows,
each row's cli.main call runs on `git archive REV src` (A) and on the working
tree's src/ (B), both loaded in this process by scripts/ab.py's load_tree,
AB_ROUNDS rounds in ABBA order (A first in even rounds, B first in odd
ones), and the row's "ab" field records each tree's median main_s, its runs,
and whether every round's exit code, output files, stdout and stderr
(outputs) and pencil.COUNTS (counts) matched between the trees. In one
process both trees see the same machine state, so their ratio resolves what
fresh processes cannot; the runs after the first are warm (k-free tables and
lattice caches kept), and start-up and memory stay with the command rows.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab import archived_src, load_tree  # noqa: E402 (sets one BLAS thread before numpy loads)

from cli_outputs import CONFIGS as OUTPUT_CONFIGS  # noqa: E402
from cli_outputs import ENV, REFERENCE, ROOT  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

REPEATS = 3
AB_ROUNDS = 4
CONFIGS = {
    "reference": REFERENCE,
    "mu_0.01": {**REFERENCE, "mu_plus": 0.01, "mu_minus": 0.01},
    "mu_0.001": {**REFERENCE, "mu_plus": 1e-3, "mu_minus": 1e-3},
    "contrast": OUTPUT_CONFIGS["contrast"],
    "water_air": {
        **REFERENCE, "rho_plus": 1000.0, "rho_minus": 1.2, "mu_plus": 1e-3, "mu_minus": 1.8e-5,
        "theta": 0.072,
    },
}

# the kinds of work pencil.COUNTS holds, in the order of a row's fields
COUNTED = (
    "modes", "solves", "determinants", "fixed_points", "last_solves", "alpha_solves",
    "inertia_tests", "factorizations", "extended_residuals", "assemblies",
)
# Runs the CLI in the child and reports its counts, the time inside cli.main,
# its peak resident set in MB (ru_maxrss is in KiB on Linux) and whether it
# started on cached bytecode (every rtgrowth module with a .pyc not older
# than its source, checked before the package is imported) on its last
# stderr line.
CHILD_SCRIPT = f"""
import json, resource, sys, time
from importlib.util import cache_from_source, find_spec
from pathlib import Path

def cached(source):
    pyc = Path(cache_from_source(source))
    return pyc.is_file() and pyc.stat().st_mtime >= source.stat().st_mtime

bytecode_cached = all(map(cached, Path(find_spec("rtgrowth").origin).parent.glob("*.py")))
from rtgrowth import cli, pencil

start = time.perf_counter()
code = cli.main(sys.argv[1:])
main_s = time.perf_counter() - start
counts = {{kind: pencil.COUNTS[kind] for kind in {COUNTED!r}}}
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
report = {{**counts, "main_s": main_s, "peak_rss_mb": rss_mb, "bytecode_cached": bytecode_cached}}
sys.stderr.write(json.dumps(report) + "\\n")
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
    answer(out_path) -> (lambda, argmax_k). Each run starts with none of
    the row's output files: its --out file, the report beside it and its
    mode table."""
    out = work / f"{name}.out"
    argv = [
        sys.executable, "-c", CHILD_SCRIPT, command,
        "--config", str(work / f"{config}.json"), "--resolution", str(n), "--out", str(out), *extra,
    ]
    tables = [Path(path) for option, path in zip(extra, extra[1:]) if option == "--mode-table"]
    runs, mains, rss, cached = [], [], [], []
    for _ in range(REPEATS):
        for path in (out, Path(f"{out}.report.json"), *tables):
            path.unlink(missing_ok=True)  # a file truncated and written again can wait tens of ms for a flush
        wall, proc = timed(argv)
        if proc.returncode not in ((0, 1) if command == "verify" else (0,)):
            raise SystemExit(f"{name} exited {proc.returncode}: {proc.stderr.strip()}")
        counts = json.loads(proc.stderr.strip().splitlines()[-1])
        runs.append(wall)
        mains.append(counts["main_s"])
        rss.append(counts["peak_rss_mb"])
        cached.append(counts["bytecode_cached"])
    lam, argmax_k = answer(out)
    return {
        "name": name,
        "command": " ".join(["rtgrowth", command, "--resolution", str(n), *extra]).replace(f"{work}{os.sep}", ""),
        "config": config,
        "N": n,
        "exit_code": proc.returncode,
        **{kind: counts[kind] for kind in COUNTED},
        "lambda": lam,
        "argmax_k": argmax_k,
        "wall_s": statistics.median(runs),
        "runs_s": runs,
        "main_s": statistics.median(mains),
        "main_min_s": min(mains),
        "main_max_s": max(mains),
        "main_runs_s": mains,
        "peak_rss_mb": statistics.median(rss),
        "bytecode_cached": all(cached),
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


ANSWERS = {
    "growth": growth_answer, "sweep-theta": sweep_answer, "verify": verify_answer, "oracle-compare": oracle_answer,
}
# the command rows: name, command, N, config, and the file name of the mode
# table the row writes, if any
ROWS = (
    ("growth_64", "growth", 64, "reference", None),
    ("growth_128", "growth", 128, "reference", None),
    ("growth_128_mu_0.01", "growth", 128, "mu_0.01", None),
    ("growth_128_mu_0.001", "growth", 128, "mu_0.001", None),
    ("growth_128_mu_0.001_table", "growth", 128, "mu_0.001", "mode_table.csv"),
    ("growth_128_contrast_table", "growth", 128, "contrast", "contrast_mode_table.csv"),
    ("growth_128_water_air", "growth", 128, "water_air", None),
    ("sweep_theta_128", "sweep-theta", 128, "reference", None),
    ("verify_128", "verify", 128, "reference", None),
    ("verify_128_mu_0.01", "verify", 128, "mu_0.01", None),
    ("verify_128_mu_0.001", "verify", 128, "mu_0.001", None),
    ("oracle_compare_32", "oracle-compare", 32, "reference", None),
)


def table_option(directory: Path, table: str | None) -> tuple[str, ...]:
    return ("--mode-table", str(directory / table)) if table else ()


def load_trees(src_a: Path, src_b: Path) -> tuple:
    """(A, B): the rtgrowth packages under the two src/ directories, each
    loaded by load_tree under its own name, with its cli module."""
    trees = []
    for src, name in ((src_a, "rtgrowth_bench_a"), (src_b, "rtgrowth_bench_b")):
        tree = load_tree(src, name)
        tree.cli = importlib.import_module(f"{name}.cli")
        trees.append(tree)
    return tuple(trees)


def in_process(tree, row: tuple, work: Path, directory: Path) -> tuple[float, tuple, dict]:
    """(main_s, outputs, counts) of one row of ROWS by tree's cli.main, its
    files written in directory, emptied first, and its config read from
    work. outputs are the exit code, what it wrote to stdout and stderr, and
    every file in directory by name."""
    name, command, n, config, table = row
    directory.mkdir(parents=True, exist_ok=True)
    for path in directory.iterdir():
        path.unlink()  # a file truncated and written again can wait tens of ms for a flush
    argv = [
        command, "--config", str(work / f"{config}.json"), "--resolution", str(n),
        "--out", str(directory / f"{name}.out"), *table_option(directory, table),
    ]
    tree.pencil.COUNTS.clear()
    stream = io.StringIO()
    with redirect_stdout(stream), redirect_stderr(stream):
        start = time.perf_counter()
        code = tree.cli.main(argv)
        main_s = time.perf_counter() - start
    files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
    return main_s, (code, stream.getvalue(), files), {kind: tree.pencil.COUNTS[kind] for kind in COUNTED}


def ab_row(trees: tuple, row: tuple, work: Path, rounds: int = AB_ROUNDS) -> dict:
    """One row of ROWS on trees (A, B) in this process, rounds rounds in ABBA
    order, each side in its own directory under work: each side's median
    main_s and its runs, and whether outputs and counts matched in every
    round."""
    runs = ([], [])
    outputs_equal = counts_equal = True
    for r in range(rounds):
        result = [None, None]
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            result[side] = in_process(trees[side], row, work, work / "ab" / row[0] / "ab"[side])
        for side in (0, 1):
            runs[side].append(result[side][0])
        outputs_equal &= result[0][1] == result[1][1]
        counts_equal &= result[0][2] == result[1][2]
    return {
        "rounds": rounds,
        "main_s_a": statistics.median(runs[0]),
        "main_s_b": statistics.median(runs[1]),
        "main_runs_a": runs[0],
        "main_runs_b": runs[1],
        "outputs_equal": outputs_equal,
        "counts_equal": counts_equal,
    }


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
    parser.add_argument(
        "--ab", metavar="REV", help="also run each row's cli.main on REV's src/ and the working tree's, in this process"
    )
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, fields in CONFIGS.items():
            (work / f"{name}.json").write_text(json.dumps(fields))
        rows = [
            cli_row(name, command, n, work, ANSWERS[command], config, table_option(work, table))
            for name, command, n, config, table in ROWS
        ]
        if args.ab:
            trees = load_trees(archived_src(args.ab, work), ROOT / "src")
            for row, spec in zip(rows, ROWS):
                row["ab"] = ab_row(trees, spec, work)
    rows.append(tier1_row())
    for row in rows:
        main = ""
        if "main_s" in row:
            main = f"  main {row['main_s']:.3f} s ({row['main_min_s']:.3f}-{row['main_max_s']:.3f})"
            main += f"  bytecode {'cached' if row['bytecode_cached'] else 'not cached'}"
        print(f"{row['name']:>20}  {row['wall_s']:8.2f} s  " + " ".join(f"{r:.2f}" for r in row["runs_s"]) + main)
        if "ab" in row:
            ab = row["ab"]
            print(
                f"{'':>20}  A {ab['main_s_a']:.4f} s, B {ab['main_s_b']:.4f} s, "
                f"B/A {ab['main_s_b'] / ab['main_s_a']:.3f}; outputs {'equal' if ab['outputs_equal'] else 'DIFFER'}, "
                f"counts {'equal' if ab['counts_equal'] else 'DIFFER'}"
            )

    payload = {
        "config": REFERENCE,
        "configs": CONFIGS,
        "repeats": REPEATS,
        "ab": {"a": args.ab, "b": "working tree", "rounds": AB_ROUNDS} if args.ab else None,
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
