#!/usr/bin/env python3
"""Time perfbench's three workloads on two source trees in one process.

Usage: python scripts/ab.py REV

`git archive REV src` is unpacked into a temporary directory. That tree (A)
and the working tree's src/ (B) are loaded under two package names in one
interpreter, with one BLAS thread, so both run on the same process state and
a gain of a few percent shows; fresh-process timings on a shared machine
swing by more than that. Each side has its own modules, its own caches and
its own pencil.COUNTS.

The configs, inputs, ops and gates are perfbench's: perfbench/workloads.py
is loaded once per tree, its `rtgrowth` imports resolved to that tree's
modules. Each workload runs at its own resolution, with inputs drawn by its
inputs() from numpy.random.default_rng(0), and each op is its op(), so the
time includes the record perfbench builds (to_json_dict()):

- growth-ref: solve_lambda on the reference config at N = 32, 11 ops at
  seeded draws from its 11-point grid f = 0, 0.05, ..., 0.5, each op sizing
  its own mode set (after the first round, on a warm band cache, unlike
  perfbench's one cold op);
- sweep-dense: solve_lambda on the viscous config at N = 128 at 100 theta
  fractions in [0, 0.99), one per stratum, in increasing order, on one mode
  set sized by prepare() before the first round;
- oracle-modes: compare_modes on the reference config at N = 32, one mode
  per op, over a seeded permutation of the 145 lattice magnitudes k <= 20.

Each workload runs ROUNDS rounds of all its ops on each side, interleaved
ABBA: A first in even rounds, B first in odd ones. A round's time per op is
the median of its ops' times, as perfbench's op_p50_ms is. Per workload the
script prints each side's median over rounds, the median of the per-round
ratios B/A with a bootstrap 95 % interval (2000 resamples of the rounds,
seed 0), the rounds in which B was faster, whether every op's record and
each round's pencil.COUNTS matched bit for bit, and how many of each side's
last-round records failed the workload's gates(). Count kinds that differ
are listed with their totals over all rounds. An op's record keeps only
lambda of a growth solve, so after the timed rounds one untimed pass per
side reruns the ops and compares every growth solve's full
to_json_dict(), alpha and eigenvector bytes: the fixed point's last solve,
whose alpha, residual and eigenvector no record holds (last_solves). Where
they differ, the script prints the largest relative change of alpha, of
fixed_point_residual and of the eigenvector (against its largest entry)
over the solves (last_solves_moved).

Read a B/A within about 0.3 % of 1 as no change, whatever its interval
says: on a change whose timed path was untouched, two runs read B slower
by 0.03 to 0.26 % on all three workloads, and two of the six intervals
excluded 1.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

# one BLAS thread, set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
ROUNDS = 40


def _package_modules(name: str) -> dict:
    """The entries of sys.modules for package name and its submodules."""
    return {key: module for key, module in sys.modules.items() if key == name or key.startswith(name + ".")}


def load_tree(src: Path, name: str) -> SimpleNamespace:
    """The rtgrowth package under src/, imported as the package name, and
    perfbench/workloads.py loaded against it (the `workloads` field)."""
    package = src / "rtgrowth"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    # every submodule that perfbench/workloads.py imports, so that each
    # resolves to this tree's
    tree = SimpleNamespace(
        **{part: importlib.import_module(f"{name}.{part}") for part in ("analysis", "fixedpoint", "oracle", "pencil")}
    )
    saved = _package_modules("rtgrowth")
    try:
        for key, submodule in _package_modules(name).items():
            sys.modules["rtgrowth" + key[len(name):]] = submodule
        spec = importlib.util.spec_from_file_location(f"{name}_workloads", WORKLOADS)
        tree.workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tree.workloads)
    finally:
        for key in _package_modules("rtgrowth"):
            del sys.modules[key]
        sys.modules.update(saved)
    return tree


def run_round(tree: SimpleNamespace, workload, inputs: list) -> tuple[float, list, dict]:
    """(median seconds per op, records, pencil.COUNTS) of one pass of workload over inputs."""
    tree.pencil.COUNTS.clear()
    times, records = [], []
    for x in inputs:
        start = time.perf_counter()
        records.append(workload.op(x))
        times.append(time.perf_counter() - start)
    return float(np.median(times)), records, dict(tree.pencil.COUNTS)


def last_solves(tree: SimpleNamespace, workload, inputs: list) -> list[tuple[dict, float, np.ndarray]]:
    """(to_json_dict(), alpha, eigenvector) of every growth solve that one
    untimed pass of workload over inputs makes, caught by wrapping the
    tree's fixedpoint.solve_lambda, which the op looks up at each call."""
    real, results = tree.fixedpoint.solve_lambda, []

    def caught(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    tree.fixedpoint.solve_lambda = caught
    try:
        for x in inputs:
            workload.op(x)
    finally:
        tree.fixedpoint.solve_lambda = real
    return [(res.to_json_dict(), res.fixed_point.alpha, res.fixed_point.vector) for res in results]


def _relative(a: float, b: float) -> float:
    """|b - a| / |a|: 0 where they are equal, inf where only a is 0."""
    return 0.0 if a == b else abs(b - a) / abs(a)


def last_solves_moved(a: list, b: list) -> dict:
    """The largest relative change from solves a to solves b (last_solves)
    of alpha, fixed_point_residual and the eigenvector, the last against
    the largest entry of a's, over solves a and b of equal number."""
    pairs = list(zip(a, b, strict=True))
    return {
        "alpha": max(_relative(x[1], y[1]) for x, y in pairs),
        "fixed_point_residual": max(
            _relative(x[0]["fixed_point_residual"], y[0]["fixed_point_residual"]) for x, y in pairs
        ),
        "vector": max(float(abs(y[2] - x[2]).max() / abs(x[2]).max()) for x, y in pairs),
    }


def compare(
    trees: tuple[SimpleNamespace, SimpleNamespace],
    rounds: int = ROUNDS,
    resolutions: tuple[int, int, int] = (32, 128, 32),
    ops: tuple[int, int, int] = (11, 100, 145),
) -> list[dict]:
    """One report per perfbench workload of the two trees (A, B), at
    resolutions and with ops inputs each (growth-ref, sweep-dense,
    oracle-modes)."""
    reports = []
    for name, resolution, n_ops in zip(trees[0].workloads.WORKLOADS, resolutions, ops):
        pair = [tree.workloads.WORKLOADS[name](resolution) for tree in trees]
        inputs = pair[0].inputs(np.random.default_rng(0), n_ops)
        for workload in pair:
            workload.prepare()
        medians = ([], [])
        outputs_equal, counts_equal = True, True
        totals = ({}, {})
        for r in range(rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            result = [None, None]
            for side in order:
                result[side] = run_round(trees[side], pair[side], inputs)
            for side in (0, 1):
                medians[side].append(result[side][0])
                for kind, n in result[side][2].items():
                    totals[side][kind] = totals[side].get(kind, 0) + n
            outputs_equal &= result[0][1] == result[1][1]
            counts_equal &= result[0][2] == result[1][2]
        failed = [sum(v is not None for v in pair[side].gates(result[side][1])) for side in (0, 1)]
        solves = [last_solves(trees[side], pair[side], inputs) for side in (0, 1)]
        equal = [(d, alpha, v.tobytes()) for d, alpha, v in solves[0]] == [
            (d, alpha, v.tobytes()) for d, alpha, v in solves[1]
        ]
        a, b = np.asarray(medians[0]), np.asarray(medians[1])
        ratios = b / a
        resampled = np.random.default_rng(0).choice(ratios, size=(2000, ratios.size))
        low, high = np.percentile(np.median(resampled, axis=1), [2.5, 97.5])
        differing = {
            kind: (totals[0].get(kind, 0), totals[1].get(kind, 0))
            for kind in sorted(set(totals[0]) | set(totals[1]))
            if totals[0].get(kind, 0) != totals[1].get(kind, 0)
        }
        reports.append({
            "shape": name,
            "ops": len(inputs),
            "rounds": rounds,
            "median_a_ms": 1e3 * float(np.median(a)),
            "median_b_ms": 1e3 * float(np.median(b)),
            "ratio": float(np.median(ratios)),
            "ratio_low": float(low),
            "ratio_high": float(high),
            "b_faster": int(np.sum(b < a)),
            "outputs_equal": bool(outputs_equal),
            "counts_equal": bool(counts_equal),
            "counts_differing": differing,
            "last_solves": len(solves[0]),
            "last_solves_equal": equal,
            "last_solves_moved": last_solves_moved(*solves) if not equal and len(solves[1]) == len(solves[0]) else None,
            "gates_failed_a": failed[0],
            "gates_failed_b": failed[1],
        })
    return reports


def archived_src(rev: str, into: Path) -> Path:
    """src/ of git revision rev, unpacked under into."""
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into / "src"


def print_reports(rev: str, reports: list[dict]) -> None:
    """One line per workload report of compare, side A at git revision rev."""
    print(f"A = {rev}, B = working tree; {reports[0]['rounds']} ABBA rounds; ms per op, median over rounds")
    print(f"{'workload':>13} {'ops':>4} {'A':>9} {'B':>9} {'B/A':>7} {'95 % interval':>17} {'B faster':>9}  bits")
    for rep in reports:
        bits = "outputs " + ("equal" if rep["outputs_equal"] else "DIFFER")
        bits += ", counts " + ("equal" if rep["counts_equal"] else "differ")
        bits += "".join(f"; {kind} {a} -> {b}" for kind, (a, b) in rep["counts_differing"].items())
        if rep["last_solves"]:
            bits += f"; {rep['last_solves']} last solves " + ("equal" if rep["last_solves_equal"] else "DIFFER")
        if rep["last_solves_moved"]:
            bits += " by at most " + ", ".join(f"{key} {v:.2g}" for key, v in rep["last_solves_moved"].items())
        bits += f"; failed gates A {rep['gates_failed_a']}, B {rep['gates_failed_b']}"
        print(
            f"{rep['shape']:>13} {rep['ops']:>4} {rep['median_a_ms']:9.4f} {rep['median_b_ms']:9.4f} "
            f"{rep['ratio']:7.4f} [{rep['ratio_low']:.4f}, {rep['ratio_high']:.4f}] "
            f"{rep['b_faster']:>4}/{rep['rounds']:<4}  {bits}"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare the working tree against (side A)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        trees = load_tree(archived_src(args.rev, Path(tmp)), "rtgrowth_a"), load_tree(ROOT / "src", "rtgrowth_b")
        reports = compare(trees)
    print_reports(args.rev, reports)


if __name__ == "__main__":
    main()
