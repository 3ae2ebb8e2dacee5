#!/usr/bin/env python3
"""Time perfbench's three op shapes on two source trees in one process.

Usage: python scripts/ab.py REV

`git archive REV src` is unpacked into a temporary directory. That tree (A)
and the working tree's src/ (B) are loaded under two package names in one
interpreter, with one BLAS thread, so both run on the same process state and
a gain of a few percent shows; fresh-process timings on a shared machine
swing by more than that. Each side has its own modules, its own caches and
its own pencil.COUNTS.

The op shapes are perfbench's (perfbench/workloads.py), built from each
tree's own package:

- growth-ref: solve_lambda on the reference config at theta = f theta_c,
  f = 0, 0.05, ..., 0.5, N = 32, each op sizing its own mode set (after the
  first round, on a warm band cache, unlike perfbench's one cold op);
- sweep-dense: solve_lambda on the viscous config (mu = 1/1), N = 128, at
  100 theta fractions in [0, 0.99), one per stratum (seed 0), in increasing
  order, on one mode set sized at theta = 0 before the first round;
- oracle-modes: compare_modes on the reference config at N = 32, one mode
  per op, over every lattice magnitude k <= 20.

Each shape runs ROUNDS rounds of all its ops on each side, interleaved
ABBA: A first in even rounds, B first in odd ones. A round's time per op is
the median of its ops' times, as perfbench's op_p50_ms is. Per shape the
script prints each side's median over rounds, the median of the per-round
ratios B/A with a bootstrap 95 % interval (2000 resamples of the rounds,
seed 0), the rounds in which B was faster, and whether every op's output
(lambda; both rates of a comparison) and each round's pencil.COUNTS
matched bit for bit. Count kinds that differ are listed with their totals
over all rounds.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import math
import os
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path
from types import SimpleNamespace

# one BLAS thread, set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 40
REFERENCE = {
    "rho_plus": 2.0, "rho_minus": 1.0, "mu_plus": 0.1, "mu_minus": 0.1, "g": 9.8,
    "theta": 0.0, "L1": 1.0, "L2": 1.0, "h_plus": 1.0, "h_minus": 1.0,
}
VISCOUS = {**REFERENCE, "mu_plus": 1.0, "mu_minus": 1.0}
TOL_FP = 1e-8


def load_tree(src: Path, name: str) -> SimpleNamespace:
    """The rtgrowth package under src/, imported as the package name."""
    package = src / "rtgrowth"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return SimpleNamespace(
        **{part: importlib.import_module(f"{name}.{part}") for part in ("fixedpoint", "model", "oracle", "pencil")}
    )


# one op shape on one tree: prepare() once, then op(x) per input
Shape = namedtuple("Shape", "name inputs prepare op")


def shapes(tree: SimpleNamespace, resolutions=(32, 128, 32), ops=(11, 100, None)) -> list[Shape]:
    """perfbench's three op shapes on tree, at resolutions (growth-ref,
    sweep-dense, oracle-modes), with ops inputs each: the first ops of
    growth-ref's grid, sweep points, magnitudes (None: all 145)."""
    model, fixedpoint, oracle = tree.model, tree.fixedpoint, tree.oracle
    disc = [tree.pencil.Discretization(n) for n in resolutions]
    reference = model.validate_config(model.FluidConfig(**REFERENCE))
    viscous = model.validate_config(model.FluidConfig(**VISCOUS))
    theta_ref, theta_visc = model.theta_critical(reference), model.theta_critical(viscous)

    def growth(f):
        return fixedpoint.solve_lambda(reference.with_theta(f * theta_ref), disc[0], tol_fp=TOL_FP).lam

    sweep_state = {}

    def sweep_prepare():
        sweep_state["frozen"] = fixedpoint.solve_lambda(viscous, disc[1], tol_fp=TOL_FP).mode_set

    def sweep(f):
        cfg = viscous.with_theta(f * theta_visc)
        return fixedpoint.solve_lambda(cfg, disc[1], tol_fp=TOL_FP, frozen=sweep_state["frozen"]).lam

    def compare(k):
        (row,) = oracle.compare_modes(reference, [k], disc[2])
        return row.lambda_variational, row.lambda_oracle

    n_sweep = ops[1]
    strata = 0.99 * (np.arange(n_sweep) + np.random.default_rng(0).random(n_sweep)) / n_sweep
    squares = sorted({i * i + j * j for i in range(21) for j in range(21)} - {0})
    magnitudes = [math.sqrt(q) for q in squares if q <= 400]
    return [
        Shape("growth-ref", [j / 20.0 for j in range(11)][: ops[0]], lambda: None, growth),
        Shape("sweep-dense", strata.tolist(), sweep_prepare, sweep),
        Shape("oracle-modes", magnitudes[: ops[2]], lambda: None, compare),
    ]


def run_round(tree: SimpleNamespace, shape: Shape) -> tuple[float, list, dict]:
    """(median seconds per op, outputs, pencil.COUNTS) of one pass over shape's inputs."""
    tree.pencil.COUNTS.clear()
    times, outputs = [], []
    for x in shape.inputs:
        start = time.perf_counter()
        outputs.append(shape.op(x))
        times.append(time.perf_counter() - start)
    return float(np.median(times)), outputs, dict(tree.pencil.COUNTS)


def compare(trees: tuple[SimpleNamespace, SimpleNamespace], rounds: int = ROUNDS, **sizes) -> list[dict]:
    """One report per op shape of the two trees (A, B), each keyword of
    shapes() applied to both."""
    pairs = list(zip(*(shapes(tree, **sizes) for tree in trees)))
    reports = []
    for pair in pairs:
        for shape in pair:
            shape.prepare()
        medians = ([], [])
        outputs_equal, counts_equal = True, True
        totals = ({}, {})
        for r in range(rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            result = [None, None]
            for side in order:
                result[side] = run_round(trees[side], pair[side])
            for side in (0, 1):
                medians[side].append(result[side][0])
                for kind, n in result[side][2].items():
                    totals[side][kind] = totals[side].get(kind, 0) + n
            outputs_equal &= result[0][1] == result[1][1]
            counts_equal &= result[0][2] == result[1][2]
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
            "shape": pair[0].name,
            "ops": len(pair[0].inputs),
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
        })
    return reports


def archived_src(rev: str, into: Path) -> Path:
    """src/ of git revision rev, unpacked under into."""
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into / "src"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare the working tree against (side A)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        trees = load_tree(archived_src(args.rev, Path(tmp)), "rtgrowth_a"), load_tree(ROOT / "src", "rtgrowth_b")
        reports = compare(trees)
    print(f"A = {args.rev}, B = working tree; {ROUNDS} ABBA rounds; ms per op, median over rounds")
    print(f"{'shape':>13} {'ops':>4} {'A':>9} {'B':>9} {'B/A':>7} {'95 % interval':>17} {'B faster':>9}  bits")
    for rep in reports:
        bits = "outputs " + ("equal" if rep["outputs_equal"] else "DIFFER")
        bits += ", counts " + ("equal" if rep["counts_equal"] else "differ")
        bits += "".join(f"; {kind} {a} -> {b}" for kind, (a, b) in rep["counts_differing"].items())
        print(
            f"{rep['shape']:>13} {rep['ops']:>4} {rep['median_a_ms']:9.4f} {rep['median_b_ms']:9.4f} "
            f"{rep['ratio']:7.4f} [{rep['ratio_low']:.4f}, {rep['ratio_high']:.4f}] "
            f"{rep['b_faster']:>4}/{rep['rounds']:<4}  {bits}"
        )


if __name__ == "__main__":
    main()
