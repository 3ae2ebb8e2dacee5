"""Smoke tests: each script in scripts/ and each perfbench workload runs at a small resolution."""

import ast
import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rtgrowth import (
    Discretization, FluidConfig, cli, fixedpoint, oracle, pencil, solve_lambda, spectrum, theta_critical,
)
from rtgrowth.analysis import verify_all

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def check_convergence_study(out):
    # the reference maximizer k = 5 at N = 16 and 32: fourth order in values and slopes
    (line,) = [l for l in out.splitlines() if "rate" in l]
    assert "N=32" in line and "argmax_k=5.0" in line
    rates = [float(w) for w in line.split("rate")[1].split()]
    assert len(rates) == 2 and all(r > 3.5 for r in rates), line


@pytest.mark.parametrize(
    "script,args,check",
    [
        ("convergence_study.py", ["--max-n", "32"], check_convergence_study),
    ],
    ids=["convergence_study"],
)
def test_script_runs(script, args, check):
    # it prints the eigenprofile's error against the exact profile
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "lambda" in proc.stdout
    check(proc.stdout)


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_outputs_covers_every_command():
    # checked without running the script: it runs every command on its
    # configs, one of them past theta_c, so the exit-3 path is compared too
    script = load_script("cli_outputs")
    runs = script.RUNS
    assert any(c["theta"] >= theta_critical(FluidConfig(**c)) for c in script.CONFIGS.values())
    assert {argv[0] for _, argv, _ in runs} == set(cli.COMMANDS)
    assert len({name for name, _, _ in runs}) == len(runs)
    # and each command that reads --format in both formats
    formats = {(argv[0], argv[argv.index("--format") + 1] if "--format" in argv else "csv") for _, argv, _ in runs}
    for command in ("alpha-curve", "sweep-theta", "oracle-compare"):
        assert {(command, "csv"), (command, "json")} <= formats


def test_cli_outputs_takes_a_relative_outdir(tmp_path, monkeypatch):
    # the runs start in the tree's root, so a relative OUTDIR must be
    # resolved against the caller's directory first
    script = load_script("cli_outputs")
    monkeypatch.setattr(script, "CONFIGS", {"reference": script.REFERENCE})
    monkeypatch.setattr(
        script, "RUNS", [("growth_8", ["growth", "--resolution", "8", "--out", "{out}/growth_8.json"], None)]
    )
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["cli_outputs.py", "out"])
    script.main()
    assert (tmp_path / "out" / "exit_codes.txt").read_text() == "reference/growth_8 0\n"
    assert json.loads((tmp_path / "out" / "reference" / "growth_8.json").read_text())["lambda"] > 0.0


def write_outputs(root, growth, stdout, codes="reference/growth_8 0\n"):
    (root / "reference").mkdir(parents=True)
    (root / "exit_codes.txt").write_text(codes)
    (root / "reference" / "growth_8.json").write_text(json.dumps(growth))
    (root / "reference" / "verify.stdout").write_text(stdout)


GROWTH = {"lambda": 2.4381682020, "argmax_k": 5.0, "branch": "longitudinal"}
VERIFY = "PASS fixed_point: lambda 2.438168202 at k 5.0, residual 1e-13\n"


def test_cli_outputs_compare_reports_moved_numbers(tmp_path, capsys, monkeypatch):
    script = load_script("cli_outputs")
    write_outputs(tmp_path / "a", GROWTH, VERIFY)
    write_outputs(
        tmp_path / "b", {**GROWTH, "lambda": 2.4381682020 * (1 + 4e-11)},
        VERIFY.replace("1e-13", "-3e-13").replace("2.438168202", "2.4381682021"),
    )
    monkeypatch.setattr(sys, "argv", ["cli_outputs.py", "--compare", str(tmp_path / "a"), str(tmp_path / "b")])
    with pytest.raises(SystemExit) as stop:
        script.main()
    assert stop.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "exit_codes.txt: 0 changed, largest relative change 0",
        "reference/growth_8.json: 1 changed, largest relative change 4e-11",
        "reference/verify.stdout: 2 changed, largest relative change 4",
    ]
    # a failed run leaves a stderr file that the other tree does not have
    (tmp_path / "b" / "reference" / "growth_8.stderr").write_text("numerical failure: ...\n")
    assert script.compare(tmp_path / "a", tmp_path / "b") == 1
    assert "reference/growth_8.stderr: in one directory only" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "growth,stdout,codes",
    [
        (GROWTH, VERIFY, "reference/growth_8 4\n"),  # an exit code
        ({**GROWTH, "branch": "transverse"}, VERIFY, None),  # a branch label
        ({"lam": 2.4381682020, "argmax_k": 5.0, "branch": "longitudinal"}, VERIFY, None),  # a field name
        (GROWTH, VERIFY.replace("PASS", "FAIL"), None),  # a verdict
        (GROWTH, VERIFY.replace(", residual 1e-13", ""), None),  # a vanished number
    ],
    ids=["exit_code", "branch", "field", "verdict", "vanished_number"],
)
def test_cli_outputs_compare_fails_on_a_non_numeric_difference(tmp_path, capsys, growth, stdout, codes):
    script = load_script("cli_outputs")
    write_outputs(tmp_path / "a", GROWTH, VERIFY)
    write_outputs(tmp_path / "b", growth, stdout, *([codes] if codes else []))
    assert script.compare(tmp_path / "a", tmp_path / "b") == 1
    assert "differs in more than its numbers" in capsys.readouterr().out


def test_bench_child_counts_modes_and_solves(tmp_path, monkeypatch):
    # the bench child reports the final size of every mode set the run builds,
    # the growth results it validates, its dispersion determinant calls, its
    # fixed points and the last solves they ran, its alpha_k(s) solves, its
    # inertia tests, banded factorizations and extended-precision residuals,
    # and the time inside cli.main, read from inside its process
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
        assert 10.0 < counts.pop("peak_rss_mb") < 1000.0
        assert isinstance(counts.pop("bytecode_cached"), bool)
        return counts

    calls = {
        "determinants": 0, "fixed_points": 0, "last_solves": 0, "alpha_solves": 0,
        "inertia_tests": 0, "factorizations": 0, "extended_residuals": 0, "assemblies": 0,
    }

    def counting(key, real):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(oracle, "determinant", counting("determinants", oracle.determinant))
    monkeypatch.setattr(pencil, "_last_solve", counting("last_solves", pencil._last_solve))
    for module in (spectrum, fixedpoint, oracle):
        monkeypatch.setattr(module, "fixed_point", counting("fixed_points", pencil.fixed_point))
        monkeypatch.setattr(module, "assemble", counting("assemblies", pencil.assemble))
    for module in (spectrum, pencil):
        monkeypatch.setattr(module, "alpha_below", counting("inertia_tests", pencil.alpha_below))
        monkeypatch.setattr(module, "mode_alpha", counting("alpha_solves", pencil.mode_alpha))
    for name in ("dpbtrf", "dpbsv"):  # a factorization alone, and one with its solve
        monkeypatch.setattr(pencil.lapack, name, counting("factorizations", getattr(pencil.lapack, name)))
    monkeypatch.setattr(pencil, "_refine", counting("extended_residuals", pencil._refine))

    def in_process(command):
        for key in calls:
            calls[key] = 0
        out = tmp_path / f"in_process_{command}.out"
        assert cli.main([command, "--config", str(config), "--resolution", "8",
                         "--out", str(out)]) == 0
        assert out.read_text() == (tmp_path / f"{command}.out").read_text()
        return dict(calls)

    result = solve_lambda(FluidConfig(**bench.REFERENCE), Discretization(8))
    growth = child_counts("growth")
    assert growth == {"modes": len(result.mode_set.modes), "solves": 1, **in_process("growth")}
    assert growth["determinants"] == 0 and growth["extended_residuals"] > 0
    assert growth["fixed_points"] > 0 and growth["inertia_tests"] > 0
    assert growth["last_solves"] == growth["solves"]  # the maximizer's alone
    compare = child_counts("oracle-compare")
    assert compare == {"modes": 0, "solves": 0, **in_process("oracle-compare")}
    assert compare["fixed_points"] > 0 and compare["last_solves"] == 0  # only lam is read
    assert growth["alpha_solves"] == compare["alpha_solves"] == 0
    verify = child_counts("verify")
    assert {key: verify[key] for key in calls} == in_process("verify")
    assert verify["alpha_solves"] > 0 and verify["factorizations"] > verify["inertia_tests"]


def test_bench_writes_its_rows_before_a_failed_tier1_exits(tmp_path, monkeypatch):
    # a failed suite keeps the rows already timed: the file is written, with
    # the failure in its tier1 row, and only then does the script exit 1
    bench = load_script("bench")
    summary = "1 failed, 299 passed, 3 xfailed in 20.00s"

    def failed_suite(argv):
        return 2.0, subprocess.CompletedProcess(argv, 1, stdout=f"F....\n{summary}\n", stderr="")

    monkeypatch.setattr(bench, "timed", failed_suite)
    monkeypatch.setattr(bench, "cli_row", lambda name, *args: {"name": name, "wall_s": 1.0, "runs_s": [1.0]})
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", ["bench.py", "--out", str(out)])
    with pytest.raises(SystemExit, match=f"Tier-1 failed: {summary}"):
        bench.main()
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) > 1 and all(row["wall_s"] == 1.0 for row in rows[:-1])
    tier1 = rows[-1]
    assert (tier1["exit_code"], tier1["passed"], tier1["failed"], tier1["summary"]) == (1, 299, 1, summary)


def test_bench_accepts_exit_1_from_verify_alone(tmp_path, monkeypatch):
    # verify exits 1 when a check fails, as it should at mu = 1e-3 and
    # N = 128; its row still reads lambda and argmax_k from the fixed_point
    # check. Any other command that exits 1 stops the script.
    bench = load_script("bench")
    report = {"all_pass": False, "checks": [
        {"name": "fixed_point", "passed": True, "detail": "lambda 2.5 at k 5.0, residual 0.0, bound m 3.0"},
        {"name": "oracle_agreement", "passed": False, "detail": "relative error 1e-3"},
    ]}
    counts = dict.fromkeys(
        ["modes", "solves", "determinants", "fixed_points", "last_solves", "alpha_solves",
         "inertia_tests", "factorizations", "extended_residuals", "assemblies"], 0,
    )
    mains = iter([0.3, 0.1, 0.2, 0.1])
    cached = iter([True, False, True, True])

    def failed_check(argv):
        Path(argv[argv.index("--out") + 1]).write_text(json.dumps(report))
        child = json.dumps({**counts, "main_s": next(mains), "peak_rss_mb": 40.0, "bytecode_cached": next(cached)})
        return 1.0, subprocess.CompletedProcess(argv, 1, stdout="", stderr=child + "\n")

    monkeypatch.setattr(bench, "timed", failed_check)
    row = bench.cli_row("verify_x", "verify", 8, tmp_path, bench.verify_answer)
    assert (row["exit_code"], row["lambda"], row["argmax_k"]) == (1, 2.5, 5.0)
    assert (row["main_min_s"], row["main_s"], row["main_max_s"]) == (0.1, 0.2, 0.3)
    assert row["bytecode_cached"] is False  # one run of three compiled its bytecode
    with pytest.raises(SystemExit, match="growth_x exited 1"):
        bench.cli_row("growth_x", "growth", 8, tmp_path, bench.growth_answer)


def test_bench_starts_each_run_with_no_output_file(tmp_path, monkeypatch):
    # a run that rewrites the files the run before wrote times their flush
    # into main_s, so each run finds none of the row's output files
    bench = load_script("bench")
    counts = dict.fromkeys(bench.COUNTED, 0)
    out, table = tmp_path / "growth_x.out", tmp_path / "table.csv"
    written = (out, Path(f"{out}.report.json"), table)
    runs = []

    def writing(argv):
        runs.append([path.exists() for path in written])
        for path in written:
            path.write_text(json.dumps({"lambda": 2.5, "argmax_k": 5.0}))
        child = json.dumps({**counts, "main_s": 0.1, "peak_rss_mb": 40.0, "bytecode_cached": True})
        return 1.0, subprocess.CompletedProcess(argv, 0, stdout="", stderr=child + "\n")

    monkeypatch.setattr(bench, "timed", writing)
    row = bench.cli_row("growth_x", "growth", 8, tmp_path, bench.growth_answer, extra=("--mode-table", str(table)))
    assert runs == [[False] * 3] * bench.REPEATS
    assert (row["lambda"], row["argmax_k"]) == (2.5, 5.0)


def test_loc_counts_total_and_code_lines(tmp_path, capsys, monkeypatch):
    # blank lines, comments and docstrings are lines but not code; a string
    # that is part of a statement is code on every line it spans
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "def f(x):  # code with a comment\n"
        '    """Docstring."""\n'
        '    return """a\n'
        'b"""\n'
    )
    (tmp_path / "b.py").write_text("x = 1\n\ny = (2 +\n     3)\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    loc = load_script("loc")
    assert loc.count(tmp_path) == (12, 6)
    monkeypatch.setattr(sys, "argv", ["loc.py", str(tmp_path)])
    loc.main()
    assert capsys.readouterr().out == "12 lines, 6 code lines\n"


def load_perfbench_workloads():
    path = SCRIPTS.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("name", ["growth-ref", "sweep-dense", "oracle-modes"])
def test_perfbench_workloads_keep_their_call_shapes(name):
    # each workload of perfbench/workloads.py, as its worker calls it, at
    # N = 16: inputs from seed 0 (pass 0), prepare(), three ops, and every
    # gate passes. At N = 8 the oracle-modes gate fails at k = 15.30 and
    # 16.76, where the Galerkin side reads 1.7 % and 2.3 % low
    workload = load_perfbench_workloads().WORKLOADS[name](16)
    inputs = workload.inputs(np.random.default_rng([0, 0]), 3)
    workload.prepare()
    records = [workload.op(x) for x in inputs]
    assert workload.gates(records) == [None, None, None]


def test_perfbench_oracle_tolerance_is_verifys(cheap_config):
    # perfbench's oracle-modes gate keeps its own copy of the tolerance that
    # verify's oracle_agreement check applies; N = 8 and 32 read its cap,
    # 64 its power law and 128 its floor
    oracle_tolerance = load_perfbench_workloads().oracle_tolerance
    for n in (8, 32, 64, 128):
        (check,) = [c for c in verify_all(cheap_config, Discretization(n)).checks if c.name == "oracle_agreement"]
        tol, at_n = re.search(r"\(tolerance (\S+) at N = (\d+)\)$", check.detail).groups()
        assert (float(tol), int(at_n)) == (oracle_tolerance(n), n)


def test_bench_ab_runs_each_row_on_two_trees_in_one_process(tmp_path, monkeypatch):
    # an A/A run at N = 8: the working tree loaded twice runs one row of each
    # command, a mode table included, in ABBA rounds with equal outputs and
    # counts; a Galerkin side scaled on one tree shows as differing outputs
    bench = load_script("bench")
    (tmp_path / "reference.json").write_text(json.dumps(bench.REFERENCE))
    src = SCRIPTS.parent / "src"
    trees = bench.load_tree(src, "rtgrowth_bench_a"), bench.load_tree(src, "rtgrowth_bench_b")
    assert trees[0].cli is not trees[1].cli and trees[0].pencil.COUNTS is not trees[1].pencil.COUNTS
    rows = [
        ("growth_8", "growth", 8, "reference", None),
        ("growth_8_table", "growth", 8, "reference", "mode_table.csv"),
        ("sweep_theta_8", "sweep-theta", 8, "reference", None),
        ("verify_8", "verify", 8, "reference", None),
        ("oracle_compare_8", "oracle-compare", 8, "reference", None),
    ]
    for row in rows:
        ab = bench.ab_row(trees, row, tmp_path, rounds=2)
        assert ab["outputs_equal"] and ab["counts_equal"], row
        assert ab["rounds"] == len(ab["main_runs_a"]) == len(ab["main_runs_b"]) == 2
        assert ab["main_s_a"] > 0.0 and ab["main_s_b"] > 0.0
        written = {path.name for path in (tmp_path / "ab" / row[0] / "a").iterdir()}
        assert {f"{row[0]}.out", *filter(None, [row[4]])} <= written
    real = trees[1].oracle.fixed_point
    monkeypatch.setattr(
        trees[1].oracle, "fixed_point", lambda forms, start: dataclasses.replace(real(forms, start), lam=0.0)
    )
    off = bench.ab_row(trees, rows[-1], tmp_path, rounds=2)
    assert not off["outputs_equal"] and off["counts_equal"]


def test_bench_ab_writes_each_rows_pair_beside_it(tmp_path, monkeypatch):
    # --ab REV loads REV's src/ as A and the working tree's as B, and every
    # command row gets its "ab" field; without it no row has one
    bench = load_script("bench")
    loaded = []
    monkeypatch.setattr(bench, "cli_row", lambda name, *args: {"name": name, "wall_s": 1.0, "runs_s": [1.0]})
    monkeypatch.setattr(bench, "tier1_row", lambda: {"name": "tier1", "exit_code": 0, "wall_s": 1.0, "runs_s": [1.0]})
    monkeypatch.setattr(bench, "archived_src", lambda rev, into: Path(f"/{rev}/src"))
    monkeypatch.setattr(bench, "load_tree", lambda src, name: loaded.append((src, name)) or name[-1].upper())
    pair = {"rounds": 4, "main_s_a": 2.0, "main_s_b": 1.0, "outputs_equal": True, "counts_equal": True}
    monkeypatch.setattr(bench, "ab_row", lambda trees, row, work: {**pair, "row": row[0], "trees": trees})
    for argv, ab in ((["--ab", "abc123"], {"a": "abc123", "b": "working tree", "rounds": bench.AB_ROUNDS}), ([], None)):
        out = tmp_path / "BENCH.json"
        monkeypatch.setattr(sys, "argv", ["bench.py", "--out", str(out), *argv])
        bench.main()
        payload = json.loads(out.read_text())
        assert payload["ab"] == ab
        for row, spec in zip(payload["rows"], bench.ROWS):
            assert row["name"] == spec[0]
            assert row.get("ab") == ({**pair, "row": spec[0], "trees": ["A", "B"]} if ab else None)
    assert loaded == [(Path("/abc123/src"), "rtgrowth_bench_a"), (bench.ROOT / "src", "rtgrowth_bench_b")]


def test_ab_compares_two_trees_bit_for_bit():
    # an A/A run: the working tree loaded twice, under two package names,
    # reports every workload's fields, equal outputs, equal counts and no
    # failed gate; a Galerkin side scaled on one tree shows as differing
    # outputs. Oracle-modes runs at N = 16, where its gate passes (see
    # test_perfbench_workloads_keep_their_call_shapes)
    ab = load_script("ab")
    src = SCRIPTS.parent / "src"
    before = {key: module for key, module in sys.modules.items() if key.split(".")[0] == "rtgrowth"}
    trees = ab.load_tree(src, "rtgrowth_ab_a"), ab.load_tree(src, "rtgrowth_ab_b")
    after = {key: module for key, module in sys.modules.items() if key.split(".")[0] == "rtgrowth"}
    assert after.keys() == before.keys() and all(after[key] is before[key] for key in before)
    assert trees[0].pencil.COUNTS is not trees[1].pencil.COUNTS
    for tree in trees:
        for workload in tree.workloads.WORKLOADS.values():
            scope = workload(8).op.__globals__
            assert scope["fixedpoint"] is tree.fixedpoint and scope["oracle"] is tree.oracle
    sizes = {"resolutions": (8, 16, 16), "ops": (2, 6, 4)}
    reports = ab.compare(trees, rounds=4, **sizes)
    assert [(r["shape"], r["ops"], r["rounds"]) for r in reports] == [
        ("growth-ref", 2, 4), ("sweep-dense", 6, 4), ("oracle-modes", 4, 4),
    ]
    assert [r["last_solves"] for r in reports] == [2, 6, 0]
    for r in reports:
        assert r["outputs_equal"] and r["counts_equal"] and r["counts_differing"] == {}
        assert r["last_solves_equal"]
        assert r["median_a_ms"] > 0.0 and r["median_b_ms"] > 0.0
        assert r["ratio_low"] <= r["ratio"] <= r["ratio_high"]
        assert 0 <= r["b_faster"] <= 4
        assert r["gates_failed_a"] == r["gates_failed_b"] == 0

    real = trees[1].oracle.fixed_point
    trees[1].oracle.fixed_point = lambda forms, start: dataclasses.replace(real(forms, start), lam=0.0)
    try:
        off = ab.compare(trees, rounds=2, **sizes)[2]
    finally:
        trees[1].oracle.fixed_point = real
    assert not off["outputs_equal"] and off["counts_equal"]


def test_ab_sees_a_fixed_point_last_solve(capsys):
    # trees that differ only in the held last step's gate: every fixed point
    # takes a fresh last solve on B, one more factorization and extended
    # residual, which leave lambda and so every op's record as they were;
    # the untimed pass over the growth solves' full records and eigenvectors
    # flags it
    ab = load_script("ab")
    src = SCRIPTS.parent / "src"
    trees = ab.load_tree(src, "rtgrowth_gate_a"), ab.load_tree(src, "rtgrowth_gate_b")
    trees[1].pencil._HELD_GATE = -1.0
    reports = ab.compare(trees, rounds=1, resolutions=(8, 16, 16), ops=(2, 3, 1))
    for r in reports[:2]:
        assert r["outputs_equal"] and r["last_solves"] > 0 and not r["last_solves_equal"], r["shape"]
        assert {"factorizations", "extended_residuals"} <= r["counts_differing"].keys()
        # how far they moved: the fresh step's noise is 0, so the residual
        # moves most, and alpha and the vector only by a refined solve's
        # rounding
        moved = r["last_solves_moved"]
        assert moved.keys() == {"alpha", "fixed_point_residual", "vector"}
        assert 0.0 < moved["fixed_point_residual"] and max(moved["alpha"], moved["vector"]) < 1e-9, moved
    assert reports[2]["last_solves"] == 0 and reports[2]["last_solves_moved"] is None
    ab.print_reports("A", reports)
    assert capsys.readouterr().out.count("last solves DIFFER by at most alpha ") == 2


def test_ab_forces_one_blas_thread(monkeypatch):
    # an exported thread count does not win over the script's one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "4")
    load_script("ab")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ[var] == "1"


def test_ab_defines_no_op_of_its_own():
    # ab.py times perfbench/workloads.py's configs, inputs and ops; a config,
    # a discretization or a solver call in the script would be a second copy
    forbidden = {"FluidConfig", "Discretization", "solve_lambda", "compare_modes", "_sized_mode_set"}
    tree = ast.parse((SCRIPTS / "ab.py").read_text())
    called = {
        node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert not called & forbidden
