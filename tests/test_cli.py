import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import config_json, fail_last_factorization
from rtgrowth import oracle, pencil, spectrum
from rtgrowth.cli import COMMANDS, main
from rtgrowth.model import FluidConfig, theta_critical

CHEAP = {
    "rho_plus": 2.0, "rho_minus": 1.0, "mu_plus": 1.0, "mu_minus": 1.0,
    "g": 9.8, "theta": 0.0, "L1": 1.0, "L2": 1.0, "h_plus": 1.0, "h_minus": 1.0,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CHEAP))
    return str(path)


def run_cli(args):
    return main(args)


def test_growth_json(config_path, tmp_path, cheap_config):
    out = tmp_path / "growth.json"
    code = run_cli(["growth", "--config", config_path, "--resolution", "8",
                    "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {
        "lambda", "argmax_k", "fixed_point_residual", "bound_m", "bound_compliance",
        "theta", "resolution", "branch",
    }
    assert 0.0 < payload["lambda"] <= payload["bound_compliance"] * (1.0 + 1e-12)
    assert payload["bound_compliance"] <= payload["bound_m"]
    assert payload["branch"] == "longitudinal"


def test_growth_mode_table(config_path, tmp_path, monkeypatch):
    # one row per mode of the sized set, with both branches at s = lambda;
    # the table is computed only when --mode-table asks for it
    out, table = tmp_path / "growth.json", tmp_path / "modes.csv"
    args = ["growth", "--config", config_path, "--resolution", "8", "--out", str(out)]
    assert run_cli(args + ["--mode-table", str(table)]) == 0
    lines = table.read_text().splitlines()
    assert lines[0] == "k,alpha_longitudinal,alpha_transverse,branch"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 7
    payload = json.loads(out.read_text())
    best = max(rows, key=lambda r: float(r[1]))
    assert float(best[0]) == payload["argmax_k"]
    assert float(best[1]) == pytest.approx(payload["lambda"] ** 2, rel=1e-9)
    assert all(r[3] == ("longitudinal" if float(r[1]) >= float(r[2]) else "transverse") for r in rows)

    def refuse(*args, **kwargs):
        raise AssertionError("mode table built without --mode-table")

    monkeypatch.setattr("rtgrowth.spectrum.FrozenModeSet.table", refuse)
    assert run_cli(args) == 0


def csv_rows(path):
    lines = path.read_text().splitlines()
    return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


def same_values(csv_row, json_row):
    # every CSV cell holds its JSON value: a float's repr, a label, or empty for null
    def cell(value):
        return "" if value is None else value if isinstance(value, str) else repr(float(value))

    return all(text == cell(json_row[column]) for column, text in csv_row.items())


def test_csv_and_json_carry_the_same_values(tmp_path):
    # near theta_c every mode above the smallest is stable: empty cells, nulls
    near = {**CHEAP, "theta": 0.9 * theta_critical(FluidConfig(**CHEAP))}
    for name, fields in (("cheap", CHEAP), ("near", near)):
        (tmp_path / f"{name}.json").write_text(json.dumps(fields))

    def both(config, command, *args):
        outs = [tmp_path / f"{config}.{command}.{fmt}" for fmt in ("csv", "json")]
        for fmt, out in zip(("csv", "json"), outs):
            argv = [command, "--config", str(tmp_path / f"{config}.json"), "--resolution", "8",
                    "--format", fmt, "--out", str(out), *args]
            assert run_cli(argv) == 0
        return csv_rows(outs[0]), json.loads(outs[1].read_text()), outs[0]

    rows, payload, _ = both("cheap", "alpha-curve", "--s-grid", "0.1,0.3,1,3")
    assert len(rows) == len(payload["s"]) == 4
    assert all(same_values(row, {c: payload[c][i] for c in row}) for i, row in enumerate(rows))
    assert payload["zero_bracket"] is None or len(payload["zero_bracket"]) == 2

    rows, payload, csv_path = both("cheap", "sweep-theta", "--theta-grid", "0,0.5,0.9")
    assert len(rows) == len(payload["rows"]) == 3
    assert all(same_values(row, json_row) for row, json_row in zip(rows, payload["rows"]))
    report = json.loads(Path(str(csv_path) + ".report.json").read_text())
    assert report == payload["report"]
    assert report["bound_compliance"] == [r["bound_compliance"] for r in payload["rows"]]

    rows, payload, _ = both("near", "oracle-compare")
    assert len(rows) == len(payload) == 12
    assert all(same_values(row, json_row) for row, json_row in zip(rows, payload))
    assert all(list(row) == list(json_row) for row, json_row in zip(rows, payload))
    stable = [row for row in payload if row["lambda_oracle"] is None]
    assert len(stable) == 11 and all(row["rel_diff"] is None for row in stable)
    assert rows[1] == {"k": repr(payload[1]["k"]), "lambda_oracle": "", "lambda_variational": "", "rel_diff": ""}


def test_malformed_config_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["growth", "--config", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    data = dict(CHEAP)
    del data["g"]
    missing.write_text(json.dumps(data))
    assert run_cli(["growth", "--config", str(missing)]) == 2
    # the ten field names as a list pass the unknown/missing-field checks
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps(list(CHEAP)))
    assert run_cli(["growth", "--config", str(listed)]) == 2
    assert run_cli(["growth", "--config", str(tmp_path / "nope.json")]) == 2


def test_validation_error_exit_2(tmp_path):
    equal = tmp_path / "equal.json"
    data = dict(CHEAP)
    data["rho_plus"] = data["rho_minus"]
    equal.write_text(json.dumps(data))
    assert run_cli(["growth", "--config", str(equal)]) == 2


@pytest.mark.parametrize(
    "field,raw",
    [("theta", '"1.5"'), ("theta", "true"), ("theta", "NaN"), ("rho_plus", "Infinity")],
)
def test_non_numeric_config_values_exit_2(tmp_path, field, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**CHEAP, field: "SENTINEL"}).replace('"SENTINEL"', raw))
    proc = subprocess.run(
        [sys.executable, "-m", "rtgrowth.cli", "growth", "--config", str(path),
         "--resolution", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert repr(field) in proc.stderr


def test_small_resolution_exit_2(config_path):
    assert run_cli(["growth", "--config", config_path, "--resolution", "4"]) == 2


def test_stable_regime_exit_3(tmp_path, capsys, cheap_config):
    theta_c = theta_critical(cheap_config)
    data = dict(CHEAP)
    data["theta"] = 2.0 * theta_c
    stable = tmp_path / "stable.json"
    stable.write_text(json.dumps(data))
    assert run_cli(["growth", "--config", str(stable), "--resolution", "8"]) == 3
    err = capsys.readouterr().err
    assert repr(theta_c) in err
    assert run_cli(["oracle-compare", "--config", str(stable), "--resolution", "8"]) == 3


def test_alpha_curve(config_path, tmp_path):
    assert run_cli(["alpha-curve", "--config", config_path, "--resolution", "8"]) == 2
    out = tmp_path / "curve.csv"
    code = run_cli(["alpha-curve", "--config", config_path, "--resolution", "8",
                    "--s-grid", "0.3,0.6,1.2,2.4", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "s,alpha,argmax_k,branch"
    alphas = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(a > b for a, b in zip(alphas, alphas[1:]))


def test_bad_theta_grid_exit_2(config_path):
    assert run_cli(["sweep-theta", "--config", config_path, "--resolution", "8",
                    "--theta-grid", "0,0.5,1.0"]) == 2
    assert run_cli(["sweep-theta", "--config", config_path, "--resolution", "8",
                    "--theta-grid", "zero"]) == 2


def test_sweep_outputs(config_path, tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(["sweep-theta", "--config", config_path, "--resolution", "8",
                    "--theta-grid", "0,0.5,0.9", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("theta,")
    assert len(lines) == 4
    report = json.loads((tmp_path / "sweep.csv.report.json").read_text())
    assert report["strictly_decreasing"] and report["bounded_by_m"]


def test_sweep_at_default_resolution(config_path, tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(["sweep-theta", "--config", config_path,
                    "--theta-grid", "0,0.14,0.28", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 4


def test_oracle_compare(config_path, tmp_path):
    out = tmp_path / "compare.csv"
    code = run_cli(["oracle-compare", "--config", config_path, "--resolution", "16",
                    "--kmax", "2.5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "k,lambda_oracle,lambda_variational,rel_diff"
    rel = float(lines[1].split(",")[3])
    assert rel < 1e-3


def test_verify_passes(config_path, tmp_path):
    out = tmp_path / "verify.json"
    code = run_cli(["verify", "--config", config_path, "--resolution", "16",
                    "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["all_pass"] is True


def test_verify_reports_an_empty_oracle_bracket(config_path, tmp_path, monkeypatch):
    # a dispersion function still negative at the bracket's top end (no root
    # below the bound) fails the oracle check with the error's message:
    # exit 1, the other checks still run
    monkeypatch.setattr(oracle, "determinant", lambda mode, n: -1.0)
    out = tmp_path / "verify.json"
    code = run_cli(["verify", "--config", config_path, "--resolution", "16",
                    "--out", str(out)])
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert not checks["oracle_agreement"]["passed"]
    assert checks["oracle_agreement"]["detail"].startswith("no root of the dispersion relation")
    assert all(c["passed"] for name, c in checks.items() if name != "oracle_agreement")
    assert "threshold_stability" in checks


def test_sweep_determinism_in_process(config_path, tmp_path):
    outs = []
    for run in ("1", "2"):
        out = tmp_path / f"sweep{run}.csv"
        code = run_cli(["sweep-theta", "--config", config_path, "--resolution", "8",
                        "--theta-grid", "0,0.5,0.9", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes() + (tmp_path / f"sweep{run}.csv.report.json").read_bytes())
    assert outs[0] == outs[1]


def test_subprocess_entry(config_path, tmp_path):
    out = tmp_path / "growth.json"
    proc = subprocess.run(
        [sys.executable, "-m", "rtgrowth.cli", "growth", "--config", config_path,
         "--resolution", "8", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["lambda"] > 0.0


def test_numerical_failure_is_one_stderr_line(tmp_path):
    # layers of height 1e-300 overflow the element matrices; numpy's
    # floating-point warnings must not reach stderr ahead of the report
    path = tmp_path / "thin.json"
    path.write_text(json.dumps({**CHEAP, "h_plus": 1e-300, "h_minus": 1e-300}))
    proc = subprocess.run(
        [sys.executable, "-m", "rtgrowth.cli", "growth", "--config", str(path),
         "--resolution", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 4, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("numerical failure: ")


@pytest.mark.parametrize("command", ["growth", "sweep-theta"])
def test_overflowing_compliance_bounds_exit_4(tmp_path, command):
    # mu = 1e300 underflows the Stokes compliance C_k, so every bound r_k
    # rounds to 0 and no mode is solved: a numerical failure, reported as one
    # line, not an AttributeError on a missing fixed point
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps({**CHEAP, "mu_plus": 1e300, "mu_minus": 1e300}))
    proc = subprocess.run(
        [sys.executable, "-m", "rtgrowth.cli", command, "--config", str(path),
         "--resolution", "8", "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 4, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("numerical failure: no mode grows at theta = 0.0")
    assert "AttributeError" not in proc.stderr


def test_oracle_compare_with_overflowing_compliance_bounds_exits_4(tmp_path):
    # the single-mode solve names the mode whose bound r_k rounds to 0, as
    # the global scan does, instead of dividing by the underflowed C_k^2
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps({**CHEAP, "mu_plus": 1e300, "mu_minus": 1e300}))
    proc = subprocess.run(
        [sys.executable, "-m", "rtgrowth.cli", "oracle-compare", "--config", str(path),
         "--resolution", "8", "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 4, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("numerical failure: mode k = 1.0 has its bound r_k rounded to 0")


@pytest.mark.parametrize("command", ["growth", "sweep-theta"])
def test_vanishing_viscosity_exits_4_naming_the_cutoff(tmp_path, capsys, monkeypatch, command):
    # at mu = 1e-300, b * b underflowed in the growth cutoff, which came out
    # 0: growth exited 0 with the k = 1 rate 1.557 of a one-mode set, where
    # k = 20 alone gives 6.97. The cutoff lies near 2.5e299, past any lattice
    # that can be enumerated (LATTICE_POINTS, limited here to keep the test
    # short; at the default 2^22 the run takes about 2 s). The cutoff named
    # is the one at the rate of the last pass, a float even where the sweep's
    # theta grid makes it a numpy one
    monkeypatch.setattr(spectrum, "LATTICE_POINTS", 1 << 12)
    path = tmp_path / "thin.json"
    path.write_text(json.dumps({**CHEAP, "mu_plus": 1e-300, "mu_minus": 1e-300}))
    out = str(tmp_path / "out")
    assert run_cli([command, "--config", str(path), "--resolution", "8", "--out", out]) == 4
    err = capsys.readouterr().err
    cutoff = re.match(r"numerical failure: the cutoff k = (\S+) lies past the lattice", err)
    assert cutoff and err.count("\n") == 1 and "np." not in err
    assert float(cutoff.group(1)) > 1e299


def test_alpha_curve_with_overflowing_viscosity_ends(tmp_path):
    # at mu = 1e300 the cutoff bracket's b * b overflowed, its end came out
    # 0 and never doubled past the negative floor alpha(s): the command hung
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps({**CHEAP, "mu_plus": 1e300, "mu_minus": 1e300}))
    out = tmp_path / "curve.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "rtgrowth.cli", "alpha-curve", "--config", str(path),
         "--resolution", "8", "--s-grid", "0.1,1", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["0.1", "1.0"]
    assert all(float(row[1]) < 0.0 and row[3] == "transverse" for row in rows)


def test_verify_on_a_stable_config_runs_only_the_stable_check(tmp_path, cheap_config):
    path = tmp_path / "stable.json"
    path.write_text(json.dumps({**CHEAP, "theta": 1.5 * theta_critical(cheap_config)}))
    out = tmp_path / "verify.json"
    assert run_cli(["verify", "--config", str(path), "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert [(c["name"], c["passed"]) for c in checks] == [("stable_regime", True)]


@pytest.mark.parametrize("command", ["growth", "verify", "oracle-compare"])
def test_underflowing_threshold_exit_2(tmp_path, command):
    # L1 = L2 = 1e-300 underflows max(L1^2, L2^2), and so theta_c, to 0,
    # which would call this unstable config (theta = 0) stable
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({**CHEAP, "L1": 1e-300, "L2": 1e-300}))
    proc = subprocess.run(
        [sys.executable, "-m", "rtgrowth.cli", command, "--config", str(path),
         "--resolution", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "theta_c" in proc.stderr


@pytest.mark.parametrize(
    "command,flags,fields,message",
    [
        ("alpha-curve", ["--s-grid", ","], {}, "--s-grid is empty"),
        ("growth", ["--out", "{missing}/growth.json"], {}, "cannot write output"),
        # L1 = L2 = 1e200 overflows max(L1^2, L2^2), and so theta_c, to inf
        ("growth", [], {"L1": 1e200, "L2": 1e200}, "theta_c = g (rho_plus - rho_minus) max(L1^2, L2^2) = inf "
                                                   "is not a finite positive float"),
    ],
)
def test_input_errors_exit_2_on_one_line(tmp_path, capsys, command, flags, fields, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**CHEAP, **fields}))
    flags = [flag.format(missing=tmp_path / "missing") for flag in flags]
    assert run_cli([command, "--config", str(path), "--resolution", "8", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1, err
    assert message in err and "Traceback" not in err


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize alone takes about a quarter second to import, and every
    # command would pay it at start-up
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, rtgrowth.cli; print('scipy.optimize' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def exit_code(args):
    """main's return code, or argparse's exit code for a rejected flag."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("growth", "--tol", "1e-8"),  # no such option
        ("alpha-curve", "--s-grid", "0,1"),
        ("alpha-curve", "--s-grid", "2,1"),
        ("alpha-curve", "--s-grid", "nan,1"),
        ("sweep-theta", "--theta-grid", "0.5,0.2"),
        ("sweep-theta", "--theta-grid", "nan"),
        ("oracle-compare", "--kmax", "nan"),
        ("oracle-compare", "--kmax", "-1"),
        ("alpha-curve", "--kmax", "nan"),
        ("alpha-curve", "--kmax", "0.5"),
        ("oracle-compare", "--kmax", "0.5"),
        ("growth", "--jobs", "2"),
        ("dispersion-curve", "--kmax", "6"),
    ],
)
def test_malformed_flags_exit_2(config_path, capsys, command, flag, value):
    args = [command, "--config", config_path, "--resolution", "8", flag, value]
    if command == "alpha-curve" and flag != "--s-grid":
        args += ["--s-grid", "0.5,1"]
    assert exit_code(args) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("error", [RuntimeError("boom"), MemoryError("no room\nfor the lattice")])
def test_unexpected_exception_exit_4(config_path, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr("rtgrowth.cli.solve_lambda", fail)
    assert run_cli(["growth", "--config", config_path, "--resolution", "8"]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert type(error).__name__ in err and "Traceback" not in err


def test_failed_band_factorization_exit_4(config_path, capsys, monkeypatch):
    # a non-positive pivot in the banded factorizations, those of the
    # inertia test (dpbtrf) and those that also solve (dpbsv), is a
    # numerical failure
    dpbtrf, dpbsv = pencil.lapack.dpbtrf, pencil.lapack.dpbsv
    monkeypatch.setattr(
        pencil.lapack, "dpbtrf", lambda ab, lower=0, overwrite_ab=0: (dpbtrf(ab, lower=lower)[0], 3)
    )
    monkeypatch.setattr(
        pencil.lapack, "dpbsv", lambda ab, b, lower=0, overwrite_ab=0: (*dpbsv(ab, b, lower=lower)[:2], 3)
    )
    assert run_cli(["growth", "--config", config_path, "--resolution", "8"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: banded Cholesky") and err.count("\n") == 1


def test_failed_last_factorization_exit_4(config_path, capsys, monkeypatch):
    # the maximizer's last solve runs when the growth result is validated;
    # its failure is a numerical failure, on one stderr line
    fail_last_factorization(monkeypatch)
    assert run_cli(["growth", "--config", config_path, "--resolution", "8"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: banded Cholesky factorization") and err.count("\n") == 1


# Only malformed or cheaply rejected config values: a valid but extreme one
# (tiny viscosity, huge g) is a legitimate, arbitrarily large lattice.
BAD_VALUES = st.sampled_from(
    [None, True, "1.5", [], {}, float("nan"), float("inf"), -float("inf"),
     -1.0, 0.0, -1e-300, 10**400]
)
FLAG_VALUES = {
    "--kmax": ["nan", "-1", "0", "inf", "x", "0.5", "2.5"],
    "--s-grid": ["0,1", "2,1", "nan,1", "", ",", "a", "1", "0.5,1"],
    "--theta-grid": ["0.5,0.2", "nan", "1", "-0.1,0.5", "inf", "0,0.5"],
    "--resolution": ["8", "4", "x", "-3", "8.5"],
    "--format": ["csv", "json", "xml"],
}


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from([c for c in COMMANDS if c != "verify"]),
    corrupt=st.one_of(
        st.just({}), st.dictionaries(st.sampled_from(sorted(CHEAP)), BAD_VALUES, max_size=2)
    ),
    flags=st.fixed_dictionaries(
        {}, optional={flag: st.sampled_from(values) for flag, values in FLAG_VALUES.items()}
    ),
)
def test_fuzzed_front_door_never_crashes(command, corrupt, flags):
    # N = 8 unless the fuzzed --resolution is itself rejected
    chosen = {"--resolution": "8", **flags}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({**CHEAP, **corrupt}))
        args = [command, "--config", str(path)]
        args += [f"{flag}={value}" for flag, value in chosen.items()]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = exit_code(args)
    assert code in (0, 2, 3, 4), (args, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_growth_near_theta_c_at_n256_stays_within_the_compliance_bound(tmp_path, contrast_config):
    # contrast config at 0.99999 theta_c, N = 256: on pencil values rounded
    # to float64, lambda read 3.4753794711676515e-07, above the compliance
    # bound on the exact Lambda (3.475379379120479e-07), and growth exited 4
    cfg = contrast_config.with_theta(0.99999 * theta_critical(contrast_config))
    config, out = tmp_path / "config.json", tmp_path / "growth.json"
    config.write_text(config_json(cfg))
    assert run_cli(["growth", "--config", str(config), "--resolution", "256", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert 0.0 < payload["lambda"] <= payload["bound_compliance"]
