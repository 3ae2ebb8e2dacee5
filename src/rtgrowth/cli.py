"""Batch front door: config ingestion, subcommands, deterministic emission.

Exit codes: 0 success, 1 failed verification, 2 configuration or validation
error, 3 stable regime (no mode grows: model.upper_bound_m), 4
numerical failure, including any unexpected exception (reported in one line,
never as a traceback). This module alone writes CSV and JSON, apart from
GrowthResult.to_json_dict. Output files are byte-stable across runs: every
CSV cell follows one rule (_cell: a float as its shortest round-trip repr, an
empty cell for None, a label as it is), which json.dumps matches with null
for None; field order is fixed, newlines are '\n'. This module only parses
flags, dispatches and writes: each rule on an input is checked once, by the
library function that reads it. --kmax, read only by alpha-curve and
oracle-compare, is checked against the lattice by spectrum.enumerate_modes,
and the grids by spectrum.alpha_curve and analysis.sweep_theta.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, oracle, spectrum
from .errors import ConfigError, SolverError, StableRegime
from .fixedpoint import solve_lambda
from .model import FluidConfig, smallest_magnitude, validate_config
from .pencil import Discretization

EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_STABLE = 3
EXIT_NUMERICAL = 4

DEFAULT_THETA_GRID = "0,0.25,0.5,0.75,0.9,0.99"


def positive_number(text: str) -> float:
    """argparse type: a finite number > 0."""
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rtgrowth",
        description="Largest growth rate of linear Rayleigh-Taylor instability "
        "for two stratified viscous fluid layers with surface tension.",
    )
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", required=True, help="path to FluidConfig JSON")
    p.add_argument("--out", default=None, help="output path (stdout when omitted)")
    p.add_argument("--resolution", type=int, default=128, help="elements per layer")
    p.add_argument(
        "--theta-grid",
        default=DEFAULT_THETA_GRID,
        help="comma-separated fractions of theta_c for sweep-theta",
    )
    p.add_argument("--s-grid", default=None, help="comma-separated s values for alpha-curve")
    p.add_argument(
        "--kmax",
        type=positive_number,
        default=None,
        help="alpha-curve: evaluate exactly the modes up to this magnitude; "
        "oracle-compare: compare every mode up to it; "
        "ignored by the other commands",
    )
    p.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="output format of alpha-curve, sweep-theta and oracle-compare; "
        "growth and verify --out always write JSON, and --mode-table always writes CSV",
    )
    p.add_argument(
        "--mode-table",
        default=None,
        help="with growth: also write the per-mode alpha table CSV here",
    )
    return p


def _parse_grid(text: str, name: str) -> np.ndarray:
    """The comma-separated numbers of text, empty fields skipped. It only
    parses: the function that reads the grid checks its values."""
    try:
        return np.asarray([float(x) for x in text.split(",") if x.strip() != ""])
    except ValueError as exc:
        raise ConfigError(f"unparseable {name}: {exc}") from exc


def _load_config(path: str) -> FluidConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        cfg = FluidConfig.from_json(text)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc
    return validate_config(cfg)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output {out!r}: {exc}") from exc


def _cell(value) -> str:
    """The one cell rule: a number as the shortest round-trip repr of its
    float, None as an empty cell, a label as it is. json.dumps writes the
    same floats, and None as null."""
    if value is None:
        return ""
    return value if isinstance(value, str) else repr(float(value))


def _render(columns, rows, fmt: str) -> str:
    """rows, tuples in the order of columns, as CSV lines under a header or
    as a JSON list of row objects."""
    if fmt == "json":
        return json.dumps([dict(zip(columns, row)) for row in rows])
    return "\n".join([",".join(columns), *(",".join(map(_cell, row)) for row in rows)])


def _cmd_growth(cfg, disc, args) -> int:
    result = solve_lambda(cfg, disc)
    _emit(json.dumps(result.to_json_dict()), args.out)
    if args.mode_table:
        table = result.mode_set.table(result.lam, result.theta)
        rows = zip(table.k, table.alpha_longitudinal, table.alpha_transverse, table.branch)
        columns = ("k", "alpha_longitudinal", "alpha_transverse", "branch")
        _emit(_render(columns, rows, "csv"), args.mode_table)
    return 0


def _cmd_alpha_curve(cfg, disc, args) -> int:
    if args.s_grid is None:
        raise ConfigError("alpha-curve requires --s-grid")
    s_grid = _parse_grid(args.s_grid, "--s-grid")
    frozen = None if args.kmax is None else spectrum.FrozenModeSet.freeze(cfg, disc, args.kmax)
    curve = spectrum.alpha_curve(cfg, s_grid, disc, frozen=frozen)
    columns = ("s", "alpha", "argmax_k", "branch")
    rows = [(float(s), v.alpha, v.argmax_k, v.branch) for s, v in zip(curve.s, curve.values)]
    if args.format == "json":
        # one list per column, then the bracket of alpha's zero
        lists = dict(zip(columns, map(list, zip(*rows))))
        _emit(json.dumps({**lists, "zero_bracket": curve.zero_bracket}), args.out)
    else:
        _emit(_render(columns, rows, "csv"), args.out)
    return 0


def _comparison_ks(cfg, args) -> np.ndarray:
    if args.kmax is not None:
        return spectrum.enumerate_modes(cfg, args.kmax).magnitudes
    # default: the twelve smallest lattice magnitudes, at or below 16 k0, as
    # n / L for n = 1..16 on the longer period L are, and 16 k0 = 16 / L exactly
    return spectrum.enumerate_modes(cfg, 16.0 * smallest_magnitude(cfg)).magnitudes[:12]


def _cmd_compare(cfg, disc, args) -> int:
    comparisons = oracle.compare_modes(cfg, _comparison_ks(cfg, args), disc)
    rows = [(r.k, r.lambda_oracle, r.lambda_variational, r.rel_diff) for r in comparisons]
    _emit(_render(("k", "lambda_oracle", "lambda_variational", "rel_diff"), rows, args.format), args.out)
    return 0


def _cmd_sweep(cfg, disc, args) -> int:
    sweep = analysis.sweep_theta(cfg, _parse_grid(args.theta_grid, "--theta-grid"), disc)
    columns = ("theta", "theta_over_theta_c", "lambda", "bound_m", "bound_compliance", "argmax_k", "residual")
    rows = [
        tuple(map(float, (r.theta, r.theta / sweep.theta_c, r.lam, r.bound_m, r.bound_compliance,
                          r.argmax_k, r.fixed_point_residual)))
        for r in sweep.results
    ]
    if args.format == "json":
        records = [dict(zip(columns, row)) for row in rows]
        _emit(json.dumps({"rows": records, "report": sweep.report()}), args.out)
    else:
        # the CSV leaves bound_compliance to its report, which lists it per point
        i = columns.index("bound_compliance")
        _emit(_render(columns[:i] + columns[i + 1:], [row[:i] + row[i + 1:] for row in rows], "csv"), args.out)
        report_path = (args.out + ".report.json") if args.out else None
        _emit(json.dumps(sweep.report()), report_path)
    return 0


def _cmd_verify(cfg, disc, args) -> int:
    report = analysis.verify_all(cfg, disc)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        sys.stdout.write(f"{status} {check.name}: {check.detail}\n")
    if args.out:
        checks = [dataclasses.asdict(check) for check in report.checks]
        _emit(json.dumps({"all_pass": report.all_pass, "checks": checks}), args.out)
    return 0 if report.all_pass else EXIT_VERIFY_FAILED


# command name -> handler(cfg, disc, args) -> exit code; the parser offers
# the names in this order
COMMANDS = {"growth": _cmd_growth, "alpha-curve": _cmd_alpha_curve, "sweep-theta": _cmd_sweep,
            "verify": _cmd_verify, "oracle-compare": _cmd_compare}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # first, so that a resolution below the floor exits 2 whatever the config
        disc = Discretization(args.resolution)
        cfg = _load_config(args.config)
        # a failure is reported in the one stderr line below, so numpy's
        # floating-point warnings on the way there are silenced
        with np.errstate(all="ignore"):
            return COMMANDS[args.command](cfg, disc, args)
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except StableRegime as exc:
        sys.stderr.write(f"stable regime: {exc}\n")
        return EXIT_STABLE
    except SolverError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except ValueError as exc:  # an argument outside its documented domain
        sys.stderr.write(f"invalid argument: {exc}\n")
        return EXIT_CONFIG
    except Exception as exc:  # includes MemoryError from an oversized mode set
        message = " ".join(str(exc).split())
        sys.stderr.write(f"numerical failure: {type(exc).__name__}: {message}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
