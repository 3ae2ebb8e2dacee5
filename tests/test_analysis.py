import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import cli_output, config_json
from rtgrowth import analysis, cli, oracle, spectrum
from rtgrowth.errors import SolverError, StableRegime
from rtgrowth.analysis import VerifyCheck, sweep_theta, verify_all, _sized_mode_set
from rtgrowth.fixedpoint import GrowthResult, solve_lambda
from rtgrowth.modeforms import VerticalProfile
from rtgrowth.model import (
    FluidConfig, smallest_magnitude, surface_coefficient, theta_critical, upper_bound_m, wang_tice_bound,
)
from rtgrowth.pencil import Discretization

DISC = Discretization(8)
FRACTIONS = [0.0, 0.25, 0.5, 0.75, 0.9]


def test_sized_mode_set_solves_once(cheap_config, monkeypatch):
    cfg = cheap_config
    validated = []
    real = GrowthResult.validate

    def spy(self):
        validated.append(self)
        real(self)

    monkeypatch.setattr(GrowthResult, "validate", spy)
    fm, res0 = _sized_mode_set(cfg, DISC, 1e-8)
    assert validated == [res0]
    assert res0.mode_set is fm


def test_sweep_solves_only_its_grid_points(cheap_config, monkeypatch):
    # one growth solve per point and none at theta = 0 off the grid; each
    # point equals an owned solve bit for bit, though the points share a set
    thetas = []

    def spy(cfg, disc, *args, **kwargs):
        thetas.append(cfg.theta)
        return solve_lambda(cfg, disc, *args, **kwargs)

    monkeypatch.setattr(analysis, "solve_lambda", spy)
    sweep = sweep_theta(cheap_config, [0.3, 0.6, 0.95], DISC)
    theta_c = theta_critical(cheap_config)
    assert thetas == [f * theta_c for f in (0.3, 0.6, 0.95)]
    for res, theta in zip(sweep.results, thetas):
        owned = solve_lambda(cheap_config.with_theta(theta), DISC)
        assert (res.lam, res.argmax_k) == (owned.lam, owned.argmax_k)


def test_sweep_contract(cheap_config):
    cfg = cheap_config
    sweep = sweep_theta(cfg, FRACTIONS, DISC)
    assert np.all(np.diff(sweep.lambdas) < 0.0)
    assert np.all(sweep.lambdas > 0.0)
    assert np.all(sweep.lambdas <= sweep.bounds_m * (1.0 + 1e-6))
    assert np.all(sweep.bounds_m <= wang_tice_bound(cfg) * (1.0 + 1e-12))
    assert sweep.theta_c == pytest.approx(theta_critical(cfg))
    report = sweep.report()
    assert report["strictly_decreasing"] and report["all_positive"]
    assert report["bounded_by_m"] and report["m_below_wang_tice"]


def test_sweep_csv_shape(cheap_config, tmp_path):
    out = cli_output(tmp_path, cheap_config, "sweep-theta", "--theta-grid", "0,0.5", "--resolution", "8")
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,theta_over_theta_c,lambda,bound_m,argmax_k,residual"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert len(row) == 6
    assert float(row[0]) == 0.0 and float(row[1]) == 0.0
    assert float(row[2]) > 0.0


def test_sweep_rejects_bad_fractions(cheap_config):
    with pytest.raises(ValueError):
        sweep_theta(cheap_config, [0.0, 1.0], DISC)
    with pytest.raises(ValueError):
        sweep_theta(cheap_config, [0.5, 0.25], DISC)
    with pytest.raises(ValueError):
        sweep_theta(cheap_config, [-0.1, 0.5], DISC)
    with pytest.raises(ValueError):
        sweep_theta(cheap_config, [], DISC)


def test_continuity_probe(cheap_config):
    # A strictly increasing grid bracketing theta0 = theta_c / 2 checks the
    # ordering Lambda(theta0 - delta) > Lambda(theta0) > Lambda(theta0 + delta).
    cfg = cheap_config
    sweep = sweep_theta(cfg, 0.5 + np.array([-1e-2, -1e-3, 0.0, 1e-3, 1e-2]), DISC)
    lam = sweep.lambdas
    gaps_below = lam[:2] - lam[2]
    gaps_above = lam[2] - lam[:2:-1]
    assert gaps_below[0] > gaps_below[1] > 0.0
    assert gaps_above[0] > gaps_above[1] > 0.0
    # the empirical modulus max(gap) / delta is roughly stable as delta shrinks
    moduli = np.maximum(gaps_below, gaps_above) / np.array([1e-2, 1e-3])
    assert moduli[0] == pytest.approx(moduli[1], rel=0.5)
    assert sweep.report()["bounded_by_m"]


def test_limit_check(cheap_config):
    # Lambda <= m, with m -> 0, on a grid closing in on theta_c.
    cfg = cheap_config
    sweep = sweep_theta(cfg, [0.9, 0.99, 0.999], DISC)
    report = sweep.report()
    assert report["bounded_by_m"]
    assert report["all_positive"]
    assert np.all(np.diff(sweep.bounds_m) < 0.0)
    assert sweep.lambdas[-1] < 0.05 * sweep.lambdas[0]


def test_verify_all_passes(cheap_config, tmp_path):
    report = verify_all(cheap_config, Discretization(16))
    for check in report.checks:
        assert check.passed, f"{check.name}: {check.detail}"
    assert report.all_pass
    assert [c.name for c in report.checks] == [
        "alpha_strictly_decreasing", "alpha_decreasing_in_theta", "fixed_point",
        "oracle_agreement", "profile_agreement", "threshold_stability",
    ]
    # every detail prints plain floats, the sample range's ends included
    m = upper_bound_m(cheap_config)
    assert report.checks[0].detail.endswith(f"8 samples on [{m / 20.0!r}, {1.2 * m!r}]")
    assert not any("np." in c.detail for c in report.checks)
    # the CLI writes the same report, every field a plain JSON value
    payload = json.loads(cli_output(tmp_path, cheap_config, "verify", "--resolution", "16").read_text())
    assert payload["all_pass"] is True
    assert payload["checks"] == [dataclasses.asdict(c) for c in report.checks]


@pytest.mark.parametrize("mu,n,most", [(0.1, 16, 20), (0.01, 32, 150)])
def test_verify_solves_few_alpha_modes(reference_config, monkeypatch, mu, n, most):
    # the alpha(s) scan orders and stops by the least split bound, the family
    # its cutoff cuts with, and bisects alpha_k(s) <= 0 down from 0 whoever
    # asks: few modes reach mode_alpha
    calls = []
    real = spectrum.mode_alpha

    def spy(*args):
        calls.append(args[0].k)
        return real(*args)

    monkeypatch.setattr(spectrum, "mode_alpha", spy)
    cfg = dataclasses.replace(reference_config, mu_plus=mu, mu_minus=mu)
    assert verify_all(cfg, Discretization(n)).all_pass
    assert 0 < len(calls) <= most


def test_verify_alpha_checks_name_their_mode_set(cheap_config):
    # alpha(s) is maximized over the set sized for Lambda at theta = 0, not
    # over a set sized at each s, so both details say which set that is
    disc = Discretization(16)
    fm, _ = _sized_mode_set(cheap_config, disc)
    label = f"over the {len(fm.modes)} modes with k <= {fm.modes.k_max!r}"
    checks = {c.name: c for c in verify_all(cheap_config, disc).checks}
    assert label in checks["alpha_strictly_decreasing"].detail
    assert label in checks["alpha_decreasing_in_theta"].detail


def test_verify_all_solves_once_at_theta_zero(cheap_config, monkeypatch):
    # the theta = 0 solve that sizes the mode set is the fixed_point check's
    # solve
    validated = []
    real = GrowthResult.validate

    def spy(self):
        validated.append(self)
        real(self)

    monkeypatch.setattr(GrowthResult, "validate", spy)
    report = verify_all(cheap_config, Discretization(16))
    assert len(validated) == 1
    (oracle_check,) = [c for c in report.checks if c.name == "oracle_agreement"]
    assert oracle_check.passed


@pytest.mark.parametrize("fraction", [0.0, 0.95])
def test_verify_oracle_check_reuses_the_argmax_solve(cheap_config, monkeypatch, fraction):
    # the fixed_point check's result holds the argmax mode's Lambda_k^N, so
    # the oracle check solves a Galerkin mode only for a different smallest k
    cfg = cheap_config.with_theta(fraction * theta_critical(cheap_config))
    disc = Discretization(16)
    result = solve_lambda(cfg, disc)
    k_min = smallest_magnitude(cfg)
    assert (result.argmax_k == k_min) == (fraction > 0.0)
    solved, reused = [], []
    solve_mode, compare_solved = oracle.fixed_point, analysis.compare_solved_mode

    def spy_solve(forms, start):
        solved.append(forms.k)
        return solve_mode(forms, start)

    def spy_row(*args):
        reused.append(compare_solved(*args))
        return reused[-1]

    monkeypatch.setattr(oracle, "fixed_point", spy_solve)
    monkeypatch.setattr(analysis, "compare_solved_mode", spy_row)
    report = verify_all(cfg, disc)
    assert solved == ([] if result.argmax_k == k_min else [k_min])
    assert reused == oracle.compare_modes(cfg, [result.argmax_k], disc)
    assert all(c.passed for c in report.checks if c.name == "oracle_agreement")


def test_verify_profile_check_reads_the_oracle_root(cheap_config, monkeypatch):
    # the eigenprofile is compared with the exact one at the root the oracle
    # check found, with no further root solve, against the oracle tolerance
    disc = Discretization(16)
    result = solve_lambda(cheap_config, disc)
    root = oracle.compare_solved_mode(cheap_config, result.argmax_k, result.lam).lambda_oracle
    err = oracle.profile_error(result.eigenprofile, result.argmax_k, root, cheap_config)[0]
    roots, real_root = [], oracle._bracketed_root

    def spy_root(*args, **kwargs):
        roots.append(args[0].k)
        return real_root(*args, **kwargs)

    # every root solve, compare_modes' and dispersion_root's, brackets here
    monkeypatch.setattr(oracle, "_bracketed_root", spy_root)
    checks = {c.name: c for c in verify_all(cheap_config, disc).checks}
    assert roots == [smallest_magnitude(cheap_config), result.argmax_k]
    assert checks["profile_agreement"].passed
    assert checks["profile_agreement"].detail == (
        f"max |psi - psi_exact| {err!r} at k {result.argmax_k!r}, psi(0) = 1 "
        f"(tolerance 0.01 at N = 16)"
    )

    # an exact profile 1.5 times too large is off by 0.5 at the interface
    real_profile = oracle.dispersion_profile

    def scaled(*args):
        p = real_profile(*args)
        return VerticalProfile(p.grid, 1.5 * p.psi_values, p.psi_derivs)

    monkeypatch.setattr(oracle, "dispersion_profile", scaled)
    report = verify_all(cheap_config, disc)
    (check,) = [c for c in report.checks if c.name == "profile_agreement"]
    assert not check.passed and not report.all_pass

    # with no root there is nothing to compare with, and the check is left out
    monkeypatch.setattr(oracle, "determinant", lambda mode, n: -1.0)
    names = [c.name for c in verify_all(cheap_config, disc).checks]
    assert "oracle_agreement" in names and "profile_agreement" not in names


def test_verify_low_viscosity_at_n128_passes(reference_config):
    # mu = 0.01: the oracle root at the argmax mode k = sqrt(481) lies below m
    # and within the N = 128 tolerance of the Galerkin value
    cfg = dataclasses.replace(reference_config, mu_plus=0.01, mu_minus=0.01)
    report = verify_all(cfg, Discretization(128))
    assert report.all_pass, [c for c in report.checks if not c.passed]
    (oracle_check,) = [c for c in report.checks if c.name == "oracle_agreement"]
    assert "21.93171219946131" in oracle_check.detail


def test_verify_reports_a_failed_alpha_curve_and_fixed_point(cheap_config, tmp_path, monkeypatch):
    # a failed check is a FAIL line and exit 1, and the checks after it
    # still run; with no growth result there is no profile to check
    theta_c = theta_critical(cheap_config)
    cfg = cheap_config.with_theta(0.5 * theta_c)
    real_solve = analysis.solve_lambda

    def curve(*args, **kwargs):
        raise SolverError("alpha rose from 1.0 to 2.0")

    def solve(cfg, disc, *args, **kwargs):
        # the theta = 0 sizing solve and the StableRegime probes pass through
        if 0.0 < cfg.theta < theta_c:
            raise SolverError("growth rate escapes (0, m]")
        return real_solve(cfg, disc, *args, **kwargs)

    monkeypatch.setattr(analysis, "alpha_curve", curve)
    monkeypatch.setattr(analysis, "solve_lambda", solve)
    report = verify_all(cfg, DISC)
    checks = {c.name: c for c in report.checks}
    assert list(checks) == [
        "alpha_strictly_decreasing", "alpha_decreasing_in_theta", "fixed_point",
        "oracle_agreement", "threshold_stability",
    ]
    assert checks["alpha_strictly_decreasing"] == analysis.VerifyCheck(
        "alpha_strictly_decreasing", False, "alpha rose from 1.0 to 2.0"
    )
    assert checks["fixed_point"] == analysis.VerifyCheck("fixed_point", False, "growth rate escapes (0, m]")
    assert not report.all_pass
    assert all(c.passed for name, c in checks.items() if name not in ("alpha_strictly_decreasing", "fixed_point"))

    config = tmp_path / "config.json"
    config.write_text(config_json(cfg))
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--config", str(config), "--resolution", "8", "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert payload["all_pass"] is False
    assert payload["checks"] == [dataclasses.asdict(c) for c in report.checks]


def test_verify_stable_configuration(cheap_config):
    theta_c = theta_critical(cheap_config)
    report = verify_all(cheap_config.with_theta(2.0 * theta_c), Discretization(16))
    assert report.checks == [
        VerifyCheck(
            "stable_regime", True, f"theta {2.0 * theta_c!r} >= theta_c {theta_c!r}: solver checks skipped"
        )
    ]


def test_one_ulp_below_theta_c_no_mode_grows(tmp_path, capsys):
    # theta one ulp below theta_c, where c_k = g [rho] - theta k^2 rounds to
    # 0 at the smallest magnitude: upper_bound_m finds that no mode grows,
    # so growth, oracle-compare and a sweep-theta point there exit 3 as at
    # theta_c, and verify runs only its stable_regime check, which names the
    # finding
    cfg = FluidConfig(
        rho_plus=1.633995681191814, rho_minus=0.779522174270958, mu_plus=0.1, mu_minus=0.1,
        g=5.625305567436229, theta=0.0, L1=0.4166165803092431, L2=13.651939536141027,
        h_plus=1.0, h_minus=1.0,
    )
    cfg = cfg.with_theta(math.nextafter(theta_critical(cfg), 0.0))
    assert cfg.theta == 895.8461519445018
    assert surface_coefficient(smallest_magnitude(cfg), cfg) == 0.0
    config = tmp_path / "config.json"
    config.write_text(config_json(cfg))
    args = ["--config", str(config), "--resolution", "8"]
    finding = (
        "c_k = 0.0 <= 0 at the smallest lattice magnitude k = 0.0732496651741448, "
        "theta = 895.8461519445018 < theta_c = 895.8461519445019"
    )
    # a sweep point there has a numpy theta, which the message prints as a float
    for command in (["growth"], ["oracle-compare"], ["sweep-theta", "--theta-grid", "0.9999999999999999"]):
        assert cli.main([*command, *args]) == 3
        assert capsys.readouterr().err == (
            f"stable regime: {finding}: configuration is linearly stable, no positive growth rate exists\n"
        )
    assert cli.main(["verify", *args]) == 0
    assert capsys.readouterr().out == f"PASS stable_regime: {finding}: solver checks skipped\n"


def test_one_ulp_below_theta_c_is_stable_exactly_where_the_computed_c_k_is_not_positive():
    # 400 seeded draws of the property-test box at theta = nextafter(theta_c,
    # 0): StableRegime is raised exactly where c_k, as computed at the
    # smallest magnitude, is <= 0 (115 draws at seed 0), and the growth scan
    # never finds every r_k 0. Whether the other draws solve is not asserted:
    # Lambda ~ 1e-16 there, and c_k's rounding is as large as c_k itself.
    rng = np.random.default_rng(0)
    disc = Discretization(8)
    stable = 0
    for _ in range(400):
        rho_plus = rng.uniform(1.0, 3.0)
        cfg = FluidConfig(
            rho_plus=rho_plus, rho_minus=rho_plus * rng.uniform(0.1, 0.99),
            mu_plus=10.0 ** rng.uniform(-2.0, 0.0), mu_minus=10.0 ** rng.uniform(-2.0, 0.0),
            g=rng.uniform(1.0, 20.0), theta=0.0,
            L1=10.0 ** rng.uniform(-0.5, 1.0), L2=10.0 ** rng.uniform(-0.5, 1.0),
            h_plus=rng.uniform(0.3, 2.0), h_minus=rng.uniform(0.3, 2.0),
        )
        cfg = cfg.with_theta(math.nextafter(theta_critical(cfg), 0.0))
        grows = surface_coefficient(smallest_magnitude(cfg), cfg) > 0.0
        try:
            solve_lambda(cfg, disc)
        except StableRegime:
            assert not grows, cfg
            stable += 1
        except SolverError as exc:
            assert grows and "every bound r_k" not in str(exc), (cfg, exc)
        else:
            assert grows, cfg
    assert 0 < stable < 400


def test_locked_sweep_at_n128_solves_and_matches_the_oracle():
    # At N = 128 with mu = 1 the dense and secular values of alpha differ by
    # up to ~6e-7 relative (the dense one is the less accurate), so no point
    # of this sweep may depend on the two agreeing.
    from rtgrowth.fixedpoint import solve_lambda
    from rtgrowth.model import FluidConfig, upper_bound_m
    from rtgrowth.oracle import dispersion_root

    cfg = FluidConfig(
        rho_plus=2.0, rho_minus=1.0, mu_plus=1.0, mu_minus=1.0,
        g=9.8, theta=0.0, L1=1.0, L2=1.0, h_plus=1.0, h_minus=1.0,
    )
    disc = Discretization(128)
    fm, _ = _sized_mode_set(cfg, disc, 1e-8)
    theta_c = theta_critical(cfg)
    lambdas = []
    for fraction in (0.14, 0.28, 0.35, 0.42, 0.56):
        point = cfg.with_theta(fraction * theta_c)
        res = solve_lambda(point, disc, frozen=fm)
        m = upper_bound_m(point)
        assert 0.0 < res.lam <= m
        root = dispersion_root(res.argmax_k, point, 1.05 * m)
        assert abs(res.lam - root) <= 5e-5 * root
        lambdas.append(res.lam)
    assert np.all(np.diff(lambdas) < 0.0)
