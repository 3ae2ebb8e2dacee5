"""Acceptance suite: every criterion at its stated tolerance, N = 128.

The reference case (rho+ = 2, rho- = 1, mu = 0.1, g = 9.8, L1 = L2 = 1,
h = 1) is solved once per fixture scope and shared: the per-mode spectral
cache is independent of the surface tension, so every theta sweep, including
the one bracketing theta_c / 2 in criterion 4, rides one shared mode set.
Each test prints one PASS/FAIL line (run with -s to see them).
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import (
    TRACE_TOL,
    bands,
    config_json,
    curve_alphas,
    largest_eigenpair,
    random_admissible_profile,
    threshold_test_profile,
    trace_ratios,
)
from rtgrowth.analysis import sweep_theta
from rtgrowth.errors import StableRegime
from rtgrowth.fixedpoint import solve_lambda, solve_mode_lambda
from rtgrowth.model import (
    FluidConfig,
    theta_critical,
    upper_bound_m,
    validate_config,
    wang_tice_bound,
)
from rtgrowth.oracle import dispersion_root, profile_error
from rtgrowth.pencil import Discretization, assemble
from rtgrowth.spectrum import alpha_curve

REFERENCE = FluidConfig(
    rho_plus=2.0, rho_minus=1.0, mu_plus=0.1, mu_minus=0.1,
    g=9.8, theta=0.0, L1=1.0, L2=1.0, h_plus=1.0, h_minus=1.0,
)
DISC = Discretization(128)
FRACTIONS = np.array([0.0, 0.25, 0.5, 0.75, 0.9, 0.99])
TOL_FP = 1e-8


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def reference_sweep():
    return sweep_theta(REFERENCE, FRACTIONS, DISC)


@pytest.fixture(scope="module")
def frozen_reference(reference_sweep):
    """The sweep's shared mode set, sized by every point, with the theta = 0 solve."""
    res0 = reference_sweep.results[0]
    return res0.mode_set, res0


def test_criterion_1_fixed_point_certificate(reference_sweep):
    rows = {
        frac: res
        for frac, res in zip(FRACTIONS, reference_sweep.results)
        if frac in (0.0, 0.5)
    }
    details = []
    ok = True
    for frac, res in rows.items():
        bound = TOL_FP * max(1.0, res.lam**2)
        ok &= res.fixed_point_residual <= bound
        details.append(
            f"theta/theta_c={frac}: lambda={res.lam:.8f}, "
            f"|lambda^2 - alpha| = {res.fixed_point_residual:.2e} <= {bound:.2e}"
        )
    report("criterion 1: fixed-point certificate", ok, "; ".join(details))


def richardson_lambda(lam_coarse: float, lam_fine: float, order: int = 4) -> float:
    """Richardson extrapolation over N and 2N."""
    weight = 2.0**order
    return (weight * lam_fine - lam_coarse) / (weight - 1.0)


def test_richardson_formula():
    # synthetic fourth-order sequence: exact value recovered
    exact = 2.0
    coarse = exact - 16.0e-4
    fine = exact - 1.0e-4
    assert richardson_lambda(coarse, fine, order=4) == pytest.approx(exact, abs=1e-12)


def test_criterion_2_oracle_equivalence():
    theta_c = theta_critical(REFERENCE)
    ks = (1.0, math.sqrt(2.0), 2.0)
    ok = True
    worst_raw = 0.0
    worst_rich = 0.0
    stable_pairs = 0
    for theta in (0.0, 0.5 * theta_c):
        cfg = REFERENCE.with_theta(theta)
        scan_max = 1.05 * upper_bound_m(cfg)
        for k in ks:
            g128 = solve_mode_lambda(cfg, k, Discretization(128))
            root = dispersion_root(k, cfg, scan_max)
            if g128 is None or root is None:
                ok &= g128 is None and root is None
                stable_pairs += 1
                continue
            rel = abs(g128.lam - root) / root
            worst_raw = max(worst_raw, rel)
            ok &= rel <= 5e-5
            g256 = solve_mode_lambda(cfg, k, Discretization(256))
            rich = richardson_lambda(g128.lam, g256.lam)
            rel_rich = abs(rich - root) / root
            worst_rich = max(worst_rich, rel_rich)
            ok &= rel_rich <= 1e-6
    report(
        "criterion 2: oracle equivalence",
        ok,
        f"worst rel diff {worst_raw:.2e} (<= 5e-5) at N=128, "
        f"{worst_rich:.2e} (<= 1e-6) after Richardson over N={{128,256}}; "
        f"{stable_pairs} stable modes agreed as stable on both routes",
    )


def test_criterion_3_bound_reproduction(reference_sweep):
    lam = reference_sweep.lambdas
    m = reference_sweep.bounds_m
    ok = bool(np.all(lam <= m * (1.0 + 1e-6)))
    m0 = upper_bound_m(REFERENCE)
    hand = min(24.5, (4.0 * (9.8 * 9.8) ** 2 / (9.8**2 * 0.2)) ** (1.0 / 3.0))
    ok &= abs(m0 - hand) <= 1e-12 * hand
    ok &= abs(m0 - 12.4336) <= 1e-3 * 12.4336  # value quoted to ~4 digits
    ok &= m0 <= wang_tice_bound(REFERENCE) == pytest.approx(24.5)
    report(
        "criterion 3: bound reproduction",
        ok,
        f"lambda <= m at all {lam.size} sweep points; m(0) = {m0:.6f} "
        f"(hand: min(24.5, 1920.8^(1/3)) = {hand:.6f}) <= 24.5",
    )


def test_criterion_4_monotonicity_suites(frozen_reference, reference_sweep):
    fm, res0 = frozen_reference
    s_grid = np.geomspace(0.3 * res0.lam, 2.2 * res0.lam, 10)
    curve = alpha_curve(REFERENCE, s_grid, DISC, frozen=fm)
    alpha_ok = bool(np.all(np.diff(curve_alphas(curve)) < 0.0))

    sweep_ok = bool(np.all(np.diff(reference_sweep.lambdas) < 0.0))

    # Lambda(theta0 - delta) > Lambda(theta0) > Lambda(theta0 + delta) for
    # theta0 = theta_c / 2; sweep_theta raises unless the chain decreases.
    bracket = 0.5 + np.array([-1e-2, -1e-3, 0.0, 1e-3, 1e-2])
    cont = sweep_theta(REFERENCE, bracket, DISC).report()
    cont_ok = cont["strictly_decreasing"] and cont["bounded_by_m"]
    report(
        "criterion 4: monotonicity suites",
        alpha_ok and sweep_ok and cont_ok,
        f"alpha(s) strictly decreasing over 10-point grid: {alpha_ok}; "
        f"lambda strictly decreasing over theta sweep: {sweep_ok}; "
        f"ordering Lambda(theta0-delta) > Lambda(theta0) > Lambda(theta0+delta) "
        f"for delta in {{1e-2, 1e-3}} theta_c: {cont_ok}",
    )


def test_criterion_5_threshold_behavior(frozen_reference):
    fm, _ = frozen_reference
    theta_c = theta_critical(REFERENCE)
    stable_ok = True
    for factor in (1.0, 1.01, 2.0):
        try:
            solve_lambda(REFERENCE.with_theta(factor * theta_c), DISC, tol_fp=TOL_FP)
            stable_ok = False
        except StableRegime:
            pass
    res = solve_lambda(REFERENCE.with_theta(0.999 * theta_c), DISC, tol_fp=TOL_FP, frozen=fm)
    limit_ok = 0.0 < res.lam <= res.bound_m * (1.0 + 1e-6)
    report(
        "criterion 5: threshold behavior",
        stable_ok and limit_ok,
        f"StableRegime at {{1.0, 1.01, 2.0}} theta_c: {stable_ok}; "
        f"Lambda(0.999 theta_c) = {res.lam:.6e} <= m = {res.bound_m:.6e}",
    )


def test_criterion_6_threshold_ratio():
    ok = True
    details = []
    for L1, L2 in ((1.0, 1.0), (3.0, 1.0), (1.0, 2.0)):
        cfg = validate_config(
            FluidConfig(
                rho_plus=2.0, rho_minus=1.0, mu_plus=0.1, mu_minus=0.1,
                g=9.8, theta=1.0, L1=L1, L2=L2, h_plus=1.0, h_minus=1.0,
            )
        )
        _, ratio = threshold_test_profile(cfg)
        expected = max(L1**2, L2**2)
        ok &= abs(ratio - expected) <= 1e-12 * expected
        details.append(f"(L1,L2)=({L1},{L2}): ratio={ratio!r} vs {expected}")
    report("criterion 6: threshold ratio reproduction", ok, "; ".join(details))


def test_criterion_7_trace_inequality_suite():
    rng = np.random.default_rng(271828)
    worst = 0.0
    ok = True
    for _ in range(1000):
        profile = random_admissible_profile(rng, REFERENCE.h_minus, REFERENCE.h_plus)
        ratios = trace_ratios((0.5, 1.0, 2.0), profile, REFERENCE)
        worst = max(worst, ratios.max())
        ok &= bool(np.all(ratios <= TRACE_TOL))
    report(
        "criterion 7: trace inequalities",
        ok,
        f"1000 profiles x k in {{0.5, 1, 2}}: all hold, worst ratio {worst:.6f}",
    )


def test_criterion_8_discretization_soundness(frozen_reference, reference_sweep):
    alphas = []
    residual_ok = True
    for n in (8, 16, 32, 64, 128):
        forms = assemble(1.0, REFERENCE, Discretization(n))
        sol = largest_eigenpair(forms, 1.0)
        scale = abs(sol.alpha) + 1.0 * float(np.abs(bands(forms)[0][0]).max())
        residual_ok &= sol.residual <= 1e-9 * scale
        alphas.append(sol.alpha)
    monotone_ok = all(b >= a for a, b in zip(alphas, alphas[1:]))

    res128 = reference_sweep.results[0]
    res64 = solve_lambda(REFERENCE, Discretization(64), tol_fp=TOL_FP)
    assert res64.argmax_k == res128.argmax_k
    root = dispersion_root(res128.argmax_k, REFERENCE, 1.05 * upper_bound_m(REFERENCE))
    e64, e128 = (profile_error(r.eigenprofile, r.argmax_k, root, REFERENCE)[0] for r in (res64, res128))
    # fourth order: 7.9e-8 -> 5.0e-9 measured
    profile_ok = e128 < e64 / 8.0 and e128 < 1e-8
    report(
        "criterion 8: discretization soundness",
        monotone_ok and residual_ok and profile_ok,
        f"alpha(N) nondecreasing over N={{8..128}}: {monotone_ok}; eigen residual "
        f"scale-relative <= 1e-9: {residual_ok}; profile error against the exact "
        f"eigenprofile {e64:.3e} (N=64) -> {e128:.3e} (N=128) < 1e-8",
    )


def test_criterion_9_cli_determinism(tmp_path):
    config = tmp_path / "reference.json"
    config.write_text(config_json(REFERENCE))
    blobs = []
    for run in ("1", "2"):
        out = tmp_path / f"sweep-run{run}.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "rtgrowth.cli", "sweep-theta",
                "--config", str(config), "--resolution", "16", "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append(
            out.read_bytes() + (tmp_path / f"sweep-run{run}.csv.report.json").read_bytes()
        )
    ok = blobs[0] == blobs[1]
    report(
        "criterion 9: determinism",
        ok,
        f"sweep-theta outputs byte-identical across two fresh processes "
        f"({len(blobs[0])} bytes)",
    )
