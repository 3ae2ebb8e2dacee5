import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_solves, curve_alphas, fail_last_factorization, growth_max, hand_built_pencil
from rtgrowth import fixedpoint, oracle, pencil, spectrum
from rtgrowth.analysis import _sized_mode_set, sweep_theta
from rtgrowth.errors import SolverError, StableRegime
from rtgrowth.fixedpoint import GrowthResult, solve_lambda, solve_mode_lambda
from rtgrowth.model import FluidConfig, smallest_magnitude, theta_critical, upper_bound_m
from rtgrowth.oracle import compare_modes, dispersion_root, profile_error
from rtgrowth.pencil import Discretization, fixed_point
from rtgrowth.spectrum import FrozenModeSet, alpha_curve, size_mode_set

DISC = Discretization(8)
positive = st.floats(min_value=0.05, max_value=50.0, allow_nan=False)


def one_row_fixed_point(lam, z2, c):
    """Fixed point of the one-dof pencil B = 1/z2, A = lam/z2, surface c.

    Its one eigenvalue of (A, B) is lam with squared interface weight z2, so
    alpha(s) = c z2 - lam s.
    """
    forms = hand_built_pencil([[lam / z2], [0], [0], [0]], [[1.0 / z2], [0], [0], [0]], e0_index=0, c_k=c)
    return fixed_point(forms, 2.0 * math.sqrt(max(c, 0.0) * z2)).lam


def test_constant_alpha_mock():
    # a one-row pencil with lam = 0 has alpha(s) = c z^2 for every s:
    # the fixed point is exactly sqrt(c z^2)
    assert one_row_fixed_point(0.0, 0.5, 2.0 * 1.7**2) == pytest.approx(1.7, rel=1e-13)


def test_affine_alpha_mock():
    # a one-row pencil has alpha(s) = c z^2 - lam s, so
    # Lambda = (-lam + sqrt(lam^2 + 4 c z^2)) / 2
    for lam, z2, c in ((0.8, 1.0, 5.0), (300.0, 0.02, 9.8), (1e-3, 4.0, 0.25)):
        expected = (-lam + math.sqrt(lam * lam + 4.0 * c * z2)) / 2.0
        assert one_row_fixed_point(lam, z2, c) == pytest.approx(expected, rel=1e-12)
    # no positive fixed point without a positive surface coefficient
    for c in (-5.0, 0.0):
        with pytest.raises(ValueError):
            one_row_fixed_point(0.8, 1.0, c)


def test_mode_lambda_increases_with_resolution(reference_config):
    # nested Hermite spaces make the discrete Lambda_k a monotone lower bound;
    # the increments are 2e-6, 1.4e-7 and 8.7e-9 relative, far above the
    # rounding of the banded Newton solve, up to N = 256
    lams = [solve_mode_lambda(reference_config, 5.0, Discretization(n)).lam for n in (32, 64, 128, 256)]
    assert all(b > a for a, b in zip(lams, lams[1:]))
    # the dense-eigendecomposition values at N = 64 and 128
    assert lams[1] == pytest.approx(2.438173611571787, rel=1e-9)
    assert lams[2] == pytest.approx(2.4381739516695293, rel=1e-9)


@pytest.mark.parametrize("mu", [0.1, 0.01])
@pytest.mark.parametrize("fraction", [0.9, 0.99, 0.999])
def test_lambda_increases_with_resolution_near_theta_c(reference_config, fraction, mu):
    # nested Hermite spaces make Lambda_N nondecreasing in N. On values
    # rounded to float64 the N = 128 value lay below the N = 64 one near
    # theta_c (0.24048990764 < 0.24048990807 at 0.9 theta_c, mu = 0.1), by
    # more than the refined solve's own rounding
    base = replace(reference_config, mu_plus=mu, mu_minus=mu)
    cfg = base.with_theta(fraction * theta_critical(base))
    lams = [solve_lambda(cfg, Discretization(n)).lam for n in (32, 64, 128)]
    assert lams[0] < lams[1] < lams[2]


@settings(max_examples=25, deadline=None)
@given(
    st.tuples(positive, positive, positive, positive, positive),
    st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.floats(0.2, 5.0)),
    st.floats(min_value=0.0, max_value=0.95),
)
def test_max_mode_lambda_is_the_root_of_alpha_minus_s2(physics, geometry, fraction):
    # The two scans of one frozen set agree: the growth scan's maximum is the
    # root of alpha(s) - s^2, bisected with the alpha scan.
    rho_minus, jump, mu_plus, mu_minus, g = physics
    L1, L2, h_plus, h_minus = geometry
    cfg = FluidConfig(
        rho_plus=rho_minus + jump, rho_minus=rho_minus, mu_plus=mu_plus,
        mu_minus=mu_minus, g=g, theta=0.0, L1=L1, L2=L2, h_plus=h_plus, h_minus=h_minus,
    )
    theta = fraction * theta_critical(cfg)
    fm = FrozenModeSet.freeze(cfg, DISC, 4.0 * smallest_magnitude(cfg))

    def f(s):
        return fm.alpha_value(s, theta).alpha - s * s

    m = upper_bound_m(cfg.with_theta(theta))
    lo, hi = m, 2.0 * m
    assert f(hi) < 0.0
    while f(lo) <= 0.0:
        lo *= 0.5
    while hi - lo > 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    lam = growth_max(fm, theta).lam
    assert abs(lam - lo) <= 1e-8 * max(1.0, lam)


def test_solve_lambda_contract(cheap_config):
    result = solve_lambda(cheap_config, DISC)
    m = upper_bound_m(cheap_config)
    assert 0.0 < result.lam <= m * (1.0 + 1e-6)
    assert result.fixed_point_residual <= 1e-8 * max(1.0, result.lam**2)
    assert result.fixed_point.alpha == pytest.approx(result.lam**2, rel=1e-7)
    assert result.eigenprofile.interface_value > 0.0
    assert np.max(np.abs(result.eigenprofile.psi_derivs)) > 0.0
    assert result.bound_m == pytest.approx(m)


def test_solve_lambda_deterministic(cheap_config):
    r1 = solve_lambda(cheap_config, DISC)
    r2 = solve_lambda(cheap_config, DISC)
    assert r1.lam == r2.lam
    assert r1.argmax_k == r2.argmax_k
    assert np.array_equal(r1.eigenprofile.psi_values, r2.eigenprofile.psi_values)


def test_solve_lambda_stable_regime(cheap_config):
    theta_c = theta_critical(cheap_config)
    for theta in (theta_c, 1.01 * theta_c, 2.0 * theta_c):
        with pytest.raises(StableRegime):
            solve_lambda(cheap_config.with_theta(theta), DISC)


def test_solve_lambda_json_fields(cheap_config):
    result = solve_lambda(cheap_config, DISC)
    payload = json.loads(json.dumps(result.to_json_dict()))
    assert set(payload) == {
        "lambda", "argmax_k", "fixed_point_residual", "bound_m", "bound_compliance",
        "theta", "resolution", "branch",
    }
    assert payload["lambda"] == result.lam
    assert payload["resolution"] == 8
    assert payload["branch"] == "longitudinal"


def test_mode_solve_matches_global_at_argmax(cheap_config):
    result = solve_lambda(cheap_config, DISC)
    per_mode = solve_mode_lambda(cheap_config, result.argmax_k, DISC)
    # one per-mode solve serves both: same start, same Newton steps, same bits
    assert per_mode.lam == result.lam
    assert per_mode.alpha == result.fixed_point.alpha
    assert np.array_equal(per_mode.vector, result.fixed_point.vector)


def test_profile_is_built_only_when_read(cheap_config, monkeypatch):
    # compare_modes and a solve on a frozen set read Lambda and the
    # eigenvector, never the profile; reading eigenprofile builds it once
    fm = FrozenModeSet.freeze(cheap_config, DISC, smallest_magnitude(cheap_config))
    size_mode_set(fm, 0.0)
    built = []
    real = pencil.coeffs_to_profile

    def spy(x, forms):
        built.append(forms.k)
        return real(x, forms)

    for module in (pencil, fixedpoint, spectrum, oracle):
        if hasattr(module, "coeffs_to_profile"):
            monkeypatch.setattr(module, "coeffs_to_profile", spy)
    result = solve_lambda(cheap_config, DISC, frozen=fm)
    rows = compare_modes(cheap_config, [1.0, result.argmax_k], DISC)
    assert rows[1].lambda_variational == result.lam
    assert built == []
    profile = result.eigenprofile
    assert result.eigenprofile is profile
    assert built == [result.argmax_k]
    assert profile.interface_value == result.fixed_point.vector[result.fixed_point.forms.e0_index]


def test_mode_solve_stable_mode(cheap_config):
    theta = 0.9 * theta_critical(cheap_config)
    cfg = cheap_config.with_theta(theta)
    # k = 2: c_k = g*drho - theta*4 < 0 for theta = 8.82
    assert solve_mode_lambda(cfg, 2.0, DISC) is None


def test_mode_solve_names_a_bound_rounded_to_0(cheap_config):
    # mu = 1e300 underflows C_k^2 (numpy divides by the zero), so r_k rounds
    # to 0 and Newton has no start
    cfg = replace(cheap_config, mu_plus=1e300, mu_minus=1e300)
    with np.errstate(divide="ignore"), pytest.raises(SolverError, match="has its bound r_k rounded to 0"):
        solve_mode_lambda(cfg, 1.0, DISC)


def exact_profile_error(result, cfg):
    """profile_error of a growth result's eigenprofile at its mode's exact root."""
    root = dispersion_root(result.argmax_k, cfg, 1.05 * upper_bound_m(cfg))
    return profile_error(result.eigenprofile, result.argmax_k, root, cfg)


def test_profile_error_decreases(cheap_config):
    # nodal values and slopes of the eigenprofile converge at fourth order
    # (measured ratios 14.5 and 17.3 from N = 8 to 16)
    e8 = exact_profile_error(solve_lambda(cheap_config, Discretization(8)), cheap_config)
    e16 = exact_profile_error(solve_lambda(cheap_config, Discretization(16)), cheap_config)
    assert e16[0] < e8[0] / 8.0 and e16[1] < e8[1] / 8.0


def test_no_dense_eigensolve(cheap_config, monkeypatch):
    # every solver path runs on banded factorizations: with the dense
    # eigensolvers made to raise, all of them still return
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolve on a solver path")

    for module in (sla, np.linalg):
        monkeypatch.setattr(module, "eigh", refuse)
        monkeypatch.setattr(module, "eigvalsh", refuse)
    cfg = cheap_config
    assert solve_lambda(cfg, DISC).lam > 0.0
    assert sweep_theta(cfg, [0.0, 0.5], DISC).lambdas[1] > 0.0
    assert curve_alphas(alpha_curve(cfg, [0.5, 1.0], DISC))[0] > 0.0
    assert solve_mode_lambda(cfg, 1.0, DISC).lam > 0.0
    assert compare_modes(cfg, [1.0], DISC)[0].lambda_variational > 0.0


def test_fixed_point_path_is_banded(cheap_config, monkeypatch):
    # no dense Cholesky runs and no dense matrix is built: the fixed point
    # and the profile use the bands, and the exact profile needs none
    cfg = cheap_config.with_theta(0.3 * theta_critical(cheap_config))
    fm = FrozenModeSet.freeze(cfg, DISC, smallest_magnitude(cfg))
    size_mode_set(fm, cfg.theta)

    def refuse(*args, **kwargs):
        raise AssertionError("dense solve on a banded path")

    monkeypatch.setattr(sla, "cho_factor", refuse)
    monkeypatch.setattr(sla, "cho_solve", refuse)
    per_mode = solve_mode_lambda(cfg, 1.0, DISC)
    assert per_mode is not None and per_mode.lam > 0.0
    result = solve_lambda(cfg, DISC, frozen=fm)
    assert result.lam > 0.0
    assert 0.0 < exact_profile_error(result, cfg)[0] < 1e-4


def test_sweep_point_on_a_locked_set_refines_only_once(cheap_config, monkeypatch):
    # a theta point on a set sized at theta = 0 (its compliances cached)
    # solves one fixed point: at most two banded factorizations and one
    # extended-precision residual, the last Newton step taking the factor
    # and residual already held (the all-refined loop took four and four)
    disc = Discretization(128)
    fm, _ = _sized_mode_set(cheap_config, disc)
    theta_c = theta_critical(cheap_config)
    factored, refined = count_solves(monkeypatch)
    for f in (0.05, 0.3, 0.6, 0.9):
        factored.clear()
        refined.clear()
        solve_lambda(cheap_config.with_theta(f * theta_c), disc, frozen=fm)
        assert len(factored) <= 2 and len(refined) == 1, f


def test_failed_last_factorization_surfaces_where_the_last_solve_is_read(cheap_config, monkeypatch):
    # a growth solve reads its maximizer's last solve (validate), so a failed
    # last factorization raises there; a compare_modes row reads only lam,
    # fixed before that solve, and keeps its bits
    disc = Discretization(16)
    ks = [1.0, math.sqrt(2.0), 2.0]
    rows = compare_modes(cheap_config, ks, disc)
    fail_last_factorization(monkeypatch)
    with pytest.raises(SolverError, match="banded Cholesky factorization"):
        solve_lambda(cheap_config, disc)
    assert compare_modes(cheap_config, ks, disc) == rows


def test_handed_in_set_must_serve_the_config_and_resolution(reference_config, cheap_config):
    # a set built for another config or resolution would solve another
    # problem; only theta may differ, since one set serves a whole sweep
    disc = Discretization(16)
    fm = FrozenModeSet.freeze(reference_config, disc, smallest_magnitude(reference_config))
    size_mode_set(fm, 0.0)
    with pytest.raises(ValueError):
        solve_lambda(cheap_config, disc, frozen=fm)
    with pytest.raises(ValueError):
        solve_lambda(reference_config, Discretization(32), frozen=fm)
    with pytest.raises(ValueError):
        alpha_curve(cheap_config, [0.5, 1.0], disc, frozen=fm)
    with pytest.raises(ValueError):
        alpha_curve(reference_config, [0.5, 1.0], Discretization(32), frozen=fm)
    theta = 0.3 * theta_critical(reference_config)
    result = solve_lambda(reference_config.with_theta(theta), disc, frozen=fm)
    assert result.lam == solve_lambda(reference_config.with_theta(theta), disc).lam
    assert result.resolution == 16


def test_growth_bounds_assemble_and_factor_nothing(reference_config, monkeypatch):
    # the compliance bound of every mode comes from the closed-form
    # compliances, so bounding a mode builds and factors no matrix
    fm = FrozenModeSet.freeze(reference_config, Discretization(64), 6.0)

    def refuse(*args, **kwargs):
        raise AssertionError("a matrix was built or factored to bound a mode")

    monkeypatch.setattr(spectrum, "assemble", refuse)
    monkeypatch.setattr(pencil.lapack, "dpbtrf", refuse)
    bounds = fm.growth_bounds(0.0)
    assert bounds.shape == (len(fm.modes),) and np.all(bounds > 0.0)


def test_growth_solves_at_n128_next_to_theta_c(reference_config, cheap_config, contrast_config):
    # the Galerkin Lambda stays below the bound on the exact Lambda that
    # validation checks it against (smallest slack measured: 8e-9 relative,
    # contrast); past N = 128 Galerkin rounding can lift it above (CHANGES.md)
    disc = Discretization(128)
    for cfg in (reference_config, cheap_config, contrast_config):
        result = solve_lambda(cfg.with_theta(0.99999 * theta_critical(cfg)), disc)
        assert 0.0 < result.lam <= result.bound_compliance


def stub_result(lam=1.0, bound_m=2.0, bound_compliance=1.5, residual=0.0, alpha=1.0, vector=(0.5, 1.0, 0.25, 0.0)):
    """A GrowthResult around a stub fixed point: interface value dof 2,
    slopes at the odd dofs, tol_fp 1e-8; the defaults validate."""
    forms = SimpleNamespace(k=1.0, e0_index=2, elements_per_layer=8)
    fp = SimpleNamespace(lam=lam, forms=forms, residual=residual, alpha=alpha, vector=np.asarray(vector))
    return GrowthResult(fp, bound_m, bound_compliance, theta=0.0, tol_fp=1e-8, mode_set=None)


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"lam": 0.0}, "growth rate 0.0 escapes (0, m] with m = 2.0"),
        ({"lam": 2.5, "bound_compliance": 3.0}, "growth rate 2.5 escapes (0, m] with m = 2.0"),
        ({"lam": 1.6}, "growth rate 1.6 exceeds the compliance bound 1.5"),
        ({"residual": 2e-8}, "fixed-point residual 2e-08 exceeds tolerance"),
        ({"alpha": 0.0}, "alpha at the fixed point must be positive"),
        ({"vector": (0.5, 1.0, 0.0, 0.5)}, "eigenprofile has vanishing interface value"),
        ({"vector": (0.5, 0.0, 0.25, -0.0)}, "eigenprofile has identically zero derivative"),
    ],
)
def test_growth_result_validate_rejects(fields, message):
    with pytest.raises(SolverError) as info:
        stub_result(**fields).validate()
    assert str(info.value) == message


def test_invalid_tolerance(cheap_config):
    with pytest.raises(ValueError):
        solve_lambda(cheap_config, DISC, tol_fp=0.0)
