import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from conftest import (
    all_refined_fixed_point,
    box_config,
    cli_output,
    config_json,
    dispersion_function,
    exact_impedance,
    galerkin_compliances,
    galerkin_impedance,
    interface_solve,
)

from rtgrowth import cli, fixedpoint, oracle, pencil, spectrum
from rtgrowth.errors import ConfigError, SolverError
from rtgrowth.fixedpoint import solve_mode_lambda
from rtgrowth.model import FluidConfig, surface_coefficient, theta_critical, upper_bound_m
from rtgrowth.modeforms import (
    ExactMode,
    _layer,
    _layer_constants,
    compliances,
    uniform_layered_grid,
)
from rtgrowth.oracle import (
    compare_modes,
    determinant,
    dispersion_profile,
    dispersion_root,
    profile_error,
)
from rtgrowth.pencil import Discretization

# Strong density and viscosity contrast with thin layers.
CONTRAST = FluidConfig(
    rho_plus=5.2, rho_minus=0.2, mu_plus=0.1, mu_minus=5.0, g=20.0,
    theta=0.0, L1=2.0, L2=2.0, h_plus=0.3, h_minus=0.3,
)
REFERENCE_KS = (1.0, math.sqrt(2.0), 2.0, math.sqrt(5.0), 5.0, math.sqrt(50.0), 13.0, 20.0)
CONTRAST_KS = (0.5, 1.0, 3.0, 7.0)
# verify's oracle tolerance at N >= 128
ORACLE_TOL = 5e-5


def _scan_grid(scan_max, n_points=240):
    return np.geomspace(scan_max * 1e-9, scan_max, n_points)


def _root_cases(reference_config):
    return [(reference_config, k) for k in REFERENCE_KS] + [(CONTRAST, k) for k in CONTRAST_KS]


def _lattice_magnitudes(k_max):
    squares = {i * i + j * j for i in range(int(k_max) + 1) for j in range(int(k_max) + 1)}
    return [math.sqrt(q) for q in sorted(squares) if 0 < q <= k_max * k_max]


def _bisection_root(k, cfg, scan_max):
    """Largest root by bisecting every sign change of a 240-point scan to 1e-12 relative."""
    grid = _scan_grid(scan_max)
    values = [dispersion_function(k, n, cfg) for n in grid]
    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
        if fa == 0.0:
            roots.append(a)
        elif np.sign(fa) != np.sign(fb):
            lo, hi, f_lo = a, b, fa
            while hi - lo > 1e-12 * hi:
                mid = 0.5 * (lo + hi)
                f_mid = dispersion_function(k, mid, cfg)
                if f_mid == 0.0:
                    lo = hi = mid
                elif np.sign(f_mid) == np.sign(f_lo):
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
    if values[-1] == 0.0:
        roots.append(grid[-1])
    return max(roots) if roots else None


def _dense_condition_matrix(k, n, cfg):
    """The 8x8 system over both layers' four basis functions, not condensed.

    Each layer in its distance z from the interface, with the basis e^(-k z),
    e^(-k (h - z)), u(z) = (e^(-q z) - e^(-k z)) / (q - k) and u(h - z),
    differentiated directly; the lower layer has d/dy = -d/dz.
    """

    def jets(rho, mu, h):
        q = math.sqrt(k * k + n * rho / mu)

        def u(j, z):
            return ((-q) ** j * math.exp(-q * z) - (-k) ** j * math.exp(-k * z)) / (q - k)

        def at(z):
            return np.array([
                [(-k) ** j * math.exp(-k * z), k**j * math.exp(-k * (h - z)), u(j, z), (-1) ** j * u(j, h - z)]
                for j in range(4)
            ])

        return at(0.0), at(h)

    up0, up_wall = jets(cfg.rho_plus, cfg.mu_plus, cfg.h_plus)
    lo0, lo_wall = jets(cfg.rho_minus, cfg.mu_minus, cfg.h_minus)
    sign = np.array([1.0, -1.0, 1.0, -1.0])[:, None]  # y-derivatives of the lower layer
    lo0 = sign * lo0
    k2 = k * k

    def normal(rho, mu, d):
        return mu * (d[3] - 3.0 * k2 * d[1]) - n * rho * d[1]

    M = np.zeros((8, 8))
    M[0, :4], M[1, :4] = up_wall[0], up_wall[1]
    M[2, 4:], M[3, 4:] = lo_wall[0], lo_wall[1]
    M[4, :4], M[4, 4:] = up0[0], -lo0[0]
    M[5, :4], M[5, 4:] = up0[1], -lo0[1]
    M[6, :4] = cfg.mu_plus * (up0[2] + k2 * up0[0])
    M[6, 4:] = -cfg.mu_minus * (lo0[2] + k2 * lo0[0])
    M[7, :4] = normal(cfg.rho_plus, cfg.mu_plus, up0) - (k2 / n) * surface_coefficient(k, cfg) * up0[0]
    M[7, 4:] = -normal(cfg.rho_minus, cfg.mu_minus, lo0)
    return M / np.abs(M).max(axis=0)


def _nested_layer_basis(k, n, rho, mu, h):
    """(q, q - k, E, U, W, a0, a1, a2, a3, b0, b1, b2, b3) of one layer: with
    the _nested_ functions below, the exact side as a chain of calls that each
    form every k-only factor afresh, the bit-for-bit reference for
    modeforms.ExactMode and modeforms._layer."""
    k2 = k * k
    q2 = k2 + n * rho / mu
    q = math.sqrt(q2)
    dq = n * rho / mu / (q + k)
    x = dq * h
    E = math.exp(-k * h)
    U = E * h * (math.expm1(-x) / x if x else -1.0)
    W = (q + k) * U + E
    m0, m1 = U, q * U + E
    m2, m3 = q2 * U + (q + k) * E, q2 * q * U + (q2 + q * k + k2) * E
    one_minus_ee, one_plus_ee = -math.expm1(-2.0 * k * h), 1.0 + E * E
    two_k_e, ue = 2.0 * k * E, U * E
    a0, a1 = one_minus_ee + two_k_e * m0, -k * one_plus_ee + two_k_e * m1
    a2, a3 = k2 * one_minus_ee + two_k_e * m2, -k2 * k * one_plus_ee + two_k_e * m3
    b0, b1 = -ue + W * m0, -1.0 - k * ue + W * m1
    b2, b3 = (q + k) - k2 * ue + W * m2, -(q2 + q * k + k2) - k2 * k * ue + W * m3
    return q, dq, E, U, W, a0, a1, a2, a3, b0, b1, b2, b3


def _nested_traction(k, n, rho, mu, h):
    k2 = k * k
    a0, a1, a2, a3, b0, b1, b2, b3 = _nested_layer_basis(k, n, rho, mu, h)[5:]
    na = mu * (a3 - 3.0 * k2 * a1) - n * rho * a1
    nb = mu * (b3 - 3.0 * k2 * b1) - n * rho * b1
    ta, tb = mu * (a2 + k2 * a0), mu * (b2 + k2 * b0)
    det = a0 * b1 - a1 * b0
    return (na * b1 - nb * a1) / det, (nb * a0 - na * b0) / det, (ta * b1 - tb * a1) / det, (tb * a0 - ta * b0) / det


def _nested_interface_map(k, n, cfg):
    up = _nested_traction(k, n, cfg.rho_plus, cfg.mu_plus, cfg.h_plus)
    lo = _nested_traction(k, n, cfg.rho_minus, cfg.mu_minus, cfg.h_minus)
    return up[0] + lo[0], up[1] - lo[1], up[2] - lo[2], up[3] + lo[3]


def _nested_layer(k, n, rho, mu, h):
    """modeforms._layer on the nested chain."""
    q, dq, E, U, W, a0, a1, _, _, b0, b1, _, _ = _nested_layer_basis(k, n, rho, mu, h)
    return (*_nested_traction(k, n, rho, mu, h), q, dq, E, h, U, W, a0, a1, b0, b1, a0 * b1 - a1 * b0)


def _nested_condensed_traction(k, n, cfg):
    d00, d01, d10, d11 = _nested_interface_map(k, n, cfg)
    return d00 - d01 * d10 / d11


def _nested_profile(k, lam, cfg, grid):
    """(psi, psi') of dispersion_profile on the nested chain."""
    _, _, d10, d11 = _nested_interface_map(k, lam, cfg)
    b = -d10 / d11
    psi, dpsi = [], []
    layers = ((-1.0, cfg.rho_minus, cfg.mu_minus, cfg.h_minus), (1.0, cfg.rho_plus, cfg.mu_plus, cfg.h_plus))
    for sign, rho, mu, h in layers:
        z = sign * grid[(grid >= 0.0) == (sign > 0.0)]
        q, dq, E, U, W, a0, a1, _, _, b0, b1, _, _ = _nested_layer_basis(k, lam, rho, mu, h)
        det = a0 * b1 - a1 * b0
        c1, c3 = (b1 - b0 * sign * b) / det, (a0 * sign * b - a1) / det
        near, far = np.exp(-k * z), np.exp(-k * (h - z))
        u_near, u_far = near * np.expm1(-dq * z) / dq, far * np.expm1(-dq * (h - z)) / dq
        du_far = q * u_far + far
        psi.append(c1 * (near - E * far + 2.0 * k * E * u_far) + c3 * (u_near - U * far + W * u_far))
        v1_z, v3_z = k * (2.0 * E * du_far - near - E * far), W * du_far - q * u_near - near - k * U * far
        dpsi.append(sign * (c1 * v1_z + c3 * v3_z))
    return np.concatenate(psi), np.concatenate(dpsi)


def _bits(f, *args):
    """The bytes of f(*args) as float64s, or the name of what it raised."""
    try:
        return np.asarray(f(*args), dtype=float).tobytes()
    except (ArithmeticError, SolverError) as error:
        return type(error).__name__


# the config box at its corners and centre, the contrast config, and thin
# and thick layers; k h = 0.05 on the unit layers, 0.015 on the contrast ones
EXACT_CONFIGS = [
    box_config(nu_plus, nu_minus, fraction)
    for nu_plus in (-4.0, -1.0, 1.5) for nu_minus in (-4.0, -1.0, 1.5) for fraction in (0.0, 0.9)
] + [CONTRAST, dataclasses.replace(CONTRAST, h_plus=20.0, h_minus=0.05)]
# 0 takes the x == 0 branch, 5e-324 too (q - k underflows); past 1e200 the
# rate overflows q^3 and the map is not finite
EXACT_RATES = (0.0, 5e-324, 1e-12, 1e-3, 0.7, 2.4, 40.0, 1e6, 1e200, 1e250, 3e250)


@pytest.mark.parametrize("k", [0.05, 1.0, math.sqrt(5.0), 20.0, 800.0])
def test_exact_mode_keeps_the_bits_of_the_nested_chain(k):
    # ExactMode forms the k-only factors once and each layer in one pass;
    # every value it returns, finite or not, has the chain's bits, and what
    # the chain raised it raises
    for cfg in EXACT_CONFIGS:
        mode = ExactMode(k, cfg)
        for n in EXACT_RATES:
            assert _bits(mode.traction, n) == _bits(_nested_condensed_traction, k, n, cfg), (cfg, n)
            for constants, layer in ((mode.upper, (cfg.rho_plus, cfg.mu_plus, cfg.h_plus)),
                                     (mode.lower, (cfg.rho_minus, cfg.mu_minus, cfg.h_minus))):
                assert _bits(_layer, n, constants) == _bits(_nested_layer, k, n, *layer), (cfg, n)
            if n > 0.0:
                nested = n * _nested_condensed_traction(k, n, cfg) - k * k * surface_coefficient(k, cfg)
                got = _bits(determinant, mode, n)
                assert got == (_bits(lambda: nested) if math.isfinite(nested) else "SolverError")


PER_MODE_ENTRIES = {
    "assemble": lambda k, cfg, disc: pencil.assemble(k, cfg, disc),
    "ExactMode": lambda k, cfg, disc: ExactMode(k, cfg),
    "transverse_min_eigenvalue": lambda k, cfg, disc: pencil.transverse_min_eigenvalue(k, cfg),
    "solve_mode_lambda": lambda k, cfg, disc: solve_mode_lambda(cfg, k, disc),
    "dispersion_root": lambda k, cfg, disc: dispersion_root(k, cfg, 1.05 * upper_bound_m(cfg)),
    "compare_modes": lambda k, cfg, disc: oracle.compare_modes(cfg, [k], disc),
}


@pytest.mark.parametrize("k", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", PER_MODE_ENTRIES)
def test_per_mode_entries_reject_k_outside_zero_to_inf(reference_config, entry, k):
    # the three guards (assemble, ExactMode, transverse_min_eigenvalue) own
    # the rule 0 < k < inf: a bad k is a bad argument (exit 2), never a NaN
    # or inf result nor a numerical failure further in
    with pytest.raises(ConfigError, match=r"needs k > 0 and finite, got"):
        PER_MODE_ENTRIES[entry](k, reference_config, pencil.Discretization(8))


def test_exact_side_needs_a_positive_wavenumber(reference_config):
    for k in (0.0, -1.0):
        with pytest.raises(SolverError, match="the exact side needs k > 0"):
            ExactMode(k, reference_config)
        with pytest.raises(SolverError, match="the exact side needs k > 0"):
            dispersion_root(k, reference_config, 1.05 * upper_bound_m(reference_config))


def test_dispersion_profile_keeps_the_bits_of_the_nested_chain(reference_config):
    for cfg, k in _root_cases(reference_config) + [(CONTRAST, 0.05 / 0.3), (EXACT_CONFIGS[0], 800.0)]:
        scan_max = 1.05 * upper_bound_m(cfg)
        for n_per_layer in (8, 64):
            grid = uniform_layered_grid(cfg.h_minus, cfg.h_plus, n_per_layer)
            for lam in (dispersion_root(k, cfg, scan_max), 0.5 * scan_max):
                profile = dispersion_profile(k, lam, cfg, grid)
                psi, dpsi = _nested_profile(k, lam, cfg, grid)
                assert profile.psi_values.tobytes() == psi.tobytes()
                assert profile.psi_derivs.tobytes() == dpsi.tobytes()


def test_system_structure(reference_config):
    # each layer's traction map is the gradient of a positive quadratic form
    # (n / k^2) [[G00, G01], [-G10, -G11]] in the interface data
    for k, n, rho, mu, h in ((1.0, 0.7, 2.0, 0.1, 1.0), (5.0, 2.0, 1.0, 0.1, 1.0),
                             (0.5, 1e-6, 5.2, 0.1, 0.3), (40.0, 3.0, 0.2, 5.0, 0.3)):
        g00, g01, g10, g11 = _layer(n, _layer_constants(k, rho, mu, h))[:4]
        assert g01 == pytest.approx(-g10, rel=1e-12)
        assert g00 > 0.0 and g11 < 0.0 and -g00 * g11 > g01 * g10
    # theta enters only through the surface term -k^2 c_k
    f0 = dispersion_function(2.0, 1.3, reference_config)
    f1 = dispersion_function(2.0, 1.3, reference_config.with_theta(0.5))
    assert isinstance(f0, float)
    assert f1 - f0 == pytest.approx(2.0**4 * 0.5, rel=1e-12)


def test_regularized_basis_small_n(reference_config):
    # q -> k as n -> 0: the combination basis must stay finite and smooth
    vals = [dispersion_function(1.0, n, reference_config) for n in (1e-10, 1e-9, 1e-8)]
    assert all(np.isfinite(v) for v in vals)
    assert np.sign(vals[0]) == np.sign(vals[1]) == np.sign(vals[2])


def test_determinant_overflow_guard(reference_config):
    # the anchored basis stays finite at k h = 800; a rate whose q^3
    # overflows gives a non-finite F_k, which raises
    assert math.isfinite(dispersion_function(800.0, 1.0, reference_config))
    with pytest.raises(SolverError, match="non-finite dispersion function at k=1.0, n=1e[+]?250"):
        dispersion_function(1.0, 1e250, reference_config)


def test_degenerate_messages_print_numpy_magnitudes_as_floats(reference_config):
    # the CLI hands compare_modes numpy magnitudes; at mu = 1e-300 the
    # determinant at k = 1 overflows, and its message read k=np.float64(1.0)
    cfg = dataclasses.replace(reference_config, mu_plus=1e-300, mu_minus=1e-300)
    with np.errstate(all="ignore"), pytest.raises(SolverError, match="non-finite dispersion function") as raised:
        compare_modes(cfg, np.array([1.0]), Discretization(8))
    assert str(raised.value).startswith("non-finite dispersion function at k=1.0, n=")
    assert "np." not in str(raised.value)


def test_determinant_is_the_condensed_galerkin_form(reference_config):
    # F_k(n) = k^2 (1 / (e0^T (n A + n^2 B)^(-1) e0) - c_k), the identity
    # behind its monotonicity; the N = 256 forms give it to about 1e-7
    disc = Discretization(256)
    for cfg, k, n in ((reference_config, 1.0, 0.7), (reference_config, 5.0, 2.0),
                      (CONTRAST, 0.5, 1.0), (CONTRAST, 3.0, 5.0)):
        forms = pencil.assemble(k, cfg, disc)
        x = interface_solve(forms, n, n * n)
        expected = k * k * (1.0 / x[forms.e0_index] - forms.c_k)
        assert dispersion_function(k, n, cfg) == pytest.approx(expected, rel=1e-6)


def test_condensed_root_matches_dense_system(reference_config):
    # bisection on the sign of the uncondensed 8x8 determinant finds F_k's root
    for cfg, k in _root_cases(reference_config) + [(reference_config, 40.0)]:
        root = dispersion_root(k, cfg, 1.05 * upper_bound_m(cfg))
        lo, hi = 0.5 * root, 1.5 * root
        s_lo = np.sign(np.linalg.det(_dense_condition_matrix(k, lo, cfg)))
        assert s_lo != np.sign(np.linalg.det(_dense_condition_matrix(k, hi, cfg)))
        while hi - lo > 1e-13 * hi:
            mid = 0.5 * (lo + hi)
            if np.sign(np.linalg.det(_dense_condition_matrix(k, mid, cfg))) == s_lo:
                lo = mid
            else:
                hi = mid
        assert root == pytest.approx(0.5 * (lo + hi), rel=1e-11)


def test_determinant_cofactor_identity(reference_config, rng):
    # the cofactor vector of rows 1..7 of the dense system spans their
    # nullspace, so for any candidate last row u: det([rows; u]) / (u . v) is
    # one fixed constant; and the normal-stress row on that vector, per unit
    # psi(0) (row 5's upper half) and times n, is the condensed F_k(n)
    for cfg, k, n in ((reference_config, 1.3, 0.8), (reference_config, 5.0, 2.0),
                      (CONTRAST, 0.5, 1.0), (CONTRAST, 3.0, 5.0)):
        M = _dense_condition_matrix(k, n, cfg)
        v = null_space(M[:7], rcond=1e-12)
        assert v.shape[1] == 1
        v = v[:, 0]
        ratio = np.linalg.det(M) / (M[7] @ v)
        for _ in range(5):
            u = rng.standard_normal(8)
            M2 = M.copy()
            M2[7] = u
            assert np.linalg.det(M2) / (u @ v) == pytest.approx(ratio, rel=1e-8)
        condensed = n * (M[7] @ v) / (M[4, :4] @ v[:4])
        assert condensed == pytest.approx(dispersion_function(k, n, cfg), rel=1e-8)


def test_root_matches_variational(reference_config):
    disc = Discretization(64)
    scan_max = 1.05 * upper_bound_m(reference_config)
    for k in (1.0, 2.0):
        growth = solve_mode_lambda(reference_config, k, disc)
        root = dispersion_root(k, reference_config, scan_max)
        assert root == pytest.approx(growth.lam, rel=1e-6)


def test_root_none_for_stable_mode(reference_config, monkeypatch):
    theta = 0.5 * theta_critical(reference_config)
    cfg = reference_config.with_theta(theta)
    # k = 2: c_k = 9.8 - 4.9 * 4 < 0, decided without evaluating F_k
    monkeypatch.setattr(oracle, "determinant", None)
    assert dispersion_root(2.0, cfg, 1.05 * upper_bound_m(cfg)) is None
    assert solve_mode_lambda(cfg, 2.0, Discretization(16)) is None


def test_root_decreases_with_theta(reference_config):
    k = 1.0
    theta_cut = 9.8 / k**2  # c_k = 0 exactly at this theta
    cfg_cut = reference_config.with_theta(theta_cut * 0.999)
    root0 = dispersion_root(k, reference_config, 1.05 * upper_bound_m(reference_config))
    root_cut = dispersion_root(k, cfg_cut, 1.05 * upper_bound_m(cfg_cut))
    if root_cut is not None:
        assert root_cut < root0


def test_dimensional_homogeneity(reference_config):
    # (rho, mu, theta) scaled together, g fixed: the reduced problem has the
    # same q's and the jump rows all pick up one common factor
    c = 3.7
    scaled = dataclasses.replace(
        reference_config.with_theta(2.0 * c),
        rho_plus=reference_config.rho_plus * c,
        rho_minus=reference_config.rho_minus * c,
        mu_plus=reference_config.mu_plus * c,
        mu_minus=reference_config.mu_minus * c,
    )
    base = reference_config.with_theta(2.0)
    r1 = dispersion_root(1.0, base, 1.05 * upper_bound_m(base))
    r2 = dispersion_root(1.0, scaled, 1.05 * upper_bound_m(scaled))
    assert r2 == pytest.approx(r1, rel=1e-9)


def test_scan_parity_stable_under_density(reference_config):
    # F_k changes sign exactly once on a log grid, however fine
    scan_max = 1.05 * upper_bound_m(reference_config)

    def sign_changes(n_points):
        values = np.array([dispersion_function(1.0, n, reference_config) for n in _scan_grid(scan_max, n_points)])
        return int(np.count_nonzero(np.sign(values[:-1]) != np.sign(values[1:])))

    assert sign_changes(240) == sign_changes(480) == 1


def test_root_matches_reference_bisection(reference_config):
    for cfg, k in _root_cases(reference_config):
        scan_max = 1.05 * upper_bound_m(cfg)
        expected = _bisection_root(k, cfg, scan_max)
        assert expected is not None
        assert dispersion_root(k, cfg, scan_max) == pytest.approx(expected, rel=2e-12, abs=0.0)


def _bracket_top(k, cfg, scan_max):
    """The upper end dispersion_root evaluates first: r_k (1 + 1e-9), or scan_max
    where that is not below it."""
    hi = spectrum.mode_compliance_bound(ExactMode(k, cfg)) * (1.0 + 1e-9)
    return hi if 0.0 < hi < scan_max else scan_max


def test_root_determinant_calls(reference_config, monkeypatch):
    # the left end F_k(0+) is closed-form: one call at the compliance end,
    # then the refinement
    calls = []

    def counting(mode, n):
        calls.append(n)
        return determinant(mode, n)

    monkeypatch.setattr(oracle, "determinant", counting)
    for cfg, k in _root_cases(reference_config):
        calls.clear()
        scan_max = 1.05 * upper_bound_m(cfg)
        assert dispersion_root(k, cfg, scan_max) is not None
        assert calls[0] == _bracket_top(k, cfg, scan_max) and all(type(n) is float for n in calls)
        assert scan_max not in calls
        assert len(calls) <= 20


def test_seeded_root_matches_reference_bisection(reference_config, monkeypatch):
    # where r_k is not below scan_max the bracket is [0, scan_max], and its
    # roots match the reference bisection as those of the compliance end do
    monkeypatch.setattr(oracle, "mode_compliance_bound", lambda mode: math.inf)
    for cfg, k in _root_cases(reference_config):
        scan_max = 1.05 * upper_bound_m(cfg)
        expected = _bisection_root(k, cfg, scan_max)
        assert dispersion_root(k, cfg, scan_max) == pytest.approx(expected, rel=2e-12, abs=0.0)


def test_root_above_the_compliance_end_is_found_by_the_fallback(reference_config, monkeypatch):
    # F_k < 0 at r_k (1 + 1e-9), as where a rounded r_k lies below a nearly
    # tight root: one more evaluation, at scan_max, and the bracket
    # [r_k (1 + 1e-9), scan_max] still holds the root
    scan_max = 1.05 * upper_bound_m(reference_config)
    top = _bracket_top(1.0, reference_config, scan_max)
    assert top < scan_max
    root = 0.5 * (top + scan_max)
    calls = []

    def linear(mode, n):
        calls.append(n)
        return n - root

    monkeypatch.setattr(oracle, "determinant", linear)
    assert dispersion_root(1.0, reference_config, scan_max) == pytest.approx(root, rel=1e-12)
    assert calls[:2] == [top, scan_max]


def test_galerkin_floor_above_the_root_still_compares():
    # at N = 128 the computed Lambda_k^N of this config is 9.7e-9 above the
    # root (CHANGES.md, FOUND; ROADMAP item 3): the row still holds the root,
    # well inside verify's tolerance
    cfg = box_config(-0.11075493, -2.70973775, 0.23154304)
    scan_max = 1.05 * upper_bound_m(cfg)
    (row,) = compare_modes(cfg, [1.0], Discretization(128))
    assert row.lambda_oracle == dispersion_root(1.0, cfg, scan_max)
    assert row.rel_diff <= ORACLE_TOL


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_oracle_root_takes_nothing_from_the_galerkin_solve(reference_config, monkeypatch, factor):
    # a Galerkin side off by a factor of 2 either way leaves every oracle
    # root bit for bit as it was, and shows in rel_diff
    disc = Discretization(32)
    ks = _lattice_magnitudes(5.0)
    rows = compare_modes(reference_config, ks, disc)
    real = oracle.fixed_point

    def scaled(forms, start):
        fp = real(forms, start)
        return dataclasses.replace(fp, lam=factor * fp.lam)

    monkeypatch.setattr(oracle, "fixed_point", scaled)
    off = compare_modes(reference_config, ks, disc)
    assert [r.lambda_oracle for r in off] == [r.lambda_oracle for r in rows]
    assert all(r.rel_diff >= 0.4 for r in off)


def test_empty_bracket_raises(reference_config, monkeypatch):
    # F_k(scan_max) <= 0 puts the root above the declared bound: an error,
    # not a widened search, after the compliance end and scan_max
    scan_max = 1.05 * upper_bound_m(reference_config)
    calls = []

    def beyond(mode, n):
        calls.append(n)
        return n - 2.0 * scan_max

    monkeypatch.setattr(oracle, "determinant", beyond)
    with pytest.raises(SolverError, match="no root of the dispersion relation"):
        dispersion_root(1.0, reference_config, scan_max)
    assert calls == [_bracket_top(1.0, reference_config, scan_max), scan_max]


def test_seeded_root_determinant_calls(reference_config, monkeypatch):
    # all 145 lattice magnitudes k <= 20 of the reference config: at most 10
    # evaluations of F_k per root, the compliance end first (6.9 on average)
    scan_max = 1.05 * upper_bound_m(reference_config)
    ks = _lattice_magnitudes(20.0)
    assert len(ks) == 145
    calls, counts = [], []

    def counting(mode, n):
        calls.append(n)
        return determinant(mode, n)

    monkeypatch.setattr(oracle, "determinant", counting)
    for k in ks:
        calls.clear()
        assert dispersion_root(k, reference_config, scan_max) is not None
        assert calls[0] == _bracket_top(k, reference_config, scan_max)
        counts.append(len(calls))
    assert max(counts) <= 10
    assert sum(counts) / len(counts) <= 7.2


def test_scan_overflow_raises(reference_config, monkeypatch):
    m = upper_bound_m(reference_config)
    # k h = 800 is no overflow: the root is finite and below m
    root = dispersion_root(800.0, reference_config, 1.05 * m)
    assert 0.0 < root < m
    # the top of this bracket overflows, but r_k < 1.05 m ends the bracket
    # first, so the root is that of 1.05 m
    assert dispersion_root(1.0, reference_config, 1e250) == dispersion_root(1.0, reference_config, 1.05 * m)
    # without a compliance end the bracket reaches scan_max, which overflows
    monkeypatch.setattr(oracle, "mode_compliance_bound", lambda mode: 0.0)
    with pytest.raises(SolverError, match="non-finite dispersion function at k=1.0"):
        dispersion_root(1.0, reference_config, 1e250)


@pytest.mark.parametrize("node_index", [150, 239])
def test_root_on_grid_node(reference_config, monkeypatch, node_index):
    # a root at a rate the search evaluates is returned exactly: node 239 is
    # scan_max, the top end of the bracket, and on a linear F_k the second
    # regula falsi step lands on an interior node such as 150
    scan_max = 1.05 * upper_bound_m(reference_config)
    node = _scan_grid(scan_max)[node_index]
    monkeypatch.setattr(oracle, "determinant", lambda mode, n: n - node)
    assert dispersion_root(1.0, reference_config, scan_max) == node


def test_scan_max_precondition(reference_config):
    with pytest.raises(ValueError):
        dispersion_root(1.0, reference_config, 0.5 * upper_bound_m(reference_config))


def test_reference_roots_past_the_old_basis_limit(reference_config):
    # q h > 35, where a wall-centred basis loses the root; the Galerkin values
    # approach the roots from below, at N = 128 for k = 40 and N = 512 for
    # k = 100, whose boundary layers N = 128 does not resolve
    scan_max = 1.05 * upper_bound_m(reference_config)
    r40 = dispersion_root(40.0, reference_config, scan_max)
    r100 = dispersion_root(100.0, reference_config, scan_max)
    assert r40 == pytest.approx(0.60988617, rel=1e-8)
    assert r100 == pytest.approx(0.24493251, rel=1e-8)
    g40 = solve_mode_lambda(reference_config, 40.0, Discretization(128)).lam
    assert 0.0 < r40 - g40 <= ORACLE_TOL * r40
    g100 = [solve_mode_lambda(reference_config, 100.0, Discretization(n)).lam for n in (128, 256, 512)]
    assert g100[0] < g100[1] < g100[2] < r100
    assert r100 - g100[2] <= ORACLE_TOL * r100


def test_low_viscosity_argmax_root_below_m(reference_config):
    # mu = 0.01: the argmax mode k = sqrt(481) at N = 128
    cfg = dataclasses.replace(reference_config, mu_plus=0.01, mu_minus=0.01)
    m = upper_bound_m(cfg)
    k = math.sqrt(481.0)
    lam = solve_mode_lambda(cfg, k, Discretization(128)).lam
    root = dispersion_root(k, cfg, 1.05 * m)
    assert root == pytest.approx(5.2617093, rel=1e-7)
    assert root < m
    assert root - lam <= ORACLE_TOL * root


def test_oracle_compare_to_k40_agrees(reference_config, tmp_path):
    # every one of the 504 magnitudes up to k = 40 at N = 128
    config = tmp_path / "reference.json"
    config.write_text(config_json(reference_config))
    out = tmp_path / "compare.csv"
    assert cli.main(["oracle-compare", "--config", str(config), "--resolution", "128",
                     "--kmax", "40", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 504
    assert max(float(r["rel_diff"]) for r in rows) <= ORACLE_TOL


def _check_box_case(nu_plus, nu_minus, fraction, i, j):
    # mu / rho in [1e-4, 1] per layer, theta / theta_c in [0, 0.99] and a
    # lattice k with k h up to 300: F_k strictly increases from its limit
    # -k^2 c_k, it is positive just above the compliance bound r_k, its root
    # is at most m, and the N = 64 Galerkin Lambda_k^N stays below it
    cfg = box_config(nu_plus, nu_minus, fraction)
    k = math.hypot(i, j)
    m = upper_bound_m(cfg)
    scan_max = 1.05 * m
    values = [dispersion_function(k, n, cfg) for n in _scan_grid(scan_max, 50)]
    assert all(a < b for a, b in zip(values[:-1], values[1:]))
    limit = -k * k * surface_coefficient(k, cfg)
    assert dispersion_function(k, 1e-12 * scan_max, cfg) == pytest.approx(limit, rel=1e-6, abs=1e-9)
    root = dispersion_root(k, cfg, scan_max)
    growth = solve_mode_lambda(cfg, k, Discretization(64))
    if surface_coefficient(k, cfg) <= 0.0:
        assert root is None and growth is None
        return
    r_k = spectrum.mode_compliance_bound(ExactMode(k, cfg))
    assert dispersion_function(k, r_k * (1.0 + 1e-9), cfg) > 0.0
    assert 0.0 < root <= m
    assert growth.lam <= root * (1.0 + 1e-9)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    nu_plus=st.floats(min_value=-4.0, max_value=0.0),
    nu_minus=st.floats(min_value=-4.0, max_value=0.0),
    fraction=st.floats(min_value=0.0, max_value=0.99),
    i=st.integers(min_value=0, max_value=212),
    j=st.integers(min_value=1, max_value=212),
)
def test_dispersion_root_over_config_box(nu_plus, nu_minus, fraction, i, j):
    _check_box_case(nu_plus, nu_minus, fraction, i, j)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    nu_plus=st.floats(min_value=-4.0, max_value=0.0),
    nu_minus=st.floats(min_value=-4.0, max_value=0.0),
    fraction=st.floats(min_value=0.0, max_value=0.99),
    i=st.integers(min_value=0, max_value=212),
    j=st.integers(min_value=1, max_value=212),
    n=st.sampled_from([32, 64, 128]),
)
def test_fixed_point_matches_the_all_refined_loop_over_config_box(nu_plus, nu_minus, fraction, i, j, n):
    # float64 proposals followed by the refined phase land where every step
    # refined lands, to the refined solve's own rounding
    cfg = box_config(nu_plus, nu_minus, fraction)
    forms = pencil.assemble(math.hypot(i, j), cfg, Discretization(n))
    assume(forms.c_k > 0.0)
    start = spectrum.mode_compliance_bound(ExactMode(forms.k, cfg))
    fp = pencil.fixed_point(forms, start)
    assert fp.lam == pytest.approx(all_refined_fixed_point(forms, start), rel=1e-10)
    assert fp.residual <= 1e-9 * max(1.0, fp.lam**2)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    nu_plus=st.floats(min_value=-4.0, max_value=0.0),
    nu_minus=st.floats(min_value=-4.0, max_value=0.0),
    fraction=st.floats(min_value=0.0, max_value=0.99),
    i=st.integers(min_value=0, max_value=212),
    j=st.integers(min_value=1, max_value=212),
    n=st.sampled_from([32, 64, 128]),
)
def test_held_last_step_keeps_the_fresh_step_lambda_over_config_box(nu_plus, nu_minus, fraction, i, j, n):
    # lam is chosen before the last solve, so the last step on the held
    # factor returns the bits of a fresh factorization there; its residual
    # carries the refinement noise that its own solve cannot show. Its alpha
    # and eigenvector are the fresh step's to a refined solve's rounding:
    # the gaps read at most 9.2e-12 (alpha, relative) and 7.5e-13 (vector,
    # relative to its largest entry) over these draws, and 2.0e-10 and
    # 2.8e-12 at N = 128 (9.6e-10 and 8.8e-11 at N = 256) over 1400 random
    # box draws, as the held step that also carried the extended residual
    # did. A held step that skips the correction by (M(t) - M(s)) (x + d)
    # is off by about |t - s| / s, up to 2.5e-8 here
    cfg = box_config(nu_plus, nu_minus, fraction)
    forms = pencil.assemble(math.hypot(i, j), cfg, Discretization(n))
    assume(forms.c_k > 0.0)
    start = spectrum.mode_compliance_bound(ExactMode(forms.k, cfg))
    held = pencil.fixed_point(forms, start)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pencil, "_HELD_GATE", -1.0)  # read by the last solve
        fresh = pencil.fixed_point(forms, start)
        assert held.lam == fresh.lam and fresh.noise == 0.0
        fresh_alpha, fresh_vector = fresh.alpha, fresh.vector
    if held.noise > 0.0:
        assert held.residual >= held.noise
    assert abs(held.alpha - fresh_alpha) <= 1e-9 * fresh_alpha
    assert abs(held.vector - fresh_vector).max() <= 1e-10 * abs(fresh_vector).max()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    nu_plus=st.floats(min_value=-4.0, max_value=0.0),
    nu_minus=st.floats(min_value=-4.0, max_value=0.0),
    fraction=st.floats(min_value=0.0, max_value=0.99),
    i=st.integers(min_value=0, max_value=212),
    j=st.integers(min_value=1, max_value=212),
    n=st.sampled_from([32, 64, 128]),
)
def test_compare_modes_row_is_the_separate_solves_over_config_box(nu_plus, nu_minus, fraction, i, j, n):
    # the box of test_held_last_step_keeps_the_fresh_step_lambda_over_config_box:
    # a row holds, bit for bit, the Lambda_k^N of a separate single-mode solve
    # and the root of a separate oracle call, stable modes included
    cfg = box_config(nu_plus, nu_minus, fraction)
    k = math.hypot(i, j)
    disc = Discretization(n)
    (row,) = compare_modes(cfg, [k], disc)
    solved = solve_mode_lambda(cfg, k, disc)
    assert row.lambda_variational == (None if solved is None else solved.lam)
    assert row.lambda_oracle == dispersion_root(k, cfg, 1.05 * upper_bound_m(cfg))
    assert row.k == k


def test_compare_modes_validates_once(reference_config, monkeypatch):
    # a one-mode comparison validates the config once and forms the bound m
    # once, for its scan_max: its rows skip dispersion_root's scan_max check
    calls = {"validate_config": 0, "upper_bound_m": 0}

    def counting(name, real):
        def wrapped(cfg):
            calls[name] += 1
            return real(cfg)
        return wrapped

    for module in (oracle, fixedpoint):
        for name in calls:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    (row,) = compare_modes(reference_config, [5.0], Discretization(16))
    assert calls == {"validate_config": 1, "upper_bound_m": 1}
    assert row.rel_diff < 1e-2


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    nu_plus=st.floats(min_value=-4.0, max_value=0.0),
    nu_minus=st.floats(min_value=-4.0, max_value=0.0),
    fraction=st.floats(min_value=0.0, max_value=0.99),
    i=st.integers(min_value=0, max_value=212),
    j=st.integers(min_value=1, max_value=212),
)
def test_closed_form_compliances_bound_the_galerkin_ones_over_config_box(nu_plus, nu_minus, fraction, i, j):
    # the Hermite space is a subspace of the clamped profiles, so
    # I_k^N <= I_k and C_k^N <= C_k, and r_k bounds the exact root. C_k^N
    # gets the slack of its refined solve's rounding (ROADMAP item 3): in a
    # scan of 3000 box configs at k = 1, sqrt(2) and 2 it rose above C_k by
    # up to 2.1e-9 at N = 64 and 3.5e-8 at N = 128 (k = 1), never at N = 32
    cfg = box_config(nu_plus, nu_minus, fraction)
    k = math.hypot(i, j)
    inviscid, stokes = compliances(ExactMode(k, cfg))
    for n in (32, 64, 128):
        inviscid_n, stokes_n = galerkin_compliances(pencil.assemble(k, cfg, Discretization(n)))
        assert inviscid_n <= inviscid
        assert stokes_n <= stokes * (1.0 + 1e-7)
    c = surface_coefficient(k, cfg)
    if c > 0.0:
        assert dispersion_function(k, float(spectrum.compliance_bound(c, inviscid, stokes)), cfg) >= 0.0


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    nu_plus=st.floats(min_value=-4.0, max_value=0.0),
    nu_minus=st.floats(min_value=-4.0, max_value=0.0),
    fraction=st.floats(min_value=0.0, max_value=0.99),
    i=st.integers(min_value=0, max_value=212),
    j=st.integers(min_value=1, max_value=212),
)
def test_dispersion_profile_is_clamped_over_config_box(nu_plus, nu_minus, fraction, i, j):
    # the exact profile at the root is finite, has psi(0) = 1, and vanishes
    # with its slope at both walls, also where k h reaches 300
    cfg = box_config(nu_plus, nu_minus, fraction)
    k = math.hypot(i, j)
    root = dispersion_root(k, cfg, 1.05 * upper_bound_m(cfg))
    assume(root is not None)
    profile = dispersion_profile(k, root, cfg, uniform_layered_grid(cfg.h_minus, cfg.h_plus, 64))
    psi, dpsi = profile.psi_values, profile.psi_derivs
    assert np.all(np.isfinite(psi)) and np.all(np.isfinite(dpsi))
    assert profile.interface_value == pytest.approx(1.0, abs=1e-13)
    for values in (psi, dpsi):
        scale = np.max(np.abs(values))
        assert abs(values[0]) <= 1e-13 * scale and abs(values[-1]) <= 1e-13 * scale


def test_galerkin_eigenprofile_converges_at_fourth_order(reference_config):
    # nodal values and slopes of the Galerkin eigenprofile at k = 5 against
    # the exact one: values 1.3e-6, 7.9e-8, 5.0e-9, 3.1e-10 from N = 32 to 256
    k = 5.0
    root = dispersion_root(k, reference_config, 1.05 * upper_bound_m(reference_config))
    errors = np.array([
        profile_error(solve_mode_lambda(reference_config, k, Discretization(n)).profile, k, root, reference_config)
        for n in (32, 64, 128, 256)
    ])
    rates = np.log2(errors[:-1] / errors[1:])
    assert np.all(rates >= 3.8), rates


def test_config_box_galerkin_floor_counterexample():
    # the point of the box where the N = 64 Galerkin side broke the 1e-9
    # bound while the pencil's values were rounded to float64: 1.2e-9 above
    # the root then, 3.6e-10 below it on the long-double values
    _check_box_case(-0.10001778, -1.38176338, 0.78403162, 0, 1)


# A root is good to the rounding of its solve: Lambda_k^N from a solve refined
# once reads phi to about 1e-12 relative at N <= 128 on these layers, and the
# dispersion root is the midpoint of a bracket 1e-12 wide, relative. A
# Galerkin rate above the root by more than this allowance is not rounding.
ROOT_ALLOWANCE = 1e-11


def assert_galerkin_below_the_root(cfg, k, ns):
    """Lambda_k^N <= Lambda_k (1 + ROOT_ALLOWANCE) at every N of ns: the
    Hermite space is a subspace, so the Galerkin rate lies below the exact
    root (modeforms module docstring)."""
    root = dispersion_root(k, cfg, 1.05 * upper_bound_m(cfg))
    for n in ns:
        lam = solve_mode_lambda(cfg, k, Discretization(n)).lam
        assert lam <= root * (1.0 + ROOT_ALLOWANCE), (n, lam / root - 1.0)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    nu_plus=st.floats(min_value=-2.0, max_value=0.0),
    nu_minus=st.floats(min_value=-2.0, max_value=0.0),
    fraction=st.sampled_from([0.0, 0.5, 0.9, 0.99, 0.999]),
    ij=st.sampled_from([(0, 1), (1, 1), (0, 2), (1, 2), (2, 2)]),
)
def test_galerkin_lambda_lies_below_the_exact_root_over_the_box_corner(nu_plus, nu_minus, fraction, ij):
    # the corner of the box where rounding showed: mu / rho in [1e-2, 1],
    # k <= 2 sqrt 2, theta up to 0.999 theta_c. Over 300 such draws, pencil
    # values rounded to float64 put 23 above the root at N = 64 (by up to
    # 1.5e-9) and 108 at N = 128 (up to 2.7e-8); the long-double values put
    # none above at N = 64 and 5 at N = 128, by at most 6.7e-12
    cfg, k = box_config(nu_plus, nu_minus, fraction), math.hypot(*ij)
    assume(surface_coefficient(k, cfg) > 0.0)
    assert_galerkin_below_the_root(cfg, k, (32, 64, 128))


def test_galerkin_lambda_lies_below_the_exact_root_on_the_anisotropic_config(reference_config):
    # the anisotropic config of scripts/cli_outputs.py at its N = 128 argmax:
    # its growth_128 lambda lay 1.11e-8 above the exact root on pencil values
    # rounded to float64
    cfg = dataclasses.replace(reference_config, L2=1.7, h_minus=0.5, mu_minus=0.2, theta=3.0)
    assert_galerkin_below_the_root(cfg, 2.0 / 1.7, (128,))  # k of lattice mode (0, 2)


@pytest.mark.xfail(
    strict=True, reason="ROADMAP item 3: past N = 128 one refinement's noise lifts a thin layer's rate above the root"
)
def test_galerkin_lambda_lies_below_the_exact_root_on_thin_layers_at_n_256(contrast_config):
    # the contrast config's layers are 0.3 deep, and cond grows like
    # (N / h)^4: at k = 0.5 and 0.5 theta_c, Lambda_k^N lies 6.9e-10 above
    # the exact root at N = 256 (and 1.1e-11 at N = 128, 0.9 theta_c). The
    # box corner has unit depths and does not see this
    cfg = contrast_config.with_theta(0.5 * theta_critical(contrast_config))
    assert_galerkin_below_the_root(cfg, 0.5, (256,))


# ROADMAP item 3's prototype cases, each at k = 1: the reference config at
# 0.9 theta_c, mu = 0.01 at 0.999 theta_c, and the box point of
# test_config_box_galerkin_floor_counterexample
IMPEDANCE_CASES = ("reference", "mu_0.01", "box")


def fixed_rate_impedances(case, reference, ns):
    """([H^N for N in ns], H) of mode k = 1 of an IMPEDANCE_CASES case at
    the fixed rate (s, a) = (Lambda_1, Lambda_1^2), Lambda_1 the exact root:
    the Galerkin and the exact interface impedance (galerkin_impedance,
    exact_impedance), so H^N >= H^2N >= H (modeforms module docstring)."""
    if case == "box":
        cfg = box_config(-0.10001778, -1.38176338, 0.78403162)
    else:
        mu, fraction = {"reference": (0.1, 0.9), "mu_0.01": (0.01, 0.999)}[case]
        base = dataclasses.replace(reference, mu_plus=mu, mu_minus=mu)
        cfg = base.with_theta(fraction * theta_critical(base))
    k = 1.0
    s = dispersion_root(k, cfg, 1.05 * upper_bound_m(cfg))
    a = s * s
    galerkin = [galerkin_impedance(pencil.assemble(k, cfg, Discretization(n)), s, a) for n in ns]
    return galerkin, exact_impedance(k, cfg, s, a)


@pytest.mark.parametrize("case", IMPEDANCE_CASES)
def test_galerkin_impedance_falls_to_the_exact_one_from_n_16_to_32(case, reference_config):
    # (H^N - H) / H: 4.8e-7 then 3.0e-8 on the reference and mu = 0.01
    # cases, 9.6e-8 then 6.1e-9 on the box case
    (h_16, h_32), h = fixed_rate_impedances(case, reference_config, (16, 32))
    assert h_16 >= h_32 >= h


@pytest.mark.parametrize("case", IMPEDANCE_CASES)
def test_galerkin_impedance_falls_to_the_exact_one_from_n_32_to_128(case, reference_config):
    # on values rounded to float64, (H^N - H) / H at N = 64 and 128 read
    # 2.1e-9 then 4.4e-9 on the reference case (a rise), 2.3e-9 then -3.6e-9
    # on mu = 0.01 (below H), -1.3e-9 then 1.9e-8 on the box case
    (h_32, h_64, h_128), h = fixed_rate_impedances(case, reference_config, (32, 64, 128))
    assert h_32 >= h_64 >= h_128 >= h


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    nu_plus=st.floats(min_value=-4.0, max_value=0.0),
    nu_minus=st.floats(min_value=-4.0, max_value=0.0),
    fraction=st.floats(min_value=0.0, max_value=0.99),
    i=st.integers(min_value=0, max_value=212),
    j=st.integers(min_value=1, max_value=212),
    n=st.sampled_from([32, 64, 128]),
)
def test_both_roots_solve_impedance_equals_c_k_over_config_box(nu_plus, nu_minus, fraction, i, j, n):
    # Lambda_k^N solves H^N(t, t^2) = c_k and the oracle's Lambda_k solves
    # H(t, t^2) = c_k (modeforms module docstring). Over 160 box draws, half
    # of them at k <= 4.3, the first read at most 1.2e-11 relative (N = 128)
    # and the second 4.8e-13
    cfg = box_config(nu_plus, nu_minus, fraction)
    k = math.hypot(i, j)
    c = surface_coefficient(k, cfg)
    assume(c > 0.0)
    forms = pencil.assemble(k, cfg, Discretization(n))
    lam = pencil.fixed_point(forms, spectrum.mode_compliance_bound(ExactMode(k, cfg))).lam
    assert abs(galerkin_impedance(forms, lam, lam * lam) - c) <= 1e-10 * c
    root = dispersion_root(k, cfg, 1.05 * upper_bound_m(cfg))
    assert abs(exact_impedance(k, cfg, root, root * root) - c) <= 2e-12 * c


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    nu_plus=st.floats(min_value=-4.0, max_value=0.0),
    nu_minus=st.floats(min_value=-4.0, max_value=0.0),
    fraction=st.floats(min_value=0.0, max_value=0.99),
    i=st.integers(min_value=0, max_value=212),
    j=st.integers(min_value=1, max_value=212),
)
def test_galerkin_impedance_inequalities_over_config_box(nu_plus, nu_minus, fraction, i, j):
    # the two inequalities the pruning proofs rest on, on a grid of (s, a):
    # H^N(s, a) >= s / C_k + a / I_k (superadditivity and H^N >= H, the
    # proof of r_k) at N = 16 and 32, and H^8 >= H^16 >= H (nested spaces).
    # Smallest relative margins over the 160 box draws of the test above:
    # 2.1e-9 for the first at N = 32, 5.0e-7 and 3.3e-8 for the chain
    cfg = box_config(nu_plus, nu_minus, fraction)
    k = math.hypot(i, j)
    inviscid, stokes = compliances(ExactMode(k, cfg))
    forms = {n: pencil.assemble(k, cfg, Discretization(n)) for n in (8, 16, 32)}
    for s in (0.01, 1.0, 10.0):
        for a in (0.0, s * s, 1.0):
            h = {n: galerkin_impedance(f, s, a) for n, f in forms.items()}
            assert min(h[16], h[32]) >= s / stokes + a / inviscid
            assert h[8] >= h[16] >= exact_impedance(k, cfg, s, a)


def test_compare_modes_table(reference_config, tmp_path):
    disc = Discretization(32)
    rows = compare_modes(reference_config, [1.0, math.sqrt(2.0)], disc)
    assert all(r.rel_diff is not None and r.rel_diff < 1e-4 for r in rows)
    # oracle-compare writes the same rows: the modes up to 1.5 are these two
    out = cli_output(tmp_path, reference_config, "oracle-compare", "--kmax", "1.5", "--resolution", "32")
    lines = out.read_text().splitlines()
    assert lines[0] == "k,lambda_oracle,lambda_variational,rel_diff"
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert float(cells[0]) == 1.0
    assert float(cells[3]) < 1e-4
    assert float(cells[3]) == rows[0].rel_diff


def test_compare_modes_builds_no_profile(reference_config, monkeypatch):
    disc = Discretization(16)
    ks = [1.0, math.sqrt(2.0)]
    expected = [solve_mode_lambda(reference_config, k, disc).lam for k in ks]

    def unused(*args, **kwargs):
        raise AssertionError("compare_modes reads only Lambda_k")

    for module in (pencil, fixedpoint, spectrum, oracle):
        if hasattr(module, "coeffs_to_profile"):
            monkeypatch.setattr(module, "coeffs_to_profile", unused)
    rows = compare_modes(reference_config, ks, disc)
    assert [r.lambda_variational for r in rows] == expected
    assert all(r.rel_diff < 1e-3 for r in rows)


def test_compare_modes_stable_entry(reference_config, tmp_path):
    cfg = reference_config.with_theta(0.5 * theta_critical(reference_config))
    rows = compare_modes(cfg, [2.0], Discretization(16))
    assert rows[0].lambda_variational is None
    assert rows[0].lambda_oracle is None
    assert rows[0].rel_diff is None
    # the modes up to k = 2 are 1, sqrt(2) and 2, each in its own CSV row
    out = cli_output(tmp_path, cfg, "oracle-compare", "--kmax", "2", "--resolution", "16")
    assert out.read_text().splitlines()[3] == "2.0,,,"
