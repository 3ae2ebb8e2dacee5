import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import null_space

from rtgrowth import fixedpoint, oracle, pencil, spectrum
from rtgrowth.errors import DegenerateExponents
from rtgrowth.fixedpoint import solve_mode_lambda
from rtgrowth.model import FluidConfig, theta_critical, upper_bound_m
from rtgrowth.modeforms import random_admissible_profile, uniform_layered_grid, VerticalProfile
from rtgrowth.oracle import (
    _SCAN_FLOOR,
    _condition_matrices,
    compare_modes,
    comparison_csv_lines,
    determinant,
    dispersion_root,
    evaluate_jump_rows,
    validate_jump_rows,
)
from rtgrowth.pencil import Discretization

# Strong density and viscosity contrast with thin layers.
CONTRAST = FluidConfig(
    rho_plus=5.2, rho_minus=0.2, mu_plus=0.1, mu_minus=5.0, g=20.0,
    theta=0.0, L1=2.0, L2=2.0, h_plus=0.3, h_minus=0.3,
)
REFERENCE_KS = (1.0, math.sqrt(2.0), 2.0, math.sqrt(5.0), 5.0, math.sqrt(50.0), 13.0, 20.0)
CONTRAST_KS = (0.5, 1.0, 3.0, 7.0)


def _scan_grid(scan_max, n_points=240):
    return np.geomspace(scan_max * _SCAN_FLOOR, scan_max, n_points)


def _root_cases(reference_config):
    return [(reference_config, k) for k in REFERENCE_KS] + [(CONTRAST, k) for k in CONTRAST_KS]


def _bisection_root(k, cfg, scan_max):
    """Largest root by bisecting every sign change of the scan to 1e-12 relative."""
    grid = _scan_grid(scan_max)
    values = [determinant(k, n, cfg) for n in grid]
    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
        if fa == 0.0:
            roots.append(a)
        elif np.sign(fa) != np.sign(fb):
            lo, hi, f_lo = a, b, fa
            while hi - lo > 1e-12 * hi:
                mid = 0.5 * (lo + hi)
                f_mid = determinant(k, mid, cfg)
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


def test_system_structure(reference_config):
    stack = _condition_matrices(1.0, 1.0, reference_config)
    assert stack.shape == (1, 8, 8)
    M = stack[0]
    # wall rows act on a single layer's columns
    assert np.array_equal(np.nonzero(M[0])[0], [0])
    assert np.all(M[1, 4:] == 0.0)
    assert np.all(M[2, :4] == 0.0)
    # a stack over several rates holds the single-rate matrices
    rates = np.array([0.3, 1.0, 2.4])
    batch = _condition_matrices(1.0, rates, reference_config)
    for n, Mn in zip(rates, batch):
        assert np.array_equal(Mn, _condition_matrices(1.0, n, reference_config)[0])


def test_regularized_basis_small_n(reference_config):
    # q -> k as n -> 0: the combination basis must stay finite and smooth
    vals = [determinant(1.0, n, reference_config) for n in (1e-10, 1e-9, 1e-8)]
    assert all(np.isfinite(v) for v in vals)
    assert np.sign(vals[0]) == np.sign(vals[1]) == np.sign(vals[2])


def test_determinant_overflow_guard(reference_config):
    with pytest.raises(DegenerateExponents):
        determinant(800.0, 1.0, reference_config)


def test_root_matches_variational(reference_config):
    disc = Discretization(64)
    scan_max = 1.05 * upper_bound_m(reference_config)
    for k in (1.0, 2.0):
        growth = solve_mode_lambda(reference_config, k, disc)
        root = dispersion_root(k, reference_config, scan_max)
        assert root == pytest.approx(growth.lam, rel=1e-6)


def test_root_none_for_stable_mode(reference_config):
    theta = 0.5 * theta_critical(reference_config)
    cfg = reference_config.with_theta(theta)
    # k = 2: c_k = 9.8 - 4.9 * 4 < 0
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


def test_determinant_cofactor_identity(reference_config, rng):
    # the cofactor vector of rows 1..7 spans their nullspace, so for any
    # candidate last row u: det([rows; u]) / (u . v) is one fixed constant
    M = _condition_matrices(1.3, 0.8, reference_config)[0]
    v = null_space(M[:7], rcond=1e-12)
    assert v.shape[1] == 1
    v = v[:, 0]
    ratio = np.linalg.det(M) / (M[7] @ v)
    for _ in range(5):
        u = rng.standard_normal(8)
        M2 = M.copy()
        M2[7] = u
        assert np.linalg.det(M2) / (u @ v) == pytest.approx(ratio, rel=1e-8)


def test_scan_parity_stable_under_density(reference_config):
    scan_max = 1.05 * upper_bound_m(reference_config)

    def sign_changes(n_points):
        values = determinant(1.0, _scan_grid(scan_max, n_points), reference_config)
        return int(np.count_nonzero(np.sign(values[:-1]) != np.sign(values[1:])))

    n1 = sign_changes(240)
    n2 = sign_changes(480)
    assert n1 == n2 >= 1


def test_slogdet_normalization_invariance(reference_config):
    # (sign, log|det|) of the raw matrix through column-max and through no
    # scaling agree to rounding, and the sign is the one determinant reports
    def slogdet(M, scales):
        sign, logabs = np.linalg.slogdet(M / scales)
        return sign, logabs + np.log(scales).sum()

    for n in (0.3, 1.0, 2.4):
        M = _condition_matrices(1.0, n, reference_config)[0]
        s1, l1 = slogdet(M, np.abs(M).max(axis=0))
        s2, l2 = slogdet(M, np.ones(8))
        assert s1 == s2 == np.sign(determinant(1.0, n, reference_config))
        assert l1 == pytest.approx(l2, rel=1e-12)


def test_batched_determinant_matches_pointwise(reference_config):
    for cfg, ks in ((reference_config, (1.0, 5.0, 20.0)), (CONTRAST, CONTRAST_KS)):
        grid = _scan_grid(1.05 * upper_bound_m(cfg))
        for k in ks:
            batched = determinant(k, grid, cfg)
            pointwise = np.array([determinant(k, n, cfg) for n in grid])
            assert batched.shape == grid.shape
            assert np.array_equal(np.sign(batched), np.sign(pointwise))
            np.testing.assert_allclose(batched, pointwise, rtol=1e-12, atol=0.0)
    assert isinstance(determinant(1.0, 0.7, reference_config), float)


def test_root_matches_reference_bisection(reference_config):
    for cfg, k in _root_cases(reference_config):
        scan_max = 1.05 * upper_bound_m(cfg)
        expected = _bisection_root(k, cfg, scan_max)
        assert expected is not None
        assert dispersion_root(k, cfg, scan_max) == pytest.approx(expected, rel=2e-12, abs=0.0)


def test_root_determinant_calls(reference_config, monkeypatch):
    # one batched scan plus the refinement of the largest sign change
    calls = []

    def counting(k, n, cfg):
        calls.append(np.ndim(n))
        return determinant(k, n, cfg)

    monkeypatch.setattr(oracle, "determinant", counting)
    for cfg, k in _root_cases(reference_config):
        calls.clear()
        assert dispersion_root(k, cfg, 1.05 * upper_bound_m(cfg)) is not None
        assert calls[0] == 1 and calls[1:].count(1) == 0
        assert len(calls) <= 16


def test_seeded_root_matches_reference_bisection(reference_config):
    # the Galerkin Lambda_k as the floor moves no root beyond the bracket width
    disc = Discretization(32)
    for cfg, k in _root_cases(reference_config):
        scan_max = 1.05 * upper_bound_m(cfg)
        floor = solve_mode_lambda(cfg, k, disc).lam
        expected = _bisection_root(k, cfg, scan_max)
        seeded = dispersion_root(k, cfg, scan_max, floor=floor)
        assert seeded == pytest.approx(expected, rel=2e-12, abs=0.0)


def test_seeded_root_below_floor_falls_back_to_full_scan(reference_config, monkeypatch):
    scan_max = 1.05 * upper_bound_m(reference_config)
    root = 0.3 * math.pi
    monkeypatch.setattr(oracle, "determinant", lambda k, n, cfg: n - root)
    full = dispersion_root(1.0, reference_config, scan_max)
    assert full == pytest.approx(root, rel=1e-12)
    assert dispersion_root(1.0, reference_config, scan_max, floor=2.0) == full


@pytest.mark.parametrize("r1, r2", [(1.0001, 2.0 * math.pi), (1.000001, 1.001)])
def test_seeded_root_is_the_largest_above_floor(reference_config, monkeypatch, r1, r2):
    # one root in the seeded cluster and one above it, or both in the cluster
    scan_max = 1.05 * upper_bound_m(reference_config)
    monkeypatch.setattr(oracle, "determinant", lambda k, n, cfg: (n - r1) * (n - r2))
    seeded = dispersion_root(1.0, reference_config, scan_max, floor=1.0)
    assert seeded == pytest.approx(r2, rel=1e-12)


def test_seeded_root_determinant_calls(reference_config, monkeypatch):
    # every lattice magnitude k <= 20 at N = 32: one batched call of at most
    # 60 rates, then single-rate refinement, at most 6 calls per root
    disc = Discretization(32)
    scan_max = 1.05 * upper_bound_m(reference_config)
    squares = {i * i + j * j for i in range(21) for j in range(21)}
    ks = [math.sqrt(q) for q in sorted(squares) if 0 < q <= 400]
    calls = []

    def counting(k, n, cfg):
        calls.append(np.size(n) if np.ndim(n) else 0)
        return determinant(k, n, cfg)

    monkeypatch.setattr(oracle, "determinant", counting)
    for k in ks:
        floor = solve_mode_lambda(reference_config, k, disc).lam
        calls.clear()
        assert dispersion_root(k, reference_config, scan_max, floor=floor) is not None
        assert 0 < calls[0] <= 60 and not any(calls[1:])
        assert len(calls) <= 6


def test_floor_precondition(reference_config):
    scan_max = 1.05 * upper_bound_m(reference_config)
    for floor in (0.0, -1.0, scan_max, 2.0 * scan_max):
        with pytest.raises(ValueError):
            dispersion_root(1.0, reference_config, scan_max, floor=floor)


def test_scan_overflow_raises(reference_config):
    m = upper_bound_m(reference_config)
    with pytest.raises(DegenerateExponents):
        dispersion_root(800.0, reference_config, 1.05 * m)
    # only the top of this scan overflows (q h > 700 needs n > 24500)
    with pytest.raises(DegenerateExponents):
        dispersion_root(1.0, reference_config, 1e6)


@pytest.mark.parametrize("node_index", [150, 239])
def test_root_on_grid_node(reference_config, monkeypatch, node_index):
    scan_max = 1.05 * upper_bound_m(reference_config)
    node = _scan_grid(scan_max)[node_index]
    monkeypatch.setattr(oracle, "determinant", lambda k, n, cfg: n - node)
    assert dispersion_root(1.0, reference_config, scan_max) == node


def test_largest_of_several_roots(reference_config, monkeypatch):
    scan_max = 1.05 * upper_bound_m(reference_config)
    r1, r2 = 1e-4 * math.pi, 0.3 * math.pi
    monkeypatch.setattr(oracle, "determinant", lambda k, n, cfg: (n - r1) * (n - r2))
    assert dispersion_root(1.0, reference_config, scan_max) == pytest.approx(r2, rel=1e-12)


def test_scan_max_precondition(reference_config):
    with pytest.raises(ValueError):
        dispersion_root(1.0, reference_config, 0.5 * upper_bound_m(reference_config))


def test_jump_rows_converge(reference_config):
    rep128 = validate_jump_rows(reference_config, 1.0, Discretization(128))
    rep256 = validate_jump_rows(reference_config, 1.0, Discretization(256))
    assert rep128.tangential_residual < 1e-3
    assert rep128.normal_residual < 1e-3
    # both at least halve; the tangential row is higher order still
    assert rep256.tangential_residual <= 0.5 * rep128.tangential_residual
    assert rep256.normal_residual <= 0.5 * rep128.normal_residual
    assert rep256.tangential_residual <= rep128.tangential_residual / 3.5


def test_jump_rows_symmetric_profile(cheap_config):
    # mirror-symmetric data with equal viscosities: the tangential jump
    # cancels identically
    grid = uniform_layered_grid(1.0, 1.0, 16)
    vals = np.cos(np.pi * grid / 2.0) ** 2
    ders = -np.pi / 2.0 * np.sin(np.pi * grid)
    vals[0] = vals[-1] = 0.0
    ders[0] = ders[-1] = 0.0
    profile = VerticalProfile(grid, vals, ders)
    rep = evaluate_jump_rows(cheap_config, 1.0, profile, 1.0)
    assert rep.tangential_raw == 0.0


def test_jump_rows_negative_control(reference_config, rng):
    profile = random_admissible_profile(rng, 1.0, 1.0, 16)
    rep = evaluate_jump_rows(reference_config, 1.0, profile, 1.0)
    assert rep.tangential_residual > 0.02
    assert rep.normal_residual > 0.02


def test_compare_modes_table(reference_config):
    disc = Discretization(32)
    rows = compare_modes(reference_config, [1.0, math.sqrt(2.0)], disc)
    assert all(r.rel_diff is not None and r.rel_diff < 1e-4 for r in rows)
    lines = comparison_csv_lines(rows)
    assert lines[0] == "k,lambda_oracle,lambda_variational,rel_diff"
    cells = lines[1].split(",")
    assert float(cells[0]) == 1.0
    assert float(cells[3]) < 1e-4


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


def test_compare_modes_stable_entry(reference_config):
    cfg = reference_config.with_theta(0.5 * theta_critical(reference_config))
    rows = compare_modes(cfg, [2.0], Discretization(16))
    assert rows[0].lambda_variational is None
    assert rows[0].lambda_oracle is None
    assert rows[0].rel_diff is None
    assert comparison_csv_lines(rows)[1] == "2.0,,,"
