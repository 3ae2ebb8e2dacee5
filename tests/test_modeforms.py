import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    TRACE_TOL,
    bands,
    box_config,
    dense,
    dispersion_function,
    dissipation_form,
    galerkin_compliances,
    is_admissible,
    kinetic_form,
    random_admissible_profile,
    smooth_bump_profile,
    threshold_test_profile,
    trace_ratios,
)
from rtgrowth.errors import SolverError
from rtgrowth.modeforms import (
    ExactMode,
    VerticalProfile,
    compliances,
    uniform_layered_grid,
)
from rtgrowth.model import FluidConfig, surface_coefficient
from rtgrowth.pencil import Discretization, assemble, fixed_point
from rtgrowth.spectrum import mode_compliance_bound


def hermite_eval(profile, y, elem=None):
    """Independent piecewise-cubic evaluator used as the test-side oracle."""
    grid = profile.grid
    if elem is None:
        e = np.clip(np.searchsorted(grid, y, side="right") - 1, 0, grid.size - 2)
    else:
        e = elem
    h = grid[e + 1] - grid[e]
    u = (y - grid[e]) / h
    v0, v1 = profile.psi_values[e], profile.psi_values[e + 1]
    d0, d1 = profile.psi_derivs[e], profile.psi_derivs[e + 1]
    val = (
        v0 * (1 - 3 * u**2 + 2 * u**3)
        + d0 * h * (u - 2 * u**2 + u**3)
        + v1 * (3 * u**2 - 2 * u**3)
        + d1 * h * (u**3 - u**2)
    )
    der = (
        v0 * (-6 * u + 6 * u**2) / h
        + d0 * (1 - 4 * u + 3 * u**2)
        + v1 * (6 * u - 6 * u**2) / h
        + d1 * (3 * u**2 - 2 * u)
    )
    sec = (
        v0 * (-6 + 12 * u) / h**2
        + d0 * (-4 + 6 * u) / h
        + v1 * (6 - 12 * u) / h**2
        + d1 * (6 * u - 2) / h
    )
    return val, der, sec


def simpson(f, a, b, n=10_000):
    x = np.linspace(a, b, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (b - a) / (3.0 * n) * (w * f(x)).sum()


def simpson_per_element(f, grid, n=10_000):
    """Composite Simpson per element, f(y, elem); psi'' jumps at the nodes."""
    return sum(
        simpson(lambda y, e=e: f(y, e), a, b, n)
        for e, (a, b) in enumerate(zip(grid[:-1], grid[1:]))
    )


def unit_cfg(theta=0.0):
    """Both layers with unit density/viscosity; validation not relevant here."""
    return FluidConfig(
        rho_plus=1.0, rho_minus=1.0, mu_plus=1.0, mu_minus=1.0,
        g=9.8, theta=theta, L1=1.0, L2=1.0, h_plus=1.0, h_minus=1.0,
    )


@pytest.fixture
def lower_bump():
    """Fixed cubic Hermite bump supported in the lower layer."""
    grid = np.array([-1.0, -0.5, 0.0, 1.0])
    values = np.array([0.0, 1.0, 0.0, 0.0])
    derivs = np.array([0.0, 0.0, 0.0, 0.0])
    return VerticalProfile(grid, values, derivs)


def test_zero_profile_forms(reference_config):
    grid = uniform_layered_grid(1.0, 1.0, 4)
    zero = VerticalProfile(grid, np.zeros(grid.size), np.zeros(grid.size))
    assert kinetic_form(1.0, zero, reference_config) == 0.0
    assert dissipation_form(1.0, zero, reference_config) == 0.0


def test_kinetic_matches_simpson(lower_bump):
    cfg = unit_cfg()
    value = kinetic_form(1.0, lower_bump, cfg)

    def integrand(y, elem):
        val, der, _ = hermite_eval(lower_bump, y, elem)
        return der**2 + val**2

    oracle = simpson_per_element(integrand, lower_bump.grid)
    assert value == pytest.approx(oracle, rel=1e-9)


def test_dissipation_matches_simpson(lower_bump):
    cfg = unit_cfg()
    value = dissipation_form(1.0, lower_bump, cfg)

    def integrand(y, elem):
        val, der, sec = hermite_eval(lower_bump, y, elem)
        return 4.0 * der**2 + (val + sec) ** 2

    oracle = simpson_per_element(integrand, lower_bump.grid)
    assert value == pytest.approx(oracle, rel=1e-9)


def test_quadratic_homogeneity(lower_bump):
    cfg = unit_cfg()
    doubled = VerticalProfile(
        lower_bump.grid, 2.0 * lower_bump.psi_values, 2.0 * lower_bump.psi_derivs
    )
    for form in (kinetic_form, dissipation_form):
        assert form(1.0, doubled, cfg) == pytest.approx(
            4.0 * form(1.0, lower_bump, cfg), rel=1e-14
        )


def test_dissipation_integrand_identity(rng):
    # (k psi + psi''/k)^2 + 4 psi'^2 == k^2 psi^2 + 2 psi psi'' + psi''^2/k^2
    #                                   + psi'^2 + 3 psi'^2, pointwise
    k = 1.7
    for _ in range(25):
        psi, dpsi, ddpsi = rng.standard_normal(3)
        lhs = 4.0 * dpsi**2 + (k * psi + ddpsi / k) ** 2
        rhs = (
            k**2 * psi**2 + dpsi**2 + 2.0 * psi * ddpsi
            + ddpsi**2 / k**2 + 3.0 * dpsi**2
        )
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


def test_surface_coefficient(reference_config):
    assert surface_coefficient(5.0, reference_config) == pytest.approx(9.8)
    cfg = reference_config.with_theta(4.9)
    assert surface_coefficient(1.0, cfg) == pytest.approx(4.9)
    k_cut = np.sqrt(9.8 / 4.9)
    assert surface_coefficient(k_cut, cfg) == pytest.approx(0.0, abs=1e-14)
    assert surface_coefficient(0.9 * k_cut, cfg) > 0.0 > surface_coefficient(1.1 * k_cut, cfg)


@pytest.mark.parametrize(
    "L1,L2,expected",
    [(1.0, 1.0, 1.0), (3.0, 1.0, 9.0), (1.0, 2.0, 4.0)],
)
def test_threshold_ratio(L1, L2, expected):
    cfg = FluidConfig(
        rho_plus=2.0, rho_minus=1.0, mu_plus=0.1, mu_minus=0.1,
        g=9.8, theta=1.0, L1=L1, L2=L2, h_plus=1.0, h_minus=1.0,
    )
    profile, ratio = threshold_test_profile(cfg)
    assert profile.interface_value != 0.0
    assert is_admissible(profile)
    assert ratio == pytest.approx(expected, rel=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(L1=st.floats(min_value=0.1, max_value=100.0), L2=st.floats(min_value=0.1, max_value=100.0))
def test_threshold_ratio_over_period_box(L1, L2):
    cfg = FluidConfig(
        rho_plus=2.0, rho_minus=1.0, mu_plus=0.1, mu_minus=0.1,
        g=9.8, theta=1.0, L1=L1, L2=L2, h_plus=1.0, h_minus=1.0,
    )
    _, ratio = threshold_test_profile(cfg)
    assert ratio == pytest.approx(max(L1**2, L2**2), rel=1e-12)


def test_threshold_ratio_scale_invariance(reference_config):
    _, r1 = threshold_test_profile(reference_config)
    # the ratio is a quotient of quadratic functionals of the same field, so
    # any amplitude rescaling of psi cancels; rebuild with another amplitude
    big = smooth_bump_profile(1.0, 1.0, amplitude=37.5)
    assert big.interface_value == pytest.approx(37.5 * smooth_bump_profile(1.0, 1.0).interface_value)
    _, r2 = threshold_test_profile(reference_config)
    assert r1 == r2


def test_trace_inequalities_zero_profile(reference_config):
    grid = uniform_layered_grid(1.0, 1.0, 4)
    zero = VerticalProfile(grid, np.zeros(grid.size), np.zeros(grid.size))
    (ratios,) = trace_ratios([1.0], zero, reference_config)
    assert np.all(ratios <= TRACE_TOL)
    assert ratios[0] == 0.0


def test_trace_inequalities_random_profiles(reference_config, rng):
    for _ in range(100):
        profile = random_admissible_profile(rng, 1.0, 1.0)
        ratios = trace_ratios((0.5, 1.0, 2.0), profile, reference_config)
        assert len(ratios) == 3 and np.all(ratios <= TRACE_TOL)


def test_trace_inequalities_gate(reference_config):
    grid = uniform_layered_grid(1.0, 1.0, 4)
    derivs = np.zeros(grid.size)
    derivs[0] = 1.0  # violates the clamped wall slope
    bad = VerticalProfile(grid, np.zeros(grid.size), derivs)
    assert not is_admissible(bad)
    with pytest.raises(ValueError, match="psi = psi' = 0 at both walls"):
        trace_ratios([1.0], bad, reference_config)
    with pytest.raises(SolverError, match="trace check needs k > 0"):
        trace_ratios([1.0, 0.0], smooth_bump_profile(1.0, 1.0), reference_config)


def test_zero_wavenumber_rejected(reference_config, lower_bump):
    with pytest.raises(SolverError, match="kinetic form needs k > 0"):
        kinetic_form(0.0, lower_bump, reference_config)
    with pytest.raises(SolverError, match="dissipation form needs k > 0"):
        dissipation_form(-1.0, lower_bump, reference_config)


@given(seed=st.integers(min_value=0, max_value=2**31), k=st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=60, deadline=None)
def test_parallelogram_law(seed, k):
    cfg = unit_cfg()
    r = np.random.default_rng(seed)
    p1 = random_admissible_profile(r, 1.0, 1.0, 6)
    p2 = random_admissible_profile(r, 1.0, 1.0, 6)
    grid = p1.grid
    sum_p = VerticalProfile(grid, p1.psi_values + p2.psi_values, p1.psi_derivs + p2.psi_derivs)
    diff_p = VerticalProfile(grid, p1.psi_values - p2.psi_values, p1.psi_derivs - p2.psi_derivs)
    for form in (kinetic_form, dissipation_form):
        lhs = form(k, sum_p, cfg) + form(k, diff_p, cfg)
        rhs = 2.0 * form(k, p1, cfg) + 2.0 * form(k, p2, cfg)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    h_minus=st.floats(min_value=0.05, max_value=20.0),
    h_plus=st.floats(min_value=0.05, max_value=20.0),
)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_trace_inequality_property(seed, h_minus, h_plus):
    cfg = replace(unit_cfg(), h_minus=h_minus, h_plus=h_plus)
    r = np.random.default_rng(seed)
    profile = random_admissible_profile(r, h_minus, h_plus, 6)
    assert np.all(trace_ratios((0.5, 1.0, 2.0), profile, cfg) <= TRACE_TOL)


def test_profile_structural_validation():
    grid = uniform_layered_grid(1.0, 1.0, 4)
    with pytest.raises(ValueError, match="strictly increasing"):
        VerticalProfile(grid[::-1], np.zeros(grid.size), np.zeros(grid.size))
    with pytest.raises(ValueError, match="node exactly at 0"):
        VerticalProfile(grid + 0.1, np.zeros(grid.size), np.zeros(grid.size))
    with pytest.raises(ValueError, match="match the grid"):
        VerticalProfile(grid, np.zeros(3), np.zeros(grid.size))


@pytest.mark.parametrize("k", [0.5, 1.0, 5.0, 20.0])
def test_stokes_compliance_is_the_limit_of_the_secular_function(
    reference_config, cheap_config, contrast_config, k
):
    # F_k(n) + k^2 c_k = n S_k(n), and S_k(n) / k^2 = min(D + n K) falls to
    # min D = 1 / C_k as n -> 0+: k^2 n / (F_k(n) + k^2 c_k) rises to C_k,
    # linearly in n (measured slope 2e-3 to 1.6 relative per unit rate here)
    for cfg in (reference_config, cheap_config, contrast_config):
        stokes = compliances(ExactMode(k, cfg))[1]
        for n in (1e-4, 1e-5, 1e-6):
            limit = k * k * n / (dispersion_function(k, n, cfg) + k * k * surface_coefficient(k, cfg))
            assert -2.0 * n * stokes <= limit - stokes < 0.0


@pytest.mark.parametrize("k", [1.0, 5.0])
def test_inviscid_galerkin_compliance_error_falls_like_one_over_n(reference_config, k):
    # the minimizer of K, sinh(k (h - z)) / sinh(k h), is not clamped, so the
    # Hermite space approaches I_k only through wall and interface layers of
    # one element: I_k^N / I_k - 1 reads -6.3e-3 and -1.6e-3 (k = 1) and
    # -1.6e-2 and -4.1e-3 (k = 5) at N = 32 and 128
    inviscid = compliances(ExactMode(k, reference_config))[0]
    errors = [
        galerkin_compliances(assemble(k, reference_config, Discretization(n)))[0] / inviscid - 1.0
        for n in (32, 64, 128)
    ]
    assert all(e < 0.0 for e in errors)
    assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.02)
    assert errors[1] / errors[2] == pytest.approx(2.0, rel=0.02)


@pytest.mark.parametrize("field, value, k", [("h", 1e-300, 1.0), ("mu", 1e300, 1000.0)])
def test_degenerate_compliances_raise(reference_config, field, value, k):
    # depths of 1e-300 divide by zero in the maps; mu = 1e300 at k = 1000
    # gives a NaN C_k, which would otherwise fail later as a comparison with nan
    cfg = replace(reference_config, **{f"{field}_plus": value, f"{field}_minus": value})
    with pytest.raises(SolverError, match="not finite and positive"):
        compliances(ExactMode(k, cfg))


def test_every_growing_mode_of_the_quadratic_pencil_is_real():
    # the energy argument of the module docstring, on the Galerkin side: over
    # box draws at N = 16, lam^2 B + lam A - c_k e0 e0^T, solved densely
    # through its companion linearization, has no eigenvalue with a positive
    # real part but a real one; where c_k > 0 it has exactly one, the fixed
    # point Lambda_k^N (at most 2.3e-11 relative apart over the 9 such
    # draws), and where c_k <= 0 none, though most such draws carry an
    # oscillatory pair, which decays.
    # Q(0) = -c_k e0 e0^T has rank one, so 0 is an eigenvalue dim - 1 times;
    # it may come back as rounding noise
    rng = np.random.default_rng(5)
    unstable = oscillatory = 0
    for _ in range(40):
        cfg = box_config(rng.uniform(-4.0, 0.0), rng.uniform(-4.0, 0.0), rng.uniform(0.0, 0.99))
        forms = assemble(math.hypot(rng.integers(0, 4), rng.integers(1, 4)), cfg, Discretization(16))
        A, B = (dense(band) for band in bands(forms))
        zero, one = np.zeros_like(A), np.eye(forms.tables["e0"].size)
        surface = zero.copy()
        surface[forms.e0_index, forms.e0_index] = forms.c_k
        lams = sla.eigvals(np.block([[zero, one], [surface, -A]]), np.block([[one, zero], [zero, B]]))
        growing = lams[lams.real > 1e-12 * np.abs(lams).max()]
        assert np.all(np.abs(growing.imag) <= 1e-9 * np.abs(growing))
        oscillatory += np.count_nonzero(lams.imag)
        if forms.c_k > 0.0:
            unstable += 1
            lam = fixed_point(forms, mode_compliance_bound(ExactMode(forms.k, cfg))).lam
            assert growing.size == 1 and growing[0].real == pytest.approx(lam, rel=1e-7)
        else:
            assert growing.size == 0
    assert unstable >= 5 and oscillatory >= 20
