import math
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import (
    SCALED_TABLES,
    band_matvec_extended,
    bands,
    count_solves,
    dense,
    dissipation_form,
    extended_bands,
    finish_eigenpair,
    hand_built_pencil,
    interface_solve,
    kinetic_form,
    largest_eigenpair,
    loop_tables,
    quadrature_element_matrices,
    smooth_bump_profile,
)
from rtgrowth import pencil, spectrum
from rtgrowth.errors import ConfigError, SolverError
from rtgrowth.fixedpoint import solve_lambda
from rtgrowth.model import FluidConfig, theta_critical
from rtgrowth.modeforms import ExactMode
from rtgrowth.pencil import (
    Discretization,
    assemble,
    band_matvec,
    coeffs_to_profile,
    fixed_point,
    mode_alpha,
    transverse_min_eigenvalue,
)
from rtgrowth.spectrum import FrozenModeSet


def form(band, x):
    return float(x @ band_matvec(band, x))


def secular_eigenpair(forms, s, alpha):
    """Eigenvector for a known largest eigenvalue alpha: the one refined banded
    solve that ends every fixed-point Newton loop. Below alpha = 0 the energy
    matrix is indefinite (c_k <= 0) or numerically singular (tiny c_k > 0)."""
    if alpha <= 0.0:
        raise ValueError(f"secular eigenpair needs alpha > 0, got {alpha!r}")
    return finish_eigenpair(forms, s, alpha, interface_solve(forms, s, alpha))


def a_scale(forms):
    return float(np.abs(bands(forms)[0][0]).max())


def test_discretization_validation():
    # the one resolution floor: the CLI reads it from here (exit 2)
    assert Discretization(8).elements_per_layer == 8
    with pytest.raises(ConfigError, match="need at least 8 elements per layer, got 7"):
        Discretization(7)


def test_assembled_dimensions(reference_config):
    disc = Discretization(16)
    forms = assemble(1.0, reference_config, disc)
    assert forms.tables["e0"].size == 4 * 16 - 2
    assert forms.e0_index == 2 * 16 - 2
    with pytest.raises(SolverError, match="assembly needs k > 0"):
        assemble(0.0, reference_config, disc)


def test_matrix_structure(reference_config):
    forms = assemble(1.3, reference_config, Discretization(8))
    A, B = bands(forms)
    assert B.shape == A.shape == (4, forms.tables["e0"].size)
    sla.cho_factor(dense(B))  # raises unless B is positive definite
    eigs = np.linalg.eigvalsh(dense(A))
    assert eigs.min() >= -1e-12 * eigs.max()


def test_assembly_matches_modeforms(reference_config, rng):
    k = 1.0
    forms = assemble(k, reference_config, Discretization(8))
    A, B = bands(forms)
    for _ in range(20):
        x = rng.standard_normal(forms.tables["e0"].size)
        profile = coeffs_to_profile(x, forms)
        kin = kinetic_form(k, profile, reference_config)
        dis = dissipation_form(k, profile, reference_config)
        assert form(B, x) == pytest.approx(kin, rel=1e-12)
        assert form(A, x) == pytest.approx(dis, rel=1e-12)
        # the profile holds the dofs, (value, slope) per node, walls clamped
        nodal = np.ravel([profile.psi_values, profile.psi_derivs], order="F")
        assert np.array_equal(nodal[2:-2], x) and not np.any(nodal[[0, 1, -2, -1]])


def test_dissipation_large_k_scaling(reference_config):
    # for a fixed smooth profile the k^2 mu psi^2 term dominates:
    # quadrupling between k=10 and k=20 to within a few percent
    profile = smooth_bump_profile(1.0, 1.0)
    d10 = dissipation_form(10.0, profile, reference_config)
    d20 = dissipation_form(20.0, profile, reference_config)
    assert d20 / d10 == pytest.approx(4.0, rel=0.05)


def unit_band(dim):
    """Identity in lower band form: unit main diagonal, zero subdiagonals."""
    band = np.zeros((4, dim))
    band[0] = 1.0
    return band


def hand_pencil():
    """2x2 diagonal case: numerator diag(1, -1), B identity."""
    return hand_built_pencil(unit_band(2), unit_band(2), e0_index=0, c_k=2.0)


def test_hand_pencil_largest():
    forms = hand_pencil()
    alpha = mode_alpha(forms, 1.0)
    assert alpha == pytest.approx(1.0, abs=5e-12)
    for sol in (largest_eigenpair(forms, 1.0), secular_eigenpair(forms, 1.0, alpha)):
        assert sol.alpha == pytest.approx(1.0, abs=5e-12)
        assert np.abs(sol.vector) == pytest.approx([1.0, 0.0], abs=1e-10)
        assert sol.residual <= 1e-10


def test_negative_surface_gives_negative_alpha(reference_config):
    cfg = reference_config.with_theta(100.0)  # c_k < 0 for k >= 1
    forms = assemble(1.0, cfg, Discretization(8))
    assert forms.c_k < 0.0
    assert largest_eigenpair(forms, 1.0).alpha < 0.0


def test_refinement_monotone_and_converged(reference_config):
    # Monotone increase holds exactly through N = 128 (nested subspaces); at
    # N >= 256 the dense solve's noise floor (~eps * s * lam_max, lam_max
    # growing like N^4) swamps the remaining O(h^4) increments, so the
    # N = 512 value serves only as the reference for relative differences.
    alphas = {}
    for n in (8, 16, 32, 64, 128):
        forms = assemble(1.0, reference_config, Discretization(n))
        alphas[n] = largest_eigenpair(forms, 1.0).alpha
    values = [alphas[n] for n in (8, 16, 32, 64, 128)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    oracle = largest_eigenpair(
        assemble(1.0, reference_config, Discretization(512)), 1.0
    ).alpha
    assert abs(alphas[128] - alphas[64]) < 1e-6 * abs(oracle)
    assert abs(oracle - alphas[128]) < 5e-6 * abs(oracle)


def test_eigen_solution_contract(reference_config):
    forms = assemble(2.0, reference_config, Discretization(32))
    for s in (0.25, 1.0, 4.0):
        sol = largest_eigenpair(forms, s)
        assert abs(form(bands(forms)[1], sol.vector) - 1.0) <= 1e-12
        assert sol.residual <= 1e-9 * (abs(sol.alpha) + s * a_scale(forms))
        assert sol.vector[forms.e0_index] >= 0.0


def test_secular_matches_direct(reference_config):
    # alpha > 0 (k = 0.5 and 1 at small s) takes the one-solve eigenvector;
    # alpha <= 0 is refused, since no fixed point has it; k = 3 has c_k < 0
    positive = 0
    for k in (0.5, 1.0, 3.0):
        forms = assemble(k, reference_config.with_theta(4.9), Discretization(16))
        for s in (0.1, 1.0, 10.0):
            d = largest_eigenpair(forms, s)
            alpha = mode_alpha(forms, s)
            assert abs(d.alpha - alpha) <= 1e-10 * max(1.0, abs(d.alpha))
            if alpha <= 0.0:
                with pytest.raises(ValueError):
                    secular_eigenpair(forms, s, alpha)
                continue
            positive += 1
            sec = secular_eigenpair(forms, s, alpha)
            assert sec.residual <= 1e-9 * (abs(alpha) + s * a_scale(forms))
            assert abs(sec.vector @ band_matvec(bands(forms)[1], d.vector)) == pytest.approx(1.0, abs=1e-9)
            assert sec.vector[forms.e0_index] >= 0.0
    assert 0 < positive < 9


def test_secular_eigenpair_near_zero_surface_coefficient(reference_config):
    # alpha within rounding of -s lam_0 makes s A + alpha B singular: such an
    # alpha <= 0 is refused, and a small positive one still matches the dense
    # eigenvector
    base = assemble(1.0, reference_config, Discretization(32))
    positive = 0
    for c_k in (1e-3, 1e-12, 0.0, -1e-12):
        forms = replace(base, c_k=c_k)  # same bands, new surface coefficient
        for s in (1e-5, 0.01, 10.0):  # only c_k = 1e-3 at s = 1e-5 gives alpha > 0
            alpha = mode_alpha(forms, s)
            if alpha <= 0.0:
                with pytest.raises(ValueError):
                    secular_eigenpair(forms, s, alpha)
                continue
            positive += 1
            sol = secular_eigenpair(forms, s, alpha)
            ref = largest_eigenpair(forms, s)
            assert sol.residual <= 1e-9 * (abs(alpha) + s * a_scale(forms))
            assert abs(sol.vector @ band_matvec(bands(forms)[1], ref.vector)) == pytest.approx(1.0, abs=1e-9)
    assert positive == 1


def test_rank_one_deflation():
    # zero interface weight on the top diagonal entry: eigenvalue survives.
    # With B = I / |z|^2 and V = |z| H, H the Householder reflection taking
    # the first unit vector to z / |z|, the pencil A = B V diag(lam) V^T B, B
    # has eigenvalues lam and interface weights V[0] = z, so it reads
    # c z z^T - s diag(lam) in its eigenbasis
    lam = np.array([1.0, 2.0, 3.0])
    z = np.array([0.0, np.sqrt(0.5), 0.5])
    norm = np.linalg.norm(z)
    w = z / norm - np.eye(3)[0]
    V = norm * (np.eye(3) - 2.0 * np.outer(w, w) / (w @ w))
    B = np.eye(3) / norm**2
    A = B @ V @ np.diag(lam) @ V.T @ B
    i = np.arange(3)
    bands = [np.array([np.where(i + d < 3, M[np.minimum(i + d, 2), i], 0.0) for d in range(4)]) for M in (A, B)]
    for c in (4.0, -4.0):
        forms = hand_built_pencil(bands[0], bands[1], e0_index=0, c_k=c)
        got = mode_alpha(forms, 1.0)
        expected = np.linalg.eigvalsh(np.diag(-lam) + c * np.outer(z, z)).max()
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_alpha_strictly_decreasing_in_s_with_margin(reference_config):
    forms = assemble(1.0, reference_config, Discretization(16))
    grid = np.linspace(0.2, 3.0, 8)
    sols = [largest_eigenpair(forms, s) for s in grid]
    for (s1, a), (s2, b) in zip(zip(grid, sols), zip(grid[1:], sols[1:])):
        margin = (s2 - s1) * form(bands(forms)[0], b.vector)
        assert a.alpha >= b.alpha + margin - 1e-10 * max(1.0, abs(a.alpha))


def test_dof_permutation_invariance(reference_config, rng):
    # a permuted pencil is no longer banded, so it is solved densely here
    forms = assemble(1.0, reference_config, Discretization(8))
    s = 1.0
    base = largest_eigenpair(forms, s).alpha
    A, B = bands(forms)
    numerator = -s * dense(A)
    numerator[forms.e0_index, forms.e0_index] += forms.c_k
    perm = rng.permutation(forms.tables["e0"].size)
    ix = np.ix_(perm, perm)
    shuffled = sla.eigh(numerator[ix], dense(B)[ix], eigvals_only=True)[-1]
    assert shuffled == pytest.approx(base, rel=1e-12)


CONTRAST = FluidConfig(
    rho_plus=5.2, rho_minus=0.2, mu_plus=0.1, mu_minus=5.0,
    g=20.0, theta=0.0, L1=2.0, L2=2.0, h_plus=0.3, h_minus=0.3,
)


def test_transverse_single_layer_exact():
    # equal materials: one layer of depth h+ + h-, whose first mode is a sine
    for h_plus, h_minus in ((1.0, 1.0), (0.7, 1.3)):
        cfg = FluidConfig(
            rho_plus=1.0, rho_minus=1.0, mu_plus=0.1, mu_minus=0.1,
            g=9.8, theta=0.0, L1=1.0, L2=1.0, h_plus=h_plus, h_minus=h_minus,
        )
        for k in (0.5, 1.0, 7.0):
            exact = 0.1 * ((np.pi / (h_plus + h_minus)) ** 2 + k * k)
            assert transverse_min_eigenvalue(k, cfg) == pytest.approx(exact, rel=1e-13)


def p1_transverse_ritz(k, cfg, n):
    """Smallest Ritz value of the transverse quotient over continuous
    piecewise-linear functions, n elements per layer, zero at both walls."""
    nodes = np.concatenate(
        [np.linspace(-cfg.h_minus, 0.0, n + 1), np.linspace(0.0, cfg.h_plus, n + 1)[1:]]
    )
    K = np.zeros((nodes.size, nodes.size))
    M = np.zeros_like(K)
    for e in range(2 * n):
        rho, mu = (cfg.rho_minus, cfg.mu_minus) if e < n else (cfg.rho_plus, cfg.mu_plus)
        he = nodes[e + 1] - nodes[e]
        mass = he / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
        idx = np.ix_([e, e + 1], [e, e + 1])
        K[idx] += mu * (np.array([[1.0, -1.0], [-1.0, 1.0]]) / he + k * k * mass)
        M[idx] += rho * mass
    inner = slice(1, -1)
    return float(sla.eigh(K[inner, inner], M[inner, inner], eigvals_only=True)[0])


@pytest.mark.parametrize("k", [0.5, 5.0])
def test_transverse_root_is_the_smallest_eigenvalue(reference_config, cheap_config, k):
    # A conforming Ritz value lies above the minimum and converges to it at
    # second order; a higher root would leave a gap that does not shrink.
    for cfg in (reference_config, cheap_config, CONTRAST):
        lam = transverse_min_eigenvalue(k, cfg)
        gaps = [p1_transverse_ritz(k, cfg, n) - lam for n in (100, 200)]
        assert gaps[0] > gaps[1] > 0.0
        assert 3.5 <= gaps[0] / gaps[1] <= 4.5


def test_transverse_bound_and_large_k(reference_config, cheap_config):
    # the transverse bullet of certified_cutoff: lam >= mu_min k^2 / rho_max
    for cfg in (reference_config, cheap_config, CONTRAST):
        ratio = min(cfg.mu_plus, cfg.mu_minus) / max(cfg.rho_plus, cfg.rho_minus)
        for k in (0.1, 1.0, 24.8, 300.0):
            assert transverse_min_eigenvalue(k, cfg) >= ratio * k * k
        # lam strictly increases in k (the proof is in spectrum._alpha_pair),
        # so the transverse branch peaks at the smallest magnitude
        ks = spectrum.enumerate_modes(cfg, 12.0 * spectrum.smallest_magnitude(cfg)).magnitudes
        assert np.all(np.diff([transverse_min_eigenvalue(k, cfg) for k in ks[:100]]) > 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = transverse_min_eigenvalue(2550.0, CONTRAST)
    assert np.isfinite(lam) and lam >= 0.1 / 5.2 * 2550.0**2
    for k in (0.0, -1.0):
        with pytest.raises(SolverError, match="transverse solve needs k > 0"):
            transverse_min_eigenvalue(k, CONTRAST)


def test_transverse_linear_in_s(reference_config):
    # the transverse branch is alpha_tau(k, s) = -s * lam_min(k) per mode
    fm = FrozenModeSet.freeze(reference_config, Discretization(8), 3.0)
    for s, theta in ((0.5, 0.0), (2.0, 4.0)):
        alpha_tau = fm.table(s, theta).alpha_transverse
        expected = [-s * transverse_min_eigenvalue(k, reference_config) for k in fm.modes.magnitudes]
        assert alpha_tau.tolist() == expected


# cubic Hermite shapes on the unit element (value left, slope left, value
# right, slope right) as coefficients of 1, u, u^2, u^3
HERMITE_COEFFICIENTS = ((1, 0, -3, 2), (0, 1, -2, 1), (0, 0, 3, -2), (0, 0, -1, 1))


def exact_element_matrices(h):
    """(mass, grad, bending, symmetrized cross) at element length h, the float
    read exactly, as Fractions: the shape products integrated term by term
    over the unit element, times h per slope shape, 1/h per derivative and h
    for the change of variable."""
    h = Fraction(h)
    scale = (1, h, 1, h)
    shapes = [HERMITE_COEFFICIENTS]
    for _ in range(2):
        shapes.append([[i * c for i, c in enumerate(p)][1:] for p in shapes[-1]])

    def integral(p, q):  # of p q over [0, 1]
        return sum(Fraction(a * b, m + n + 1) for m, a in enumerate(p) for n, b in enumerate(q))

    def table(r, t):
        return [
            [scale[i] * scale[j] * h ** (1 - r - t) * integral(shapes[r][i], shapes[t][j]) for j in range(4)]
            for i in range(4)
        ]

    cross = table(0, 2)
    symmetric = [[(cross[i][j] + cross[j][i]) / 2 for j in range(4)] for i in range(4)]
    return table(0, 0), table(1, 1), table(2, 2), symmetric


# the element lengths of the reference (h = 1), contrast (0.3) and
# anisotropic (0.5 and 1) configs at N = 8, 32 and 128, as _tables forms them
ELEMENT_LENGTHS = [depth / n for depth in (1.0, 0.3, 0.5) for n in (8, 32, 128)]


@pytest.mark.parametrize("h", ELEMENT_LENGTHS + [1.0 / 7.0])
def test_element_tables_are_within_2_ulp_of_the_exact_integrals(h):
    # the Gauss quadrature these tables replace was up to 7.6 ulp off
    for table, exact in zip(pencil._element_matrices(h), exact_element_matrices(h)):
        for value, rational in zip(np.ravel(table), np.ravel(exact)):
            assert rational != 0
            assert abs(Fraction(float(value)) - rational) <= 2 * math.ulp(float(rational)), (value, rational)


@pytest.mark.parametrize("h", ELEMENT_LENGTHS + [1.0 / 7.0])
def test_element_tables_match_gauss_quadrature_of_the_shapes(h):
    for table, quadrature in zip(pencil._element_matrices(h), quadrature_element_matrices(h)):
        assert np.all(np.abs(table - quadrature) <= 1e-14 * np.abs(table))


def dense_tables(cfg, n):
    """The six k-independent tables by a dense element-by-element scatter,
    in np.longdouble."""
    dim = 4 * n - 2
    tables = {
        name: np.zeros((dim, dim), dtype=np.longdouble) for name in ("M_rho", "D_rho", "M_mu", "D_mu", "H_mu", "X_mu")
    }
    for e in range(2 * n):
        lower = e < n
        mass, grad, bend, cross = pencil._element_matrices((cfg.h_minus if lower else cfg.h_plus) / n)
        rho = cfg.rho_minus if lower else cfg.rho_plus
        mu = cfg.mu_minus if lower else cfg.mu_plus
        dofs = np.arange(2 * e - 2, 2 * e + 2)  # full dofs 2e .. 2e+3, walls dropped
        keep = (dofs >= 0) & (dofs < dim)
        idx = np.ix_(dofs[keep], dofs[keep])
        sub = np.ix_(keep, keep)
        tables["M_rho"][idx] += rho * mass[sub]
        tables["D_rho"][idx] += rho * grad[sub]
        tables["M_mu"][idx] += mu * mass[sub]
        tables["D_mu"][idx] += mu * grad[sub]
        tables["H_mu"][idx] += mu * bend[sub]
        tables["X_mu"][idx] += mu * cross[sub]
    return tables


def table_bands(cfg, n):
    """The six k-free bands of cfg at N = n: each table's 25 values
    (pencil._tables) gathered through the class map of N (pencil._mesh)."""
    t = pencil._tables((cfg.h_minus, cfg.rho_minus, cfg.mu_minus), (cfg.h_plus, cfg.rho_plus, cfg.mu_plus), n)
    assert t["e0_index"] == 2 * n - 2
    return {name: values[pencil._mesh(n)["band"].T] for name, values in t["values"].items()}


@pytest.mark.parametrize("n", [8, 128])
def test_band_tables_hold_the_lower_triangle_of_a_dense_scatter(reference_config, n):
    for cfg in (reference_config, CONTRAST):
        bands = table_bands(cfg, n)
        for name, scatter in dense_tables(cfg, n).items():
            name, factor = SCALED_TABLES.get(name, (name, 1.0))
            view, scatter = dense(bands[name]), factor * scatter
            assert bands[name].shape == (4, 4 * n - 2) and bands[name].dtype == np.longdouble
            assert np.array_equal(np.tril(view), np.tril(scatter)), name
            assert np.array_equal(view, view.T)
            assert not np.triu(view, 4).any()


def same_bits(a, b):
    """Whether two arrays hold the same values in the same dtype, the sign
    of every zero included (a long double's padding bytes are not compared)."""
    return a.dtype == b.dtype and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("n", [8, 32, 128])
def test_band_tables_match_the_loop_scatter_bit_for_bit(reference_config, n):
    # values and sign bits, so that a signed zero or a last-bit difference
    # counts. mu = 1e-321 puts every mu table far below float64's normal
    # range, which long double holds unrounded. The scaled bands are the
    # scatter's times their factor.
    tiny = replace(reference_config, mu_plus=1e-321, mu_minus=1e-321)
    anisotropic = replace(reference_config, L2=1.7, h_minus=0.5, mu_minus=0.2)
    for cfg in (reference_config, CONTRAST, tiny, anisotropic):
        bands = table_bands(cfg, n)
        for name, band in loop_tables(cfg, n).items():
            name, factor = SCALED_TABLES.get(name, (name, 1.0))
            assert same_bits(bands[name], factor * band), name


def test_band_cache_is_keyed_by_the_two_layers_alone(reference_config):
    # a band reads each layer's (h, rho, mu), so g, theta and the periods
    # share one cache entry, and another viscosity takes a second
    pencil._tables.cache_clear()
    disc = Discretization(16)
    for cfg in (
        reference_config, replace(reference_config, g=20.0), reference_config.with_theta(3.0),
        replace(reference_config, L1=2.0), replace(reference_config, L2=0.7),
    ):
        assemble(1.0, cfg, disc)
    assert pencil._tables.cache_info().currsize == 1
    assemble(1.0, replace(reference_config, mu_minus=0.2), disc)
    assert pencil._tables.cache_info().currsize == 2


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256])
def test_factor_solve_keeps_the_bits_of_a_factorization_then_a_solve(reference_config, contrast_config, n):
    # one dpbsv call returns the factor and the solution of dpbtrf then
    # dpbtrs, bit for bit
    disc = Discretization(n)
    for cfg in (reference_config, contrast_config):
        for k in (spectrum.smallest_magnitude(cfg), 5.0, 40.0):
            forms = assemble(k, cfg, disc)
            for s, alpha in ((0.1, 0.01), (1.3, 1.69), (2.0, 0.0), (0.0, 3.0)):
                chol, info = pencil.lapack.dpbtrf(pencil._energy(forms, s, alpha), lower=1)
                x, info_x = pencil.lapack.dpbtrs(chol, forms.tables["e0"], lower=1)
                assert info == info_x == 0
                got = pencil._factor_solve(forms, s, alpha)
                assert [v.tobytes() for v in got] == [chol.tobytes(), x.tobytes()]


@pytest.mark.parametrize("n", [8, 32, 128])
def test_assembled_bands_keep_the_bits_of_the_inline_weighting(reference_config, contrast_config, n):
    # the tables held times 4 and 2 give assemble the bits of weighting the
    # scattered long-double tables as it is written, k^2 and 1 / k^2
    # included, and the float64 bands the solves read are those rounded once
    disc = Discretization(n)
    tiny = replace(reference_config, mu_plus=1e-321, mu_minus=1e-321)
    for cfg in (reference_config, contrast_config, tiny):
        t = loop_tables(cfg, n)
        for k in (spectrum.smallest_magnitude(cfg), 5.0, 800.0):
            forms = assemble(k, cfg, disc)
            B = t["M_rho"] + t["D_rho"] / k**2
            A = 4.0 * t["D_mu"] + k**2 * t["M_mu"] + 2.0 * t["X_mu"] + t["H_mu"] / k**2
            assert all(same_bits(*pair) for pair in zip(extended_bands(forms), (A, B)))
            assert all(np.array_equal(*pair) for pair in zip(bands(forms), (A.astype(float), B.astype(float))))


def extended_refine(forms, chol, s, alpha, x):
    # _refine's reference: the long-double operator gathered into bands, and
    # its product by diagonals
    A, B = extended_bands(forms)
    y = band_matvec_extended(s * A + alpha * B, x)
    return pencil._spd_solve(chol, np.subtract(forms.tables["e0"], y, out=y).astype(float), alpha)


def three_dof_pencil():
    """A hand-built pencil whose bands fill every entry of a 3 x 3 matrix,
    with nonzero entries past it, which the band form never reads."""
    return hand_built_pencil(
        np.array([[2.0, 3.0, 1.0], [-0.5, 0.25, 9.0], [0.125, 7.0, 7.0], [8.0, 8.0, 8.0]]),
        np.array([[4.0, 5.0, 6.0], [1.0, -1.0, 9.0], [0.5, 7.0, 7.0], [8.0, 8.0, 8.0]]),
        e0_index=1, c_k=2.0,
    )


@pytest.mark.parametrize("n", [8, 32, 128, 256, 512])
def test_refine_on_the_held_wide_bands_keeps_the_bits(reference_config, contrast_config, n):
    # the correction from the held long-double values, 25 per form gathered
    # into coefficient rows, is that of the long-double bands' product by
    # diagonals, bit for bit, on repeated refinements
    disc = Discretization(n)
    tiny = replace(reference_config, mu_plus=1e-321, mu_minus=1e-321)
    anisotropic = replace(reference_config, L2=1.7, h_minus=0.5, mu_minus=0.2)
    pencils = [
        assemble(k, cfg, disc)
        for cfg in (reference_config, contrast_config, tiny, anisotropic)
        for k in (spectrum.smallest_magnitude(cfg), 5.0)
    ]
    if n == 8:  # bands built by hand take one class per entry
        pencils += [hand_pencil(), three_dof_pencil()]
    for forms in pencils:
        for _ in range(2):
            for s, alpha in ((0.1, 0.01), (1.3, 1.69), (2.0, 0.5)):
                chol, x = pencil._factor_solve(forms, s, alpha)
                expected = extended_refine(forms, chol, s, alpha, x)
                assert pencil._refine(forms, chol, s, alpha, x).tobytes() == expected.tobytes()


def test_refined_product_adds_each_rows_seven_terms_left_to_right(rng):
    # _product contracts each row of its (dim, 7) terms in one einsum, whose
    # long-double loop adds them left to right in _OFFSETS' order: NumPy's
    # loop, not its contract. Pinned bit for bit against that explicit sum
    # on long-double data whose sums depend on the order, as the reversed
    # order shows on the same data
    dim, s, alpha = 600, 1.3, 1.69

    def spread(*shape):
        return rng.choice((-1.0, 1.0), shape) * 10.0 ** rng.uniform(-5.0, 5.0, shape)

    forms = hand_built_pencil(spread(4, dim), spread(4, dim), e0_index=0, c_k=1.0)
    x = spread(dim)
    A, B = extended_bands(forms)
    M, xe = dense(s * A + alpha * B), x.astype(np.longdouble)
    terms = []
    for o in pencil._OFFSETS:
        j = np.arange(max(0, -o), min(dim, dim - o))
        terms.append(np.zeros(dim, dtype=np.longdouble))
        terms[-1][j] = M[j, j + o] * xe[j + o]
    forward, backward = terms[0], terms[-1]
    for term in terms[1:]:
        forward = forward + term
    for term in terms[-2::-1]:
        backward = backward + term
    y = pencil._product(forms, s, alpha, x)
    assert y.dtype == np.longdouble and np.array_equal(y, forward)
    assert np.count_nonzero(backward != forward) >= dim // 10


def test_pencil_holds_each_form_as_25_long_double_values(reference_config):
    # a pencil holds the 25 long-double values of each form, read-only, and
    # shares its config's tables; rounded once and gathered through the
    # class map, the values give every entry of the float64 bands the solves
    # read
    disc = Discretization(16)
    forms = assemble(5.0, reference_config, disc)
    assert assemble(5.0, reference_config.with_theta(1.0), disc).tables is forms.tables
    assert (forms.k, forms.e0_index, forms.elements_per_layer) == (5.0, 30, 16)
    band_classes = pencil._mesh(16)["band"].T
    for band, values in zip(bands(forms), forms.weighted):
        assert values.dtype == np.longdouble and values.shape == (25,) and values[-1] == 0.0
        assert np.array_equal(values.astype(float)[band_classes], band) and band.flags.f_contiguous
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 1.0
    for name in ("rows", "shifted"):
        layout = forms.tables[name]
        assert layout.shape == (forms.tables["e0"].size, 7) and layout.flags.c_contiguous and not layout.flags.writeable


def test_band_matvec_matches_dense(reference_config, rng):
    for n in (8, 32):
        forms = assemble(2.0, reference_config, Discretization(n))
        for _ in range(5):
            x = rng.standard_normal(forms.tables["e0"].size)
            for band in bands(forms):
                scale = np.abs(dense(band)).sum(axis=1).max() * np.abs(x).max()
                assert np.abs(band_matvec(band, x) - dense(band) @ x).max() <= 1e-13 * scale
    # a band taller than the matrix (2 x 2 with half bandwidth 3)
    band = np.zeros((4, 2))
    band[0] = (2.0, 3.0)
    band[1, 0] = 0.5
    assert band_matvec(band, np.array([1.0, 2.0])).tolist() == [3.0, 6.5]


def test_secular_eigenpair_matches_dense_at_n128(reference_config):
    # against the dense eigensolve (itself good to a few 1e-10 at N = 128) and,
    # more tightly, against a dense Cholesky solve of the same system refined
    # once with a residual on the same long-double operator
    ext = np.longdouble
    for k, s in ((5.0, 2.4), (1.0, 1.0)):
        forms = assemble(k, reference_config, Discretization(128))
        alpha = mode_alpha(forms, s)
        assert alpha > 0.0
        sec = secular_eigenpair(forms, s, alpha)
        assert np.abs(sec.vector - largest_eigenpair(forms, s).vector).max() <= 1e-9
        e0 = np.zeros(forms.tables["e0"].size)
        e0[forms.e0_index] = 1.0
        A, B = (dense(band) for band in extended_bands(forms))
        exact = ext(s) * A + ext(alpha) * B
        chol = sla.cho_factor(exact.astype(float))
        x = sla.cho_solve(chol, e0)
        x = x + sla.cho_solve(chol, (e0 - exact @ x).astype(float))
        assert np.abs(sec.vector - x / np.sqrt(x @ B.astype(float) @ x)).max() <= 1e-12
        assert sec.residual <= 1e-9 * (abs(alpha) + s * a_scale(forms))


def refined_phi(forms, s, alpha):
    """c_k e0^T (s A + alpha B)^(-1) e0 from one refined banded solve."""
    return forms.c_k * float(interface_solve(forms, s, alpha)[forms.e0_index])


def refined_secular_root(forms, s, lo, hi):
    """The root of refined_phi(forms, s, .) = 1 in [lo, hi], by bisection to
    1e-15 of |hi|; s A + alpha B must stay positive definite on [lo, hi]."""
    assert refined_phi(forms, s, lo) > 1.0 > refined_phi(forms, s, hi)
    while hi - lo > 1e-15 * abs(hi):
        mid = 0.5 * (lo + hi)
        if refined_phi(forms, s, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def positive_alphas(*cfgs):
    """(forms, s, alpha, banded factorizations of mode_alpha) for every
    alpha_k(s) > 0 at N = 128, k in {0.5, 1, 2, 3, 5, 7} and
    s in {0.1, 0.5, 1, 2.5}: the calls of dpbtrf (inertia tests) and of
    dpbsv (factor and solve)."""
    real, calls = pencil.lapack, []

    def spied(name):
        def spy(*args, **kwargs):
            calls.append(name)
            return getattr(real, name)(*args, **kwargs)
        return spy

    cases = []
    for cfg in cfgs:
        for k in (0.5, 1.0, 2.0, 3.0, 5.0, 7.0):
            forms = assemble(k, cfg, Discretization(128))
            for s in (0.1, 0.5, 1.0, 2.5):
                calls.clear()
                pencil.lapack = SimpleNamespace(dpbtrf=spied("dpbtrf"), dpbsv=spied("dpbsv"), dpbtrs=real.dpbtrs)
                try:
                    alpha = mode_alpha(forms, s)
                finally:
                    pencil.lapack = real
                if alpha > 0.0:
                    cases.append((forms, s, alpha, len(calls)))
    return cases


def test_positive_mode_alpha_takes_at_most_six_factorizations(reference_config, contrast_config):
    # from alpha = 0, where s A is positive definite, the secular Newton
    # rises to alpha_k(s) > 0 in a few refined solves; bisection on the
    # inertia test to 1e-14 of its bracket took 51 factorizations on each
    cases = positive_alphas(reference_config, contrast_config)
    assert len(cases) == 30
    assert max(calls for *_, calls in cases) <= 6


def test_mode_alpha_matches_the_refined_secular_root(reference_config, contrast_config):
    # bisection on the inertia test alone stops at its backward error (about
    # 2e-8 relative here); the secular Newton steps take alpha_k(s) to the
    # exact Galerkin value. That value was computed outside the tests, with
    # mpmath at 60 digits: secant steps on c_k x[e0] = 1, x solved from
    # (s A + alpha B) x = e0 by a banded LDL^T of the pencil of the exact
    # element tables (every float input, c_k included, read exactly). On
    # values rounded to float64, mode_alpha read -1.65e-8 from it; on the
    # long-double values, +8.0e-12
    forms = assemble(1.0, reference_config, Discretization(128))
    s = 2.4381739517143846  # Lambda of the reference config at N = 128
    assert mode_alpha(forms, s) == pytest.approx(0.55714445019090279225672820, rel=1e-11)
    # every positive alpha_k(s) of the grid. The refined secular function is
    # itself noise within a few 1e-11 of its root where the refinement's
    # relative correction is largest: its sign flips over 2.6e-11 (reference,
    # k = 1, s = 2.5), 4.6e-11 (contrast, k = 3, s = 0.5) and 6.9e-11
    # (contrast, k = 1, s = 0.1) relative, so the bisection's end in that
    # band is arbitrary to that width
    for forms, s, alpha, _ in positive_alphas(reference_config, contrast_config):
        root = refined_secular_root(forms, s, alpha * (1.0 - 1e-6), alpha * (1.0 + 1e-6))
        assert alpha == pytest.approx(root, rel=1e-10)


@pytest.mark.parametrize("shift", [-1e-6, -1e-9, -1e-12, 0.0, 1e-12])
def test_mode_alpha_near_a_zero_of_alpha_k(reference_config, shift):
    # alpha_1(s) crosses 0 near s0 (reference config, N = 128). Above 0 the
    # secular Newton answers, at or below it the inertia bisection; both stay
    # within 5e-9 absolute of the refined secular root, bisected on its own.
    # s A + alpha B stays positive definite down to alpha = -1e-4
    forms = assemble(1.0, reference_config, Discretization(128))
    s = 3.318688038074881 * (1.0 + shift)
    alpha = mode_alpha(forms, s)
    assert abs(alpha) < 1e-5
    assert alpha == pytest.approx(refined_secular_root(forms, s, -1e-4, 1e-4), abs=5e-9)


@pytest.mark.parametrize("k", [1.0, 2.0])
@pytest.mark.parametrize("s", [0.1, 1.0, 10.0])
def test_mode_alpha_at_the_capillary_cutoff(reference_config, k, s):
    # c_k = 1e-8 g [rho] > 0 just below the capillary cutoff: phi(0) <= 1, so
    # alpha_k(s) <= 0 is bisected down from 0 and matches the dense reference
    theta = reference_config.g * reference_config.density_jump * (1.0 - 1e-8) / k**2
    forms = assemble(k, reference_config.with_theta(theta), Discretization(32))
    assert 0.0 < forms.c_k < 1e-6
    dense_alpha = largest_eigenpair(forms, s).alpha
    assert dense_alpha <= 0.0
    assert mode_alpha(forms, s) == pytest.approx(dense_alpha, rel=1e-10, abs=1e-10)


def test_fixed_point_from_the_compliance_bound(reference_config, monkeypatch):
    # r_k is 1.11 Lambda_k at the reference maximizer (the trace bound that
    # started Newton before is 1.5 to 23 Lambda_k): at most five factorizations
    forms = assemble(5.0, reference_config, Discretization(128))
    start = spectrum.mode_compliance_bound(ExactMode(forms.k, reference_config))
    calls, _ = count_solves(monkeypatch)
    fp = fixed_point(forms, start)
    assert len(calls) <= 5
    assert fp.lam < start < 1.2 * fp.lam
    assert fp.lam == pytest.approx(2.4381739517143846, rel=1e-12)


def test_fixed_point_refines_only_its_last_float64_solve(reference_config, monkeypatch):
    # float64 steps reach the root; only the last float64 solve takes an
    # extended-precision residual, and the last Newton step from it reuses
    # that factor and residual (the all-refined loop took 5 and 5 here)
    forms = assemble(5.0, reference_config, Discretization(128))
    start = spectrum.mode_compliance_bound(ExactMode(forms.k, reference_config))
    factored, refined = count_solves(monkeypatch)
    fp = fixed_point(forms, start)
    assert len(factored) <= 3 and len(refined) == 1
    assert refined == factored[-1:] and 0.0 < abs(fp.lam - refined[0]) <= pencil._LAST_STEP * fp.lam
    assert fp.noise > 0.0


def test_fixed_point_start_below_the_root_by_rounding(reference_config, monkeypatch):
    # near theta_c the compliance bound is nearly exact; a start that falls
    # below Lambda_k (phi(start) > 1) opens the bracket upward instead of raising
    cfg = reference_config.with_theta(0.9999 * theta_critical(reference_config))
    forms = assemble(1.0, cfg, Discretization(256))
    start = spectrum.mode_compliance_bound(ExactMode(forms.k, cfg))
    factored, refined = count_solves(monkeypatch)
    lam = fixed_point(forms, start).lam
    first = refined[0]  # the float64 proposal from the start lands below Lambda_k
    assert factored[0] == start and lam < start < lam * (1.0 + 1e-3)
    assert first < lam and refined_phi(forms, first, first * first) > 1.0
    # refined phi scatters by about 1e-10 around its line here (N = 256,
    # cond ~ 6e9): phi - 1 read -8e-11 at lam (1 - 1e-13) and +1.0e-8 at
    # lam (1 - 1e-8), so the step below lam is far above that noise, and
    # the root from it agrees with lam only to the noise
    below = lam * (1.0 - 1e-8)
    assert refined_phi(forms, below, below * below) > 1.0
    factored.clear()
    refined.clear()
    got = fixed_point(forms, below).lam
    # a float64 step of at most 1e-7 s: refined in hand, and the last Newton
    # step, on the refined solve at below, reuses that factor
    assert factored == refined == [below]
    x = interface_solve(forms, below, below * below)
    x0, xb = float(x[forms.e0_index]), form(bands(forms)[1], x)
    phi = forms.c_k * x0
    assert got == pytest.approx(below + phi * (1.0 - phi) / (-forms.c_k * (x0 / below + below * xb)), rel=1e-13)
    assert below < got < start


def test_fixed_point_at_large_resolution(reference_config, monkeypatch):
    # cond(s A + s^2 B) grows like N^4 (about 1.6e12 at N = 1024), so the
    # float64 phase hands over with a larger error and the refined phase
    # takes one more step; the fixed point still takes a handful of solves
    forms = assemble(5.0, reference_config, Discretization(1024))
    start = spectrum.mode_compliance_bound(ExactMode(forms.k, reference_config))
    factored, refined = count_solves(monkeypatch)
    fp = fixed_point(forms, start)
    assert len(factored) <= 5 and len(refined) <= 3
    assert fp.residual <= 1e-8 * max(1.0, fp.lam ** 2)


def test_positive_mode_alpha_refines_only_its_last_float64_solve(reference_config, contrast_config, monkeypatch):
    # unrefined Newton steps from alpha = 0 reach the root; only the last
    # float64 solve takes an extended-precision residual, on the factor in
    # hand, and the last Newton step from it fixes alpha (refining every
    # step took 3 to 5 residuals per call here)
    cases = positive_alphas(reference_config, contrast_config)
    factors, refined = [], []
    factor_solve, refine = pencil._factor_solve, pencil._refine

    def factor_spy(*args):
        chol, x = factor_solve(*args)
        factors.append(chol)
        return chol, x

    def refine_spy(forms, chol, *args):
        refined.append(chol)
        return refine(forms, chol, *args)

    monkeypatch.setattr(pencil, "_factor_solve", factor_spy)
    monkeypatch.setattr(pencil, "_refine", refine_spy)
    for forms, s, alpha, calls in cases:
        factors.clear()
        refined.clear()
        assert mode_alpha(forms, s) == alpha
        assert 3 <= calls <= 5 and len(refined) == 1 and refined[0] is factors[-1]


@pytest.mark.parametrize("path", ["fixed_point", "mode_alpha"])
def test_float64_phase_ends_when_its_steps_stop_halving(reference_config, contrast_config, monkeypatch, path):
    # float64 solves off by 0.5 % (a rounding floor above _FLOAT_STEP, as at
    # very large N) make the float64 steps bounce without reaching 1e-3 of
    # the point they move; the phase ends at the first step not below half
    # the one before, and the refined phase, which corrects the solve, still
    # reaches the root: the float64 phase only proposes points, for Lambda_k
    # (refit steps) and for every positive alpha_k(s) (Newton steps) alike
    forms = assemble(5.0, reference_config, Discretization(128))
    start = spectrum.mode_compliance_bound(ExactMode(forms.k, reference_config))
    lam = fixed_point(forms, start).lam
    cases = positive_alphas(reference_config, contrast_config) if path == "mode_alpha" else []
    factored, refined = count_solves(monkeypatch)
    spied = pencil._factor_solve

    def rounded(*args):
        chol, x = spied(*args)
        return chol, x * (1.0 + 5e-3 * (-1.0) ** len(factored))

    monkeypatch.setattr(pencil, "_factor_solve", rounded)
    if path == "fixed_point":
        assert fixed_point(forms, start).lam == pytest.approx(lam, rel=1e-12)
        assert len(factored) <= 6 and len(refined) <= 4
    for forms, s, alpha, _ in cases:
        assert mode_alpha(forms, s) == pytest.approx(alpha, rel=1e-9)


def test_fixed_point_over_the_gate_takes_a_fresh_last_step(reference_config, monkeypatch):
    # float64 solves off by 1e-6 leave every refinement a correction
    # tau ~ 1e-6, whose noise kappa tau / (c_k xb) passes the held gate; the
    # last Newton step then factors and refines afresh at lam, as at large N
    forms = assemble(5.0, reference_config, Discretization(128))
    start = spectrum.mode_compliance_bound(ExactMode(forms.k, reference_config))
    lam = fixed_point(forms, start).lam
    factored, refined = count_solves(monkeypatch)
    spied = pencil._factor_solve

    def rounded(*args):
        chol, x = spied(*args)
        return chol, x * (1.0 + 1e-6)

    monkeypatch.setattr(pencil, "_factor_solve", rounded)
    fp = fixed_point(forms, start)
    assert fp.lam == pytest.approx(lam, rel=1e-12)
    assert fp.noise == 0.0 and refined[-1] == factored[-1] == fp.lam and len(refined) <= 3
    assert fp.residual <= 1e-8 * max(1.0, fp.lam ** 2)


def count_lapack(monkeypatch):
    """A dict that counts the banded factorizations alone (dpbtrf) and with
    their solve (dpbsv), the solves on a factor held (dpbtrs) and the
    extended-precision residuals (_refine) as they run."""
    calls = {"dpbtrf": 0, "dpbsv": 0, "dpbtrs": 0, "extended": 0}
    lapack, refine = pencil.lapack, pencil._refine

    def counted(key, real):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(pencil, "lapack", SimpleNamespace(
        dpbtrf=counted("dpbtrf", lapack.dpbtrf), dpbsv=counted("dpbsv", lapack.dpbsv),
        dpbtrs=counted("dpbtrs", lapack.dpbtrs),
    ))
    monkeypatch.setattr(pencil, "_refine", counted("extended", refine))
    return calls


@pytest.mark.parametrize("gate", [pencil._HELD_GATE, -1.0])
def test_last_solve_runs_only_when_its_result_is_read(reference_config, monkeypatch, gate):
    # lam is fixed before the last solve, so reading it runs nothing more; the
    # first read of alpha runs the last step, once: on the held factor (one
    # dpbtrs) or, past the gate, afresh (one dpbsv, which factors and
    # solves, then one extended residual and its dpbtrs). Reads in any order
    # give the same bits, and pencil.COUNTS counts the same work as the spies
    forms = assemble(5.0, reference_config, Discretization(128))
    start = spectrum.mode_compliance_bound(ExactMode(forms.k, reference_config))
    monkeypatch.setattr(pencil, "_HELD_GATE", gate)  # read by the last solve
    fps = [fixed_point(forms, start) for _ in range(3)]
    calls, before = count_lapack(monkeypatch), pencil.COUNTS.copy()
    assert len({fp.lam for fp in fps}) == 1
    assert calls == {"dpbtrf": 0, "dpbsv": 0, "dpbtrs": 0, "extended": 0}
    held = gate > 0.0
    last_step = {"dpbtrf": 0, "dpbsv": 0 if held else 1, "dpbtrs": 1, "extended": 0 if held else 1}
    assert fps[0].alpha > 0.0 and calls == last_step
    fields = ("alpha", "vector", "noise", "residual", "profile")
    for name in fields:
        getattr(fps[0], name)
    assert calls == last_step and (fps[0].noise > 0.0) == held
    for fp, first in ((fps[1], "vector"), (fps[2], "profile")):
        getattr(fp, first)
        for name in fields:
            a, b = getattr(fps[0], name), getattr(fp, name)
            if name == "profile":
                a, b = (a.psi_values, a.psi_derivs), (b.psi_values, b.psi_derivs)
            assert np.array_equal(a, b), name
    counted = pencil.COUNTS - before
    assert (counted["factorizations"], counted["extended_residuals"], counted["last_solves"]) == (
        calls["dpbtrf"] + calls["dpbsv"], calls["extended"], len(fps)
    )


@pytest.mark.parametrize("gate", [pencil._HELD_GATE, -1.0])
def test_last_step_forms_one_band(reference_config, monkeypatch, gate):
    # the fixed point keeps B's band from its loop, so its last step forms
    # one band: M(t) - M(s) for the held step, M(t) for a fresh one
    forms = assemble(5.0, reference_config, Discretization(128))
    start = spectrum.mode_compliance_bound(ExactMode(forms.k, reference_config))
    monkeypatch.setattr(pencil, "_HELD_GATE", gate)  # read by the last solve
    fp = fixed_point(forms, start)
    t, s = fp.lam, fp.s
    assert t != s
    formed, energy = [], pencil._energy

    def spy(forms, s, alpha):
        formed.append((s, alpha))
        return energy(forms, s, alpha)

    monkeypatch.setattr(pencil, "_energy", spy)
    assert fp.alpha > 0.0
    assert formed == ([(t - s, (t - s) * (t + s))] if gate > 0.0 else [(t, t * t)])


def test_indefinite_band_raises_factorization_failure():
    # s A + alpha B = diag(2, -4) at s = alpha = 1: dpbtrf stops at the second
    # pivot, and no vector comes back
    forms = hand_built_pencil(np.vstack([[1.0, -5.0], np.zeros((3, 2))]), unit_band(2), e0_index=0, c_k=2.0)
    with pytest.raises(SolverError, match="banded Cholesky factorization"):
        secular_eigenpair(forms, 1.0, 1.0)


def test_band_solve_error_never_returns_a_vector(reference_config, monkeypatch):
    # a nonzero info from the triangular solves raises, even with a NaN vector
    forms = assemble(1.0, reference_config, Discretization(8))
    monkeypatch.setattr(
        pencil.lapack, "dpbtrs", lambda chol, b, lower=0: (np.full_like(b, np.nan), -2)
    )
    with pytest.raises(SolverError, match="banded Cholesky solve"):
        secular_eigenpair(forms, 1.0, 1.0)


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg's __init__ takes about a quarter second to import, and
    # every command would pay it at start-up; the wrappers load without it,
    # and without running scipy's own __init__ either
    code = (
        "import sys, rtgrowth.cli, rtgrowth.pencil as p; "
        "print('scipy' in sys.modules, 'scipy.linalg' in sys.modules, p.lapack.__name__, p.blas.__name__)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "scipy.linalg._flapack", "scipy.linalg._fblas"]


def test_band_wrappers_are_scipy_linalg_functions():
    # the directly loaded modules share scipy's function objects, so every
    # call and its bits are scipy.linalg's own
    assert pencil.lapack.dpbtrf is sla.lapack.dpbtrf
    assert pencil.lapack.dpbsv is sla.lapack.dpbsv
    assert pencil.lapack.dpbtrs is sla.lapack.dpbtrs
    assert pencil.blas.dsbmv is sla.blas.dsbmv


@pytest.mark.parametrize("error", [ImportError, OSError])
def test_band_wrappers_fall_back_to_scipy_linalg(monkeypatch, error):
    def failing(name):
        raise error(f"no module {name}")

    monkeypatch.setattr(pencil, "_load_extension", failing)
    blas, lapack = pencil._load_wrappers()
    assert blas is sla.blas and lapack is sla.lapack


def test_band_wrappers_fall_back_when_the_finder_finds_nothing(monkeypatch):
    monkeypatch.setattr(pencil, "PathFinder", SimpleNamespace(find_spec=lambda name, path: None))
    with pytest.raises(ImportError, match="scipy.linalg._fblas"):
        pencil._load_extension("scipy.linalg._fblas")
    blas, lapack = pencil._load_wrappers()
    assert blas is sla.blas and lapack is sla.lapack


def test_solves_leave_the_bands_read_only_and_unchanged(reference_config, monkeypatch):
    # the energy band is factored in place, and f2py writes through a
    # read-only flag, so only a band made for the factorization may be
    # handed over: every solve leaves the assembled values as they were
    disc = Discretization(32)
    built = [assemble(5.0, reference_config, disc)]
    forms = built[0]
    start = spectrum.mode_compliance_bound(ExactMode(forms.k, reference_config))
    lam = fixed_point(forms, start).lam
    pencil.alpha_below(forms, lam, lam * lam)
    mode_alpha(forms, lam)
    interface_solve(forms, lam, lam * lam)
    real = spectrum.assemble

    def spy(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(spectrum, "assemble", spy)
    solve_lambda(reference_config, disc)
    assert len(built) > 1
    for forms in built:
        fresh = real(forms.k, reference_config, disc)
        for values, assembled in zip(forms.weighted, fresh.weighted):
            assert np.array_equal(values, assembled) and not values.flags.writeable
        assert pencil._energy(forms, lam, lam * lam).flags.f_contiguous
    assert not forms.tables["e0"].flags.writeable
