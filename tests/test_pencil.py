import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from rtgrowth.errors import ResolutionTooSmall, ZeroWaveNumber
from rtgrowth.model import FluidConfig
from rtgrowth.modeforms import dissipation_form, kinetic_form
from rtgrowth.pencil import (
    Discretization,
    PencilForms,
    assemble,
    coeffs_to_profile,
    largest_eigenpair,
    mode_spectral_data,
    profile_to_coeffs,
    prolong_coeffs,
    rank_one_largest,
    residual_dual_norm,
    secular_eigenpair,
    transverse_min_eigenvalue,
)
from rtgrowth.spectrum import FrozenModeSet


def a_scale(forms):
    return float(np.abs(np.diag(forms.A_diss)).max())


def test_discretization_validation():
    assert Discretization(4).n_dofs == 14
    assert Discretization(16).refined().elements_per_layer == 32
    with pytest.raises(ResolutionTooSmall):
        Discretization(3)


def test_assembled_dimensions(reference_config):
    disc = Discretization(16)
    forms = assemble(1.0, reference_config, disc)
    assert forms.dim == disc.n_dofs == 62
    assert forms.e0_index == 2 * 16 - 2
    with pytest.raises(ZeroWaveNumber):
        assemble(0.0, reference_config, disc)


def test_matrix_structure(reference_config):
    forms = assemble(1.3, reference_config, Discretization(8))
    b_asym = np.abs(forms.B - forms.B.T).max() / np.abs(forms.B).max()
    a_asym = np.abs(forms.A_diss - forms.A_diss.T).max() / np.abs(forms.A_diss).max()
    assert b_asym <= 1e-14 and a_asym <= 1e-14
    sla.cho_factor(forms.B)  # raises unless B is positive definite
    eigs = np.linalg.eigvalsh(forms.A_diss)
    assert eigs.min() >= -1e-12 * eigs.max()


def test_assembly_matches_modeforms(reference_config, rng):
    k = 1.0
    forms = assemble(k, reference_config, Discretization(8))
    for _ in range(20):
        x = rng.standard_normal(forms.dim)
        profile = coeffs_to_profile(x, forms)
        kin = kinetic_form(k, profile, reference_config)
        dis = dissipation_form(k, profile, reference_config)
        assert x @ forms.B @ x == pytest.approx(kin, rel=1e-12)
        assert x @ forms.A_diss @ x == pytest.approx(dis, rel=1e-12)
        back = profile_to_coeffs(profile, forms)
        assert np.array_equal(back, x)


def test_dissipation_large_k_scaling(reference_config):
    # for a fixed smooth profile the k^2 mu psi^2 term dominates:
    # quadrupling between k=10 and k=20 to within a few percent
    from rtgrowth.modeforms import dissipation_form, smooth_bump_profile

    profile = smooth_bump_profile(1.0, 1.0)
    d10 = dissipation_form(10.0, profile, reference_config)
    d20 = dissipation_form(20.0, profile, reference_config)
    assert d20 / d10 == pytest.approx(4.0, rel=0.05)


def hand_pencil():
    """2x2 diagonal case: numerator diag(1, -1), B identity."""
    return PencilForms(
        k=1.0,
        c_k=2.0,
        B=np.eye(2),
        A_diss=np.eye(2),
        e0_index=0,
        grid=np.array([-1.0, 0.0, 1.0]),
        elements_per_layer=1,
    )


def secular_alpha(forms, s):
    """Largest eigenvalue from the cached spectral rows, as the mode cache does."""
    lam, z2 = mode_spectral_data(forms)
    return float(rank_one_largest(lam, z2, np.array([forms.c_k]), s)[0])


def test_hand_pencil_largest():
    forms = hand_pencil()
    alpha = secular_alpha(forms, 1.0)
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
        assert abs(sol.vector @ forms.B @ sol.vector - 1.0) <= 1e-12
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
            alpha = secular_alpha(forms, s)
            assert abs(d.alpha - alpha) <= 1e-10 * max(1.0, abs(d.alpha))
            if alpha <= 0.0:
                with pytest.raises(ValueError):
                    secular_eigenpair(forms, s, alpha)
                continue
            positive += 1
            sec = secular_eigenpair(forms, s, alpha)
            assert sec.residual <= 1e-9 * (abs(alpha) + s * a_scale(forms))
            assert abs(sec.vector @ forms.B @ d.vector) == pytest.approx(1.0, abs=1e-9)
            assert sec.vector[forms.e0_index] >= 0.0
    assert 0 < positive < 9


def test_secular_eigenpair_near_zero_surface_coefficient(reference_config):
    # alpha within rounding of -s lam_0 makes s A + alpha B singular: such an
    # alpha <= 0 is refused, and a small positive one still matches the dense
    # eigenvector
    base = assemble(1.0, reference_config, Discretization(32))
    positive = 0
    for c_k in (1e-3, 1e-12, 0.0, -1e-12):
        forms = PencilForms(
            k=base.k, c_k=c_k, B=base.B, A_diss=base.A_diss, e0_index=base.e0_index,
            grid=base.grid, elements_per_layer=base.elements_per_layer,
        )
        for s in (1e-5, 0.01, 10.0):  # only c_k = 1e-3 at s = 1e-5 gives alpha > 0
            alpha = secular_alpha(forms, s)
            if alpha <= 0.0:
                with pytest.raises(ValueError):
                    secular_eigenpair(forms, s, alpha)
                continue
            positive += 1
            sol = secular_eigenpair(forms, s, alpha)
            dense = largest_eigenpair(forms, s)
            assert sol.residual <= 1e-9 * (abs(alpha) + s * a_scale(forms))
            assert abs(sol.vector @ forms.B @ dense.vector) == pytest.approx(1.0, abs=1e-9)
    assert positive == 1


def test_rank_one_largest_against_dense(rng):
    # random small pencils across signs of the surface coefficient
    for c in (-3.0, -1e-8, 0.0, 1e-8, 2.5):
        lam = np.sort(rng.uniform(0.1, 50.0, size=12))
        z = rng.standard_normal(12)
        s = 0.7
        got = rank_one_largest(lam, z**2, np.array([c]), s)[0]
        dense = np.linalg.eigvalsh(np.diag(-s * lam) + c * np.outer(z, z)).max()
        assert got == pytest.approx(dense, rel=1e-11, abs=1e-11)


def test_rank_one_deflation(rng):
    # zero interface weight on the top diagonal entry: eigenvalue survives
    lam = np.array([1.0, 2.0, 3.0])
    z2 = np.array([0.0, 0.5, 0.25])
    for c in (4.0, -4.0):
        got = rank_one_largest(lam, z2, np.array([c]), 1.0)[0]
        dense = np.linalg.eigvalsh(
            np.diag(-lam) + c * np.outer(np.sqrt(z2), np.sqrt(z2))
        ).max()
        assert got == pytest.approx(dense, rel=1e-12, abs=1e-12)


def test_alpha_strictly_decreasing_in_s_with_margin(reference_config):
    forms = assemble(1.0, reference_config, Discretization(16))
    grid = np.linspace(0.2, 3.0, 8)
    sols = [largest_eigenpair(forms, s) for s in grid]
    for (s1, a), (s2, b) in zip(zip(grid, sols), zip(grid[1:], sols[1:])):
        margin = (s2 - s1) * float(b.vector @ forms.A_diss @ b.vector)
        assert a.alpha >= b.alpha + margin - 1e-10 * max(1.0, abs(a.alpha))


def test_dof_permutation_invariance(reference_config, rng):
    forms = assemble(1.0, reference_config, Discretization(8))
    s = 1.0
    base = largest_eigenpair(forms, s).alpha
    perm = rng.permutation(forms.dim)
    shuffled = PencilForms(
        k=forms.k,
        c_k=forms.c_k,
        B=forms.B[np.ix_(perm, perm)],
        A_diss=forms.A_diss[np.ix_(perm, perm)],
        e0_index=int(np.nonzero(perm == forms.e0_index)[0][0]),
        grid=forms.grid,
        elements_per_layer=forms.elements_per_layer,
    )
    assert largest_eigenpair(shuffled, s).alpha == pytest.approx(base, rel=1e-12)


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = transverse_min_eigenvalue(2550.0, CONTRAST)
    assert np.isfinite(lam) and lam >= 0.1 / 5.2 * 2550.0**2
    for k in (0.0, -1.0):
        with pytest.raises(ZeroWaveNumber):
            transverse_min_eigenvalue(k, CONTRAST)


def test_transverse_linear_in_s(reference_config):
    # the cached transverse branch is alpha_tau(k, s) = -s * lam_min(k) per row
    fm = FrozenModeSet.freeze(reference_config, Discretization(8), 3.0)
    for s, theta in ((0.5, 0.0), (2.0, 4.0)):
        alpha_tau = fm.alpha_arrays(s, theta)[1]
        expected = [-s * transverse_min_eigenvalue(k, reference_config) for k in fm.modes.magnitudes]
        assert alpha_tau.tolist() == expected


def test_prolongation_preserves_forms(reference_config, rng):
    coarse = assemble(1.0, reference_config, Discretization(8))
    fine = assemble(1.0, reference_config, Discretization(16))
    x = rng.standard_normal(coarse.dim)
    x2 = prolong_coeffs(x, coarse)
    assert x2 @ fine.B @ x2 == pytest.approx(x @ coarse.B @ x, rel=1e-13)
    assert x2 @ fine.A_diss @ x2 == pytest.approx(x @ coarse.A_diss @ x, rel=1e-13)


def test_residual_dual_norm_exact_pair():
    forms = hand_pencil()
    # (numerator - alpha B) e0 = 0 exactly at alpha = 1
    x = np.array([1.0, 0.0])
    assert residual_dual_norm(forms, x, 1.0, 1.0) <= 1e-12
    with pytest.raises(ValueError):
        residual_dual_norm(forms, x, 1.0, -1.0)
