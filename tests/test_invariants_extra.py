"""Cross-module invariants that belong to no single unit suite."""

import numpy as np
import pytest

from conftest import curve_alphas, dissipation_form, kinetic_form, random_admissible_profile
from rtgrowth.analysis import _sized_mode_set
from rtgrowth.errors import StableRegime
from rtgrowth.fixedpoint import solve_lambda
from rtgrowth.model import theta_critical
from rtgrowth.pencil import Discretization
from rtgrowth.spectrum import FrozenModeSet, alpha_curve


def test_form_evaluation_bundle(cheap_config, rng):
    profile = random_admissible_profile(rng, 1.0, 1.0)
    assert kinetic_form(1.0, profile, cheap_config) > 0.0
    assert dissipation_form(1.0, profile, cheap_config) >= 0.0


def test_alpha_curve_decrease_persists_under_refinement(cheap_config):
    s_grid = np.linspace(0.1, 1.0, 10)
    for n in (8, 16):
        curve = alpha_curve(cheap_config, s_grid, Discretization(n))
        assert np.all(np.diff(curve_alphas(curve)) < 0.0)
        assert curve_alphas(curve)[0] > 0.0


def test_sweep_invariant_under_cutoff_doubling(cheap_config):
    disc = Discretization(8)
    thetas = theta_critical(cheap_config) * np.array([0.0, 0.5, 0.9])
    tol_fp = 1e-8
    lambdas = []
    certified, _ = _sized_mode_set(cheap_config, disc, tol_fp, 1)
    for factor in (1.0, 2.0):
        fm = FrozenModeSet.freeze(cheap_config, disc, factor * certified.modes.k_max)
        lambdas.append([solve_lambda(cheap_config.with_theta(t), disc, frozen=fm).lam for t in thetas])
    assert np.all(np.abs(np.subtract(*lambdas)) <= 10.0 * tol_fp)


def test_stable_regime_just_above_threshold(cheap_config):
    theta_c = theta_critical(cheap_config)
    for factor in (1.001, 1.01):
        with pytest.raises(StableRegime):
            solve_lambda(cheap_config.with_theta(factor * theta_c), Discretization(8))
