"""Cross-module invariants that belong to no single unit suite."""

import ast
from pathlib import Path

import numpy as np
import pytest

from conftest import curve_alphas, dissipation_form, kinetic_form, random_admissible_profile
import rtgrowth
from rtgrowth import pencil
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


class _CallSites(ast.NodeVisitor):
    """The dotted scopes (class and function names) of every call of name."""

    def __init__(self, name):
        self.name, self.scope, self.sites = name, [], []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = _scoped

    def visit_Call(self, node):
        if self.name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            self.sites.append(".".join(self.scope))
        self.generic_visit(node)


def test_one_function_forms_a_single_modes_compliance_bound():
    # r_k comes from compliance_bound in two places: one mode at a time
    # (mode_compliance_bound) and every mode of a set at once (growth_bounds);
    # and the oracle takes nothing from the fixed-point module
    src = Path(rtgrowth.__file__).parent
    sites = _CallSites("compliance_bound")
    for path in sorted(src.glob("*.py")):
        sites.visit(ast.parse(path.read_text()))
    assert sorted(sites.sites) == ["FrozenModeSet.growth_bounds", "mode_compliance_bound"]
    imports = [
        node for node in ast.walk(ast.parse((src / "oracle.py").read_text()))
        if isinstance(node, ast.ImportFrom)
        and ("fixedpoint" in (node.module or "").split(".") or "fixedpoint" in [a.name for a in node.names])
    ]
    assert imports == []


def test_root_and_compliances_evaluate_through_a_prebuilt_exact_mode():
    # every rate the root search and the compliances evaluate goes through an
    # ExactMode built once per mode by their caller: none of them takes the
    # config, builds an evaluator or hands a config to a call
    src = Path(rtgrowth.__file__).parent
    functions = {
        node.name: node
        for path in ("oracle.py", "modeforms.py")
        for node in ast.walk(ast.parse((src / path).read_text()))
        if isinstance(node, ast.FunctionDef)
    }
    for name in ("_bracketed_root", "_refine_root", "compliances"):
        node = functions[name]
        assert "cfg" not in [arg.arg for arg in node.args.args], name
        for call in (c for c in ast.walk(node) if isinstance(c, ast.Call)):
            assert getattr(call.func, "id", None) != "ExactMode", name
            passed = [*call.args, *(keyword.value for keyword in call.keywords)]
            assert not any(ast.unparse(arg).split(".")[-1] == "cfg" for arg in passed), (name, ast.unparse(call))


def test_pencils_are_assembled_in_one_place_from_values_alone(reference_config):
    # every pencil of the package comes from assemble, which weighs the
    # k-free tables' 25 long-double values per form; neither the tables nor
    # the pencil keep a band or a float64 copy, so each form is held once
    src = Path(rtgrowth.__file__).parent
    sites = _CallSites("PencilForms")
    for path in sorted(src.glob("*.py")):
        sites.visit(ast.parse(path.read_text()))
    assert sites.sites == ["assemble"]
    for n in (8, 32):
        t = pencil._tables((1.0, 1.0, 0.1), (1.0, 2.0, 0.1), n)
        assert [(values.shape, values.dtype) for values in t["values"].values()] == [((25,), np.longdouble)] * 6
        assert not any(np.shape(value) == (4, 4 * n - 2) for value in t.values())
        forms = pencil.assemble(1.0, reference_config, Discretization(n))
        assert set(vars(forms)) == {"k", "c_k", "weighted", "tables"}
        assert [(values.shape, values.dtype) for values in forms.weighted] == [((25,), np.longdouble)] * 2
    # and no mode set holds a pencil past the solve that assembled it
    fm = solve_lambda(reference_config, Discretization(8)).mode_set
    assert not any(isinstance(value, (pencil.PencilForms, dict)) for value in vars(fm).values())
