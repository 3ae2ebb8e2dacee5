import math

import numpy as np
import pytest

from rtgrowth.errors import (
    BranchMismatch,
    CutoffRunaway,
    EmptyModeSet,
    MonotonicityViolation,
    SolverError,
)
from rtgrowth.pencil import Discretization, assemble, largest_eigenpair, transverse_largest
from rtgrowth.spectrum import (
    AlphaValue,
    FrozenModeSet,
    alpha_curve,
    enumerate_modes,
    global_alpha,
    initial_cutoff,
    smallest_magnitude,
)

DISC = Discretization(8)


def brute_magnitudes(L1, L2, k_max):
    """Independent full-lattice scan used as the enumeration oracle."""
    found = []
    n1max = int(math.ceil(k_max * L1)) + 1
    n2max = int(math.ceil(k_max * L2)) + 1
    for n1 in range(-n1max, n1max + 1):
        for n2 in range(-n2max, n2max + 1):
            if n1 == 0 and n2 == 0:
                continue
            k = math.hypot(n1 / L1, n2 / L2)
            if k <= k_max:
                found.append(k)
    found.sort()
    out = []
    for k in found:
        if not out or k - out[-1] > 1e-12 * k:
            out.append(k)
    return out


def test_enumerate_unit_lattice(reference_config):
    modes = enumerate_modes(reference_config, 1.5)
    assert modes.magnitudes == pytest.approx([1.0, math.sqrt(2.0)])
    assert list(modes.multiplicities) == [4, 4]


def test_enumerate_rectangular():
    from rtgrowth.model import FluidConfig

    cfg = FluidConfig(
        rho_plus=2.0, rho_minus=1.0, mu_plus=0.1, mu_minus=0.1,
        g=9.8, theta=0.0, L1=2.0, L2=1.0, h_plus=1.0, h_minus=1.0,
    )
    modes = enumerate_modes(cfg, 1.0)
    assert modes.magnitudes == pytest.approx([0.5, 1.0])
    # k = 1 realized by (0, +-1) and (+-2, 0)
    assert list(modes.multiplicities) == [2, 4]
    assert smallest_magnitude(cfg) == 0.5


def test_enumerate_empty(reference_config):
    with pytest.raises(EmptyModeSet):
        enumerate_modes(reference_config, 0.4)


@pytest.mark.parametrize("L1,L2,k_max", [(1.0, 1.0, 3.7), (2.0, 1.0, 2.3), (0.7, 1.9, 4.1)])
def test_enumerate_against_brute_scan(L1, L2, k_max):
    from rtgrowth.model import FluidConfig

    cfg = FluidConfig(
        rho_plus=2.0, rho_minus=1.0, mu_plus=0.1, mu_minus=0.1,
        g=9.8, theta=0.0, L1=L1, L2=L2, h_plus=1.0, h_minus=1.0,
    )
    modes = enumerate_modes(cfg, k_max)
    oracle = brute_magnitudes(L1, L2, k_max)
    assert modes.magnitudes == pytest.approx(oracle, rel=1e-12)
    assert modes.magnitudes[0] == pytest.approx(smallest_magnitude(cfg))


def test_initial_cutoff_terms(cheap_config):
    base = initial_cutoff(cheap_config)
    assert base == pytest.approx(2.0 * math.sqrt(9.8 * 1.0 * 2.0 * 1.0) / 1.0)
    with_theta = initial_cutoff(cheap_config, theta=1e-4)
    assert with_theta >= math.sqrt(9.8 / 1e-4)


def test_global_alpha_matches_brute_scan(cheap_config):
    s = 1.0
    k_max = 6.0
    value = global_alpha(cheap_config, s, DISC, k_max=k_max)
    best = -np.inf
    for k in brute_magnitudes(1.0, 1.0, k_max):
        forms = assemble(k, cheap_config, DISC)
        best = max(best, largest_eigenpair(forms, s).alpha)
        best = max(best, transverse_largest(k, cheap_config, DISC, s))
    assert value.alpha == pytest.approx(best, rel=1e-10)
    assert value.table.k.size == len(brute_magnitudes(1.0, 1.0, k_max))


def test_global_alpha_value_contract(cheap_config):
    value = global_alpha(cheap_config, 0.5, DISC)
    assert value.branch == "longitudinal"
    assert value.alpha > 0.0
    assert value.alpha == pytest.approx(np.max(value.table.alpha), rel=0.0)
    assert value.eigenprofile.interface_value > 0.0
    assert value.diagnostics.kinetic == 1.0
    assert value.diagnostics.dissipation > 0.0
    # alpha = c_k psi(0)^2 - s * dissipation at the kinetic-normalized maximizer
    c_k = 9.8 * 1.0 - 0.0
    recon = c_k * value.diagnostics.surface - 0.5 * value.diagnostics.dissipation
    assert recon == pytest.approx(value.alpha, rel=1e-8)


def test_global_alpha_negative_for_large_s(cheap_config):
    value = global_alpha(cheap_config, 80.0, DISC)
    assert value.alpha < 0.0
    assert np.all(value.table.alpha < 0.0)
    assert np.all(value.table.alpha_transverse < 0.0)


def test_alpha_determinism_across_jobs(cheap_config):
    a1 = global_alpha(cheap_config, 1.0, DISC, jobs=1)
    a2 = global_alpha(cheap_config, 1.0, DISC, jobs=2)
    assert a1.alpha == a2.alpha
    assert a1.argmax_k == a2.argmax_k
    assert np.array_equal(a1.table.alpha_longitudinal, a2.table.alpha_longitudinal)


def test_positive_transverse_alpha_is_a_solver_error(cheap_config):
    table = global_alpha(cheap_config, 1.0, DISC, k_max=3.0).table
    with pytest.raises(BranchMismatch):
        AlphaValue(
            alpha=1.0, argmax_k=1.0, branch="transverse", s=1.0, theta=0.0,
            eigenprofile=None, diagnostics=None, table=table,
        )
    assert issubclass(BranchMismatch, SolverError)


def test_alpha_monotone_in_theta(cheap_config):
    # strict decrease in theta holds while the maximizer keeps psi(0) != 0;
    # once the transverse branch (theta-independent) takes over, alpha stalls
    fm = FrozenModeSet.freeze(cheap_config, DISC, initial_cutoff(cheap_config))
    s = 0.5
    values = [fm.alpha_value(s, th) for th in (0.0, 2.0, 5.0, 9.0)]
    for a, b in zip(values, values[1:]):
        if a.diagnostics.surface > 0.0 and b.diagnostics.surface > 0.0:
            assert b.alpha < a.alpha
        else:
            assert b.alpha <= a.alpha
    assert values[1].alpha < values[0].alpha  # both unambiguously coupled


def test_alpha_lipschitz_bound(cheap_config):
    fm = FrozenModeSet.freeze(cheap_config, DISC, initial_cutoff(cheap_config))
    s1, s2 = 0.6, 0.9
    v1 = fm.alpha_value(s1, 0.0)
    v2 = fm.alpha_value(s2, 0.0)
    bound = max(v1.diagnostics.dissipation, v2.diagnostics.dissipation) * (s2 - s1)
    assert 0.0 < v1.alpha - v2.alpha <= bound * (1.0 + 1e-9)


def test_alpha_curve_monotone_with_zero_bracket(cheap_config):
    curve = alpha_curve(cheap_config, np.linspace(0.2, 4.0, 8), DISC)
    assert np.all(np.diff(curve.alphas) < 0.0)
    assert curve.zero_bracket is not None
    lo, hi = curve.zero_bracket
    assert lo < hi
    i = list(curve.s).index(lo)
    assert curve.alphas[i] > 0.0 >= curve.alphas[i + 1]
    lines = curve.csv_lines()
    assert lines[0] == "s,alpha,argmax_k,branch"
    assert len(lines) == 9


def test_alpha_curve_rejects_bad_grid(cheap_config):
    with pytest.raises(ValueError):
        alpha_curve(cheap_config, [1.0], DISC)
    with pytest.raises(ValueError):
        alpha_curve(cheap_config, [2.0, 1.0], DISC)
    with pytest.raises(ValueError):
        alpha_curve(cheap_config, [-1.0, 1.0], DISC)


def test_alpha_curve_monotonicity_guard(cheap_config, monkeypatch):
    fm = FrozenModeSet.freeze(cheap_config, DISC, initial_cutoff(cheap_config))
    real = fm.alpha_value

    def doctored(s, theta, want_profile=True):
        value = real(s, theta, want_profile=want_profile)
        if s > 1.0:  # fake an increase, as if the mode set changed mid-curve
            return AlphaValue(
                alpha=value.alpha + 100.0,
                argmax_k=value.argmax_k,
                branch="longitudinal",
                s=value.s,
                theta=value.theta,
                eigenprofile=value.eigenprofile,
                diagnostics=value.diagnostics,
                table=value.table,
            )
        return value

    monkeypatch.setattr(fm, "alpha_value", doctored)
    with pytest.raises(MonotonicityViolation):
        alpha_curve(cheap_config, [0.5, 1.5], DISC, frozen=fm)


def test_locked_set_refuses_extension(cheap_config):
    fm = FrozenModeSet.freeze(cheap_config, DISC, initial_cutoff(cheap_config))
    fm.locked = True
    with pytest.raises(MonotonicityViolation):
        fm.extend_to(2.0 * fm.modes.k_max)


def test_locked_set_interiority_guard(cheap_config):
    # a deliberately tiny cutoff puts the maximizer on the boundary
    fm = FrozenModeSet.freeze(cheap_config, DISC, 2.2)
    fm.locked = True
    with pytest.raises(CutoffRunaway):
        global_alpha(cheap_config, 0.5, DISC, frozen=fm)


def test_mode_table_csv(cheap_config):
    value = global_alpha(cheap_config, 1.0, DISC, k_max=3.0)
    lines = value.table.csv_lines()
    assert lines[0] == "k,alpha_longitudinal,alpha_transverse,branch"
    assert len(lines) == value.table.k.size + 1
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(1.0)
    assert first[3] in ("longitudinal", "transverse")
