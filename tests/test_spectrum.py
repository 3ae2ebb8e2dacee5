import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bands, box_config, cli_output, curve_alphas, galerkin_compliances, global_alpha, growth_max,
    largest_eigenpair, table_alpha,
)
from rtgrowth import pencil, spectrum
from rtgrowth.errors import DegenerateExponents, MonotonicityViolation, SolverError
from rtgrowth.analysis import sweep_theta
from rtgrowth.fixedpoint import solve_lambda, solve_mode_lambda
from rtgrowth.model import FluidConfig, theta_critical
from rtgrowth.oracle import compare_modes
from rtgrowth.pencil import (
    Discretization,
    alpha_below,
    assemble,
    band_matvec,
    transverse_min_eigenvalue,
)
from rtgrowth.spectrum import (
    AlphaValue,
    FrozenModeSet,
    alpha_curve,
    _split_cutoff,
    certified_cutoff,
    enumerate_modes,
    growth_cutoff,
    size_mode_set,
    smallest_magnitude,
    split_bound,
)

DISC = Discretization(8)
K_MAX = 6.0  # an explicit cutoff for tests that evaluate one fixed mode set


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


def test_cutoff_bracket_at_an_overflowing_viscosity(cheap_config):
    # b * b overflows past b ~ 1.3e154, so the peak comes from hypot; at
    # mu = 1e300 the cutoff of B_0 is where -s mu k^2 / rho_max meets the
    # floor. A bracket end of 0 (stokes = inf) could never double past a
    # negative floor, so it raises instead of looping
    cfg = replace(cheap_config, mu_plus=1e300, mu_minus=1e300)
    interior = 0.1 * 1e300 / 2.0
    cutoff = spectrum.certified_cutoff(cfg, 0.1, -2.2e299)
    assert cutoff == pytest.approx(math.sqrt(2.2e299 / interior), rel=1e-11)
    with pytest.raises(DegenerateExponents):
        spectrum.certified_cutoff(cfg, 1e10, -1.0)


def test_enumerate_unit_lattice(reference_config):
    modes = enumerate_modes(reference_config, 1.5)
    assert modes.magnitudes == pytest.approx([1.0, math.sqrt(2.0)])


def test_enumerate_rectangular():
    from rtgrowth.model import FluidConfig

    cfg = FluidConfig(
        rho_plus=2.0, rho_minus=1.0, mu_plus=0.1, mu_minus=0.1,
        g=9.8, theta=0.0, L1=2.0, L2=1.0, h_plus=1.0, h_minus=1.0,
    )
    modes = enumerate_modes(cfg, 1.0)
    # k = 1, realized by (0, +-1) and (+-2, 0), is listed once
    assert modes.magnitudes == pytest.approx([0.5, 1.0])
    assert smallest_magnitude(cfg) == 0.5


def test_enumerate_empty(reference_config):
    with pytest.raises(SolverError, match="below smallest lattice magnitude"):
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


def whole_lattice_magnitudes(cfg, k_max):
    """The distinct magnitudes in (0, k_max] of the whole lattice, -n_i .. n_i
    in both directions, sorted and deduplicated as enumerate_modes does: the
    reference its one quadrant is held to, bit for bit."""
    n1 = int(math.ceil(k_max * cfg.L1))
    n2 = int(math.ceil(k_max * cfg.L2))
    kk = np.hypot.outer(np.arange(-n1, n1 + 1) / cfg.L1, np.arange(-n2, n2 + 1) / cfg.L2).ravel()
    kk = kk[(kk > 0.0) & (kk <= k_max)]
    kk.sort()
    distinct = np.ones(kk.size, dtype=bool)
    distinct[1:] = np.diff(kk) > spectrum._DEDUP_RTOL * kk[1:]
    return kk[distinct]


@pytest.mark.parametrize(
    "L1,L2,k_max",
    [(1.0, 1.0, 1.0), (1.0, 1.0, 5.0), (1.0, 1.0, 7.825), (1.0, 1.0, 300.0),
     (2.0, 1.0, 7.825), (2.0, 1.0, 300.0), (0.7, 1.3, 7.825), (0.7, 1.3, 300.0)],
)
def test_quadrant_enumeration_has_the_bits_of_the_whole_lattice(reference_config, L1, L2, k_max):
    cfg = replace(reference_config, L1=L1, L2=L2)
    magnitudes = enumerate_modes(cfg, k_max).magnitudes
    expected = whole_lattice_magnitudes(cfg, k_max)
    assert np.array_equal(magnitudes.view(np.int64), expected.view(np.int64))
    if k_max == 5.0:  # itself a magnitude, kept by the closed end of (0, k_max]
        assert magnitudes[-1] == 5.0


def test_enumeration_ends_of_the_unit_box(reference_config):
    with pytest.raises(SolverError, match="below smallest lattice magnitude"):
        enumerate_modes(reference_config, math.nextafter(1.0, 0.0))
    # (2 * 1023 + 1)^2 lattice points fit LATTICE_POINTS, (2 * 1024 + 1)^2 do not
    assert len(enumerate_modes(reference_config, 1023.0)) == 225_996
    for k_max in (1024.0, math.inf, math.nan):
        with pytest.raises(DegenerateExponents, match="lattice points"):
            enumerate_modes(reference_config, k_max)


def test_global_alpha_matches_brute_scan(cheap_config, monkeypatch):
    s = 1.0
    k_max = 6.0
    fm = FrozenModeSet.freeze(cheap_config, DISC, k_max)
    roots = []

    def spy(k, cfg):
        roots.append(transverse_min_eigenvalue(k, cfg))
        return roots[-1]

    monkeypatch.setattr(spectrum, "transverse_min_eigenvalue", spy)
    value = fm.alpha_value(s, 0.0)
    # one transverse root, at the smallest magnitude, is the branch maximum
    assert len(roots) == 1
    assert -s * roots[0] == np.max(fm.table(s, 0.0).alpha_transverse)
    best = -np.inf
    for k in brute_magnitudes(1.0, 1.0, k_max):
        forms = assemble(k, cheap_config, DISC)
        best = max(best, largest_eigenpair(forms, s).alpha)
        best = max(best, -s * transverse_min_eigenvalue(k, cheap_config))
    assert value.alpha == pytest.approx(best, rel=1e-10)
    assert fm.modes.magnitudes.size == len(brute_magnitudes(1.0, 1.0, k_max))


def test_growth_solves_take_no_transverse_root(cheap_config, monkeypatch):
    # Lambda = max_k Lambda_k reads the coupled branch only
    def forbidden(k, cfg):
        raise AssertionError("the growth rate solved a transverse root")

    monkeypatch.setattr(spectrum, "transverse_min_eigenvalue", forbidden)
    solve_lambda(cheap_config, DISC)
    sweep_theta(cheap_config, [0.0, 0.5], DISC)


def test_alpha_sizing_takes_one_transverse_root(cheap_config, monkeypatch):
    # the floor of alpha(s) is taken once, before the first pass; the passes
    # after it resume from the running maximum and take no second root
    roots, extensions = [], []
    real_root, real_extend = spectrum.transverse_min_eigenvalue, FrozenModeSet.extend_to

    def spy_root(k, cfg):
        roots.append(k)
        return real_root(k, cfg)

    def spy_extend(self, k_max):
        extensions.append(k_max)
        return real_extend(self, k_max)

    monkeypatch.setattr(spectrum, "transverse_min_eigenvalue", spy_root)
    monkeypatch.setattr(FrozenModeSet, "extend_to", spy_extend)
    value = global_alpha(cheap_config, 0.2, DISC)
    assert len(extensions) >= 2
    assert roots == [smallest_magnitude(cheap_config)]
    assert value.branch == "longitudinal"


def test_scan_ties_go_to_the_smaller_k_then_the_coupled_branch(cheap_config, monkeypatch):
    # every coupled value equal to the transverse floor -s lambda_tau(k0),
    # and no mode ruled out: each mode is solved, and only k0 ties the floor
    # at its own k, where the coupled branch wins
    s = 0.5
    fm = FrozenModeSet.freeze(cheap_config, DISC, K_MAX)
    k0 = smallest_magnitude(cheap_config)
    floor = -s * transverse_min_eigenvalue(k0, cheap_config)
    solved = []

    def tie(forms, s):
        solved.append(forms.k)
        return floor

    monkeypatch.setattr(spectrum, "mode_alpha", tie)
    monkeypatch.setattr(spectrum, "alpha_below", lambda forms, s, alpha: False)
    value = fm.alpha_value(s, 0.0)
    assert sorted(solved) == list(fm.modes.magnitudes)
    assert (value.alpha, value.argmax_k, value.branch) == (floor, k0, "longitudinal")


def test_growth_scan_tests_no_mode_before_its_first_solve(reference_config, monkeypatch):
    # the floor 0 of the growth pair has no result: the first mode is solved
    # untested, and every later mode is tested at the running maximum first
    events = []
    real_test, real_solve = spectrum.alpha_below, spectrum.fixed_point

    def spy_test(forms, s, alpha):
        events.append(("test", forms.k))
        return real_test(forms, s, alpha)

    def spy_solve(forms, start):
        events.append(("solve", forms.k))
        return real_solve(forms, start)

    monkeypatch.setattr(spectrum, "alpha_below", spy_test)
    monkeypatch.setattr(spectrum, "fixed_point", spy_solve)
    fm = FrozenModeSet.freeze(reference_config, DISC, smallest_magnitude(reference_config))
    size_mode_set(fm, 0.0)
    solves = [i for i, (kind, _) in enumerate(events) if kind == "solve"]
    assert solves[0] == 0 and len(solves) >= 2
    assert all(events[i - 1][:2] == ("test", events[i][1]) for i in solves[1:])


def reference_maximizer(value, cfg):
    """(psi(0)^2, D) of the dense reference maximizer of value's argmax mode.

    The vector is kinetic-normalized (x^T B x = 1), so alpha = c_k psi(0)^2 - s D.
    """
    forms = assemble(value.argmax_k, cfg.with_theta(value.theta), DISC)
    x = largest_eigenpair(forms, value.s).vector
    return float(x[forms.e0_index] ** 2), float(x @ band_matvec(bands(forms)[0], x))


def test_global_alpha_value_contract(cheap_config):
    fm = FrozenModeSet.freeze(cheap_config, DISC, K_MAX)
    value = fm.alpha_value(0.5, 0.0)
    assert value.branch == "longitudinal"
    assert value.alpha > 0.0
    # the scan solves the maximizer exactly as the full table does
    table = fm.table(0.5, 0.0)
    assert value.alpha == np.max(table_alpha(table))
    assert value.argmax_k == table.k[np.argmax(table_alpha(table))]
    assert global_alpha(cheap_config, 0.5, DISC).alpha == value.alpha
    surface, dissipation = reference_maximizer(value, cheap_config)
    assert surface > 0.0
    assert dissipation > 0.0
    # alpha = c_k psi(0)^2 - s * dissipation at the kinetic-normalized maximizer
    c_k = 9.8 * 1.0 - 0.0
    recon = c_k * surface - 0.5 * dissipation
    assert recon == pytest.approx(value.alpha, rel=1e-8)


def test_global_alpha_negative_for_large_s(cheap_config):
    assert global_alpha(cheap_config, 80.0, DISC).alpha < 0.0
    table = FrozenModeSet.freeze(cheap_config, DISC, K_MAX).table(80.0, 0.0)
    assert np.all(table_alpha(table) < 0.0)
    assert np.all(table.alpha_transverse < 0.0)


def test_alpha_determinism_across_runs(cheap_config):
    a1 = global_alpha(cheap_config, 1.0, DISC)
    a2 = global_alpha(cheap_config, 1.0, DISC)
    assert a1.alpha == a2.alpha
    assert a1.argmax_k == a2.argmax_k
    t1, t2 = (FrozenModeSet.freeze(cheap_config, DISC, K_MAX).table(1.0, 0.0) for _ in range(2))
    assert np.array_equal(t1.alpha_longitudinal, t2.alpha_longitudinal)


def test_alpha_monotone_in_theta(cheap_config):
    # strict decrease in theta holds while the maximizer keeps psi(0) != 0;
    # once the transverse branch (theta-independent) takes over, alpha stalls
    fm = FrozenModeSet.freeze(cheap_config, DISC, K_MAX)
    s = 0.5
    values = [fm.alpha_value(s, th) for th in (0.0, 2.0, 5.0, 9.0)]

    def surface(v):
        if v.branch == "transverse":
            return 0.0
        return reference_maximizer(v, cheap_config)[0]

    for a, b in zip(values, values[1:]):
        if surface(a) > 0.0 and surface(b) > 0.0:
            assert b.alpha < a.alpha
        else:
            assert b.alpha <= a.alpha
    assert values[1].alpha < values[0].alpha  # both unambiguously coupled


def test_alpha_lipschitz_bound(cheap_config):
    fm = FrozenModeSet.freeze(cheap_config, DISC, K_MAX)
    s1, s2 = 0.6, 0.9
    v1 = fm.alpha_value(s1, 0.0)
    v2 = fm.alpha_value(s2, 0.0)
    assert v1.branch == v2.branch == "longitudinal"
    dissipation = max(reference_maximizer(v, cheap_config)[1] for v in (v1, v2))
    bound = dissipation * (s2 - s1)
    assert 0.0 < v1.alpha - v2.alpha <= bound * (1.0 + 1e-9)


def test_alpha_curve_monotone_with_zero_bracket(cheap_config, tmp_path):
    s_grid = np.linspace(0.2, 4.0, 8)
    curve = alpha_curve(cheap_config, s_grid, DISC)
    assert np.all(np.diff(curve_alphas(curve)) < 0.0)
    assert curve.zero_bracket is not None
    lo, hi = curve.zero_bracket
    assert lo < hi
    i = list(curve.s).index(lo)
    assert curve_alphas(curve)[i] > 0.0 >= curve_alphas(curve)[i + 1]
    grid = ",".join(repr(float(s)) for s in s_grid)
    out = cli_output(tmp_path, cheap_config, "alpha-curve", "--s-grid", grid, "--resolution", "8")
    lines = out.read_text().splitlines()
    assert lines[0] == "s,alpha,argmax_k,branch"
    assert len(lines) == 9
    assert [float(line.split(",")[1]) for line in lines[1:]] == list(curve_alphas(curve))


def test_alpha_curve_rejects_bad_grid(cheap_config):
    with pytest.raises(ValueError):
        alpha_curve(cheap_config, [1.0], DISC)
    with pytest.raises(ValueError):
        alpha_curve(cheap_config, [2.0, 1.0], DISC)
    with pytest.raises(ValueError):
        alpha_curve(cheap_config, [-1.0, 1.0], DISC)


def test_alpha_builds_no_profile(cheap_config, monkeypatch):
    # alpha(s) only locates Lambda: it runs inertia tests, bisections and
    # secular Newton steps, never a fixed-point solve or an eigenprofile
    fm = FrozenModeSet.freeze(cheap_config, DISC, K_MAX)

    def no_profile(*args, **kwargs):
        raise AssertionError("alpha(s) solved for an eigenprofile")

    monkeypatch.setattr(spectrum, "fixed_point", no_profile)
    monkeypatch.setattr(pencil, "coeffs_to_profile", no_profile)
    value = fm.alpha_value(0.5, 0.0)
    curve = alpha_curve(cheap_config, [0.5, 1.0, 2.0], DISC, frozen=fm)
    assert curve.values[0].alpha == value.alpha


def test_alpha_curve_monotonicity_guard(cheap_config, monkeypatch):
    fm = FrozenModeSet.freeze(cheap_config, DISC, K_MAX)
    real = fm.alpha_value

    def doctored(s, theta):
        value = real(s, theta)
        if s > 1.0:  # fake an increase, as if the mode set changed mid-curve
            return AlphaValue(
                alpha=value.alpha + 100.0,
                argmax_k=value.argmax_k,
                branch="longitudinal",
                s=value.s,
                theta=value.theta,
            )
        return value

    monkeypatch.setattr(fm, "alpha_value", doctored)
    with pytest.raises(MonotonicityViolation):
        alpha_curve(cheap_config, [0.5, 1.5], DISC, frozen=fm)


def test_handed_in_set_is_sized_for_lambda_and_evaluated_as_is_for_alpha(cheap_config):
    # a deliberately tiny set ends below the growth cutoff at Lambda
    fm = FrozenModeSet.freeze(cheap_config, DISC, 2.2)
    # alpha(s) evaluates a set as it is
    assert fm.alpha_value(0.5, 0.0).argmax_k <= 2.2
    assert fm.modes.k_max == 2.2
    # a growth solve extends it, like an owned set, to the owned solve's answer
    owned = solve_lambda(cheap_config, DISC)
    assert growth_cutoff(cheap_config, owned.lam) > 2.2
    handed = solve_lambda(cheap_config, DISC, frozen=fm)
    assert handed.mode_set is fm and fm.modes.k_max > 2.2
    assert handed.lam == owned.lam and handed.argmax_k == owned.argmax_k
    assert handed.bound_compliance == owned.bound_compliance


def test_mode_table_csv(cheap_config, tmp_path):
    # growth --mode-table: one row per mode of the solve's sized set
    fm = solve_lambda(cheap_config, DISC).mode_set
    table = tmp_path / "modes.csv"
    cli_output(tmp_path, cheap_config, "growth", "--resolution", "8", "--mode-table", str(table))
    lines = table.read_text().splitlines()
    assert lines[0] == "k,alpha_longitudinal,alpha_transverse,branch"
    assert len(lines) == len(fm.modes) + 1
    assert [float(line.split(",")[0]) for line in lines[1:]] == list(fm.modes.magnitudes)
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(1.0)
    assert first[3] in ("longitudinal", "transverse")


def span(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False)


@st.composite
def configs(draw):
    # Density ratios up to about 26 and viscosity ratios up to 50: the growth
    # rate is sized by growth_cutoff, whose envelopes use mu+ + mu- and
    # rho+ + rho-, so strong contrasts keep the sized sets small.
    rho_minus = draw(span(0.2, 2.0))
    return FluidConfig(
        rho_plus=rho_minus + draw(span(0.1, 5.0)), rho_minus=rho_minus,
        mu_plus=draw(span(0.1, 5.0)), mu_minus=draw(span(0.1, 5.0)), g=draw(span(1.0, 20.0)),
        theta=0.0, L1=draw(span(0.3, 1.0)), L2=draw(span(0.3, 1.0)),
        h_plus=draw(span(0.5, 2.0)), h_minus=draw(span(0.5, 2.0)),
    )


def envelope_root(cfg, theta, k):
    """Positive root r of r^2 (rho+ + rho-) / k + 2 k (mu+ + mu-) r = max(c_k, 0)."""
    c = np.maximum(cfg.g * cfg.density_jump - theta * k**2, 0.0)
    a, b = (cfg.rho_plus + cfg.rho_minus) / k, 2.0 * k * (cfg.mu_plus + cfg.mu_minus)
    return 2.0 * c / (b + np.sqrt(b * b + 4.0 * a * c))


@settings(max_examples=25, deadline=None)
@given(configs(), span(0.0, 0.95), span(1e-2, 30.0))
def test_per_mode_bound_certifies_the_cutoff(cfg, fraction, s):
    theta = fraction * theta_critical(cfg)
    fm = FrozenModeSet.freeze(cfg, DISC, 6.0 * smallest_magnitude(cfg))
    k = fm.modes.magnitudes
    cfg_theta = cfg.with_theta(theta)
    u = split_bound(cfg_theta, s, 0.0)(k)
    table = fm.table(s, theta)
    al, at = table.alpha_longitudinal, table.alpha_transverse
    slack = 1e-12 * np.abs(u)  # rounding only
    assert np.all(al <= u + slack) and np.all(at <= u + slack)

    # Lambda_k <= r_k, the root of r^2 / I_k + r / C_k = max(c_k, 0), and the
    # discrete compliances lie below their whole-line envelopes
    inviscid, stokes = np.transpose([galerkin_compliances(assemble(kk, cfg, DISC)) for kk in k])
    assert np.all(inviscid * (cfg.rho_plus + cfg.rho_minus) / k <= 1.0)
    assert np.all(stokes * 2.0 * k * (cfg.mu_plus + cfg.mu_minus) < 1.0)
    r = fm.growth_bounds(theta)
    for kk, rk in zip(k, r):
        solved = solve_mode_lambda(cfg_theta, kk, DISC)
        assert (solved.lam if solved else 0.0) <= rk * (1.0 + 1e-12)

    # no mode beyond the sized set changes Lambda, to the last bit
    certified = FrozenModeSet.freeze(cfg, DISC, smallest_magnitude(cfg))
    lam = size_mode_set(certified, theta).lam
    cutoff = growth_cutoff(cfg_theta, lam)
    assert cutoff <= certified.modes.k_max
    beyond = np.linspace(cutoff, 4.0 * cutoff, 400)[1:]
    assert np.all(envelope_root(cfg, theta, beyond) < lam)
    doubled = FrozenModeSet.freeze(cfg, DISC, 2.0 * cutoff)
    assert growth_max(doubled, theta).lam == lam


@settings(max_examples=25, deadline=None)
@given(configs(), span(0.0, 0.95), span(1e-2, 30.0), span(0.0, 1.0))
def test_split_bound_holds_on_both_branches(cfg, fraction, s, split):
    theta = fraction * theta_critical(cfg)
    cfg_theta = cfg.with_theta(theta)
    fm = FrozenModeSet.freeze(cfg, DISC, 6.0 * smallest_magnitude(cfg))
    k = fm.modes.magnitudes
    bound = split_bound(cfg_theta, s, split)(k)
    table = fm.table(s, theta)
    slack = 1e-12 * np.abs(bound)  # rounding only
    assert np.all(table.alpha_longitudinal <= bound + slack)
    assert np.all(table.alpha_transverse <= bound + slack)

    # past the cutoff some split is below the floor, so no mode reaches it
    floor = float(np.max(table_alpha(table)))
    cutoff = certified_cutoff(cfg_theta, s, floor)
    beyond = np.linspace(cutoff, 4.0 * cutoff, 400)[1:]
    splits = (0.0, 0.5, 1.0) if floor > 0.0 else (0.0, 0.5)
    assert np.all(np.min([split_bound(cfg_theta, s, w)(beyond) for w in splits], axis=0) < floor)


def test_contrast_alpha_sizes_few_modes():
    # U alone puts the alpha cutoff of this config near k = 963 at s = 1,
    # about 800,000 lattice magnitudes; the split bounds cut near k = 20
    cfg = FluidConfig(
        rho_plus=5.2, rho_minus=0.2, mu_plus=0.1, mu_minus=5.0,
        g=20.0, theta=0.0, L1=2.0, L2=2.0, h_plus=0.3, h_minus=0.3,
    )
    for s, most in ((0.3, 700), (1.0, 500)):
        fm = FrozenModeSet.freeze(cfg, DISC, smallest_magnitude(cfg))
        value = size_mode_set(fm, 0.0, s)
        assert len(fm.modes) <= most
        wider = FrozenModeSet.freeze(cfg, DISC, 2.0 * fm.modes.k_max).alpha_value(s, 0.0)
        assert (wider.alpha, wider.argmax_k) == (value.alpha, value.argmax_k)


def test_certified_cutoff_closed_form_without_surface_tension(cheap_config):
    # at theta = 0, U(k, s) = a k - b k^2 and its cutoff is the larger root;
    # the other splits can only cut lower
    a, b, floor = 9.8 / 3.0, 1.5 / 2.0, 2.0
    expected = (a + math.sqrt(a * a - 4.0 * b * floor)) / (2.0 * b)
    assert _split_cutoff(cheap_config, 1.5, floor, 0.0) == pytest.approx(expected, rel=1e-11)
    assert certified_cutoff(cheap_config, 1.5, floor) <= expected
    # a floor above the peak a^2 / (4 b) is reached by no mode
    assert certified_cutoff(cheap_config, 1.5, 1.01 * a * a / (4.0 * b)) == 0.0
    # surface tension only lowers the bound, so only lowers the cutoff
    assert certified_cutoff(cheap_config.with_theta(1.0), 1.5, floor) < expected


def test_sizing_grows_an_owned_set_to_the_certified_cutoff(cheap_config):
    fm = FrozenModeSet.freeze(cheap_config, DISC, smallest_magnitude(cheap_config))
    lam = size_mode_set(fm, 0.0).lam
    assert growth_cutoff(cheap_config, lam) <= fm.modes.k_max
    assert solve_lambda(cheap_config, DISC).lam == lam
    # alpha(s) is sized with floor alpha(s): the same value on a wider set
    sized = FrozenModeSet.freeze(cheap_config, DISC, smallest_magnitude(cheap_config))
    value = size_mode_set(sized, 0.0, 0.2)
    assert certified_cutoff(cheap_config, 0.2, value.alpha) <= sized.modes.k_max
    assert global_alpha(cheap_config, 0.2, DISC).alpha == value.alpha
    wider_set = FrozenModeSet.freeze(cheap_config, DISC, 2.0 * sized.modes.k_max)
    wider = wider_set.alpha_value(0.2, 0.0)
    assert wider.alpha == value.alpha and wider.argmax_k == value.argmax_k


@settings(max_examples=50, deadline=None)
@given(configs(), span(0.0, 0.95), span(0.05, 0.95))
def test_growth_cutoff_is_the_largest_root_of_the_envelope_polynomial(cfg, fraction, share):
    # growth_cutoff solves B_1 >= lam^2 at s = lam; that is p(k) <= 0 for
    #   p(k) = theta k^3 + 2 (mu+ + mu-) lam k^2 - g [rho] k + (rho+ + rho-) lam^2,
    # whose largest root numpy finds independently. lam is a share of the
    # envelope root at the smallest magnitude k0, so p(k0) < 0: p, convex on
    # k > 0 with p(0) > 0, has one simple root below k0 and one above. numpy
    # solves for y = 1/k, whose leading coefficient is not theta, which may be
    # tiny; in (0, 1/k0) the only other root is the one at y = 0 (theta = 0),
    # or within rounding of it. Beside a far larger root, numpy's companion
    # eigenvalue can be 1e-11 off, so two Newton steps on p polish it.
    cfg = cfg.with_theta(fraction * theta_critical(cfg))
    k0 = smallest_magnitude(cfg)
    lam = share * float(envelope_root(cfg, cfg.theta, k0))
    rho_sum, mu_sum = cfg.rho_plus + cfg.rho_minus, cfg.mu_plus + cfg.mu_minus
    gr = cfg.g * cfg.density_jump
    b, q = 2.0 * mu_sum * lam, rho_sum * lam**2
    ys = np.roots([q, -gr, b, cfg.theta])
    k = 1.0 / max(r.real for r in ys if abs(r.imag) <= 1e-9 * abs(r) and 0.0 < r.real < 1.0 / k0)
    for _ in range(2):
        k -= (((cfg.theta * k + b) * k - gr) * k + q) / ((3.0 * cfg.theta * k + 2.0 * b) * k - gr)
    assert growth_cutoff(cfg, lam) == pytest.approx(k, rel=1e-11)
    # no envelope reaches a rate above max_k min(sqrt(g [rho] k / rho_sum),
    # g [rho] / (2 k mu_sum)), attained where the two are equal
    k3 = (gr * rho_sum / (4.0 * mu_sum**2)) ** (1.0 / 3.0)
    assert growth_cutoff(cfg, 1.01 * math.sqrt(gr * k3 / rho_sum)) == 0.0
    with pytest.raises(ValueError):
        growth_cutoff(cfg, 0.0)


def test_compliance_bound_takes_python_floats(rng):
    # Python floats give the bits of arrays, and a C_k whose square
    # underflows (mu = 1e300) gives r_k = 0, not a ZeroDivisionError
    c = rng.uniform(-1.0, 20.0, 2000)
    inviscid, stokes = 10.0 ** rng.uniform(-3.0, 3.0, 2000), 10.0 ** rng.uniform(-150.0, 5.0, 2000)
    arrays = spectrum.compliance_bound(c, inviscid, stokes)
    scalars = [float(spectrum.compliance_bound(*args)) for args in zip(c.tolist(), inviscid.tolist(), stokes.tolist())]
    assert scalars == arrays.tolist()
    with np.errstate(divide="ignore"):
        assert spectrum.compliance_bound(9.8, 0.4, 1e-170) == 0.0


def test_growth_cutoff_is_the_closed_form_root_without_surface_tension(cheap_config):
    def p(k, theta, lam):
        return (theta * k**3 + 2.0 * 2.0 * lam * k**2 - 9.8 * k + 3.0 * lam**2)

    # at theta = 0, p is a quadratic: the cutoff is its larger root
    lam = 0.7
    expected = (9.8 + math.sqrt(9.8**2 - 4.0 * 4.0 * lam * 3.0 * lam**2)) / (2.0 * 4.0 * lam)
    assert growth_cutoff(cheap_config, lam) == pytest.approx(expected, rel=1e-11)
    for theta in (0.5, 3.0):
        k2 = growth_cutoff(cheap_config.with_theta(theta), lam)
        assert p(k2, theta, lam) > 0.0 > p(k2 * (1.0 - 1e-9), theta, lam)
        assert k2 < expected  # surface tension only lowers the cutoff


def test_contrast_config_sizes_few_modes():
    # strong density and viscosity contrast: at this Lambda the U cutoff
    # (k about 1034) spans about 875,000 lattice magnitudes, the envelope
    # cutoff (k about 10.5) 156
    cfg = FluidConfig(
        rho_plus=5.2, rho_minus=0.2, mu_plus=0.1, mu_minus=5.0,
        g=20.0, theta=0.0, L1=2.0, L2=2.0, h_plus=0.3, h_minus=0.3,
    )
    disc = Discretization(16)
    result = solve_lambda(cfg, disc)
    assert len(result.mode_set.modes) <= 160
    assert result.lam <= result.bound_compliance <= result.bound_m
    row = compare_modes(cfg, [result.argmax_k], disc)[0]
    assert row.lambda_variational == result.lam
    assert row.rel_diff <= 1e-2  # the oracle tolerance of verify at N = 16


def test_growth_scan_solves_few_modes(reference_config):
    # ordered by r_k, one scan of the sized N = 128 set solves the maximizer
    # and at most one other mode (the crude trace-based order solved 22)
    disc = Discretization(128)
    fm = FrozenModeSet.freeze(reference_config, disc, smallest_magnitude(reference_config))
    size_mode_set(fm, 0.0)
    solved = []
    real = spectrum.fixed_point

    def spy(forms, start):
        solved.append(forms.k)
        return real(forms, start)

    spectrum.fixed_point = spy
    try:
        best = growth_max(fm, 0.0)
    finally:
        spectrum.fixed_point = real
    assert best.forms.k == 5.0
    assert len(solved) <= 2
    assert len(fm.modes) <= 30


@settings(max_examples=25, deadline=None)
@given(configs(), span(0.0, 0.95), span(1e-2, 30.0))
def test_inertia_scans_match_full_solves(cfg, fraction, s):
    # What a successful factorization proves (pencil.alpha_below): alpha
    # above alpha_k(s), up to a rounding-level backward error; each mode is
    # checked on both signs of c_k against the dense reference.
    theta = fraction * theta_critical(cfg)
    cfg = cfg.with_theta(theta)
    fm = FrozenModeSet.freeze(cfg, DISC, 4.0 * smallest_magnitude(cfg))
    for k in fm.modes.magnitudes:
        for forms in (assemble(k, cfg, DISC), replace(assemble(k, cfg, DISC), c_k=-abs(cfg.g))):
            dense = largest_eigenpair(forms, s).alpha
            delta = 1e-9 * max(1.0, abs(dense))
            assert alpha_below(forms, s, dense + delta)
            assert not alpha_below(forms, s, dense - delta)
            assert pencil.mode_alpha(forms, s) == pytest.approx(dense, rel=1e-10, abs=1e-10)
            if forms.c_k <= 0.0:  # alpha_k(s) < 0 is proven (pencil.mode_alpha)
                assert alpha_below(forms, s, 0.0)
                assert pencil.mode_alpha(forms, s) < 0.0

    # The scans equal the maximum over a full solve of every mode, and every
    # mode the growth scan ruled out has Lambda_k below that maximum.
    table = fm.table(s, theta)
    assert fm.alpha_value(s, theta).alpha == np.max(table_alpha(table))
    solved = []
    real = spectrum.fixed_point

    def spy(forms, start):
        solved.append(forms.k)
        return real(forms, start)

    spectrum.fixed_point = spy
    try:
        best = growth_max(fm, theta)
    finally:
        spectrum.fixed_point = real
    full = {k: solve_mode_lambda(cfg, k, DISC) for k in fm.modes.magnitudes}
    lams = {k: fp.lam for k, fp in full.items() if fp is not None}
    assert best.lam == max(lams.values())
    assert best.forms.k == max(lams, key=lambda k: (lams[k], -k))
    assert all(lam < best.lam for k, lam in lams.items() if k not in solved)


def bisection_cutoff(cfg, s, floor, split):
    """The upper end of {B_l >= floor} by bisection: the reference for the
    Newton steps of spectrum._split_cutoff. Bracketed between the peak of B_l
    and g [rho] / stokes (twice the peak without stokes), doubled while B_l
    still reaches floor there, and bisected to 1e-12 of the upper end."""
    bound = split_bound(cfg, s, split)
    rho_sum = cfg.rho_plus + cfg.rho_minus
    gr = cfg.g * cfg.density_jump
    stokes = 2.0 * split * s * (cfg.mu_plus + cfg.mu_minus)
    interior = (1.0 - split) * s * min(cfg.mu_plus, cfg.mu_minus) / max(cfg.rho_plus, cfg.rho_minus)
    a, b = gr / rho_sum, stokes / rho_sum + interior
    lo = a / (b + math.sqrt(b * b + 3.0 * a * cfg.theta / rho_sum))
    hi = gr / stokes if stokes > 0.0 else 2.0 * lo
    if bound(lo) < floor:
        return 0.0
    while bound(hi) >= floor:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if bound(mid) >= floor else (lo, mid)
    return hi


def check_newton_cutoff(cfg, s, floor, split):
    newton = _split_cutoff(cfg, s, floor, split)
    reference = bisection_cutoff(cfg, s, floor, split)
    assert newton >= reference * (1.0 - 1e-12)
    assert newton <= reference * (1.0 + 1e-9)  # as tight, up to the bisection's own width
    assert newton == 0.0 or split_bound(cfg, s, split)(newton) < floor


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    nu_plus=st.floats(min_value=-4.0, max_value=0.0),
    nu_minus=st.floats(min_value=-4.0, max_value=0.0),
    fraction=st.floats(min_value=0.0, max_value=0.99),
    share=st.floats(min_value=0.05, max_value=0.95),
)
def test_incremental_sizing_and_newton_cutoff_over_config_box(nu_plus, nu_minus, fraction, share):
    # the box of test_dispersion_root_over_config_box. The Newton cutoff is
    # certified (B_l < floor where it stops) and not below the bisection's,
    # on every split, at floors above and below 0; the incremental passes of
    # a growth solve, and of alpha(s) at s = Lambda, assemble every mode at
    # most once and return the bits of one scan of the final set
    cfg = box_config(nu_plus, nu_minus, fraction)
    for split in (0.0, 0.5, 1.0):
        for s in (0.1, 1.0, 10.0):
            top = float(np.max(split_bound(cfg, s, split)(np.geomspace(1e-3, 1e4, 2000))))
            floors = [share * top] + ([-share * top, -10.0 * share] if split < 1.0 else [])
            for floor in floors:
                check_newton_cutoff(cfg, s, floor, split)

    disc = Discretization(8)
    fm = FrozenModeSet.freeze(cfg, disc, smallest_magnitude(cfg))
    sized = FrozenModeSet.freeze(cfg, disc, smallest_magnitude(cfg))
    assembled = [[]]  # one list per sizing
    real = spectrum.assemble

    def spy(k, *args):
        assembled[-1].append(float(k))
        return real(k, *args)

    spectrum.assemble = spy
    try:
        best = size_mode_set(fm, cfg.theta)
        assembled.append([])
        value = size_mode_set(sized, cfg.theta, best.lam)
    except DegenerateExponents as exc:
        # near mu = 1e-4 at N = 8 the growth cutoff lies past the lattice
        # that can be enumerated
        assert "lies past the lattice" in str(exc)
        return
    finally:
        spectrum.assemble = real
    for modes in assembled:
        assert len(modes) == len(set(modes))
    check_newton_cutoff(cfg, best.lam, best.lam**2, 1.0)
    scan = FrozenModeSet.freeze(cfg, disc, fm.modes.k_max)
    assert np.array_equal(scan.modes.magnitudes, fm.modes.magnitudes)
    once = growth_max(scan, cfg.theta)
    assert (best.lam, best.forms.k, best.alpha, best.noise) == (once.lam, once.forms.k, once.alpha, once.noise)
    assert np.array_equal(best.vector, once.vector)
    once = FrozenModeSet.freeze(cfg, disc, sized.modes.k_max).alpha_value(best.lam, cfg.theta)
    assert (value.alpha, value.argmax_k, value.branch) == (once.alpha, once.argmax_k, once.branch)


def test_vanishing_viscosity_cutoff_does_not_underflow(cheap_config):
    # at mu = 1e-300, b * b underflowed to 0 and the peak of B_1 doubled onto
    # the zero of its positive part, so growth_cutoff returned 0 and the set
    # stayed at k = 1. With hypot the cutoff is where the viscous term
    # catches up, near g [rho] / (2 (mu+ + mu-) lam)
    cfg = replace(cheap_config, mu_plus=1e-300, mu_minus=1e-300)
    lam = 1.5570986831765101  # the k = 1 rate of the one-mode set
    cutoff = growth_cutoff(cfg, lam)
    assert cutoff == pytest.approx(9.8 / (4e-300 * lam), rel=1e-12)
    assert split_bound(cfg, lam, 1.0)(cutoff) < lam * lam
    assert certified_cutoff(cfg, 1.0, 0.5) > 1e299
    # a sweep's numpy theta leaves the cutoff a float, as error messages print it
    assert type(growth_cutoff(cfg.with_theta(np.float64(0.0)), lam)) is float


def test_sizing_past_the_lattice_limit_names_the_cutoff(cheap_config, monkeypatch):
    # the lattice up to the cutoff would take more than LATTICE_POINTS points
    # (1024 here, to keep the test short): the extension raises instead of
    # enumerating it, and names the cutoff
    monkeypatch.setattr(spectrum, "LATTICE_POINTS", 1 << 10)
    fm = FrozenModeSet.freeze(cheap_config, DISC, smallest_magnitude(cheap_config))
    assert size_mode_set(fm, 0.0).lam > 0.0  # k_max 2.83: 49 lattice points
    cfg = replace(cheap_config, mu_plus=1e-3, mu_minus=1e-3)
    fm = FrozenModeSet.freeze(cfg, DISC, smallest_magnitude(cfg))
    with pytest.raises(DegenerateExponents, match=r"the cutoff k = \S+ lies past the lattice"):
        size_mode_set(fm, 0.0)
    assert fm.modes.k_max <= 16.0
    with pytest.raises(DegenerateExponents, match="lattice points"):
        enumerate_modes(cfg, 16.0)
