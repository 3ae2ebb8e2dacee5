"""Surface-tension sweeps and the self-contained verification suite.

A sweep solves every point of a strictly increasing theta grid on one shared
mode set. Each point's solve extends the set until its own growth cutoff lies
inside (spectrum.size_mode_set), so every point is the maximum over the whole
lattice, and the compliances of a mode are computed once for the grid. Every
Lambda_k strictly decreases in theta, as c_k does, so their maximum does too:
the sweep raises unless Lambda decreases strictly along the whole grid, and it
reports Lambda <= m at every point, so a grid that closes in on theta_c
checks the vanishing limit, and one that brackets a point checks the ordering
Lambda(theta - delta) > Lambda(theta) > Lambda(theta + delta). The report
lists each point's compliance bound on the exact Lambda, which it has checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, StableRegime
from .fixedpoint import GrowthResult, solve_lambda
from .model import (
    FluidConfig,
    smallest_magnitude,
    theta_critical,
    upper_bound_m,
    validate_config,
    wang_tice_bound,
)
from .oracle import compare_modes, compare_solved_mode, profile_error
from .pencil import Discretization
from .spectrum import FrozenModeSet, alpha_curve


def _sized_mode_set(
    cfg: FluidConfig, disc: Discretization, tol_fp: float = 1e-8, _jobs=None
) -> tuple[FrozenModeSet, GrowthResult]:
    """Solve Lambda at theta = 0 on an owned, sized mode set; return both.

    tol_fp is passed to solve_lambda and _jobs is ignored. No caller in the
    package sets either; both stay because perfbench/workloads.py calls
    _sized_mode_set(cfg, disc, TOL_FP, 1).
    """
    res0 = solve_lambda(cfg.with_theta(0.0), disc, tol_fp=tol_fp)
    return res0.mode_set, res0


@dataclass(frozen=True, eq=False)
class ThetaSweep:
    """Growth rates over an increasing theta grid, with bounds and diagnostics.

    Every column is read from the per-point results."""

    results: list[GrowthResult] = field(repr=False)
    theta_c: float
    wang_tice: float

    @property
    def lambdas(self) -> np.ndarray:
        return np.asarray([r.lam for r in self.results])

    @property
    def bounds_m(self) -> np.ndarray:
        return np.asarray([r.bound_m for r in self.results])

    def report(self) -> dict:
        lam = self.lambdas
        return {
            "theta_c": self.theta_c,
            "wang_tice_bound": self.wang_tice,
            "strictly_decreasing": bool(np.all(np.diff(lam) < 0.0)),
            "all_positive": bool(np.all(lam > 0.0)),
            "bounded_by_m": bool(np.all(lam <= self.bounds_m * (1.0 + 1e-6))),
            "m_below_wang_tice": bool(np.all(self.bounds_m <= self.wang_tice * (1.0 + 1e-12))),
            "bound_compliance": [float(r.bound_compliance) for r in self.results],
        }


def sweep_theta(cfg: FluidConfig, fractions, disc: Discretization) -> ThetaSweep:
    """Solve Lambda at theta = fractions * theta_c, one solve per point, on one shared set."""
    validate_config(cfg)
    fractions = np.asarray(fractions, dtype=float)
    if fractions.ndim != 1 or fractions.size == 0:
        raise ValueError("fractions must be a non-empty 1-d sequence")
    if not (np.all(fractions >= 0.0) and np.all(fractions < 1.0)):
        raise ValueError("fractions must lie in [0, 1): theta_c itself is stable")
    if fractions.size > 1 and not np.all(np.diff(fractions) > 0.0):
        raise ValueError("fractions must be strictly increasing")
    theta_c = theta_critical(cfg)
    fm = FrozenModeSet.freeze(cfg, disc, smallest_magnitude(cfg))
    results = [solve_lambda(cfg.with_theta(f * theta_c), disc, frozen=fm) for f in fractions]

    sweep = ThetaSweep(results, theta_c, wang_tice_bound(cfg))
    if not np.all(np.diff(sweep.lambdas) < 0.0):
        raise SolverError(
            "growth rate failed to decrease strictly along the theta sweep, "
            "though every per-mode rate Lambda_k strictly decreases in theta"
        )
    return sweep


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    checks: list[VerifyCheck]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_all(cfg: FluidConfig, disc: Discretization) -> VerifyReport:
    """Check this config's solve; needs nothing beyond the config.

    Where no mode grows (upper_bound_m: theta >= theta_c, or the computed c_k
    <= 0 at the smallest magnitude) the report is the one check
    stable_regime, whose detail is that finding. Elsewhere c_k > 0 at the
    smallest magnitude, so every mode the oracle check compares grows and
    has both rates, or its solve raises and the check fails.

    The two alpha checks evaluate alpha_k(s) on the mode set sized for Lambda
    at theta = 0, which is not sized for alpha(s): below Lambda the maximum
    over that set can lie well below alpha(s), so their details name the set
    (mode count and k_max). Strict decrease in s and in theta holds for the
    maximum over any fixed set, so both checks stay valid.
    """
    validate_config(cfg)
    theta_c = theta_critical(cfg)
    try:
        m = upper_bound_m(cfg)
    except StableRegime as exc:
        return VerifyReport([VerifyCheck("stable_regime", True, f"{exc.finding}: solver checks skipped")])

    checks: list[VerifyCheck] = []
    fm, res0 = _sized_mode_set(cfg, disc)

    over_set = f"max of alpha_k over the {len(fm.modes)} modes with k <= {fm.modes.k_max!r}"
    s_grid = np.geomspace(m / 20.0, 1.2 * m, 8)
    try:
        alpha_curve(cfg, s_grid, disc, frozen=fm)
        checks.append(
            VerifyCheck(
                "alpha_strictly_decreasing",
                True,
                f"{over_set}: 8 samples on [{float(s_grid[0])!r}, {float(s_grid[-1])!r}]",
            )
        )
    except SolverError as exc:
        checks.append(VerifyCheck("alpha_strictly_decreasing", False, str(exc)))

    s_probe = float(m / 4.0)
    a1 = fm.alpha_value(s_probe, 0.0)
    a2 = fm.alpha_value(s_probe, 0.5 * theta_c)
    checks.append(
        VerifyCheck(
            "alpha_decreasing_in_theta",
            a2.alpha < a1.alpha,
            f"{over_set}: at s = {s_probe!r} drops from {a1.alpha!r} to {a2.alpha!r}",
        )
    )

    try:
        # at theta = 0 the sizing solve is this solve: same set, same theta
        result = res0 if cfg.theta == 0.0 else solve_lambda(cfg, disc, frozen=fm)
        checks.append(
            VerifyCheck(
                "fixed_point",
                True,
                f"lambda {result.lam!r} at k {result.argmax_k!r}, "
                f"residual {result.fixed_point_residual!r}, bound m {result.bound_m!r}",
            )
        )
    except SolverError as exc:
        checks.append(VerifyCheck("fixed_point", False, str(exc)))
        result = None

    n = disc.elements_per_layer
    oracle_tol = 5e-5 if n >= 128 else min(1e-2, 5e-5 * (128.0 / n) ** 4)
    ks = [smallest_magnitude(cfg)]
    if result is not None and result.argmax_k not in ks:
        ks.append(result.argmax_k)
    try:
        # the fixed_point check has solved the argmax mode: its Lambda_k^N is result.lam
        rows = [
            compare_solved_mode(cfg, k, result.lam)
            if result is not None and k == result.argmax_k
            else compare_modes(cfg, [k], disc)[0]
            for k in ks
        ]
    except SolverError as exc:
        checks.append(VerifyCheck("oracle_agreement", False, str(exc)))
    else:
        diff = max(r.rel_diff for r in rows)
        checks.append(
            VerifyCheck(
                "oracle_agreement",
                diff <= oracle_tol,
                f"max rel diff {diff!r} over k = {ks!r} (tolerance {oracle_tol!r} at N = {n})",
            )
        )
        if result is not None:
            # ks ends with the argmax mode, whose root the eigenprofile is checked at
            err = profile_error(result.eigenprofile, result.argmax_k, rows[-1].lambda_oracle, cfg)[0]
            checks.append(
                VerifyCheck(
                    "profile_agreement",
                    err <= oracle_tol,
                    f"max |psi - psi_exact| {err!r} at k {result.argmax_k!r}, psi(0) = 1 "
                    f"(tolerance {oracle_tol!r} at N = {n})",
                )
            )

    for factor in (1.01, 2.0):
        try:
            solve_lambda(cfg.with_theta(factor * theta_c), disc)
            checks.append(
                VerifyCheck("threshold_stability", False, f"no StableRegime at {factor} theta_c")
            )
            break
        except StableRegime:
            continue
    else:
        checks.append(
            VerifyCheck("threshold_stability", True, "StableRegime at 1.01 and 2.0 theta_c")
        )

    return VerifyReport(checks)
