"""Growth rate Lambda = sqrt(alpha(Lambda)) as the largest per-mode fixed point.

f(s) = alpha(s) - s^2 is strictly decreasing, so the growth rate is its
unique zero. Since alpha(s) is the maximum over lattice modes of alpha_k(s),
f(s) > 0 exactly when some alpha_k(s) > s^2, that is when s < Lambda_k for
the per-mode fixed point Lambda_k^2 = alpha_k(Lambda_k). So
Lambda = max_k Lambda_k: one scan of the mode set with the growth pair
(spectrum.size_mode_set, _growth_pair) solves Lambda_k by banded Newton
steps (pencil.fixed_point) only for the modes that one inertia test at the
running maximum cannot rule out, and grows the set, owned or handed in,
until the growth cutoff at the answer lies inside it. The eigenprofile is
the last solve of the maximizing mode's Newton loop, and the alpha at
Lambda and the fixed-point residual come from that solve too. It runs for
that mode alone, when GrowthResult.validate reads it (pencil.FixedPoint).
The eigenprofile's error is read against the exact eigenprofile of the
dispersion relation (oracle.profile_error), on the same nodes. Beside the
paper's bound m, a result carries the sharper proven bound
bound_compliance = max_k r_k (spectrum.compliance_bound) on the exact
Lambda, whose r_k also start every per-mode Newton solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError
from .model import FluidConfig, upper_bound_m, validate_config
from .modeforms import ExactMode, VerticalProfile
from .pencil import COUNTS, Discretization, FixedPoint, assemble, fixed_point
from .spectrum import FrozenModeSet, mode_compliance_bound, size_mode_set, smallest_magnitude


@dataclass(frozen=True, eq=False)
class GrowthResult:
    """Growth rate: the maximizing mode's fixed point, with bounds.

    lam, argmax_k, eigenprofile and fixed_point_residual are read from
    fixed_point; mode_set is the set Lambda was maximized over
    (mode_set.table(lam, theta) gives every mode's branch values at Lambda)."""

    fixed_point: FixedPoint
    bound_m: float
    bound_compliance: float
    theta: float
    tol_fp: float
    mode_set: FrozenModeSet = field(repr=False)

    @property
    def lam(self) -> float:
        return self.fixed_point.lam

    @property
    def argmax_k(self) -> float:
        return self.fixed_point.forms.k

    @property
    def eigenprofile(self) -> VerticalProfile:
        return self.fixed_point.profile

    @property
    def fixed_point_residual(self) -> float:
        return self.fixed_point.residual

    @property
    def resolution(self) -> int:
        return self.fixed_point.forms.elements_per_layer

    def validate(self) -> None:
        COUNTS["solves"] += 1
        if not 0.0 < self.lam <= self.bound_m * (1.0 + 1e-6):
            raise SolverError(
                f"growth rate {self.lam!r} escapes (0, m] with m = {self.bound_m!r}"
            )
        if not self.lam <= self.bound_compliance * (1.0 + 1e-12):
            raise SolverError(
                f"growth rate {self.lam!r} exceeds the compliance bound {self.bound_compliance!r}"
            )
        if self.fixed_point_residual > self.tol_fp * max(1.0, self.lam**2):
            raise SolverError(
                f"fixed-point residual {self.fixed_point_residual!r} exceeds tolerance"
            )
        if not self.fixed_point.alpha > 0.0:
            raise SolverError("alpha at the fixed point must be positive")
        # the eigenvector's interface value and slopes, as the profile holds them
        x = self.fixed_point.vector
        if x[self.fixed_point.forms.e0_index] == 0.0:
            raise SolverError("eigenprofile has vanishing interface value")
        if not np.max(np.abs(x[1::2])) > 0.0:
            raise SolverError("eigenprofile has identically zero derivative")

    def to_json_dict(self) -> dict:
        # the maximizer couples to the interface: alpha(Lambda) = Lambda^2 > 0
        # is the coupled value of a mode, and the transverse branch is never
        # positive
        return {
            "lambda": self.lam,
            "argmax_k": self.argmax_k,
            "fixed_point_residual": self.fixed_point_residual,
            "bound_m": self.bound_m,
            "bound_compliance": self.bound_compliance,
            "theta": self.theta,
            "resolution": self.resolution,
            "branch": "longitudinal",
        }


def solve_lambda(
    cfg: FluidConfig,
    disc: Discretization,
    tol_fp: float = 1e-8,
    frozen: FrozenModeSet | None = None,
) -> GrowthResult:
    """Largest growth rate Lambda with Lambda^2 = alpha(Lambda).

    tol_fp bounds the fixed-point residual that validation accepts, relative
    to max(1, Lambda^2). No caller in the package varies it; it stays a
    parameter because perfbench/workloads.py passes it. A frozen set must
    serve cfg and disc (FrozenModeSet.check_serves) and is sized by
    size_mode_set as an owned set is, so a sweep can hand one set to every theta.
    bound_compliance reads the bounds r_k that the sizing passes took at this
    theta (FrozenModeSet.growth_bounds keeps them).
    """
    validate_config(cfg)
    if tol_fp <= 0.0:
        raise ValueError(f"tol_fp must be > 0, got {tol_fp!r}")
    bound_m = upper_bound_m(cfg)  # raises StableRegime unless theta < theta_c
    if frozen is None:
        # every set holds the smallest magnitude, whose c_k is > 0 at theta <
        # theta_c in exact arithmetic; a theta an ulp or so below theta_c can
        # round it to 0 or below, and size_mode_set then raises DegenerateExponents
        frozen = FrozenModeSet.freeze(cfg, disc, smallest_magnitude(cfg))
    frozen.check_serves(cfg, disc)
    result = GrowthResult(
        fixed_point=size_mode_set(frozen, cfg.theta),
        bound_m=bound_m,
        bound_compliance=float(np.max(frozen.growth_bounds(cfg.theta))),
        theta=cfg.theta,
        tol_fp=tol_fp,
        mode_set=frozen,
    )
    result.validate()
    return result


def solve_mode_lambda(cfg: FluidConfig, k: float, disc: Discretization) -> FixedPoint | None:
    """Fixed point of the single mode k at cfg.theta; None when c_k <= 0 (stable).

    Newton starts from the compliance bound r_k (mode_compliance_bound), as in
    the global scan. An r_k rounded to 0 (C_k near 3e-302 at mu = 1e300,
    whose square underflows) raises DegenerateExponents (pencil.fixed_point),
    as a global scan whose every r_k is 0 does.
    """
    validate_config(cfg)
    upper_bound_m(cfg)  # raises StableRegime unless theta < theta_c
    forms = assemble(float(k), cfg, disc)
    start = mode_compliance_bound(ExactMode(forms.k, cfg))
    return None if start is None else fixed_point(forms, start)
