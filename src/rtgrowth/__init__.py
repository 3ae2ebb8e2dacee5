"""Largest growth rate of linear Rayleigh-Taylor instability.

Two horizontally periodic layers of incompressible viscous fluid, heavier on
top, with interfacial surface tension. The solver maximizes a per-mode
Rayleigh quotient over vertical profiles, takes the supremum over the lattice
of wavenumbers, and solves the fixed-point relation Lambda^2 = alpha(Lambda);
an exact dispersion-relation oracle cross-checks every growth rate.
"""

from .fixedpoint import GrowthResult, solve_lambda, solve_mode_lambda
from .model import FluidConfig, theta_critical, upper_bound_m, validate_config
from .pencil import Discretization
from .spectrum import AlphaValue, alpha_curve

__all__ = [
    "AlphaValue",
    "Discretization",
    "FluidConfig",
    "GrowthResult",
    "alpha_curve",
    "solve_lambda",
    "solve_mode_lambda",
    "theta_critical",
    "upper_bound_m",
    "validate_config",
]
