"""Exception hierarchy for the growth-rate solver.

One class per way a run ends, read by cli.main: ConfigError (exit 2, bad
input), StableRegime (exit 3, theta >= theta_c) and their base SolverError
(exit 4, numerical failure). A subclass exists only where a handler catches
it by name: MonotonicityViolation (analysis.verify_all) and
DegenerateExponents (spectrum.size_mode_set). Every other error is raised as
the base class of its exit code, its message saying what went wrong.
"""


class SolverError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(SolverError):
    """Invalid physical configuration or discretization."""


class StableRegime(SolverError):
    """Surface tension at or above the critical threshold: no growing mode."""

    def __init__(self, theta: float, theta_c: float):
        self.theta = theta
        self.theta_c = theta_c
        super().__init__(
            f"theta = {theta!r} >= theta_c = {theta_c!r}: configuration is "
            "linearly stable, no positive growth rate exists"
        )


class MonotonicityViolation(SolverError):
    """A quantity the theory requires to be strictly monotone is not.

    Signals an internal inconsistency of the discretization (for example a
    mode set that changed between samples), never a property of the physics.
    """


class DegenerateExponents(SolverError):
    """F_k came out non-finite, an interface compliance not finite and positive,
    or every growth bound r_k 0 (a rate, wavenumber, depth or viscosity near
    the float range's end)."""
