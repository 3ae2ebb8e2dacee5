"""Exception hierarchy for the growth-rate solver."""


class SolverError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(SolverError):
    """Invalid physical configuration."""


class DensityOrderViolation(ConfigError):
    """Upper density does not strictly exceed the lower density."""


class NonPositiveParameter(ConfigError):
    """A parameter that must be strictly positive is not."""

    def __init__(self, field: str):
        self.field = field
        super().__init__(f"parameter {field!r} must be > 0")


class NonFiniteParameter(ConfigError):
    """A parameter is not a finite real number (bool, string, NaN or infinity)."""

    def __init__(self, field: str, value):
        self.field = field
        super().__init__(f"parameter {field!r} must be a finite number, got {value!r}")


class NegativeSurfaceTension(ConfigError):
    """Surface tension coefficient is negative."""


class StableRegime(SolverError):
    """Surface tension at or above the critical threshold: no growing mode."""

    def __init__(self, theta: float, theta_c: float):
        self.theta = theta
        self.theta_c = theta_c
        super().__init__(
            f"theta = {theta!r} >= theta_c = {theta_c!r}: configuration is "
            "linearly stable, no positive growth rate exists"
        )


class ZeroWaveNumber(SolverError):
    """Per-mode operation received k <= 0."""


class ResolutionTooSmall(ConfigError):
    """Fewer elements per layer than the discretization supports."""


class FactorizationFailure(SolverError):
    """Kinetic matrix is not numerically positive definite (assembly bug)."""


class EmptyModeSet(SolverError):
    """Cutoff below the smallest lattice wavenumber magnitude."""


class MonotonicityViolation(SolverError):
    """A quantity the theory requires to be strictly monotone is not.

    Signals an internal inconsistency of the discretization (for example a
    mode set that changed between samples), never a property of the physics.
    """


class DegenerateExponents(SolverError):
    """F_k came out non-finite, an interface compliance not finite and positive,
    or every growth bound r_k 0 (a rate, wavenumber, depth or viscosity near
    the float range's end)."""
