"""Exception hierarchy for the growth-rate solver.

One class per way a run ends, read by cli.main: ConfigError (exit 2, bad
input), StableRegime (exit 3, no mode grows) and their base SolverError
(exit 4, numerical failure). A subclass exists only where a handler needs it
by name; today none does. Every other error is raised as the base class of
its exit code, its message saying what went wrong.
"""


class SolverError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(SolverError):
    """Invalid physical configuration or discretization."""


class StableRegime(SolverError):
    """No mode grows, as model.upper_bound_m alone decides: theta >= theta_c,
    or the computed c_k <= 0 at the smallest lattice magnitude. finding is
    what was found, as verify's stable_regime check reports it; the message
    states it in the words of stated, where given."""

    def __init__(self, finding: str, stated: str | None = None):
        self.finding = finding
        super().__init__(
            f"{stated or finding}: configuration is linearly stable, no positive growth rate exists"
        )
