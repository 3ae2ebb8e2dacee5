"""Physical configuration, validation, and closed-form threshold quantities.

All parameters are dimensional scalars in whatever consistent unit system the
caller chooses; nothing here rescales. The horizontal domain is periodic with
periods 2*pi*L1 and 2*pi*L2, the interface sits at y3 = 0, the rigid walls at
y3 = h_plus and y3 = -h_minus.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .errors import ConfigError, StableRegime

_POSITIVE_FIELDS = (
    "rho_plus",
    "rho_minus",
    "mu_plus",
    "mu_minus",
    "g",
    "L1",
    "L2",
    "h_plus",
    "h_minus",
)


@dataclass(frozen=True)
class FluidConfig:
    """Two-layer configuration: heavier fluid (+) on top of lighter fluid (-)."""

    rho_plus: float
    rho_minus: float
    mu_plus: float
    mu_minus: float
    g: float
    theta: float
    L1: float
    L2: float
    h_plus: float
    h_minus: float

    @property
    def density_jump(self) -> float:
        """Interface density jump rho_plus - rho_minus (positive when unstable)."""
        return self.rho_plus - self.rho_minus

    @property
    def max_period_scale_sq(self) -> float:
        return max(self.L1 * self.L1, self.L2 * self.L2)

    def with_theta(self, theta: float) -> "FluidConfig":
        """This config at another theta. A field-by-field copy (there is no
        __post_init__ to run), about 0.5 us against 2.7 us for
        dataclasses.replace. A sweep point calls it four times: its caller,
        FrozenModeSet.check_serves, the growth scan's pair and growth_bounds."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, theta=theta)
        return new

    @classmethod
    def from_json(cls, text: str) -> "FluidConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        names = {f.name for f in fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        missing = names - set(data)
        if missing:
            raise ValueError(f"missing config fields: {sorted(missing)}")
        return cls(**{k: _finite_number(k, v) for k, v in data.items()})


def _finite_number(name: str, value) -> float:
    """A JSON number as a finite float; bool, str, NaN and +-Infinity raise."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ConfigError(f"parameter {name!r} must be a finite number, got {value!r}")


def validate_config(cfg: FluidConfig) -> FluidConfig:
    """Return cfg unchanged if all invariants hold, else raise.

    Comparisons are exact predicates: these are user-supplied inputs, not
    computed quantities. Equal densities are rejected outright because every
    downstream formula divides by the density jump. So is a config whose
    threshold theta_c = g [rho] max(L1^2, L2^2) is not a finite positive
    float: tiny periods underflow it to 0, which would call every theta
    stable, and a product past the float range overflows it.
    """
    for name in _POSITIVE_FIELDS:
        value = getattr(cfg, name)
        if not value > 0:
            raise ConfigError(f"parameter {name!r} must be > 0")
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if not math.isfinite(value):
            raise ConfigError(f"parameter {f.name!r} must be a finite number, got {value!r}")
    if cfg.theta < 0:
        raise ConfigError(f"theta = {cfg.theta!r} < 0")
    if not cfg.rho_plus > cfg.rho_minus:
        raise ConfigError(
            f"rho_plus = {cfg.rho_plus!r} must exceed rho_minus = {cfg.rho_minus!r}"
        )
    theta_c = theta_critical(cfg)
    if not (math.isfinite(theta_c) and theta_c > 0.0):
        raise ConfigError(
            f"theta_c = g (rho_plus - rho_minus) max(L1^2, L2^2) = {theta_c!r} "
            "is not a finite positive float"
        )
    return cfg


def theta_critical(cfg: FluidConfig) -> float:
    """Critical surface tension g * (rho_plus - rho_minus) * max(L1^2, L2^2)."""
    return cfg.g * cfg.density_jump * cfg.max_period_scale_sq


def wang_tice_bound(cfg: FluidConfig) -> float:
    """Older upper bound h_minus * g * (rho_plus - rho_minus) / (4 mu_minus)."""
    return cfg.h_minus * cfg.g * cfg.density_jump / (4.0 * cfg.mu_minus)


def smallest_magnitude(cfg: FluidConfig) -> float:
    """The smallest lattice magnitude min(1/L1, 1/L2), where c_k is largest."""
    return min(1.0 / cfg.L1, 1.0 / cfg.L2)


def surface_coefficient(k: float, cfg: FluidConfig) -> float:
    """c_k = g [rho] - theta k^2, the coefficient of psi(0)^2 in -E; k may
    be an array. Rounded multiplication and subtraction are monotone, so the
    computed c_k never rises with k, as the exact one falls."""
    return cfg.g * cfg.density_jump - cfg.theta * k * k


def upper_bound_m(cfg: FluidConfig) -> float:
    """Upper bound m on the growth rate, valid where some mode grows.

    m = min( (theta_c - theta) / (4 max{L1^2, L2^2}) * min{h+/mu+, h-/mu-},
             (4 (g [rho] (theta_c - theta))^2
              / (theta_c^2 max{rho+ mu+, rho- mu-}))^(1/3) ).
    Both branches vanish as theta -> theta_c.

    This is the one test of whether a mode grows. Mode k grows exactly when
    c_k > 0 (modeforms module docstring), and c_k is largest at the smallest
    lattice magnitude k0, as computed too. So it raises StableRegime unless
    theta < theta_c and the computed c_k0 > 0; the two agree in exact
    arithmetic, but a theta an ulp or so below theta_c can round c_k0 to 0
    or below, and then every c_k the growth scan reads is at most 0.
    """
    theta_c = theta_critical(cfg)
    if cfg.theta >= theta_c:
        raise StableRegime(
            f"theta {cfg.theta!r} >= theta_c {theta_c!r}", f"theta = {cfg.theta!r} >= theta_c = {theta_c!r}"
        )
    k0 = smallest_magnitude(cfg)
    c0 = surface_coefficient(k0, cfg)
    if not c0 > 0.0:
        raise StableRegime(
            f"c_k = {float(c0)!r} <= 0 at the smallest lattice magnitude k = {k0!r}, "
            f"theta = {float(cfg.theta)!r} < theta_c = {theta_c!r}"
        )
    gap = theta_c - cfg.theta
    visc = min(cfg.h_plus / cfg.mu_plus, cfg.h_minus / cfg.mu_minus)
    branch1 = gap / (4.0 * cfg.max_period_scale_sq) * visc
    rho_mu = max(cfg.rho_plus * cfg.mu_plus, cfg.rho_minus * cfg.mu_minus)
    branch2 = (4.0 * (cfg.g * cfg.density_jump * gap) ** 2 / (theta_c**2 * rho_mu)) ** (
        1.0 / 3.0
    )
    return min(branch1, branch2)
