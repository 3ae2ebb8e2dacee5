"""Per-mode one-dimensional quadratic forms in the vertical profile.

After the horizontal Fourier reduction, each wavenumber magnitude k carries a
vertical profile psi(y3) in the clamped space (psi = psi' = 0 at both walls,
psi and psi' continuous at the interface y3 = 0). The longitudinal horizontal
amplitude is eliminated through the divergence constraint, which turns the
kinetic energy, the viscous dissipation, and the interface energy of a single
mode into three quadratic forms:

    kinetic      sum_layers rho * integral( psi'^2 / k^2 + psi^2 )
    dissipation  sum_layers mu  * integral( 4 psi'^2 + (k psi + psi''/k)^2 )
    surface      (g [rho] - theta k^2) * psi(0)^2

pencil.assemble integrates the first two exactly with the Gauss rule and the
Hermite shapes defined here; surface_coefficient gives the third.

Profiles are piecewise-cubic Hermite interpolants of nodal (value, derivative)
data; psi'' is the exact elementwise second derivative of that representation,
so the algebraic identities among the dissipation forms hold exactly at the
discrete level. The component of the horizontal amplitude orthogonal to the
wavenumber decouples completely into the transverse branch. That branch is
never positive, so it cannot carry the growth rate, and the solver needs only
its minimum eigenvalue, the exact smallest root of a two-layer equation
(pencil.transverse_min_eigenvalue); no transverse profile or form is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InadmissibleProfile, ZeroWaveNumber
from .model import FluidConfig

# 5-point Gauss-Legendre rule on [0, 1]: exact through polynomial degree 9,
# which covers every integrand of the kinetic and dissipation forms (degree <= 6).
_GX, _GW = np.polynomial.legendre.leggauss(5)
GAUSS_NODES = 0.5 * (_GX + 1.0)
GAUSS_WEIGHTS = 0.5 * _GW


def hermite_shape(u: np.ndarray, order: int = 0) -> np.ndarray:
    """Reference cubic Hermite shape functions and u-derivatives.

    Returns an array of shape (4, len(u)) for the basis ordered as
    (value left, slope left, value right, slope right) on the unit element.
    Slope functions are unscaled; multiply rows 1 and 3 by the element length
    when assembling y-derivatives of nodal data.
    """
    u = np.asarray(u, dtype=float)
    if order == 0:
        return np.stack(
            [
                1.0 - 3.0 * u**2 + 2.0 * u**3,
                u - 2.0 * u**2 + u**3,
                3.0 * u**2 - 2.0 * u**3,
                u**3 - u**2,
            ]
        )
    if order == 1:
        return np.stack(
            [
                -6.0 * u + 6.0 * u**2,
                1.0 - 4.0 * u + 3.0 * u**2,
                6.0 * u - 6.0 * u**2,
                3.0 * u**2 - 2.0 * u,
            ]
        )
    if order == 2:
        return np.stack(
            [
                -6.0 + 12.0 * u,
                -4.0 + 6.0 * u,
                6.0 - 12.0 * u,
                6.0 * u - 2.0,
            ]
        )
    if order == 3:
        ones = np.ones_like(u)
        return np.stack([12.0 * ones, 6.0 * ones, -12.0 * ones, 6.0 * ones])
    raise ValueError(f"unsupported derivative order {order}")


# Shape values and first and second u-derivatives at the Gauss nodes, shared
# by every element quadrature.
GAUSS_SHAPES = tuple(hermite_shape(GAUSS_NODES, order) for order in range(3))


@dataclass(frozen=True, eq=False)
class VerticalProfile:
    """Clamped piecewise-cubic vertical profile psi on a layered grid.

    The grid must be strictly increasing, contain a node exactly at 0, and its
    endpoints define the layer heights. Admissibility (the no-slip reduction:
    psi and psi' exactly zero at both walls) is a separate predicate so tests
    can construct deliberately violated profiles.
    """

    grid: np.ndarray
    psi_values: np.ndarray
    psi_derivs: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        vals = np.asarray(self.psi_values, dtype=float)
        ders = np.asarray(self.psi_derivs, dtype=float)
        if grid.ndim != 1 or grid.size < 3:
            raise ValueError("grid must be 1-d with at least 3 nodes")
        if vals.shape != grid.shape or ders.shape != grid.shape:
            raise ValueError("psi_values and psi_derivs must match the grid")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if not np.any(grid == 0.0):
            raise ValueError("grid must contain a node exactly at 0")
        for name, arr in (("grid", grid), ("psi_values", vals), ("psi_derivs", ders)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def interface_index(self) -> int:
        return int(np.nonzero(self.grid == 0.0)[0][0])

    @property
    def interface_value(self) -> float:
        return float(self.psi_values[self.interface_index])

    @property
    def layer_tags(self) -> np.ndarray:
        """-1 for elements below the interface, +1 above."""
        mid = 0.5 * (self.grid[:-1] + self.grid[1:])
        return np.where(mid < 0.0, -1, 1)

    def is_admissible(self) -> bool:
        return (
            self.psi_values[0] == 0.0
            and self.psi_values[-1] == 0.0
            and self.psi_derivs[0] == 0.0
            and self.psi_derivs[-1] == 0.0
        )


def require_admissible(profile: VerticalProfile) -> None:
    if not profile.is_admissible():
        raise InadmissibleProfile(
            "profile must satisfy psi = psi' = 0 at both walls exactly"
        )


def _quad_data(profile: VerticalProfile):
    """psi, psi', psi'' at the Gauss points of every element, plus weights.

    Returns (h, w, psi, dpsi, ddpsi) with h of shape (n_elems,) and the rest
    of shape (n_elems, n_gauss); w already contains the h scaling, so any
    integral is (w * f).sum().
    """
    grid = profile.grid
    h = np.diff(grid)
    v0 = profile.psi_values[:-1, None]
    v1 = profile.psi_values[1:, None]
    d0 = profile.psi_derivs[:-1, None]
    d1 = profile.psi_derivs[1:, None]
    hh = h[:, None]
    s0, s1, s2 = GAUSS_SHAPES

    psi = v0 * s0[0] + d0 * hh * s0[1] + v1 * s0[2] + d1 * hh * s0[3]
    dpsi = (v0 * s1[0] + d0 * hh * s1[1] + v1 * s1[2] + d1 * hh * s1[3]) / hh
    ddpsi = (v0 * s2[0] + d0 * hh * s2[1] + v1 * s2[2] + d1 * hh * s2[3]) / hh**2
    w = hh * GAUSS_WEIGHTS[None, :]
    return h, w, psi, dpsi, ddpsi


def surface_coefficient(k: float, cfg: FluidConfig) -> float:
    """c_k = g [rho] - theta k^2, the coefficient of psi(0)^2 in -E."""
    return cfg.g * cfg.density_jump - cfg.theta * k * k


def uniform_layered_grid(h_minus: float, h_plus: float, n_per_layer: int) -> np.ndarray:
    """2n+1 nodes covering [-h_minus, h_plus], uniform per layer, node at 0."""
    lower = -h_minus + h_minus * np.arange(n_per_layer + 1) / n_per_layer
    upper = h_plus * np.arange(n_per_layer + 1) / n_per_layer
    lower[-1] = 0.0
    grid = np.concatenate([lower, upper[1:]])
    return grid


def random_admissible_profile(
    rng: np.random.Generator,
    h_minus: float,
    h_plus: float,
    n_per_layer: int = 8,
) -> VerticalProfile:
    """Random clamped profile, used by the property suites."""
    grid = uniform_layered_grid(h_minus, h_plus, n_per_layer)
    values = rng.standard_normal(grid.size)
    derivs = rng.standard_normal(grid.size)
    for arr in (values, derivs):
        arr[0] = 0.0
        arr[-1] = 0.0
    return VerticalProfile(grid, values, derivs)


def smooth_bump_profile(
    h_minus: float, h_plus: float, n_per_layer: int = 16, amplitude: float = 1.0
) -> VerticalProfile:
    """Clamped bump sin^2(pi (y + h-) / (h- + h+)) with nonzero interface value."""
    grid = uniform_layered_grid(h_minus, h_plus, n_per_layer)
    total = h_minus + h_plus
    phase = np.pi * (grid + h_minus) / total
    values = amplitude * np.sin(phase) ** 2
    derivs = amplitude * np.pi / total * np.sin(2.0 * phase)
    values[0] = values[-1] = 0.0
    derivs[0] = derivs[-1] = 0.0
    return VerticalProfile(grid, values, derivs)


def threshold_test_profile(cfg: FluidConfig) -> tuple[VerticalProfile, float]:
    """Single-mode test field realizing the threshold ratio max(L1^2, L2^2).

    The field has vertical velocity L^{-1} psi(y3) sin(y_j / L) with L the
    larger period scale and y_j the matching horizontal coordinate; the ratio
    of the squared interface norms |w3|^2 / |grad_h w3|^2 is evaluated by
    quadrature over one full period and equals max(L1^2, L2^2) exactly.
    """
    L = max(cfg.L1, cfg.L2)
    profile = smooth_bump_profile(cfg.h_minus, cfg.h_plus)
    psi0 = profile.interface_value

    # 64 Gauss panels over [0, 2 pi L]: machine precision for these integrands.
    edges = np.linspace(0.0, 2.0 * np.pi * L, 65)
    h = np.diff(edges)
    y = edges[:-1, None] + h[:, None] * GAUSS_NODES[None, :]
    w = h[:, None] * GAUSS_WEIGHTS[None, :]
    num = ((psi0 / L * np.sin(y / L)) ** 2 * w).sum()
    den = ((psi0 / L**2 * np.cos(y / L)) ** 2 * w).sum()
    return profile, float(num / den)


@dataclass(frozen=True)
class TraceReport:
    """Per-layer trace and derivative inequality ratios for one profile.

    interface ratio:  psi(0)^2 / ( (h_layer / 4) * D_layer )
    derivative ratio: integral_layer psi'^2 / ( D_layer / 4 )
    with D_layer = integral_layer( 4 psi'^2 + (k psi + psi''/k)^2 ), both
    ratios at most 1 for every admissible profile. Zero denominators with a
    zero numerator report ratio 0.
    """

    interface_ratio_lower: float
    interface_ratio_upper: float
    deriv_ratio_lower: float
    deriv_ratio_upper: float

    @property
    def all_pass(self) -> bool:
        tol = 1.0 + 1e-12
        return (
            self.interface_ratio_lower <= tol
            and self.interface_ratio_upper <= tol
            and self.deriv_ratio_lower <= tol
            and self.deriv_ratio_upper <= tol
        )


def _safe_ratio(num: float, den: float) -> float:
    if num == 0.0:
        return 0.0
    return num / den


def check_trace_inequalities(
    ks, profile: VerticalProfile, cfg: FluidConfig
) -> list[TraceReport]:
    """Check the per-layer interface-trace and derivative bounds at each k in ks.

    The profile's Gauss-point data is built once and shared by every k.
    """
    require_admissible(profile)
    _, w, psi, dpsi, ddpsi = _quad_data(profile)
    grad = w * dpsi**2
    lower = profile.layer_tags < 0
    g_lower, g_upper = float(grad[lower].sum()), float(grad[~lower].sum())
    psi0_sq = profile.interface_value ** 2
    reports = []
    for k in ks:
        if k <= 0.0:
            raise ZeroWaveNumber(f"trace check needs k > 0, got {k!r}")
        diss = w * (4.0 * dpsi**2 + (k * psi + ddpsi / k) ** 2)
        d_lower, d_upper = float(diss[lower].sum()), float(diss[~lower].sum())
        reports.append(
            TraceReport(
                interface_ratio_lower=_safe_ratio(psi0_sq, cfg.h_minus / 4.0 * d_lower),
                interface_ratio_upper=_safe_ratio(psi0_sq, cfg.h_plus / 4.0 * d_upper),
                deriv_ratio_lower=_safe_ratio(g_lower, d_lower / 4.0),
                deriv_ratio_upper=_safe_ratio(g_upper, d_upper / 4.0),
            )
        )
    return reports
