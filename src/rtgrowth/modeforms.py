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
    raise ValueError(f"unsupported derivative order {order}")


# Shape values and first and second u-derivatives at the Gauss nodes, shared
# by every element quadrature.
GAUSS_SHAPES = tuple(hermite_shape(GAUSS_NODES, order) for order in range(3))


@dataclass(frozen=True, eq=False)
class VerticalProfile:
    """Clamped piecewise-cubic vertical profile psi on a layered grid.

    The grid must be strictly increasing, contain a node exactly at 0, and its
    endpoints define the layer heights. The constructor does not enforce the
    no-slip reduction (psi and psi' exactly zero at both walls), so tests can
    build deliberately violated profiles; pencil.coeffs_to_profile builds only
    clamped ones.
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
