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

pencil assembles the first two exactly on the piecewise-cubic Hermite space
from its closed-form element tables; model.surface_coefficient gives the
third, c_k, whose sign at the smallest magnitude model.upper_bound_m reads.

The interface impedance. Every per-mode quantity of the package is a
statement about one function of s, a >= 0, not both 0:

    H_k(s, a) = inf over clamped psi with psi(0) = 1 of s D(psi) + a K(psi),

D and K the dissipation and kinetic forms, a minimum where s > 0. theta
enters only c_k. H has two sides:

- Galerkin: over the Hermite space of N elements per layer,
  H_k^N(s, a) = 1 / e0^T (s A + a B)^(-1) e0, A and B the bands of
  pencil.assemble, attained at x / x[e0], x = (s A + a B)^(-1) e0.
- Exact: H_k(s, a) = s S_k(a / s) / k^2 for s > 0, S_k(n) = D00 - D01 D10 /
  D11 of the two layers' interface maps (ExactMode.traction). In each
  layer the Euler-Lagrange equation of D + n K is the normal-mode equation
  of oracle at rate n = a / s, and its solution with interface data (1, b)
  is the clamped profile with that data that minimizes D + n K. By parts,
  that minimum is (1 / k^2) [[D00, D01], [-D10, -D11]] on (1, b), whose
  second row, the tangential stress, is the natural condition in b; so the
  minimum over b is S_k(n) / k^2. The layer basis is continuous at n = 0,
  where q = k, so this holds at a = 0 too.

H is an infimum of functions linear in (s, a), so it is concave, positively
homogeneous and increasing in both arguments, and so superadditive:
H(s + s', a + a') >= H(s, a) + H(s', a'). The Hermite spaces are nested
subspaces of the clamped profiles, so H^N >= H^2N >= H. Then:

- Lambda_k solves H(t, t^2) = c_k. H(t, t^2) strictly increases from 0 at
  t = 0+ without bound (it is at least t^2 / I_k), so there is one root
  where c_k > 0 and none where c_k <= 0. alpha_k(s) > 0 solves
  H(s, a) = c_k for a. On the Galerkin side these are Lambda_k^N and
  alpha_k^N(s), so H^N >= H gives Lambda_k^N <= Lambda_k and
  alpha_k^N(s) <= alpha_k(s);
- the inertia test at (s, a), a >= 0 (pencil.alpha_below), passes exactly
  when H^N(s, a) > c_k: by Sylvester's law of inertia, with Haynsworth's
  additivity, s A + a B - c_k e0 e0^T has the inertia of the positive
  definite s A + a B but for the sign of 1 - c_k / H^N(s, a);
- oracle's secular function is F_k(n) = k^2 (H(n, n^2) - c_k);
- 1 / C_k = H(1, 0) and 1 / I_k = H(0, 1) (compliances);
- superadditivity gives H(t, t^2) >= t / C_k + t^2 / I_k, so at t = Lambda_k,
  c_k >= Lambda_k / C_k + Lambda_k^2 / I_k, whose right side increases in
  Lambda_k and reaches c_k at r_k (spectrum.compliance_bound): Lambda_k <= r_k.
  The discrete compliances are at most I_k and C_k, so r_k bounds
  Lambda_k^N too.

Every growing normal mode grows without oscillating. A normal mode of
rate lam solves (lam^2 B + lam A - c_k e0 e0^T) x = 0 (with D and K on the
exact side). For such an x, x* of that product is 0: lam solves
b lam^2 + a lam - c_k |x0|^2 = 0 with a = x* A x > 0 and b = x* B x > 0.
So c_k >= 0 gives real roots, and c_k < 0 gives Re lam = -a / (2 b) < 0 or
real roots, both at most 0. So Lambda_k, the one positive root where
c_k > 0, is mode k's largest growth rate over all its normal modes,
oscillatory ones included (tests/test_modeforms.py solves the Galerkin
pencil densely).

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

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverError
from .model import FluidConfig, surface_coefficient

@dataclass(frozen=True, eq=False)
class VerticalProfile:
    """Clamped piecewise-cubic vertical profile psi on a layered grid.

    The grid must be strictly increasing, contain a node exactly at 0, and its
    endpoints define the layer heights. The constructor does not enforce the
    no-slip reduction (psi and psi' exactly zero at both walls), so tests can
    build deliberately violated profiles; pencil.coeffs_to_profile builds only
    clamped ones, from an eigenvector, and oracle.dispersion_profile the exact
    eigenprofile of a mode at the same nodes, scaled to psi(0) = 1.
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


def uniform_layered_grid(h_minus: float, h_plus: float, n_per_layer: int) -> np.ndarray:
    """2n+1 nodes covering [-h_minus, h_plus], uniform per layer, node at 0."""
    lower = -h_minus + h_minus * np.arange(n_per_layer + 1) / n_per_layer
    upper = h_plus * np.arange(n_per_layer + 1) / n_per_layer
    lower[-1] = 0.0
    grid = np.concatenate([lower, upper[1:]])
    return grid


def _layer_constants(k: float, rho: float, mu: float, h: float) -> tuple:
    """What _layer reads of one layer at mode k besides the rate: k, k^2,
    k^3, 3 k^2, rho, mu, h, E = e^(-k h), E h, 2 k E and the rate-free
    terms of a_0 .. a_3."""
    k2 = k * k
    E = math.exp(-k * h)
    one_minus_ee, one_plus_ee = -math.expm1(-2.0 * k * h), 1.0 + E * E
    return (
        k, k2, k2 * k, 3.0 * k2, rho, mu, h, E, E * h, 2.0 * k * E,
        one_minus_ee, -k * one_plus_ee, k2 * one_minus_ee, -k2 * k * one_plus_ee,
    )


def _layer(n: float, constants: tuple) -> tuple:
    """(G00, G01, G10, G11, q, q - k, E, h, U, W, a0, a1, b0, b1, det) of one
    layer at rate n, from its _layer_constants, in one pass.

    G is the map (psi(0), psi_z(0)) -> (N, T) of the layer's clamped profiles
    (oracle module docstring). They are c1 v1 + c3 v3, with v1 = e^(-k z) -
    E e^(-k (h - z)) + 2 k E u(h - z) and v3 = u(z) - U e^(-k (h - z)) +
    W u(h - z), where U = u(h) and W = (q + k) U + E: both vanish with
    their slope at z = h. a_j and b_j are the j-th z-derivatives of v1 and
    v3 at z = 0, m_j that of u(h - z), q^j U + d_j E, and det that of the
    block [[a0, b0], [a1, b1]], which G inverts.
    """
    k, k2, k3, k2x3, rho, mu, h, E, Eh, two_k_e, e0, e1, e2, e3 = constants
    nr = n * rho
    nrm = nr / mu
    q2 = k2 + nrm
    q = math.sqrt(q2)
    qk = q + k
    dq = nrm / qk  # q - k, free of cancellation
    x = dq * h
    U = Eh * (math.expm1(-x) / x if x else -1.0)
    W = qk * U + E
    s2 = q2 + q * k + k2
    m1, m2, m3 = q * U + E, q2 * U + qk * E, q2 * q * U + s2 * E
    ue = U * E
    a0, a1, a2, a3 = e0 + two_k_e * U, e1 + two_k_e * m1, e2 + two_k_e * m2, e3 + two_k_e * m3
    b0, b1 = -ue + W * U, -1.0 - k * ue + W * m1
    b2, b3 = qk - k2 * ue + W * m2, -s2 - k3 * ue + W * m3
    # traction rows on (c1, c3), times the inverse of the block
    na, nb = mu * (a3 - k2x3 * a1) - nr * a1, mu * (b3 - k2x3 * b1) - nr * b1
    ta, tb = mu * (a2 + k2 * a0), mu * (b2 + k2 * b0)
    det = a0 * b1 - a1 * b0
    return (
        (na * b1 - nb * a1) / det, (nb * a0 - na * b0) / det, (ta * b1 - tb * a1) / det, (tb * a0 - ta * b0) / det,
        q, dq, E, h, U, W, a0, a1, b0, b1, det,
    )


class ExactMode:
    """The exact side of mode k at cfg: S_k at any rate, with every factor
    that reads only k and the config formed once, when it is built.

    upper and lower are the layers' _layer_constants, c_k the surface
    coefficient and k2c_k = k^2 c_k, so F_k(0+) = -k2c_k (oracle). Raises
    ConfigError unless 0 < k < inf.
    """

    __slots__ = ("k", "cfg", "c_k", "k2c_k", "upper", "lower")

    def __init__(self, k: float, cfg: FluidConfig):
        if not 0.0 < k < math.inf:
            raise ConfigError(f"the exact side needs k > 0 and finite, got {float(k)!r}")
        self.k, self.cfg, self.c_k = k, cfg, surface_coefficient(k, cfg)
        self.k2c_k = k * k * self.c_k
        self.upper = _layer_constants(k, cfg.rho_plus, cfg.mu_plus, cfg.h_plus)
        self.lower = _layer_constants(k, cfg.rho_minus, cfg.mu_minus, cfg.h_minus)

    def traction(self, n: float) -> float:
        """S_k(n) = D00 - D01 D10 / D11, so H_k(s, a) = s S_k(a / s) / k^2.
        D is the jump of the two layers' maps G in y-derivatives, the lower
        layer's odd orders flipped (oracle module docstring):
        (D00, D01, D10, D11) = (G+00 + G-00, G+01 - G-01, G+10 - G-10, G+11 + G-11)."""
        up, lo = _layer(n, self.upper), _layer(n, self.lower)
        return up[0] + lo[0] - (up[1] - lo[1]) * (up[2] - lo[2]) / (up[3] + lo[3])


def compliances(mode: ExactMode) -> tuple[float, float]:
    """The interface compliances (I_k, C_k) of mode k (mode.k), in closed form:

        I_k = k / (rho+ coth(k h+) + rho- coth(k h-)),   C_k = k^2 / S_k(0),

    the inviscid and the Stokes response of the interface to a unit load,
    free of s and theta: 1 / I_k = H_k(0, 1) and 1 / C_k = H_k(1, 0) (module
    docstring), whose exact side at a = 0 gives C_k. Proof of I_k: K reads
    only psi and psi'. On a layer of depth h, with z the distance from the
    interface, int psi_z^2 / k^2 + psi^2 over the H^1 profiles with
    psi(0) = 1 and psi(h) = 0 is least for sinh(k (h - z)) / sinh(k h),
    which solves psi_zz = k^2 psi; by parts the least value is
    -psi_z(0) / k^2 = coth(k h) / k. Weighting by rho and adding the layers
    gives 1 / I_k. The clamped H^2 profiles are dense in that H^1 set and K
    is continuous on H^1, so they approach the minimum; they cannot attain
    it, as the minimizer has psi_z != 0 at the walls and a kink at the
    interface. The discrete compliances I_k^N = e0^T B^(-1) e0 and
    C_k^N = e0^T A^(-1) e0 are at most I_k and C_k, as H^N >= H.

    Raises SolverError unless both values are finite and positive
    (depths of 1e-300 divide by zero; mu = 1e300 at k = 1000 gives a NaN C_k).
    """
    k, cfg = mode.k, mode.cfg
    try:
        inviscid = k / (cfg.rho_plus / math.tanh(k * cfg.h_plus) + cfg.rho_minus / math.tanh(k * cfg.h_minus))
        stokes = k * k / mode.traction(0.0)
    except ZeroDivisionError:
        inviscid = stokes = math.nan
    if not (0.0 < inviscid < math.inf and 0.0 < stokes < math.inf):
        raise SolverError(f"interface compliances of mode k = {k!r} are not finite and positive")
    return inviscid, stokes
