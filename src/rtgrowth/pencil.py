"""Discrete per-mode pencils: assembly and largest-eigenvalue solves.

Each wavenumber magnitude k, at modification parameter s, yields the pencil

    (c_k e0 e0^T - s A_diss) x = alpha B x

over the clamped piecewise-cubic Hermite space (value and slope unknowns at
every node, value/slope clamped at both walls, one shared node at the
interface). B and A_diss are exact Gauss-quadrature integrals of the kinetic
and dissipation integrands; the surface term is the rank-one form on the
interface value dof. The trial space is H^2-conforming, which the psi''
term of the dissipation requires, and it is nested under uniform refinement,
so the discrete supremum is a monotone lower bound of the continuous one.

The transverse branch is not discretized: its minimum eigenvalue is the
smallest root of the exact two-layer equation (transverse_min_eigenvalue).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla

from .errors import FactorizationFailure, ResolutionTooSmall, ZeroWaveNumber
from .model import FluidConfig
from .modeforms import (
    GAUSS_NODES,
    GAUSS_WEIGHTS,
    VerticalProfile,
    hermite_shape,
    surface_coefficient,
    uniform_layered_grid,
)


@dataclass(frozen=True)
class Discretization:
    """Uniform-per-layer Hermite mesh with N elements in each layer."""

    elements_per_layer: int = 128

    def __post_init__(self):
        if self.elements_per_layer < 4:
            raise ResolutionTooSmall(
                f"need at least 4 elements per layer, got {self.elements_per_layer}"
            )

    @property
    def n_dofs(self) -> int:
        return 4 * self.elements_per_layer - 2

    def refined(self) -> "Discretization":
        return Discretization(2 * self.elements_per_layer)


def _element_matrices(h: float):
    """4x4 element integrals (mass, grad, bending, mass-bending cross).

    Slope shape functions carry the element length, derivatives carry 1/h per
    order, so entries are integrals in the physical coordinate.
    """
    scale = np.array([1.0, h, 1.0, h])
    w = h * GAUSS_WEIGHTS
    s = [scale[:, None] * hermite_shape(GAUSS_NODES, r) / h**r for r in range(3)]
    mass = (s[0] * w) @ s[0].T
    grad = (s[1] * w) @ s[1].T
    bend = (s[2] * w) @ s[2].T
    cross = (s[0] * w) @ s[2].T
    return mass, grad, bend, cross


@lru_cache(maxsize=32)
def _tables(
    rho_minus: float,
    rho_plus: float,
    mu_minus: float,
    mu_plus: float,
    h_minus: float,
    h_plus: float,
    n: int,
):
    """k-independent global matrices for one material/mesh combination."""
    grid = uniform_layered_grid(h_minus, h_plus, n)
    n_nodes = 2 * n + 1

    # Longitudinal (clamped, C^1) dof map: drop value+slope at both walls.
    gmap = np.full(2 * n_nodes, -1, dtype=int)
    gmap[2 : 2 * n_nodes - 2] = np.arange(2 * n_nodes - 4)
    dim = 2 * n_nodes - 4

    mats = {name: np.zeros((dim, dim)) for name in ("M_rho", "D_rho", "M_mu", "D_mu", "H_mu", "X_mu")}
    elem_lower = _element_matrices(h_minus / n)
    elem_upper = _element_matrices(h_plus / n)
    for e in range(2 * n):
        lower = e < n
        mass, grad, bend, cross = elem_lower if lower else elem_upper
        rho = rho_minus if lower else rho_plus
        mu = mu_minus if lower else mu_plus
        dofs = gmap[[2 * e, 2 * e + 1, 2 * e + 2, 2 * e + 3]]
        keep = dofs >= 0
        idx = np.ix_(dofs[keep], dofs[keep])
        sub = np.ix_(keep, keep)
        mats["M_rho"][idx] += rho * mass[sub]
        mats["D_rho"][idx] += rho * grad[sub]
        mats["M_mu"][idx] += mu * mass[sub]
        mats["D_mu"][idx] += mu * grad[sub]
        mats["H_mu"][idx] += mu * bend[sub]
        mats["X_mu"][idx] += mu * 0.5 * (cross[sub] + cross[sub].T)
    e0_index = int(gmap[2 * n])
    return {"grid": grid, "e0_index": e0_index, **mats}


def _cfg_tables(cfg: FluidConfig, disc: Discretization):
    return _tables(
        cfg.rho_minus,
        cfg.rho_plus,
        cfg.mu_minus,
        cfg.mu_plus,
        cfg.h_minus,
        cfg.h_plus,
        disc.elements_per_layer,
    )


@dataclass(frozen=True, eq=False)
class PencilForms:
    """Assembled matrices of one mode at one resolution."""

    k: float
    c_k: float
    B: np.ndarray
    A_diss: np.ndarray
    e0_index: int
    grid: np.ndarray
    elements_per_layer: int

    @property
    def dim(self) -> int:
        return self.B.shape[0]

    def numerator(self, s: float) -> np.ndarray:
        """c_k e0 e0^T - s A_diss."""
        P = -s * self.A_diss
        P[self.e0_index, self.e0_index] += self.c_k
        return P


def assemble(k: float, cfg: FluidConfig, disc: Discretization) -> PencilForms:
    """Assemble kinetic/dissipation matrices and the surface coefficient."""
    if k <= 0.0:
        raise ZeroWaveNumber(f"assembly needs k > 0, got {k!r}")
    t = _cfg_tables(cfg, disc)
    B = t["M_rho"] + t["D_rho"] / k**2
    A = 4.0 * t["D_mu"] + k**2 * t["M_mu"] + 2.0 * t["X_mu"] + t["H_mu"] / k**2
    return PencilForms(
        k=k,
        c_k=surface_coefficient(k, cfg),
        B=B,
        A_diss=A,
        e0_index=t["e0_index"],
        grid=t["grid"],
        elements_per_layer=disc.elements_per_layer,
    )


@dataclass(frozen=True, eq=False)
class EigenSolution:
    """Largest eigenpair of one pencil, eigenvector normalized to x^T B x = 1."""

    alpha: float
    vector: np.ndarray
    residual: float


def _fix_sign(x: np.ndarray, e0_index: int) -> np.ndarray:
    """Sign convention: psi(0) >= 0, first nonzero dof positive as tiebreak."""
    v = x[e0_index]
    if v != 0.0:
        return x if v > 0.0 else -x
    nz = np.nonzero(x)[0]
    if nz.size and x[nz[0]] < 0.0:
        return -x
    return x


def _finish_eigenpair(forms: PencilForms, s: float, alpha: float, x: np.ndarray) -> EigenSolution:
    bx = forms.B @ x
    x = x / np.sqrt(x @ bx)
    x = _fix_sign(x, forms.e0_index)
    r = forms.numerator(s) @ x - alpha * (forms.B @ x)
    residual = float(np.linalg.norm(r) / np.linalg.norm(x))
    return EigenSolution(alpha=float(alpha), vector=x, residual=residual)


def largest_eigenpair(forms: PencilForms, s: float) -> EigenSolution:
    """Largest generalized eigenpair of one mode's pencil by a dense solve.

    No solver path uses it: it is the reference that the cached secular
    values and secular_eigenpair are tested against.
    """
    if s <= 0.0:
        raise ValueError(f"modification parameter must be > 0, got {s!r}")
    n = forms.dim
    try:
        w, v = sla.eigh(forms.numerator(s), forms.B, subset_by_index=[n - 1, n - 1])
    except sla.LinAlgError as exc:
        raise FactorizationFailure(f"symmetric-definite solve failed: {exc}") from exc
    return _finish_eigenpair(forms, s, w[0], v[:, 0])


def secular_eigenpair(forms: PencilForms, s: float, alpha: float) -> EigenSolution:
    """Eigenvector for the largest eigenvalue alpha, known from the secular rows.

    (c_k e0 e0^T - s A) x = alpha B x gives (s A + alpha B) x = c_k x[e0] e0,
    so x is proportional to (s A + alpha B)^(-1) e0: one linear solve. It is
    called at fixed points only, where alpha = Lambda^2 > 0 and s A + alpha B
    is positive definite. Requires alpha > 0: below that the matrix is
    indefinite when c_k <= 0 and numerically singular when c_k is a tiny
    positive number (alpha then sits within rounding of -s lam_0).
    """
    if alpha <= 0.0:
        raise ValueError(f"secular eigenpair needs alpha > 0, got {alpha!r}")
    e0 = np.zeros(forms.dim)
    e0[forms.e0_index] = 1.0
    try:
        x = sla.cho_solve(sla.cho_factor(s * forms.A_diss + alpha * forms.B), e0)
    except sla.LinAlgError as exc:
        raise FactorizationFailure(f"energy matrix not SPD at alpha {alpha!r}: {exc}") from exc
    return _finish_eigenpair(forms, s, alpha, x)


def mode_spectral_data(forms: PencilForms):
    """Eigenvalues of (A_diss, B) and interface weights in that eigenbasis.

    Returns (lam, z2) with lam ascending and z2 the squared e0-components of
    the B-orthonormal eigenvectors; every alpha(s) and the fixed point of the
    mode follow from these through a rank-one secular equation at O(dim) cost.
    """
    try:
        lam, V = sla.eigh(forms.A_diss, forms.B, driver="gvd")
    except sla.LinAlgError as exc:
        raise FactorizationFailure(f"symmetric-definite solve failed: {exc}") from exc
    return lam, V[forms.e0_index, :] ** 2


def _secular_roots(w: np.ndarray, denoms, span: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Per row, the root x in (0, span] of sum_j w_j / d_j(x) = 1.

    The sum must strictly decrease in x on (0, span), exceed 1 near 0 and be
    at most 1 at span; denoms(x) returns (d, dd/dx) for a column x. Rows not
    `live` return 0. Safeguarded Newton, batched over rows: a step that
    leaves the current sign bracket is replaced by bisection.
    """
    x = np.where(live, 0.5 * span, 0.0)
    lo = np.zeros(x.size)
    hi = span.copy()
    live = live.copy()
    for _ in range(60):
        if not live.any():
            break
        d, dd = denoms(x[:, None])
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.where(live[:, None], w / d, 0.0)
            G = q.sum(axis=1)
            slope = -(q * dd / d).sum(axis=1)
        R = G - 1.0
        above = R > 0.0
        lo = np.where(live & above, x, lo)
        hi = np.where(live & ~above, x, hi)
        done = live & (
            (np.abs(R) <= 1e-13 * (1.0 + np.abs(G))) | (hi - lo <= 1e-15 * span)
        )
        live = live & ~done
        with np.errstate(divide="ignore", invalid="ignore"):
            x_newton = x - R / slope
        inside = np.isfinite(x_newton) & (x_newton > lo) & (x_newton < hi)
        x = np.where(live, np.where(inside, x_newton, 0.5 * (lo + hi)), x)
    return x


def rank_one_largest(lam: np.ndarray, z2: np.ndarray, c: np.ndarray, s: float) -> np.ndarray:
    """Largest eigenvalue of (c e0 e0^T - s A) x = alpha B x, batched.

    Rows of lam/z2 hold per-mode spectral data from mode_spectral_data; c is
    the per-mode surface coefficient. In the (A, B)-eigenbasis the problem is
    diag(-s lam) plus the rank-one term c z z^T, whose extreme eigenvalue is
    the unique root of a monotone secular function on a bracketed parameter
    t: for c > 0 the root sits in (0, c sum(z^2)] above the top diagonal
    entry, for c < 0 inside the top spectral gap below it. When the interface
    weight of the top entry deflates to zero the iteration collapses onto
    that entry, so no explicit deflation cases are needed.
    """
    lam = np.atleast_2d(lam)
    z2 = np.atleast_2d(z2)
    c = np.atleast_1d(c).astype(float)
    m, nn = lam.shape
    delta = s * (lam - lam[:, :1])
    gap = s * (lam[:, 1] - lam[:, 0]) if nn > 1 else np.zeros(m)
    sign = np.where(c > 0.0, 1.0, -1.0)
    span = np.where(c > 0.0, c * z2.sum(axis=1), gap)
    active = (c != 0.0) & (span > 0.0) & np.isfinite(span)
    sgn = sign[:, None]
    t = _secular_roots(
        c[:, None] * z2, lambda t: (delta + sgn * t, sgn), np.where(active, span, 0.0), active
    )
    return -s * lam[:, 0] + sign * t


def rank_one_fixed_point(lam: np.ndarray, z2: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per-mode growth rate Lambda_k with Lambda_k^2 = alpha_k(Lambda_k), batched.

    At s = Lambda and alpha = Lambda^2 the secular equation of rank_one_largest
    reads phi(Lambda) = c sum_j z_j^2 / (Lambda (Lambda + lam_j)) = 1, which is
    c e0^T (Lambda A + Lambda^2 B)^(-1) e0 = 1 in the (A, B) eigenbasis. For
    c > 0, phi strictly decreases from +inf at 0+ to 0, and phi <= c sum(z^2)
    / Lambda^2 (lam_j >= 0) puts the root in (0, sqrt(c sum(z^2))]. Since
    Lambda^2 > 0 > -Lambda lam_0, the root is the largest eigenvalue at
    s = Lambda, so alpha_k(s) > s^2 exactly when s < Lambda_k. Rows with
    c <= 0 have alpha_k < 0 for every s and return 0.
    """
    lam = np.atleast_2d(lam)
    z2 = np.atleast_2d(z2)
    c = np.atleast_1d(c).astype(float)
    span = np.sqrt(np.where(c > 0.0, c * z2.sum(axis=1), 0.0))
    active = (span > 0.0) & np.isfinite(span)
    return _secular_roots(
        c[:, None] * z2, lambda x: (x * (x + lam), 2.0 * x + lam), span, active
    )


def _b_cot_bh(b2: float, h: float) -> float:
    """b cot(b h) for b = sqrt(b2), continued to 1/h at b2 = 0 and to
    |b| coth(|b| h) at b2 < 0; tanh, unlike cosh and sinh, cannot overflow."""
    if b2 > 0.0:
        b = math.sqrt(b2)
        return b / math.tan(b * h)
    if b2 < 0.0:
        b = math.sqrt(-b2)
        return b / math.tanh(b * h)
    return 1.0 / h


def transverse_min_eigenvalue(k: float, cfg: FluidConfig) -> float:
    """Smallest eigenvalue of the transverse Sturm-Liouville quotient, exactly.

    lam_min(k) = min over tau in H^1_0 of
        sum mu * integral(tau'^2 + k^2 tau^2) / sum rho * integral(tau^2).
    Each layer's eigenfunction is sin(b (h - |y|)) with b^2 = lam rho / mu - k^2;
    continuity of tau and of mu tau' at the interface gives
        F(lam) = sum_layers mu b cot(b h) = 0
    (Chandrasekhar 1961, ch. X). F is positive at min (mu/rho) k^2, where
    every b^2 <= 0 and so every term is positive, strictly decreases in lam, and
    tends to -inf at the first pole min (mu/rho) (pi^2/h^2 + k^2); so the root
    between, found by bisection, is the smallest eigenvalue.
    """
    if k <= 0.0:
        raise ZeroWaveNumber(f"transverse solve needs k > 0, got {k!r}")
    layers = ((cfg.rho_plus, cfg.mu_plus, cfg.h_plus), (cfg.rho_minus, cfg.mu_minus, cfg.h_minus))
    k2 = k * k
    lo = min(mu / rho * k2 for rho, mu, _ in layers)
    hi = min(mu / rho * (math.pi**2 / (h * h) + k2) for rho, mu, h in layers)
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if sum(mu * _b_cot_bh(mid * rho / mu - k2, h) for rho, mu, h in layers) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def coeffs_to_profile(x: np.ndarray, forms: PencilForms) -> VerticalProfile:
    """Expand constrained dof vector into a clamped VerticalProfile."""
    grid = forms.grid
    full = np.zeros(2 * grid.size)
    full[2 : 2 * grid.size - 2] = x
    return VerticalProfile(grid, full[0::2], full[1::2])


def profile_to_coeffs(profile: VerticalProfile, forms: PencilForms) -> np.ndarray:
    if profile.grid.shape != forms.grid.shape or not np.array_equal(
        profile.grid, forms.grid
    ):
        raise ValueError("profile grid does not match the assembled mesh")
    full = np.empty(2 * forms.grid.size)
    full[0::2] = profile.psi_values
    full[1::2] = profile.psi_derivs
    return full[2:-2].copy()


def prolong_coeffs(x: np.ndarray, forms_coarse: PencilForms) -> np.ndarray:
    """Exact embedding of a coarse dof vector into the once-refined mesh."""
    grid = forms_coarse.grid
    vals = np.zeros(grid.size)
    ders = np.zeros(grid.size)
    vals[1:-1] = x[0 : 2 * grid.size - 4 : 2]
    ders[1:-1] = x[1 : 2 * grid.size - 4 : 2]

    h = np.diff(grid)
    s0 = hermite_shape(np.array([0.5]), 0)[:, 0]
    s1 = hermite_shape(np.array([0.5]), 1)[:, 0]
    v0, v1 = vals[:-1], vals[1:]
    d0, d1 = ders[:-1], ders[1:]
    mid_val = v0 * s0[0] + d0 * h * s0[1] + v1 * s0[2] + d1 * h * s0[3]
    mid_der = (v0 * s1[0] + d0 * h * s1[1] + v1 * s1[2] + d1 * h * s1[3]) / h

    fine_vals = np.empty(2 * grid.size - 1)
    fine_ders = np.empty(2 * grid.size - 1)
    fine_vals[0::2] = vals
    fine_vals[1::2] = mid_val
    fine_ders[0::2] = ders
    fine_ders[1::2] = mid_der
    full = np.empty(2 * fine_vals.size)
    full[0::2] = fine_vals
    full[1::2] = fine_ders
    return full[2:-2].copy()


def residual_dual_norm(forms: PencilForms, x: np.ndarray, s: float, alpha: float) -> float:
    """||(c e0 e0^T - s A - alpha B) x|| in the (s A + alpha B)^(-1) dual norm.

    s A + alpha B is the dimensionally consistent energy of the pencil at the
    fixed point (both terms scale like density / time^2), so the dual norm is
    comparable across resolutions and parameters. Requires alpha > 0.
    """
    if alpha <= 0.0:
        raise ValueError(f"dual norm needs alpha > 0, got {alpha!r}")
    r = forms.numerator(s) @ x - alpha * (forms.B @ x)
    try:
        cho = sla.cho_factor(s * forms.A_diss + alpha * forms.B)
    except sla.LinAlgError as exc:
        raise FactorizationFailure(f"energy norm factorization failed: {exc}") from exc
    y = sla.cho_solve(cho, r)
    return float(np.sqrt(abs(r @ y)))
