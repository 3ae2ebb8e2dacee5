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

Neighbouring nodes share an element, so every matrix is banded with half
bandwidth 3 and is stored, assembled and solved in LAPACK symmetric lower
band form: a (4, dim) array whose row d holds the entries (j + d, j). The band
is the lower triangle of the element scatter. Dense views are expanded on
demand only for the full eigendecomposition (mode_spectral_data) and the
dense reference solve (largest_eigenpair); they read the lower triangle
only, so they see exactly the scattered values. The eigenprofile solve and
the residual norms factor the band (dpbtrf/dpbtrs) and multiply by it
(dsbmv); the eigenprofile solve takes one refinement step whose residual is
formed in np.longdouble.

The transverse branch is not discretized: its minimum eigenvalue is the
smallest root of the exact two-layer equation (transverse_min_eigenvalue).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
from scipy.linalg import blas, lapack

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
    """k-independent global matrices for one material/mesh combination, as bands.

    Element e carries the full dofs 2e .. 2e+3; clamping drops value and slope
    at both walls, so its local dof a is global dof 2e + a - 2 when that lies
    in [0, dim). Local entry (a, b), a >= b, lands in band row a - b, column
    2e + b - 2. A band entry receives at most two element contributions, and
    0 + u + v is exact in either order, so the band holds bit for bit the lower
    triangle of a dense scatter.
    """
    grid = uniform_layered_grid(h_minus, h_plus, n)
    dim = 4 * n - 2
    per_layer = []
    for h, rho, mu in ((h_minus, rho_minus, mu_minus), (h_plus, rho_plus, mu_plus)):
        mass, grad, bend, cross = _element_matrices(h / n)
        per_layer.append({
            "M_rho": rho * mass,
            "D_rho": rho * grad,
            "M_mu": mu * mass,
            "D_mu": mu * grad,
            "H_mu": mu * bend,
            "X_mu": mu * 0.5 * (cross + cross.T),
        })
    lower_layer = np.arange(2 * n) < n
    first = 2 * np.arange(2 * n) - 2  # global dof of each element's local dof 0
    bands = {}
    for name in per_layer[0]:
        band = np.zeros((4, dim))  # an element couples two nodes of two dofs each
        for a in range(4):
            for b in range(a + 1):
                col = first + b
                keep = (col >= 0) & (col + a - b < dim)
                vals = np.where(lower_layer, per_layer[0][name][a, b], per_layer[1][name][a, b])
                band[a - b, col[keep]] += vals[keep]
        band.flags.writeable = False
        bands[name] = band
    return {"grid": grid, "e0_index": 2 * n - 2, **bands}


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


def _dense(band: np.ndarray) -> np.ndarray:
    """Symmetric dense matrix whose lower triangle the lower band holds."""
    n = band.shape[1]
    M = np.diag(band[0])
    for d in range(1, min(band.shape[0], n)):
        i = np.arange(n - d)
        M[i + d, i] = M[i, i + d] = band[d, : n - d]
    return M


def band_matvec(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Product of the symmetric matrix held in lower band form with x."""
    return blas.dsbmv(band.shape[0] - 1, 1.0, band, x, lower=1)


def _band_matvec_extended(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """band_matvec for a np.longdouble band (80-bit extended on x86-64)."""
    x = x.astype(np.longdouble)
    y = band[0] * x
    for d in range(1, band.shape[0]):
        y[d:] += band[d, :-d] * x[:-d]
        y[:-d] += band[d, :-d] * x[d:]
    return y


def _spd_factor(band: np.ndarray, what: str) -> np.ndarray:
    """Banded Cholesky factor of a positive definite matrix in lower band form.

    dpbtrf reports a non-positive pivot as info > 0, which raises.
    """
    chol, info = lapack.dpbtrf(band, lower=1)
    if info != 0:
        raise FactorizationFailure(f"banded Cholesky factorization of the {what} failed (LAPACK info {info})")
    return chol


def _spd_solve(chol: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """chol^(-T) chol^(-1) rhs; a nonzero info raises, so no vector comes back."""
    x, info = lapack.dpbtrs(chol, rhs, lower=1)
    if info != 0:
        raise FactorizationFailure(f"banded Cholesky solve of the {what} failed (LAPACK info {info})")
    return x


@dataclass(frozen=True, eq=False)
class PencilForms:
    """Assembled matrices of one mode at one resolution, in lower band form.

    B_band and A_band hold the kinetic and dissipation matrices as (4, dim)
    LAPACK symmetric lower bands (row d, column j is entry (j + d, j)). B and
    A_diss expand dense symmetric views on demand, for the dense eigensolves.
    """

    k: float
    c_k: float
    B_band: np.ndarray
    A_band: np.ndarray
    e0_index: int
    grid: np.ndarray
    elements_per_layer: int

    @property
    def dim(self) -> int:
        return self.B_band.shape[1]

    @property
    def B(self) -> np.ndarray:
        return _dense(self.B_band)

    @property
    def A_diss(self) -> np.ndarray:
        return _dense(self.A_band)


def assemble(k: float, cfg: FluidConfig, disc: Discretization) -> PencilForms:
    """Assemble kinetic/dissipation bands and the surface coefficient."""
    if k <= 0.0:
        raise ZeroWaveNumber(f"assembly needs k > 0, got {k!r}")
    t = _cfg_tables(cfg, disc)
    B = t["M_rho"] + t["D_rho"] / k**2
    A = 4.0 * t["D_mu"] + k**2 * t["M_mu"] + 2.0 * t["X_mu"] + t["H_mu"] / k**2
    return PencilForms(
        k=k,
        c_k=surface_coefficient(k, cfg),
        B_band=B,
        A_band=A,
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


def _energy(forms: PencilForms, s: float, alpha: float) -> np.ndarray:
    """s A_diss + alpha B, in band form."""
    return s * forms.A_band + alpha * forms.B_band


def _pencil_residual(forms: PencilForms, energy: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(c_k e0 e0^T - s A_diss - alpha B) x, with energy = s A_diss + alpha B."""
    r = -band_matvec(energy, x)
    r[forms.e0_index] += forms.c_k * x[forms.e0_index]
    return r


def _finish_eigenpair(
    forms: PencilForms, energy: np.ndarray, alpha: float, x: np.ndarray
) -> EigenSolution:
    x = x / np.sqrt(x @ band_matvec(forms.B_band, x))
    x = _fix_sign(x, forms.e0_index)
    r = _pencil_residual(forms, energy, x)
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
    numerator = -s * forms.A_diss
    numerator[forms.e0_index, forms.e0_index] += forms.c_k
    try:
        w, v = sla.eigh(numerator, forms.B, subset_by_index=[n - 1, n - 1])
    except sla.LinAlgError as exc:
        raise FactorizationFailure(f"symmetric-definite solve failed: {exc}") from exc
    return _finish_eigenpair(forms, _energy(forms, s, w[0]), w[0], v[:, 0])


def secular_eigenpair(forms: PencilForms, s: float, alpha: float) -> EigenSolution:
    """Eigenvector for the largest eigenvalue alpha, known from the secular rows.

    (c_k e0 e0^T - s A) x = alpha B x gives (s A + alpha B) x = c_k x[e0] e0,
    so x is proportional to (s A + alpha B)^(-1) e0: one banded Cholesky
    factorization and two solves. It is called at fixed points only, where alpha = Lambda^2 > 0 and
    s A + alpha B is positive definite. Requires alpha > 0: below that the
    matrix is indefinite when c_k <= 0 and numerically singular when c_k is a
    tiny positive number (alpha then sits within rounding of -s lam_0).
    """
    if alpha <= 0.0:
        raise ValueError(f"secular eigenpair needs alpha > 0, got {alpha!r}")
    e0 = np.zeros(forms.dim)
    e0[forms.e0_index] = 1.0
    what = f"energy matrix at alpha {alpha!r}"
    energy = _energy(forms, s, alpha)
    chol = _spd_factor(energy, what)
    x = _spd_solve(chol, e0, what)
    # One step of refinement with s A + alpha B formed and applied in extended
    # precision: rounding it to float64 puts the solve off by up to 2e-9 at
    # N = 128 (cond ~ 4e8), an error that moves with BLAS threading; the
    # refined vector is good to ~1e-12.
    ext = np.longdouble
    exact = ext(s) * forms.A_band.astype(ext) + ext(alpha) * forms.B_band.astype(ext)
    r = e0 - _band_matvec_extended(exact, x)
    x = x + _spd_solve(chol, r.astype(float), what)
    return _finish_eigenpair(forms, energy, alpha, x)


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
    at most 1 at span; denoms(x, rows) returns (d, dd/dx) of the given rows
    at their column x. Rows not `live` return 0. Safeguarded Newton, batched
    over rows: a step that leaves the current sign bracket is replaced by
    bisection. Each pass evaluates only the rows still live, so a row's
    iterates are those it would take if solved alone.
    """
    x = np.where(live, 0.5 * span, 0.0)
    lo = np.zeros(x.size)
    hi = span.copy()
    rows = np.flatnonzero(live)
    for _ in range(60):
        if rows.size == 0:
            break
        xr = x[rows]
        d, dd = denoms(xr[:, None], rows)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = w[rows] / d
            G = q.sum(axis=1)
            slope = -(q * dd / d).sum(axis=1)
        R = G - 1.0
        above = R > 0.0
        lo_r = np.where(above, xr, lo[rows])
        hi_r = np.where(above, hi[rows], xr)
        lo[rows] = lo_r
        hi[rows] = hi_r
        done = (np.abs(R) <= 1e-13 * (1.0 + np.abs(G))) | (hi_r - lo_r <= 1e-15 * span[rows])
        with np.errstate(divide="ignore", invalid="ignore"):
            x_newton = xr - R / slope
        inside = np.isfinite(x_newton) & (x_newton > lo_r) & (x_newton < hi_r)
        step = np.where(inside, x_newton, 0.5 * (lo_r + hi_r))
        x[rows] = np.where(done, xr, step)
        rows = rows[~done]
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
        c[:, None] * z2,
        lambda t, rows: (delta[rows] + sgn[rows] * t, sgn[rows]),
        np.where(active, span, 0.0),
        active,
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
        c[:, None] * z2,
        lambda x, rows: (x * (x + lam[rows]), 2.0 * x + lam[rows]),
        span,
        active,
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
    energy = _energy(forms, s, alpha)
    r = _pencil_residual(forms, energy, x)
    y = _spd_solve(_spd_factor(energy, "energy norm"), r, "energy norm")
    return float(np.sqrt(abs(r @ y)))
