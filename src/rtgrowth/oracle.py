"""Independent cross-check: exact normal-mode dispersion relation.

For one mode k at trial growth rate n > 0 the strong-form boundary-value
problem reduces, inside each layer, to

    mu (psi'''' - 2 k^2 psi'' + k^4 psi) = n rho (psi'' - k^2 psi),

whose solution space is spanned by exponentials with rates +-k and +-q,
q = sqrt(k^2 + n rho / mu). Eight conditions close the system:

    psi = psi' = 0 at both walls,
    [psi] = [psi'] = 0 at the interface,
    [mu (psi'' + k^2 psi)] = 0                         (tangential stress),
    [mu (psi''' - 3 k^2 psi') - n rho psi']
        = (k^2 / n) (g [rho] - theta k^2) psi(0)       (normal stress).

The two stress rows are derived here by Fourier-reducing the interfacial jump
condition and eliminating the pressure amplitude; validate_jump_rows checks
them numerically against the variational eigenprofiles rather than trusting
the derivation.

Basis per layer: cosh/sinh of k t centered at the layer's far wall, plus the
regularized combinations (cosh qt - cosh kt)/(q^2 - k^2) and the sinh
analogue, written through product identities so they stay finite and
cancellation-free as q -> k (small n). Growth rates are the positive roots of
the 8x8 condition determinant. The matrices for an array of P trial rates are
built as one (P, 8, 8) stack, so each sign search is a single determinant
call. Without a floor the search is a log-spaced scan of (0, scan_max]; with
one (compare_modes passes the Galerkin Lambda_k^N, a proven lower bound of
the root) it is a cluster of rates just above the floor plus the scan's nodes
above that cluster, and the full scan runs only if that finds no sign change.
The last sign-change cell, which holds the largest root, is then refined by
Illinois (modified regula falsi) steps that always keep a sign bracket, with
a bisection step whenever three steps in a row have not halved the bracket,
until the bracket is at most 1e-12 of its upper end wide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateExponents, ZeroWaveNumber
from .fixedpoint import solve_mode_lambda
from .model import FluidConfig, upper_bound_m, validate_config
from .modeforms import VerticalProfile
from .pencil import Discretization

_ARG_LIMIT = 700.0  # cosh overflows just above this
_SCAN_POINTS = 240
_SCAN_FLOOR = 1e-9
_ROOT_RTOL = 1e-12
# Relative offsets of the seeded nodes from the floor: one node just below it,
# the floor itself, and half-decade steps from 1e-10 to 1e-1 above it.
_FLOOR_OFFSETS = np.concatenate(([-1e-9, 0.0], np.geomspace(1e-10, 1e-1, 19)))


def _layer_basis(k: float, q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Values and derivatives 0..3 of the four basis functions at offsets t.

    t broadcasts against q, of shape S. Returns an (*S, 4, 4) array: rows are
    derivative orders, columns the basis (cosh kt, sinh kt, u, w) with
    u = (cosh qt - cosh kt)/(q^2 - k^2) and w = (sinh qt - sinh kt)/(q^2 - k^2).
    """
    sigma = q + k
    delta = q - k
    if max(np.max(np.abs(k * t)), np.max(np.abs(q * t))) > _ARG_LIMIT:
        raise DegenerateExponents(
            f"hyperbolic basis overflow at k={k!r}, q up to {np.max(q)!r}, "
            f"|t| up to {np.max(np.abs(t))!r}"
        )
    ck, sk = np.cosh(k * t), np.sinh(k * t)
    half_sum = 0.5 * sigma * t
    half_diff = 0.5 * delta * t
    dc = 2.0 * np.sinh(half_sum) * np.sinh(half_diff)
    ds = 2.0 * np.cosh(half_sum) * np.sinh(half_diff)
    dsq = delta * sigma  # q^2 - k^2 = n rho / mu, exact and cancellation-free
    u = dc / dsq
    w = ds / dsq
    q2 = q * q
    cubic = q2 + q * k + k * k
    out = np.empty(q.shape + (4, 4))
    out[..., 0, 0], out[..., 0, 1], out[..., 0, 2], out[..., 0, 3] = ck, sk, u, w
    out[..., 1, 0], out[..., 1, 1] = k * sk, k * ck
    out[..., 1, 2], out[..., 1, 3] = q * w + sk / sigma, q * u + ck / sigma
    out[..., 2, 0], out[..., 2, 1] = k * k * ck, k * k * sk
    out[..., 2, 2], out[..., 2, 3] = q2 * u + ck, q2 * w + sk
    out[..., 3, 0], out[..., 3, 1] = k**3 * sk, k**3 * ck
    out[..., 3, 2] = q2 * (q * w) + cubic * sk / sigma
    out[..., 3, 3] = q2 * (q * u) + cubic * ck / sigma
    return out


def _condition_matrices(k: float, n, cfg: FluidConfig) -> np.ndarray:
    """(P, 8, 8) condition matrices at the P trial rates n, before column scaling."""
    if k <= 0.0:
        raise ZeroWaveNumber(f"dispersion system needs k > 0, got {k!r}")
    n = np.atleast_1d(np.asarray(n, dtype=float))
    if np.any(n <= 0.0):
        raise ValueError(f"trial growth rates must be > 0, got {n.min()!r}")
    rho = np.array([[cfg.rho_plus], [cfg.rho_plus], [cfg.rho_minus], [cfg.rho_minus]])
    mu = np.array([[cfg.mu_plus], [cfg.mu_plus], [cfg.mu_minus], [cfg.mu_minus]])
    q = np.sqrt(k * k + n * rho / mu)
    # Upper-layer basis centered at t = y - h_plus, interface at t = -h_plus;
    # lower-layer centered at t = y + h_minus, interface at t = +h_minus.
    t = np.array([[0.0], [-cfg.h_plus], [0.0], [cfg.h_minus]])
    up_wall, up_int, lo_wall, lo_int = _layer_basis(k, q, t)

    mu_ref = max(cfg.mu_plus, cfg.mu_minus)
    scale8 = (mu_ref * np.maximum(q[0], q[2]) ** 3)[:, None]
    surface = ((k * k / n) * (cfg.g * cfg.density_jump - cfg.theta * k * k))[:, None]

    M = np.zeros((n.size, 8, 8))
    up, lo = slice(0, 4), slice(4, 8)
    M[:, 0, up] = up_wall[:, 0]
    M[:, 1, up] = up_wall[:, 1] / k
    M[:, 2, lo] = lo_wall[:, 0]
    M[:, 3, lo] = lo_wall[:, 1] / k
    M[:, 4, up] = up_int[:, 0]
    M[:, 4, lo] = -lo_int[:, 0]
    M[:, 5, up] = up_int[:, 1] / k
    M[:, 5, lo] = -lo_int[:, 1] / k
    M[:, 6, up] = cfg.mu_plus * (up_int[:, 2] + k * k * up_int[:, 0]) / (mu_ref * k * k)
    M[:, 6, lo] = -cfg.mu_minus * (lo_int[:, 2] + k * k * lo_int[:, 0]) / (mu_ref * k * k)
    M[:, 7, up] = (
        cfg.mu_plus * (up_int[:, 3] - 3.0 * k * k * up_int[:, 1])
        - (n * cfg.rho_plus)[:, None] * up_int[:, 1]
        - surface * up_int[:, 0]
    ) / scale8
    M[:, 7, lo] = -(
        cfg.mu_minus * (lo_int[:, 3] - 3.0 * k * k * lo_int[:, 1])
        - (n * cfg.rho_minus)[:, None] * lo_int[:, 1]
    ) / scale8
    if not np.all(np.isfinite(M)):
        raise DegenerateExponents(f"non-finite dispersion matrix at k={k!r}")
    return M


def determinant(k: float, n, cfg: FluidConfig):
    """Determinant of the column-normalized condition matrix at n.

    n is one rate (returns a float) or a 1-d array of rates (returns the
    array of determinants, from one np.linalg.det over the stack). Each
    column is divided by its largest magnitude; the scales are positive, so
    sign changes in n locate exactly the roots of the dispersion relation.
    """
    M = _condition_matrices(k, n, cfg)
    scales = np.abs(M).max(axis=1, keepdims=True)
    det = np.linalg.det(M / np.where(scales > 0.0, scales, 1.0))
    return det if np.ndim(n) else float(det[0])


def _refine_root(k, cfg, lo, hi, f_lo, f_hi) -> float:
    """Root in the sign bracket [lo, hi] to 1e-12 relative, returned as its midpoint.

    Illinois steps: the regula falsi point replaces the bracket end of its
    own sign, and an end kept twice in a row has its value halved for the
    next step, which stops regula falsi from stalling on one side. The point
    stays at least half the final width away from both ends, so a point
    that lands within that distance of the root closes the bracket. Every
    step keeps a sign change in [lo, hi]. When the bracket has not halved
    over a regula falsi step and the two Illinois steps after it, the next
    step bisects, so the bracket at least halves every four evaluations.
    """
    width, stalled, kept = hi - lo, 0, 0
    while hi - lo > _ROOT_RTOL * hi:
        x = 0.5 * (lo + hi)
        if stalled < 3:
            gap = 0.5 * _ROOT_RTOL * hi
            x = min(max(hi - f_hi * (hi - lo) / (f_hi - f_lo), lo + gap), hi - gap)
        fx = determinant(k, x, cfg)
        if fx == 0.0:
            return x
        if np.sign(fx) == np.sign(f_lo):
            lo, f_lo = x, fx
            f_hi = 0.5 * f_hi if kept == 1 else f_hi
            kept = 1
        else:
            hi, f_hi = x, fx
            f_lo = 0.5 * f_lo if kept == -1 else f_lo
            kept = -1
        if hi - lo <= 0.5 * width:
            width, stalled = hi - lo, 0
        else:
            stalled += 1
    return 0.5 * (lo + hi)


def _largest_root(k, cfg, nodes: np.ndarray) -> float | None:
    """Largest root on the increasing nodes, from one batched determinant call.

    The largest root lies in the last cell with a sign change, or on a node
    where the determinant is exactly zero; only that cell is refined
    (_refine_root). None when no node is a root and no cell changes sign.
    """
    values = determinant(k, nodes, cfg)
    if values[-1] == 0.0:
        return float(nodes[-1])
    for i in range(nodes.size - 2, -1, -1):
        if values[i] == 0.0:
            return float(nodes[i])
        if np.sign(values[i]) != np.sign(values[i + 1]):
            return float(_refine_root(k, cfg, nodes[i], nodes[i + 1], values[i], values[i + 1]))
    return None


def dispersion_root(
    k: float, cfg: FluidConfig, scan_max: float, floor: float | None = None
) -> float | None:
    """Largest positive root of the dispersion determinant, None if stable.

    Without a floor: the determinant on a log-spaced grid of _SCAN_POINTS
    rates in (0, scan_max], in one batched call (growth rates can sit orders
    of magnitude below the bound near the threshold), and the last sign
    change refined (_largest_root) to a bracket [lo, hi] with
    hi - lo <= 1e-12 hi whose midpoint is returned.

    floor is a proven lower bound of the largest root, 0 < floor < scan_max.
    The first call then covers floor * (1 + _FLOOR_OFFSETS) (one node 1e-9
    below the floor, the floor, and half-decade steps from 1e-10 to 1e-1
    above it) below scan_max, plus the grid's own nodes above that cluster,
    and refines its last sign change. The grid nodes are kept, so the answer
    differs from the unseeded one only when the root lies in the cluster,
    and there only within the refined bracket. If those nodes show no root
    the full scan runs as without a floor: the floor decides what the search
    costs, never what it returns.

    Why the Galerkin Lambda_k^N is such a floor: alpha_k(s) is a supremum of
    the Rayleigh quotient over the clamped H^2 profiles, and alpha_k^N(s)
    the same supremum over the Hermite cubic space, an H^2-conforming subspace
    that satisfies the wall conditions; so alpha_k^N(s) <= alpha_k(s) at every
    s. At s = Lambda_k^N this gives s^2 = alpha_k^N(s) <= alpha_k(s), and
    alpha_k(s) - s^2 strictly decreases, so s <= Lambda_k, the continuous
    fixed point, which is the largest root of the dispersion relation. The
    node 1e-9 below the floor covers the rounding of both computed values.
    """
    if scan_max < upper_bound_m(cfg):
        raise ValueError(
            f"scan_max = {scan_max!r} below the growth-rate bound; roots could escape"
        )
    grid = np.geomspace(scan_max * _SCAN_FLOOR, scan_max, _SCAN_POINTS)
    if floor is not None:
        if not 0.0 < floor < scan_max:
            raise ValueError(f"floor = {floor!r} outside (0, scan_max = {scan_max!r})")
        seeded = floor * (1.0 + _FLOOR_OFFSETS)
        seeded = seeded[seeded < scan_max]
        root = _largest_root(k, cfg, np.concatenate((seeded, grid[grid > seeded[-1]])))
        if root is not None:
            return root
    return _largest_root(k, cfg, grid)


def _side_jet(profile: VerticalProfile, direction: int):
    """One-sided (psi'', psi''') at the interface from a local quintic.

    Fits the quintic through the interface node and the two nearest nodes on
    one side (value and slope each); nodal Hermite data is more accurate than
    the elementwise cubic's interior derivatives, so this recovers interface
    second and third derivatives at a higher order than the raw cubic jet.
    The stencil coordinate points away from the interface on both sides, so
    mirror-symmetric data produces identical fits.
    """
    grid = profile.grid
    i0 = profile.interface_index
    idx = [i0, i0 + direction, i0 + 2 * direction]
    h = abs(grid[idx[1]] - grid[i0])
    t = np.abs(grid[idx] - grid[i0]) / h
    # p(t) interpolates psi(y0 + direction*h*t); slope data picks up the
    # direction sign through the chain rule.
    rows = []
    rhs = []
    powers = np.arange(6)
    for ti, j in zip(t, idx):
        rows.append(ti**powers)
        rhs.append(profile.psi_values[j])
        dr = np.zeros(6)
        dr[1:] = powers[1:] * ti ** (powers[1:] - 1)
        rows.append(dr)
        rhs.append(direction * h * profile.psi_derivs[j])
    coeff = np.linalg.solve(np.asarray(rows), np.asarray(rhs))
    d2 = 2.0 * coeff[2] / h**2
    d3 = direction * 6.0 * coeff[3] / h**3
    return d2, d3


def _interface_jet(profile: VerticalProfile):
    """psi, psi', and one-sided psi'', psi''' at the interface node."""
    psi0 = float(profile.psi_values[profile.interface_index])
    dpsi0 = float(profile.psi_derivs[profile.interface_index])
    d2_minus, d3_minus = _side_jet(profile, -1)
    d2_plus, d3_plus = _side_jet(profile, +1)
    return psi0, dpsi0, d2_minus, d2_plus, d3_minus, d3_plus


@dataclass(frozen=True)
class JumpRowReport:
    """Normalized residuals of the two derived stress-jump rows."""

    k: float
    lam: float
    tangential_residual: float
    normal_residual: float
    tangential_raw: float
    normal_raw: float


def evaluate_jump_rows(
    cfg: FluidConfig, k: float, profile: VerticalProfile, lam: float
) -> JumpRowReport:
    """Substitute a profile into the stress-jump row functionals."""
    if k <= 0.0:
        raise ZeroWaveNumber(f"jump rows need k > 0, got {k!r}")
    if lam <= 0.0:
        raise ValueError(f"growth rate must be > 0, got {lam!r}")
    psi0, dpsi0, d2m, d2p, d3m, d3p = _interface_jet(profile)
    k2 = k * k

    t_plus = cfg.mu_plus * (d2p + k2 * psi0)
    t_minus = cfg.mu_minus * (d2m + k2 * psi0)
    t_raw = t_plus - t_minus
    t_scale = abs(t_plus) + abs(t_minus)

    n_plus = cfg.mu_plus * (d3p - 3.0 * k2 * dpsi0) - lam * cfg.rho_plus * dpsi0
    n_minus = cfg.mu_minus * (d3m - 3.0 * k2 * dpsi0) - lam * cfg.rho_minus * dpsi0
    surface = (k2 / lam) * (cfg.g * cfg.density_jump - cfg.theta * k2) * psi0
    n_raw = n_plus - n_minus - surface
    n_scale = abs(n_plus) + abs(n_minus) + abs(surface)

    return JumpRowReport(
        k=k,
        lam=lam,
        tangential_residual=abs(t_raw) / t_scale if t_scale > 0.0 else 0.0,
        normal_residual=abs(n_raw) / n_scale if n_scale > 0.0 else 0.0,
        tangential_raw=t_raw,
        normal_raw=n_raw,
    )


def validate_jump_rows(
    cfg: FluidConfig,
    k: float,
    disc: Discretization = Discretization(128),
) -> JumpRowReport:
    """Check the derived rows on the variational eigenprofile of mode k."""
    growth = solve_mode_lambda(cfg, k, disc)
    if growth is None:
        raise ValueError(f"mode k = {k!r} is stable; no eigenprofile to test")
    return evaluate_jump_rows(cfg, k, growth.profile, growth.lam)


@dataclass(frozen=True)
class ModeComparison:
    """Variational vs dispersion growth rate for one mode."""

    k: float
    lambda_variational: float | None
    lambda_oracle: float | None
    rel_diff: float | None


def compare_modes(
    cfg: FluidConfig,
    ks,
    disc: Discretization,
) -> list[ModeComparison]:
    """Per-mode growth rates from both methods, with relative differences.

    Disagreement is reported, never resolved silently: callers decide what to
    flag against which tolerance. The Galerkin side is solve_mode_lambda;
    only its Lambda_k is read, so no profile is built. The oracle searches
    up to 1.05 m, seeded with the Galerkin Lambda_k^N as its floor (a proven
    lower bound; see dispersion_root); a stable Galerkin mode has no floor,
    and its oracle runs the full scan. Raises StableRegime at theta >= theta_c
    (from the bound m), like solve_mode_lambda.
    """
    validate_config(cfg)
    scan_max = 1.05 * upper_bound_m(cfg)
    rows = []
    for k in ks:
        solved = solve_mode_lambda(cfg, k, disc)
        rows.append(compare_solved_mode(cfg, k, solved.lam if solved is not None else None, scan_max))
    return rows


def compare_solved_mode(
    cfg: FluidConfig, k: float, lam_v: float | None, scan_max: float
) -> ModeComparison:
    """The compare_modes row of mode k, whose Galerkin Lambda_k^N (None if stable) is lam_v."""
    root = dispersion_root(k, cfg, scan_max, floor=lam_v)
    rel = None
    if lam_v is not None and root is not None:
        rel = abs(lam_v - root) / root
    return ModeComparison(k=float(k), lambda_variational=lam_v, lambda_oracle=root, rel_diff=rel)


def comparison_csv_lines(rows: list[ModeComparison]) -> list[str]:
    lines = ["k,lambda_oracle,lambda_variational,rel_diff"]
    for r in rows:
        oracle = "" if r.lambda_oracle is None else repr(float(r.lambda_oracle))
        vari = "" if r.lambda_variational is None else repr(float(r.lambda_variational))
        rel = "" if r.rel_diff is None else repr(float(r.rel_diff))
        lines.append(f"{float(r.k)!r},{oracle},{vari},{rel}")
    return lines
