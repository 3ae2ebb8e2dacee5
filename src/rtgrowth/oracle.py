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
the 8x8 condition determinant, located by a log-spaced sign scan plus
bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateExponents, ZeroWaveNumber
from .fixedpoint import ModeGrowth, solve_mode_lambda
from .model import FluidConfig, upper_bound_m, validate_config
from .modeforms import VerticalProfile
from .pencil import Discretization

_ARG_LIMIT = 700.0  # cosh overflows just above this
_DEFAULT_SCAN_POINTS = 240
_SCAN_FLOOR = 1e-9


def _layer_basis(k: float, q: float, t: float):
    """Values and derivatives 0..3 of the four basis functions at offset t.

    Returns a (4, 4) array: rows are derivative orders, columns the basis
    (cosh kt, sinh kt, u, w) with u = (cosh qt - cosh kt)/(q^2 - k^2) and
    w = (sinh qt - sinh kt)/(q^2 - k^2).
    """
    sigma = q + k
    delta = q - k
    if max(abs(k * t), abs(q * t)) > _ARG_LIMIT:
        raise DegenerateExponents(
            f"hyperbolic basis overflow at k={k!r}, q={q!r}, t={t!r}"
        )
    ck, sk = math.cosh(k * t), math.sinh(k * t)
    half_sum = 0.5 * sigma * t
    half_diff = 0.5 * delta * t
    dc = 2.0 * math.sinh(half_sum) * math.sinh(half_diff)
    ds = 2.0 * math.cosh(half_sum) * math.sinh(half_diff)
    dsq = delta * sigma  # q^2 - k^2 = n rho / mu, exact and cancellation-free
    u = dc / dsq
    w = ds / dsq
    q2 = q * q
    cubic = q2 + q * k + k * k
    out = np.empty((4, 4))
    out[0] = (ck, sk, u, w)
    out[1] = (k * sk, k * ck, q * w + sk / sigma, q * u + ck / sigma)
    out[2] = (k * k * ck, k * k * sk, q2 * u + ck, q2 * w + sk)
    out[3] = (k**3 * sk, k**3 * ck, q2 * (q * w) + cubic * sk / sigma,
              q2 * (q * u) + cubic * ck / sigma)
    return out


@dataclass(frozen=True, eq=False)
class DispersionSystem:
    """Condition matrix of one (k, n) pair, before column normalization."""

    k: float
    n: float
    q_plus: float
    q_minus: float
    matrix: np.ndarray


def build_system(k: float, n: float, cfg: FluidConfig) -> DispersionSystem:
    if k <= 0.0:
        raise ZeroWaveNumber(f"dispersion system needs k > 0, got {k!r}")
    if n <= 0.0:
        raise ValueError(f"trial growth rate must be > 0, got {n!r}")
    q_plus = math.sqrt(k * k + n * cfg.rho_plus / cfg.mu_plus)
    q_minus = math.sqrt(k * k + n * cfg.rho_minus / cfg.mu_minus)

    # Upper-layer basis centered at t = y - h_plus, interface at t = -h_plus;
    # lower-layer centered at t = y + h_minus, interface at t = +h_minus.
    up_wall = _layer_basis(k, q_plus, 0.0)
    up_int = _layer_basis(k, q_plus, -cfg.h_plus)
    lo_wall = _layer_basis(k, q_minus, 0.0)
    lo_int = _layer_basis(k, q_minus, cfg.h_minus)

    mu_ref = max(cfg.mu_plus, cfg.mu_minus)
    q_ref = max(q_plus, q_minus)
    surface = (k * k / n) * (cfg.g * cfg.density_jump - cfg.theta * k * k)

    M = np.zeros((8, 8))
    up, lo = slice(0, 4), slice(4, 8)
    M[0, up] = up_wall[0]
    M[1, up] = up_wall[1] / k
    M[2, lo] = lo_wall[0]
    M[3, lo] = lo_wall[1] / k
    M[4, up] = up_int[0]
    M[4, lo] = -lo_int[0]
    M[5, up] = up_int[1] / k
    M[5, lo] = -lo_int[1] / k
    M[6, up] = cfg.mu_plus * (up_int[2] + k * k * up_int[0]) / (mu_ref * k * k)
    M[6, lo] = -cfg.mu_minus * (lo_int[2] + k * k * lo_int[0]) / (mu_ref * k * k)
    scale8 = mu_ref * q_ref**3
    M[7, up] = (
        cfg.mu_plus * (up_int[3] - 3.0 * k * k * up_int[1])
        - n * cfg.rho_plus * up_int[1]
        - surface * up_int[0]
    ) / scale8
    M[7, lo] = -(
        cfg.mu_minus * (lo_int[3] - 3.0 * k * k * lo_int[1])
        - n * cfg.rho_minus * lo_int[1]
    ) / scale8
    if not np.all(np.isfinite(M)):
        raise DegenerateExponents(
            f"non-finite dispersion matrix at k={k!r}, n={n!r}"
        )
    return DispersionSystem(k=k, n=n, q_plus=q_plus, q_minus=q_minus, matrix=M)


def _column_scales(M: np.ndarray, normalization: str) -> np.ndarray:
    if normalization == "colmax":
        scales = np.abs(M).max(axis=0)
        return np.where(scales > 0.0, scales, 1.0)
    if normalization == "plain":
        return np.ones(M.shape[1])
    raise ValueError(f"unknown normalization {normalization!r}")


def determinant(k: float, n: float, cfg: FluidConfig, normalization: str = "colmax") -> float:
    """Determinant of the column-normalized condition matrix.

    Column scales are positive, so sign changes in n locate exactly the roots
    of the underlying dispersion relation.
    """
    system = build_system(k, n, cfg)
    scales = _column_scales(system.matrix, normalization)
    return float(np.linalg.det(system.matrix / scales))


def determinant_slogdet(
    k: float, n: float, cfg: FluidConfig, normalization: str = "colmax"
) -> tuple[float, float]:
    """(sign, log|det|) of the raw condition matrix, normalization-independent.

    Computed through the requested normalization and corrected by its scale
    product: distinct normalizations must agree to rounding, which is the
    scaling-invariance check of the oracle.
    """
    system = build_system(k, n, cfg)
    scales = _column_scales(system.matrix, normalization)
    sign, logabs = np.linalg.slogdet(system.matrix / scales)
    return float(sign), float(logabs + np.log(scales).sum())


def scan_sign_changes(
    k: float, cfg: FluidConfig, scan_max: float, n_points: int = _DEFAULT_SCAN_POINTS
) -> int:
    """Number of sign changes on the log-spaced scan grid (parity guard)."""
    grid = np.geomspace(scan_max * _SCAN_FLOOR, scan_max, n_points)
    values = np.asarray([determinant(k, n, cfg) for n in grid])
    return int(np.count_nonzero(np.sign(values[:-1]) != np.sign(values[1:])))


def dispersion_root(
    k: float,
    cfg: FluidConfig,
    scan_max: float,
    n_points: int = _DEFAULT_SCAN_POINTS,
) -> float | None:
    """Largest positive root of the dispersion determinant, None if stable.

    Scans n over a log-spaced grid in (0, scan_max] (growth rates can sit
    orders of magnitude below the bound near the threshold), brackets every
    sign change, and bisects each to 1e-12 relative.
    """
    if n_points < 200:
        raise ValueError("scan needs at least 200 points")
    if scan_max < upper_bound_m(cfg):
        raise ValueError(
            f"scan_max = {scan_max!r} below the growth-rate bound; roots could escape"
        )
    grid = np.geomspace(scan_max * _SCAN_FLOOR, scan_max, n_points)
    values = np.asarray([determinant(k, n, cfg) for n in grid])

    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
        if fa == 0.0:
            roots.append(float(a))
            continue
        if np.sign(fa) == np.sign(fb):
            continue
        lo, hi, f_lo = a, b, fa
        while (hi - lo) > 1e-12 * hi:
            mid = 0.5 * (lo + hi)
            f_mid = determinant(k, mid, cfg)
            if f_mid == 0.0:
                lo = hi = mid
                break
            if np.sign(f_mid) == np.sign(f_lo):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    if values[-1] == 0.0:
        roots.append(float(grid[-1]))
    if not roots:
        return None
    return float(max(roots))


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
    growth: ModeGrowth | None = None,
) -> JumpRowReport:
    """Check the derived rows on the variational eigenprofile of mode k."""
    validate_config(cfg)
    if growth is None:
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
    scan_margin: float = 1.05,
) -> list[ModeComparison]:
    """Per-mode growth rates from both methods, with relative differences.

    Disagreement is reported, never resolved silently: callers decide what to
    flag against which tolerance.
    """
    validate_config(cfg)
    scan_max = scan_margin * upper_bound_m(cfg)
    rows = []
    for k in ks:
        growth = solve_mode_lambda(cfg, k, disc)
        root = dispersion_root(k, cfg, scan_max)
        lam_v = growth.lam if growth is not None else None
        rel = None
        if lam_v is not None and root is not None:
            rel = abs(lam_v - root) / root
        rows.append(
            ModeComparison(
                k=float(k), lambda_variational=lam_v, lambda_oracle=root, rel_diff=rel
            )
        )
    return rows


def comparison_csv_lines(rows: list[ModeComparison]) -> list[str]:
    lines = ["k,lambda_oracle,lambda_variational,rel_diff"]
    for r in rows:
        oracle = "" if r.lambda_oracle is None else repr(float(r.lambda_oracle))
        vari = "" if r.lambda_variational is None else repr(float(r.lambda_variational))
        rel = "" if r.rel_diff is None else repr(float(r.rel_diff))
        lines.append(f"{float(r.k)!r},{oracle},{vari},{rel}")
    return lines
