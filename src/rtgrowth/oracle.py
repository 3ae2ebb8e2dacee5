"""Independent cross-check: the exact normal-mode dispersion relation.

For one mode k at trial growth rate n > 0 the strong-form boundary-value
problem reduces, inside each layer, to

    mu (psi'''' - 2 k^2 psi'' + k^4 psi) = n rho (psi'' - k^2 psi),

whose solution space is spanned by exponentials with rates +-k and +-q,
q = sqrt(k^2 + n rho / mu). Eight conditions close the system:

    psi = psi' = 0 at both walls,
    [psi] = [psi'] = 0 at the interface,
    [mu (psi'' + k^2 psi)] = 0                         (tangential stress),
    [mu (psi''' - 3 k^2 psi') - n rho psi']
        = (k^2 / n) c_k psi(0),  c_k = g [rho] - theta k^2  (normal stress).

Condensation. In each layer, with z the distance from the interface and h
its depth, the profiles clamped at the wall form a 2-d space, so the
interface tractions

    N = mu (psi_zzz - 3 k^2 psi_z) - n rho psi_z,   T = mu (psi_zz + k^2 psi)

at z = 0 are a 2x2 map G of (psi(0), psi_z(0)) (modeforms._layer).
The upper layer has z = y; the lower has z = -y, which flips the odd orders,
so in y-derivatives its map is [[-G00, G01], [G10, -G11]]. Continuity makes
(a, b) = (psi(0), psi'(0)) common to both layers; with D = T+ - T- the two
stress rows read D10 a + D11 b = 0 and D00 a + D01 b = (k^2 / n) c_k a.
Eliminating b leaves the 1x1 system F_k(n) a = 0 with the secular function

    F_k(n) = n S_k(n) - k^2 c_k,  S_k(n) = D00 - D01 D10 / D11   (determinant).

One modeforms.ExactMode per mode holds everything of this that reads only
k and the config: c_k, k^2 c_k, and per layer E = e^(-k h) and the
rate-free parts of the basis below. Its traction(n) is S_k(n), each
layer's G and basis formed in one pass (modeforms._layer), and every
evaluation of a root search, r_k's S_k(0) included, reads the one
evaluator its caller built for the mode.

The layer basis is anchored at the interface: e^(-k z), e^(-k (h - z)),
u(z) = (e^(-q z) - e^(-k z)) / (q - k) and its wall mirror u(h - z), with
u = e^(-k z) expm1(-(q - k) z) / (q - k) and q - k = (n rho / mu) / (q + k).
Since e^(-q z) = e^(-k z) + (q - k) u,

    u^(j) = (-1)^j (q^j u + d_j e^(-k z)),  d_j = sum_(i < j) q^i k^(j-1-i),

so every entry is a product of exponentials at most 1 and powers of k and q,
free of cancellation as q -> k and finite at any k h or q h. The two wall
rows are eliminated in closed form, in Python floats. The price is thin
layers: as k h -> 0 the four functions flatten towards one another and the
root loses about (k h)^-3 ulps (2e-12 relative at k h = 0.05, against the
same formula in 60-digit arithmetic; 1e-16 for k h >= 1).

The profile. At the root, (a, b) = (1, -D10 / D11) spans the kernel, and
per layer c1 v1 + c3 v3 with (c1, c3) from the 2x2 interface block of the
basis is the exact eigenprofile (dispersion_profile). The Galerkin one,
scaled to psi(0) = 1, approaches it at fourth order in nodal values and
slopes (profile_error: 1.3e-6 to 3.1e-10 from N = 32 to 256 on the
reference maximizer k = 5) until its solve's rounding takes over.

Why one bracketed root. F_k(n) = k^2 (H_k(n, n^2) - c_k), H_k the exact
interface impedance (modeforms module docstring, where the same
condensation gives its exact side), so F_k strictly increases from
F_k(0+) = -k^2 c_k without bound: it has exactly one positive root, the
continuous Lambda_k, when c_k > 0 and none when c_k <= 0. dispersion_root
brackets it by [0, min(scan_max, r_k)], with r_k the compliance bound
(spectrum.mode_compliance_bound), read from the config alone, so the
bracket takes nothing from the Galerkin solve it checks. It refines the
root by Illinois (modified regula falsi) steps that always keep a sign
bracket, with a bisection step whenever three steps in a row have not
halved it, until the bracket is at most 1e-12 of its upper end wide. Tests
check F_k(n) against this identity at N = 256, its monotonicity over a box
of configs, and F_k > 0 just above r_k over the same box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateExponents, SolverError
from .model import FluidConfig, upper_bound_m, validate_config
from .modeforms import ExactMode, VerticalProfile, _layer
from .pencil import COUNTS, Discretization, assemble, fixed_point
from .spectrum import mode_compliance_bound

_ROOT_RTOL = 1e-12


def determinant(mode: ExactMode, n: float) -> float:
    """F_k(n), the determinant of the condensed 1x1 system of mode.k at one rate n > 0.

    For c_k > 0 it has the sign of n - Lambda_k, for c_k <= 0 it is positive
    (module docstring); a non-finite value raises DegenerateExponents.
    """
    COUNTS["determinants"] += 1
    if not n > 0.0:
        raise ValueError(f"trial growth rates must be > 0, got {float(n)!r}")
    f = n * mode.traction(n) - mode.k2c_k
    if not math.isfinite(f):
        raise DegenerateExponents(f"non-finite dispersion function at k={float(mode.k)!r}, n={float(n)!r}")
    return f


def _refine_root(mode: ExactMode, lo, hi, f_lo, f_hi) -> float:
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
        fx = determinant(mode, x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (f_lo > 0.0):
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


def dispersion_root(k: float, cfg: FluidConfig, scan_max: float) -> float | None:
    """Lambda_k, the positive root of F_k, or None when c_k <= 0 (no root).

    The bracket is [0, min(scan_max, r_k)], read from the config alone. At 0,
    F_k(0+) = -k^2 c_k is known in closed form. The upper end hi is the
    compliance bound r_k, which compliance_bound proves to bound the exact
    Lambda_k, raised by 1e-9; where that product is not in (0, scan_max), hi
    is scan_max, at least the bound m. The margin needs no proof, as the sign
    of F_k(hi) is checked: where F_k(hi) < 0 (a rounded r_k below a nearly
    tight root, as near theta_c) the bracket becomes [hi, scan_max], one more
    evaluation. The root is refined (_refine_root) to a bracket [lo, hi] with
    hi - lo <= 1e-12 hi whose midpoint is returned. F_k strictly increases
    (module docstring), so the bracket holds the root unless
    F_k(scan_max) < 0; then scan_max is not the bound it is declared to be,
    and the search raises SolverError instead of widening it.
    """
    if scan_max < upper_bound_m(cfg):
        raise ValueError(
            f"scan_max = {scan_max!r} below the growth-rate bound; roots could escape"
        )
    mode = ExactMode(k, cfg)
    bound = mode_compliance_bound(mode)
    return None if bound is None else _bracketed_root(mode, scan_max, bound)


def _bracketed_root(mode: ExactMode, scan_max: float, bound: float) -> float:
    """dispersion_root past its checks, for c_k > 0 and r_k = bound."""
    lo, f_lo = 0.0, -mode.k2c_k
    hi = bound * (1.0 + 1e-9)
    if not 0.0 < hi < scan_max:
        hi = scan_max
    f_hi = determinant(mode, hi)
    if f_hi < 0.0 and hi < scan_max:
        lo, f_lo, hi = hi, f_hi, scan_max
        f_hi = determinant(mode, hi)
    if f_hi == 0.0:
        return hi
    if f_hi < 0.0:
        raise SolverError(
            f"no root of the dispersion relation of mode k = {float(mode.k)!r} in "
            f"[0, {scan_max!r}]: F_k(scan_max) = {f_hi!r} <= 0"
        )
    return _refine_root(mode, lo, hi, f_lo, f_hi)


def dispersion_profile(k: float, lam: float, cfg: FluidConfig, grid) -> VerticalProfile:
    """The exact eigenprofile of mode k at its root lam, with psi(0) = 1, at the nodes of grid.

    The tangential-stress row gives b = psi'(0) = -D10 / D11; each layer is
    then c1 v1 + c3 v3 with [[a0, b0], [a1, b1]] (c1, c3) = (1, psi_z(0))
    (module docstring). The lower layer has z = -y, so its psi_z(0) is -b and
    its slopes flip sign. Like the basis, it loses about (k h)^-3 ulps in
    thin layers.
    """
    mode = ExactMode(k, cfg)
    up, lo = _layer(lam, mode.upper), _layer(lam, mode.lower)
    b = -(up[2] - lo[2]) / (up[3] + lo[3])
    grid = np.asarray(grid, dtype=float)
    psi, dpsi = [], []
    for sign, layer in ((-1.0, lo), (1.0, up)):
        z = sign * grid[(grid >= 0.0) == (sign > 0.0)]  # the node at 0 is the upper layer's
        q, dq, E, h, U, W, a0, a1, b0, b1, det = layer[4:]
        c1, c3 = (b1 - b0 * sign * b) / det, (a0 * sign * b - a1) / det
        near, far = np.exp(-k * z), np.exp(-k * (h - z))
        u_near, u_far = near * np.expm1(-dq * z) / dq, far * np.expm1(-dq * (h - z)) / dq
        du_far = q * u_far + far  # d/dz u(h - z); u'(z) = -(q u(z) + e^(-k z))
        psi.append(c1 * (near - E * far + 2.0 * k * E * u_far) + c3 * (u_near - U * far + W * u_far))
        v1_z, v3_z = k * (2.0 * E * du_far - near - E * far), W * du_far - q * u_near - near - k * U * far
        dpsi.append(sign * (c1 * v1_z + c3 * v3_z))
    return VerticalProfile(grid, np.concatenate(psi), np.concatenate(dpsi))


def profile_error(profile: VerticalProfile, k: float, lam: float, cfg: FluidConfig) -> tuple[float, float]:
    """Max-norm errors of profile's nodal values and slopes, scaled to psi(0) = 1,
    against dispersion_profile(k, lam, cfg) on its grid."""
    exact = dispersion_profile(k, lam, cfg, profile.grid)
    scale = profile.interface_value
    values = profile.psi_values / scale - exact.psi_values
    slopes = profile.psi_derivs / scale - exact.psi_derivs
    return float(np.max(np.abs(values))), float(np.max(np.abs(slopes)))


@dataclass(frozen=True)
class ModeComparison:
    """Variational vs dispersion growth rate for one mode."""

    k: float
    lambda_variational: float | None
    lambda_oracle: float | None

    @property
    def rel_diff(self) -> float | None:
        """|lambda_variational - lambda_oracle| / lambda_oracle; None unless both are set."""
        if self.lambda_variational is None or self.lambda_oracle is None:
            return None
        return abs(self.lambda_variational - self.lambda_oracle) / self.lambda_oracle


def compare_modes(
    cfg: FluidConfig,
    ks,
    disc: Discretization,
) -> list[ModeComparison]:
    """Per-mode growth rates from both methods, with relative differences.

    Disagreement is reported, never resolved silently: callers decide what to
    flag against which tolerance. cfg is validated and scan_max formed
    (_scan_max) once per call; raises StableRegime at theta >= theta_c, from
    the bound m. Each row builds one ExactMode, from the config alone, and
    forms r_k once from it (mode_compliance_bound); both sides read r_k,
    and the root search reads the same evaluator. The Galerkin side is
    solve_mode_lambda's fixed point, past its checks, started from r_k; only
    its Lambda_k is read, so its last solve never runs: no eigenvector, no
    profile, and a last factorization that would fail does not show
    (pencil.FixedPoint). The oracle's root is dispersion_root's, bracketed
    by the same r_k, and does not depend on the Galerkin solve.

    In exact arithmetic the gap is one-sided, Lambda_k^N <= Lambda_k, since
    H^N >= H (modeforms module docstring), which verify's oracle_agreement
    relies on. The computed Lambda_k^N can exceed the root by its rounding,
    which grows with N and with the viscosity contrast; rel_diff is an
    absolute value, so that excess is reported too.
    """
    validate_config(cfg)
    scan_max = _scan_max(cfg)
    rows = []
    for k in ks:
        forms = assemble(float(k), cfg, disc)
        mode = ExactMode(forms.k, cfg)
        bound = mode_compliance_bound(mode)
        if bound is None:
            rows.append(ModeComparison(forms.k, None, None))
            continue
        lam_v = fixed_point(forms, bound).lam
        rows.append(ModeComparison(forms.k, lam_v, _bracketed_root(mode, scan_max, bound)))
    return rows


def compare_solved_mode(cfg: FluidConfig, k: float, lam_v: float | None) -> ModeComparison:
    """The compare_modes row of mode k, whose Galerkin Lambda_k^N (None if stable) is lam_v."""
    return ModeComparison(float(k), lam_v, dispersion_root(k, cfg, _scan_max(cfg)))


def _scan_max(cfg: FluidConfig) -> float:
    """1.05 m, above the bound m on every root: the scan_max of every
    comparison, compare_modes' and verify's."""
    return 1.05 * upper_bound_m(cfg)
