import json
import math
from dataclasses import asdict, dataclass

import numpy as np
import pytest
import scipy.linalg as sla

from rtgrowth import cli, oracle, pencil, spectrum
from rtgrowth.errors import SolverError
from rtgrowth.model import FluidConfig, theta_critical
from rtgrowth.modeforms import ExactMode, VerticalProfile, uniform_layered_grid

# 5-point Gauss-Legendre rule on [0, 1]: exact through polynomial degree 9,
# which covers every integrand of the kinetic and dissipation forms (degree <= 6).
_GX, _GW = np.polynomial.legendre.leggauss(5)
GAUSS_NODES = 0.5 * (_GX + 1.0)
GAUSS_WEIGHTS = 0.5 * _GW


def hermite_shape(u, order=0):
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


# Shape values and first and second u-derivatives at the Gauss nodes.
GAUSS_SHAPES = tuple(hermite_shape(GAUSS_NODES, order) for order in range(3))


def quadrature_element_matrices(h):
    """The 4x4 element integrals (mass, grad, bending, symmetrized
    mass-bending cross) by Gauss quadrature of the Hermite shapes: the
    reference that pencil's closed-form tables are tested against."""
    scale = np.array([1.0, h, 1.0, h])
    w = h * GAUSS_WEIGHTS
    s = [scale[:, None] * shape / h**r for r, shape in enumerate(GAUSS_SHAPES)]
    cross = (s[0] * w) @ s[2].T
    return (s[0] * w) @ s[0].T, (s[1] * w) @ s[1].T, (s[2] * w) @ s[2].T, 0.5 * (cross + cross.T)


def config_json(cfg):
    """cfg as the JSON object that FluidConfig.from_json and the CLI read."""
    return json.dumps(asdict(cfg))


def cli_output(tmp_path, cfg, command, *args):
    """Run command in process on cfg, which must exit 0; return its --out path."""
    config, out = tmp_path / "cli_config.json", tmp_path / f"{command}.out"
    config.write_text(config_json(cfg))
    assert cli.main([command, "--config", str(config), *args, "--out", str(out)]) == 0
    return out


def global_alpha(cfg, s, disc):
    """alpha(s, cfg.theta) over a mode set sized at s by spectrum.size_mode_set,
    as alpha_curve samples it."""
    fm = spectrum.FrozenModeSet.freeze(cfg, disc, spectrum.smallest_magnitude(cfg))
    return spectrum.size_mode_set(fm, cfg.theta, s)


def growth_max(fm, theta):
    """The fixed point of the fastest mode of fm as it is, sized no further:
    one scan of the growth pair over the whole set."""
    pair = spectrum._growth_pair(fm, theta)
    return spectrum._scan(fm, pair, 0, pair.floor)[2]


def table_alpha(table):
    """The larger branch value of every row of a spectrum.ModeTable."""
    return np.maximum(table.alpha_longitudinal, table.alpha_transverse)


def curve_alphas(curve):
    """The sampled alpha values of a spectrum.AlphaCurve."""
    return np.asarray([v.alpha for v in curve.values])


def box_config(nu_plus, nu_minus, fraction):
    """The property-test box: reference densities and depths, mu / rho from
    10^nu_plus (upper layer) and 10^nu_minus (lower), theta = fraction theta_c."""
    base = FluidConfig(
        rho_plus=2.0, rho_minus=1.0, mu_plus=2.0 * 10.0**nu_plus, mu_minus=10.0**nu_minus,
        g=9.8, theta=0.0, L1=1.0, L2=1.0, h_plus=1.0, h_minus=1.0,
    )
    return base.with_theta(fraction * theta_critical(base))


@pytest.fixture
def reference_config():
    """The standard two-layer case used throughout: moderate viscosity."""
    return FluidConfig(
        rho_plus=2.0,
        rho_minus=1.0,
        mu_plus=0.1,
        mu_minus=0.1,
        g=9.8,
        theta=0.0,
        L1=1.0,
        L2=1.0,
        h_plus=1.0,
        h_minus=1.0,
    )


@pytest.fixture
def cheap_config():
    """High-viscosity variant: small mode cutoff, fast global solves."""
    return FluidConfig(
        rho_plus=2.0,
        rho_minus=1.0,
        mu_plus=1.0,
        mu_minus=1.0,
        g=9.8,
        theta=0.0,
        L1=1.0,
        L2=1.0,
        h_plus=1.0,
        h_minus=1.0,
    )


@pytest.fixture
def contrast_config():
    """Strong density and viscosity contrast with thin layers."""
    return FluidConfig(
        rho_plus=5.2,
        rho_minus=0.2,
        mu_plus=0.1,
        mu_minus=5.0,
        g=20.0,
        theta=0.0,
        L1=2.0,
        L2=2.0,
        h_plus=0.3,
        h_minus=0.3,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def dense(band):
    """Symmetric dense matrix whose lower triangle the lower band holds."""
    n = band.shape[1]
    M = np.diag(band[0])
    for d in range(1, min(band.shape[0], n)):
        i = np.arange(n - d)
        M[i + d, i] = M[i, i + d] = band[d, : n - d]
    return M


def band_matvec_extended(band, x):
    """The product of a np.longdouble lower band with x, by diagonals: the
    reference that pencil._refine's gathered rows are tested against, bit for
    bit. Every off-diagonal product goes through one buffer, in the order of
    a product per term, so the sums round as they would with a fresh array
    each: row j adds its terms in the order diagonal, -1, +1, -2, +2, -3, +3."""
    x = x.astype(np.longdouble)
    y = band[0] * x
    buffer = np.empty_like(y)
    for d in range(1, band.shape[0]):
        term = np.multiply(band[d, :-d], x[:-d], out=buffer[d:])
        y[d:] += term
        y[:-d] += np.multiply(band[d, :-d], x[d:], out=term)
    return y


def bands(forms):
    """(A, B) of a pencil as (4, dim) float64 lower bands, each its values
    rounded to float64 and gathered, as every solve forms its band
    (pencil._energy)."""
    return pencil._energy(forms, 1.0, 0.0), pencil._energy(forms, 0.0, 1.0)


def extended_bands(forms):
    """(A, B) of a pencil as (4, dim) np.longdouble lower bands: its values
    gathered, with no rounding, the operator pencil._refine forms its
    residual on."""
    return tuple(values[forms.tables["band"]].T for values in forms.weighted)


def hand_built_pencil(A_band, B_band, e0_index, c_k):
    """A pencil at k = 1 of (4, dim) bands built by hand, on the grid of one
    element per layer. Its tables take one class per band entry and class
    A_band.size for the zeros past the matrix, laid out by pencil._layout as
    an assembled pencil's are, so its weighted values are the bands' entries
    and a 0, in np.longdouble, and every solve reads it as it reads an
    assembled pencil; past the matrix the bands may hold anything."""
    A_band, B_band = (np.asarray(band, dtype=float) for band in (A_band, B_band))
    size = A_band.size
    layout = pencil._layout(np.arange(size).reshape(A_band.shape), size, e0_index)
    weighted = np.array([np.append(band.ravel(), 0.0) for band in (A_band, B_band)], dtype=np.longdouble)
    weighted.flags.writeable = False
    tables = {"grid": np.array([-1.0, 0.0, 1.0]), **layout}
    return pencil.PencilForms(k=1.0, c_k=c_k, weighted=weighted, tables=tables)


@dataclass(frozen=True, eq=False)
class EigenSolution:
    """Largest eigenpair of one pencil, eigenvector normalized to x^T B x = 1,
    with the relative pencil residual ||(c_k e0 e0^T - s A - alpha B) x|| / ||x||."""

    alpha: float
    vector: np.ndarray
    residual: float


def fix_sign(x, e0_index):
    """Sign convention: psi(0) >= 0, first nonzero dof positive as tiebreak.

    eigh returns either sign of an eigenvector; pencil.fixed_point needs no
    flip, its vector having a positive interface value by construction."""
    v = x[e0_index]
    if v != 0.0:
        return x if v > 0.0 else -x
    nz = np.nonzero(x)[0]
    if nz.size and x[nz[0]] < 0.0:
        return -x
    return x


def finish_eigenpair(forms, s, alpha, x):
    """Normalize and sign-fix x to the convention of pencil.fixed_point, and
    measure its residual."""
    x = x / np.sqrt(x @ pencil.band_matvec(bands(forms)[1], x))
    x = fix_sign(x, forms.e0_index)
    # (c_k e0 e0^T - s A - alpha B) x
    r = -pencil.band_matvec(pencil._energy(forms, s, alpha), x)
    r[forms.e0_index] += forms.c_k * x[forms.e0_index]
    return EigenSolution(float(alpha), x, float(np.linalg.norm(r) / np.linalg.norm(x)))


def largest_eigenpair(forms, s):
    """Largest generalized eigenpair of one mode's pencil by a dense solve: the
    reference that the banded solves are tested against."""
    if s <= 0.0:
        raise ValueError(f"modification parameter must be > 0, got {s!r}")
    n = forms.tables["e0"].size
    A, B = bands(forms)
    numerator = -s * dense(A)
    numerator[forms.e0_index, forms.e0_index] += forms.c_k
    w, v = sla.eigh(numerator, dense(B), subset_by_index=[n - 1, n - 1])
    return finish_eigenpair(forms, s, w[0], v[:, 0])


def interface_solve(forms, s, alpha):
    """x = (s A + alpha B)^(-1) e0, refined once, for s A + alpha B positive
    definite: one banded factorization and float64 solve (pencil._factor_solve)
    and one extended-precision residual (pencil._refine). When alpha is the
    largest eigenvalue, x is its eigenvector: the pencil gives
    (s A + alpha B) x = c_k x[e0] e0. Rounding the solve to float64 puts it
    off by up to 2e-9 at N = 128 (cond ~ 4e8); the refined vector is good to
    ~1e-12."""
    chol, x = pencil._factor_solve(forms, s, alpha)
    return x + pencil._refine(forms, chol, s, alpha, x)


def galerkin_impedance(forms, s, a):
    """H_k^N(s, a) = 1 / e0^T (s A + a B)^(-1) e0, the Galerkin side of the
    interface impedance (modeforms module docstring), from one refined solve
    (interface_solve)."""
    return 1.0 / float(interface_solve(forms, s, a)[forms.e0_index])


def exact_impedance(k, cfg, s, a):
    """H_k(s, a) = s S_k(a / s) / k^2, s > 0, the exact side of the interface
    impedance (modeforms module docstring)."""
    return s * ExactMode(k, cfg).traction(a / s) / k**2


def dispersion_function(k, n, cfg):
    """F_k(n) of mode k at cfg: oracle.determinant on a fresh ExactMode."""
    return oracle.determinant(ExactMode(k, cfg), n)


def all_refined_fixed_point(forms, start):
    """Lambda_k by safeguarded Newton on 1/phi - 1 with every solve
    refined (interface_solve), stopping one solve after a step below
    1e-9 relative: the reference that pencil.fixed_point's float64 proposals
    and shorter refined phase are tested against."""
    c = float(forms.c_k)
    A, B = bands(forms)
    lo, hi, s = 0.0, math.inf, float(start)
    last = False
    for _ in range(100):
        x = interface_solve(forms, s, s * s)
        phi = c * float(x[forms.e0_index])
        xb = float(x @ pencil.band_matvec(B, x))
        if phi > 1.0:
            lo = s
        else:
            hi = s
        xa = float(x @ pencil.band_matvec(A, x))
        step = phi * (1.0 - phi) / (-c * (xa + 2.0 * s * xb))
        if last or phi == 1.0 or hi - lo <= 1e-15 * s:
            return s
        last = abs(step) <= 1e-9 * s
        s = s + step if lo <= s + step <= hi else 0.5 * (lo + hi)
    raise AssertionError(f"no fixed point of mode k = {forms.k!r} after 100 Newton steps")


def galerkin_compliances(forms):
    """The discrete interface compliances (I_k^N, C_k^N) =
    (e0^T B^(-1) e0, e0^T A^(-1) e0): the Galerkin reference for the closed
    forms of modeforms.compliances, which bound them from above.

    B, a second-order form, is conditioned like N^2, so one banded solve
    gives I_k^N to ~1e-13; A, a fourth-order form, is conditioned like N^4,
    and an unrefined solve is off by up to 7e-8 at N = 256, so C_k^N takes
    the refined solve of interface_solve.
    """
    chol, info = pencil.lapack.dpbtrf(bands(forms)[1], lower=1)
    assert info == 0, f"kinetic matrix not positive definite (LAPACK info {info})"
    x, info = pencil.lapack.dpbtrs(chol, forms.tables["e0"], lower=1)
    assert info == 0, f"kinetic solve failed (LAPACK info {info})"
    y = interface_solve(forms, 1.0, 0.0)
    return float(x[forms.e0_index]), float(y[forms.e0_index])


def count_solves(monkeypatch):
    """Two lists that fill as the energy solves run: the s of every banded
    factorization (_factor_solve) and of every extended-precision residual
    (_refine)."""
    factored, refined = [], []
    factor_solve, refine = pencil._factor_solve, pencil._refine

    def factor_spy(*args):
        factored.append(args[1])
        return factor_solve(*args)

    def refine_spy(*args):
        refined.append(args[2])
        return refine(*args)

    monkeypatch.setattr(pencil, "_factor_solve", factor_spy)
    monkeypatch.setattr(pencil, "_refine", refine_spy)
    return factored, refined


def fail_last_factorization(monkeypatch):
    """Make every fixed point's last solve fresh (no refinement noise meets a
    negative gate) and its banded factorization, by dpbsv or dpbtrf, report
    a non-positive pivot (LAPACK info 3). Every other factorization runs as
    before."""
    monkeypatch.setattr(pencil, "_HELD_GATE", -1.0)
    dpbtrf, dpbsv, last_solve = pencil.lapack.dpbtrf, pencil.lapack.dpbsv, pencil._last_solve
    running = []

    def factor(ab, lower=0, overwrite_ab=0):
        chol, info = dpbtrf(ab, lower=lower, overwrite_ab=overwrite_ab)
        return chol, 3 if running else info

    def factor_solve(ab, b, lower=0, overwrite_ab=0):
        chol, x, info = dpbsv(ab, b, lower=lower, overwrite_ab=overwrite_ab)
        return chol, x, 3 if running else info

    def last(fp):
        running.append(fp)
        try:
            return last_solve(fp)
        finally:
            running.pop()

    monkeypatch.setattr(pencil.lapack, "dpbtrf", factor)
    monkeypatch.setattr(pencil.lapack, "dpbsv", factor_solve)
    monkeypatch.setattr(pencil, "_last_solve", last)


# pencil._tables holds the gradient and cross bands of mu times the factors
# that assemble weights them by: a scattered table's name -> (band name, factor)
SCALED_TABLES = {"D_mu": ("4D_mu", 4.0), "X_mu": ("2X_mu", 2.0)}


def loop_tables(cfg, n):
    """The six k-independent bands by an element-by-element scatter, one band
    entry of every element at a time, in np.longdouble: the reference for
    pencil._tables, which holds two of them scaled (SCALED_TABLES)."""
    dim = 4 * n - 2
    per_layer = []
    for h, rho, mu in ((cfg.h_minus, cfg.rho_minus, cfg.mu_minus), (cfg.h_plus, cfg.rho_plus, cfg.mu_plus)):
        mass, grad, bend, cross = pencil._element_matrices(h / n)
        per_layer.append({
            "M_rho": rho * mass,
            "D_rho": rho * grad,
            "M_mu": mu * mass,
            "D_mu": mu * grad,
            "H_mu": mu * bend,
            "X_mu": mu * cross,
        })
    below = np.arange(2 * n) < n
    first = 2 * np.arange(2 * n) - 2  # global dof of each element's local dof 0
    tables = {}
    for name in per_layer[0]:
        band = np.zeros((4, dim), dtype=np.longdouble)
        for a in range(4):
            for b in range(a + 1):
                col = first + b
                keep = (col >= 0) & (col + a - b < dim)
                vals = np.where(below, per_layer[0][name][a, b], per_layer[1][name][a, b])
                band[a - b, col[keep]] += vals[keep]
        tables[name] = band
    return tables


def quad_data(profile):
    """psi, psi', psi'' at the Gauss points of every element, and the weights,
    each of shape (n_elems, n_gauss); the weights hold the element lengths, so
    any integral is (w * f).sum()."""
    h = np.diff(profile.grid)[:, None]
    v0, v1 = profile.psi_values[:-1, None], profile.psi_values[1:, None]
    d0, d1 = profile.psi_derivs[:-1, None] * h, profile.psi_derivs[1:, None] * h
    psi, dpsi, ddpsi = (
        (v0 * s[0] + d0 * s[1] + v1 * s[2] + d1 * s[3]) / h**r
        for r, s in enumerate(GAUSS_SHAPES)
    )
    return h * GAUSS_WEIGHTS, psi, dpsi, ddpsi


def lower_layer(profile):
    """True for the elements below the interface."""
    return 0.5 * (profile.grid[:-1] + profile.grid[1:]) < 0.0


def is_admissible(profile):
    """The no-slip reduction: psi = psi' = 0 at both walls, exactly."""
    return not np.any(profile.psi_values[[0, -1]]) and not np.any(profile.psi_derivs[[0, -1]])


def kinetic_form(k, profile, cfg):
    """sum_layers rho * integral( psi'^2 / k^2 + psi^2 ) by Gauss quadrature of
    the profile: the reference that the assembled kinetic band is tested against."""
    if k <= 0.0:
        raise SolverError(f"kinetic form needs k > 0, got {k!r}")
    w, psi, dpsi, _ = quad_data(profile)
    rho = np.where(lower_layer(profile), cfg.rho_minus, cfg.rho_plus)
    return float((rho[:, None] * w * (dpsi**2 / k**2 + psi**2)).sum())


def dissipation_form(k, profile, cfg):
    """sum_layers mu * integral( 4 psi'^2 + (k psi + psi''/k)^2 ) by Gauss
    quadrature of the profile: the reference for the dissipation band.

    This is the longitudinal-optimal value of the per-mode dissipation
    functional, i.e. one half of the mu-weighted symmetric-gradient norm of
    the reconstructed velocity field.
    """
    if k <= 0.0:
        raise SolverError(f"dissipation form needs k > 0, got {k!r}")
    w, psi, dpsi, ddpsi = quad_data(profile)
    mu = np.where(lower_layer(profile), cfg.mu_minus, cfg.mu_plus)
    integrand = 4.0 * dpsi**2 + (k * psi + ddpsi / k) ** 2
    return float((mu[:, None] * w * integrand).sum())


def random_admissible_profile(rng, h_minus, h_plus, n_per_layer=8):
    """Clamped profile with standard normal nodal values and slopes."""
    grid = uniform_layered_grid(h_minus, h_plus, n_per_layer)
    values, derivs = rng.standard_normal((2, grid.size))
    values[[0, -1]] = derivs[[0, -1]] = 0.0
    return VerticalProfile(grid, values, derivs)


def smooth_bump_profile(h_minus, h_plus, n_per_layer=16, amplitude=1.0):
    """Clamped bump sin^2(pi (y + h-) / (h- + h+)) with nonzero interface value."""
    grid = uniform_layered_grid(h_minus, h_plus, n_per_layer)
    total = h_minus + h_plus
    phase = np.pi * (grid + h_minus) / total
    values = amplitude * np.sin(phase) ** 2
    derivs = amplitude * np.pi / total * np.sin(2.0 * phase)
    values[[0, -1]] = derivs[[0, -1]] = 0.0
    return VerticalProfile(grid, values, derivs)


def threshold_test_profile(cfg):
    """Single-mode test field and its threshold ratio, max(L1^2, L2^2) exactly.

    The field has vertical velocity L^{-1} psi(y3) sin(y_j / L) with L the
    larger period scale and y_j the matching horizontal coordinate; the ratio
    of the squared interface norms |w3|^2 / |grad_h w3|^2 is evaluated by
    quadrature over one full period (64 Gauss panels: machine precision).
    """
    L = max(cfg.L1, cfg.L2)
    profile = smooth_bump_profile(cfg.h_minus, cfg.h_plus)
    psi0 = profile.interface_value
    edges = np.linspace(0.0, 2.0 * np.pi * L, 65)
    h = np.diff(edges)[:, None]
    y = edges[:-1, None] + h * GAUSS_NODES
    w = h * GAUSS_WEIGHTS
    num = ((psi0 / L * np.sin(y / L)) ** 2 * w).sum()
    den = ((psi0 / L**2 * np.cos(y / L)) ** 2 * w).sum()
    return profile, float(num / den)


TRACE_TOL = 1.0 + 1e-12


def trace_ratios(ks, profile, cfg):
    """The per-layer trace and derivative ratios of a clamped profile, one row
    per k, in the order (interface lower, interface upper, derivative lower,
    derivative upper):

        interface ratio   psi(0)^2 / ( (h_layer / 4) * D_layer )
        derivative ratio  integral_layer psi'^2 / ( D_layer / 4 )

    with D_layer = integral_layer( 4 psi'^2 + (k psi + psi''/k)^2 ). Every
    ratio is at most 1 for every admissible profile; a zero numerator gives 0.
    """
    if not is_admissible(profile):
        raise ValueError("profile must satisfy psi = psi' = 0 at both walls exactly")
    w, psi, dpsi, ddpsi = quad_data(profile)
    lower = lower_layer(profile)
    grad = w * dpsi**2
    psi0_sq = profile.interface_value**2
    nums = (psi0_sq, psi0_sq, grad[lower].sum(), grad[~lower].sum())
    rows = []
    for k in ks:
        if k <= 0.0:
            raise SolverError(f"trace check needs k > 0, got {k!r}")
        diss = w * (4.0 * dpsi**2 + (k * psi + ddpsi / k) ** 2)
        d_lower, d_upper = diss[lower].sum(), diss[~lower].sum()
        dens = (cfg.h_minus / 4.0 * d_lower, cfg.h_plus / 4.0 * d_upper, d_lower / 4.0, d_upper / 4.0)
        rows.append([n / d if n else 0.0 for n, d in zip(nums, dens)])
    return np.array(rows)
