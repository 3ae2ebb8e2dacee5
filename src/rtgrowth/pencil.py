"""Discrete per-mode pencils: assembly, the inertia test and the per-mode solves.

Each wavenumber magnitude k, at modification parameter s, yields the pencil

    (c_k e0 e0^T - s A_diss) x = alpha B x

over the clamped piecewise-cubic Hermite space (value and slope unknowns at
every node, value/slope clamped at both walls, one shared node at the
interface). B and A_diss are the kinetic and dissipation forms on that
space, assembled from the closed-form cubic Hermite element integrals:
integer tables times powers of the element length (_element_matrices). The
surface term is the rank-one form on the interface value dof. The trial
space is H^2-conforming, which the psi'' term of the dissipation requires,
and nested under uniform refinement (modeforms: H^N >= H^2N >= H).

Neighbouring nodes share an element, so every matrix is banded with half
bandwidth 3 and is solved in LAPACK symmetric lower band form: a (4, dim)
array whose row d holds the entries (j + d, j), the lower triangle of the
element scatter. Every element of a layer is the same, so a band holds 24
distinct values, one per band row, dof parity and node type (below, on or
above the interface), and 0 past the matrix. Each k-free form is kept as
those 25 values in np.longdouble, summed from the element integrals with no
rounding to float64 (_tables), and assemble weighs them by k: a pencil holds
each of A and B once, as 25 long-double values, and no mode set keeps one (a
scan assembles each mode it visits). Every band a solve reads is
formed from them: s A + alpha B in long double, rounded once to float64 and
gathered through the class map of N (_mesh, _energy). Every
per-mode quantity reads the Galerkin interface impedance
H^N(s, a) = 1 / e0^T (s A + a B)^(-1) e0 (modeforms module docstring) from
banded Cholesky factorizations: dpbtrf for the inertia test alpha_below
(whether H^N(s, a) > c_k), and dpbsv, which factors and solves for e0 in
one call, for the roots of H^N = c_k, by one safeguarded Newton loop
(_secular_newton) on phi = c_k / H^N along two paths: Lambda_k
along (t, t^2) (fixed_point), whose last solve is the eigenprofile, and
alpha_k(s) > 0 along (s, t) (mode_alpha), which bisects the inertia test
down from the proven bound 0 where alpha_k(s) <= 0. The energy matrix has
condition number ~4e8 at N = 128, so a solve whose value is read is refined
once with a residual in extended precision (_factor_solve, then _refine),
formed on the same 25 long-double values of each form, gathered into
(dim, 7) coefficient rows whose seven terms one einsum adds left to right,
each row in one pass (_product). A refined solve is only as exact as the
operator its residual is formed on (Higham, Accuracy and Stability of
Numerical Algorithms, 2002, ch. 12): on values rounded to float64, x^T A x
moves by about cond u, 4e-8 at N = 128, which lifted Lambda_k^N above the
exact root. Where np.longdouble is float64 itself, values and residuals are
float64, and that rounding stays.
Both paths refine only near the answer: the loop's float64 phase proposes
points, on unrefined solves, until a step falls below 1e-3 of the point it
moves, and only then do refined steps finish the root. fixed_point's last
solve, which gives only the eigenvector, alpha and the residual, runs when
one of them is first read (FixedPoint), on the held factor where it can. No
solver path expands a dense matrix, and none builds a second mesh: the
eigenvector's error is read against the exact eigenprofile at its own nodes
(oracle.dispersion_profile).

The transverse branch is not discretized: its minimum eigenvalue is the
smallest root of the exact two-layer equation (transverse_min_eigenvalue).

dpbtrf, dpbsv, dpbtrs and dsbmv are scipy's own f2py wrappers. The import
system's finder locates their two extension modules in scipy's directory,
and they load with no scipy package code run: importing scipy.linalg would
otherwise be half of every process's start-up (_load_wrappers).
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

from .errors import ConfigError, DegenerateExponents, SolverError
from .model import FluidConfig
from .modeforms import VerticalProfile, surface_coefficient, uniform_layered_grid


def _load_extension(name: str):
    """scipy's extension module name (dotted, under scipy.linalg), found in
    scipy's directories by the import system's finder and run, with no scipy
    package code run first."""
    linalg = [os.path.join(p, "linalg") for p in find_spec("scipy").submodule_search_locations]
    spec = PathFinder.find_spec(name, linalg)
    if spec is None:
        raise ImportError(f"no extension module {name}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_wrappers():
    """(blas, lapack): scipy's f2py wrapper modules _fblas and _flapack.

    Importing scipy.linalg runs its __init__, which pulls in numpy.f2py and
    scipy's array-API layer: about half of every process's start-up, for
    four routines (dpbtrf, dpbsv, dpbtrs, dsbmv). So the import system's
    finder locates the two extension modules in scipy's directory, which
    find_spec("scipy") reads without running scipy's __init__, and they are
    loaded under their own dotted names: no scipy package code runs. Python
    keeps one copy of a single-phase extension module per file and name, so
    these are the function objects that scipy.linalg.blas and
    scipy.linalg.lapack re-export, and every call, its bits and its cost are
    scipy's own. Where the two modules live is a detail of scipy's layout,
    not an API: when the finder finds nothing or a module fails to load,
    the fallback imports scipy.linalg. The fallback is permanent.
    """
    try:
        return _load_extension("scipy.linalg._fblas"), _load_extension("scipy.linalg._flapack")
    except (ImportError, OSError):
        from scipy.linalg import blas, lapack

        return blas, lapack


blas, lapack = _load_wrappers()

# The solver work done in this process, by kind, each counted once in the
# code that does it: factorizations (every dpbtrf of alpha_below and dpbsv of
# _factor_solve), extended_residuals (_refine), inertia_tests (alpha_below),
# alpha_solves (mode_alpha), fixed_points (fixed_point), last_solves
# (_last_solve), determinants (oracle.determinant: one per rate a root
# search evaluates F_k at; the S_k(0) of modeforms.compliances is none),
# solves (GrowthResult.validate), assemblies (assemble) and modes (the
# modes of every FrozenModeSet, as built and as extended). Always on: an
# increment costs far less than the least work it counts, and nothing in
# the package solves concurrently. Nothing in the package reads it;
# scripts/bench.py and scripts/ab.py do.
COUNTS = Counter()


@dataclass(frozen=True)
class Discretization:
    """Uniform-per-layer Hermite mesh with N elements in each layer."""

    elements_per_layer: int = 128

    def __post_init__(self):
        if self.elements_per_layer < 8:
            raise ConfigError(
                f"need at least 8 elements per layer, got {self.elements_per_layer}"
            )


# Cubic Hermite element integrals on an element of length h, exactly. The
# shapes N_i are (value left, slope left, value right, slope right), the slope
# shapes scaled so that their y-derivative at their own node is 1. In order:
# mass int N_i N_j is h/420 times its table, gradient int N_i' N_j' is
# 1/(30 h) times its table, bending int N_i'' N_j'' is 1/h^3 times its table,
# and the dissipation's cross term, int N_i N_j'' symmetrized, is 1/(30 h)
# times its table: by parts it is minus the gradient plus half of
# [N_i N_j' + N_j N_i'] from 0 to h. Each slope index adds a factor h.
_ELEMENT_TABLES = np.array(
    [
        [[156, 22, 54, -13], [22, 4, 13, -3], [54, 13, 156, -22], [-13, -3, -22, 4]],
        [[36, 3, -36, 3], [3, 4, -3, -1], [-36, -3, 36, -3], [3, -1, -3, 4]],
        [[12, 6, -12, 6], [6, 4, -6, 2], [-12, -6, 12, -6], [6, 2, -6, 4]],
        [[-36, -18, 36, -3], [-18, -4, 3, 1], [36, 3, -36, 18], [-3, 1, 18, -4]],
    ],
    dtype=np.longdouble,
)
_ELEMENT_DENOMINATORS = np.array([420, 30, 1, 30], dtype=np.longdouble)[:, None, None]
_ELEMENT_POWERS = np.add.outer([1, -1, -3, -1], np.add.outer([0, 1, 0, 1], [0, 1, 0, 1])).astype(np.longdouble)


def _element_matrices(h: float) -> np.ndarray:
    """The 4x4 element integrals (mass, grad, bending, symmetrized
    mass-bending cross) in the physical coordinate, stacked, from the integer
    tables above, in np.longdouble: each entry takes one power, one product
    and one quotient, so it lies within a few extended units of the exact
    integral at h. Where np.longdouble is float64 itself, each entry is
    within 2 ulp (tests/test_pencil.py). lambda at N = 128 reads the last bits
    of the tables: against the quadrature tables these replaced, a float64
    evaluation moved it by up to 1.4e-10 relative on a thin-layer config
    (h = 0.3)."""
    return _ELEMENT_TABLES * np.longdouble(h) ** _ELEMENT_POWERS / _ELEMENT_DENOMINATORS


# the dissipation's gradient and cross tables are stored times 4 and 2, the
# factors assemble weights them by: a power of two, so the same bits
_TABLE_NAMES = ("M_rho", "D_rho", "M_mu", "4D_mu", "H_mu", "2X_mu")
_TABLE_SCALES = np.array([1.0, 1.0, 1.0, 4.0, 1.0, 2.0])[:, None]

# On the uniform mesh band entry (d, j) of a k-free table depends only on d,
# the parity of j (value or slope dof) and the type of column j's node: 0
# below the interface, 1 on it, 2 above it. Class 6 d + 2 type + parity
# holds it, and class _ZERO the entries past the matrix. Node i is the right
# end (local dofs 2, 3) of element i - 1 and the left end (0, 1) of element
# i, so a class takes local entry (b + d, b) of each, b = 2 + parity and
# b = parity, from rows padded with zeros past local dof 3.
_ZERO = 24
_D, _PARITY = np.array([c // 6 for c in range(_ZERO)]), np.array([c % 2 for c in range(_ZERO)])
# each class's layer (0 lower, 1 upper) of its left and of its right element
_LEFT = np.array([0, 0, 0, 0, 1, 1] * 4), slice(None), _D + 2 + _PARITY, 2 + _PARITY
_RIGHT = np.array([0, 0, 1, 1, 1, 1] * 4), slice(None), _D + _PARITY, _PARITY
# _refine's coefficient rows: row j of the matrix reads x[j + o] for o in
# this order, the diagonal first, then -1, +1, -2, +2, -3, +3, and its
# product adds the seven terms left to right in this order (_product)
_OFFSETS = np.array([0, -1, 1, -2, 2, -3, 3])


def _row_classes(classes: np.ndarray, zero: int) -> np.ndarray:
    """(dim, 7): row j holds the class of the coefficient of x[j + o] in
    row j of the symmetric matrix whose (4, dim) lower band has the class map
    classes, for o in _OFFSETS' order; zero past the matrix. Entry
    (j, j - d) is band entry (d, j - d), and (j, j + d) is (d, j)."""
    dim = classes.shape[1]
    rows = np.full((dim, 7), zero)
    rows[:, 0] = classes[0]
    for d in range(1, 4):
        inside = max(dim - d, 0)
        rows[d:, 2 * d - 1] = rows[:inside, 2 * d] = classes[d, :inside]
    return rows


def _layout(classes: np.ndarray, zero: int, e0_index: int) -> dict:
    """The layout every solve of a pencil reads, all of it read-only, from
    the (4, dim) class map classes of its lower bands, whose class zero holds
    the entries past the matrix: "band", classes transposed, so that a
    gather lays a band out in Fortran order; "rows", the C-contiguous
    (dim, 7) class map of _refine's coefficient rows (_row_classes);
    "shifted", the C-contiguous (dim, 7) index j + o of x[j + o] in row j,
    for o in _OFFSETS' order, which past the matrix leaves [0, dim), so that
    each row's seven terms lie next to each other for _product; "e0", the
    interface value dof as a unit vector, and "e0_index", its index."""
    dim = classes.shape[1]
    e0 = np.zeros(dim)
    e0[e0_index] = 1.0
    shifted = np.add.outer(np.arange(dim), _OFFSETS)
    layout = {"band": classes.T.copy(), "rows": _row_classes(classes, zero), "shifted": shifted, "e0": e0}
    for array in layout.values():
        array.flags.writeable = False
    return {**layout, "e0_index": e0_index}


@lru_cache(maxsize=32)
def _mesh(n: int) -> dict:
    """The layout every pencil at N = n reads (_layout), from the class map
    of every k-free band on the uniform mesh (the classes above)."""
    dim, e0_index = 4 * n - 2, 2 * n - 2
    node = np.zeros(dim, dtype=np.intp)  # 2 type + parity of column j
    node[1::2] = 1  # slope dofs
    node[e0_index:] += 2  # the interface node n and the nodes above it
    node[2 * n :] += 2  # nodes n + 1 .. 2n - 1
    band = node + np.arange(0, 24, 6)[:, None]
    for d in range(1, 4):
        band[d, dim - d :] = _ZERO
    return _layout(band, _ZERO, e0_index)


@lru_cache(maxsize=32)
def _tables(lower: tuple, upper: tuple, n: int):
    """k-independent global matrices of the two layers at N = n, as the
    25 np.longdouble values of each band, with the grid and the mesh layout
    (_mesh).

    lower and upper are each layer's (h, rho, mu), the only config numbers a
    band reads, and they key the cache: configs that differ only in g, theta
    or the periods share one entry, so a sweep keeps one. Element e carries
    the full dofs 2e .. 2e+3; clamping drops value and slope at both walls.
    Every element of a layer is the same, so each band holds 24 distinct
    values and 0 past the matrix (the classes above): "values" keeps them,
    25 per table, each 0.0 + its left element's part + its right element's
    part, times the table's scale, all in long double from the unrounded
    element integrals (_element_matrices), and no band and no float64 copy
    is stored.
    A band entry receives at most two element contributions (only the two
    dofs of a shared node lie in two elements), and 0 + u + v gives the same
    bits in either order, so a table's values, gathered through the class
    map of N, hold bit for bit the lower triangle of a dense scatter, signed
    zeros included.
    """
    padded = np.zeros((2, len(_TABLE_NAMES), 7, 4), dtype=np.longdouble)
    for layer, (h, rho, mu) in enumerate((lower, upper)):
        mass, grad, bend, cross = _element_matrices(h / n)
        padded[layer, :, :4] = rho * mass, rho * grad, mu * mass, mu * grad, mu * bend, mu * cross
    values = np.zeros((len(_TABLE_NAMES), _ZERO + 1), dtype=np.longdouble)
    values[:, :_ZERO] = (0.0 + padded[_LEFT] + padded[_RIGHT]).T
    values *= _TABLE_SCALES
    values.flags.writeable = False
    grid = uniform_layered_grid(lower[0], upper[0], n)
    return {"grid": grid, "values": dict(zip(_TABLE_NAMES, values)), **_mesh(n)}


def _weigh(values: dict, k: float) -> tuple[np.ndarray, np.ndarray]:
    """(A, B), the 25 values of the dissipation and kinetic forms of
    wavenumber k, one per class of equal band entries, from the six k-free
    tables' values (_tables), in their dtype. Weighing is elementwise and a
    gather copies exactly, so each band entry gathered from these has the
    bits of the same formula applied to the gathered tables."""
    B = values["M_rho"] + values["D_rho"] / k**2
    A = values["4D_mu"] + k**2 * values["M_mu"] + values["2X_mu"] + values["H_mu"] / k**2
    return A, B


def band_matvec(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Product of the symmetric matrix held in lower band form with x."""
    return blas.dsbmv(band.shape[0] - 1, 1.0, band, x, lower=1)


def _failure(step: str, alpha: float, info: int) -> SolverError:
    """The error of a banded Cholesky step on the energy matrix s A + alpha B
    that reported info != 0. Formatted only when a step fails."""
    return SolverError(
        f"banded Cholesky {step} of the energy matrix at alpha {alpha!r} failed (LAPACK info {info})"
    )


def _spd_solve(chol: np.ndarray, rhs: np.ndarray, alpha: float) -> np.ndarray:
    """chol^(-T) chol^(-1) rhs; a nonzero info raises, so no vector comes back."""
    x, info = lapack.dpbtrs(chol, rhs, lower=1)
    if info != 0:
        raise _failure("solve", alpha, info)
    return x


@dataclass(frozen=True, eq=False)
class PencilForms:
    """The kinetic and dissipation forms of one mode at one resolution.

    weighted holds (A, B) once each, as the two rows of a read-only (2, 25)
    np.longdouble array, one value per class of equal band entries (_weigh);
    tables holds the k-free tables they were weighted from and the mesh
    layout (_tables, _mesh), where e0_index, grid and elements_per_layer
    are read. No band is stored: every solve forms the band it reads from
    the values (_energy). No mode set holds a pencil: a scan assembles each
    mode it visits, which weighs 50 values.
    """

    k: float
    c_k: float
    weighted: np.ndarray = field(repr=False)
    tables: dict = field(repr=False)

    @property
    def e0_index(self) -> int:
        return self.tables["e0_index"]

    @property
    def grid(self) -> np.ndarray:
        return self.tables["grid"]

    @property
    def elements_per_layer(self) -> int:
        return self.grid.size // 2  # 2 N + 1 nodes


def assemble(k: float, cfg: FluidConfig, disc: Discretization) -> PencilForms:
    """The pencil of mode k: the tables' values weighed by k (_weigh), made
    read-only, since every solve reads them, and the surface coefficient."""
    if k <= 0.0:
        raise SolverError(f"assembly needs k > 0, got {k!r}")
    COUNTS["assemblies"] += 1
    lower, upper = (cfg.h_minus, cfg.rho_minus, cfg.mu_minus), (cfg.h_plus, cfg.rho_plus, cfg.mu_plus)
    t = _tables(lower, upper, disc.elements_per_layer)
    weighted = np.array(_weigh(t["values"], k))
    weighted.flags.writeable = False
    return PencilForms(k=k, c_k=surface_coefficient(k, cfg), weighted=weighted, tables=t)


def _energy(forms: PencilForms, s: float, alpha: float) -> np.ndarray:
    """s A_diss + alpha B as a fresh (4, dim) float64 band: formed on the
    pencil's 25 long-double values of each form (np.dot sums the two
    products in long double, as s A + alpha B does, in one call), rounded
    once to float64 and gathered through the transposed class map, which
    lays the band out in Fortran order, the order dpbtrf, dpbsv and dsbmv
    read without a copy. _energy(forms, 0.0, 1.0) is B's band."""
    return np.dot((s, alpha), forms.weighted).astype(float).take(forms.tables["band"]).T


def _factor_solve(forms: PencilForms, s: float, alpha: float):
    """(chol, x): the banded Cholesky factor of s A + alpha B and the float64
    solve x = (s A + alpha B)^(-1) e0 from it, for s, alpha >= 0 not both zero
    (s A + alpha B is then positive definite), by one dpbsv: the bits of
    dpbtrf then dpbtrs, in one call. It reports a non-positive pivot as
    info > 0, which raises. The fresh energy band is factored in place: f2py
    writes through a read-only flag, so only a band made for this
    factorization may be handed over."""
    COUNTS["factorizations"] += 1
    chol, x, info = lapack.dpbsv(_energy(forms, s, alpha), forms.tables["e0"], lower=1, overwrite_ab=1)
    if info != 0:
        raise _failure("factorization", alpha, info)
    return chol, x


def _refine(forms: PencilForms, chol: np.ndarray, s: float, alpha: float, x: np.ndarray) -> np.ndarray:
    """The correction d for one step of refinement of x: d solves
    (s A + alpha B) d = r with chol, the factor of s A + alpha B held
    already, for the residual r = e0 - (s A + alpha B) x, formed and applied
    in extended precision and rounded to float64. x + d is the refined solve,
    and r stays here: no caller reads it.

    s A + alpha B is formed in np.longdouble on the pencil's values
    (PencilForms.weighted, as _energy forms it), 25 numbers each on the
    uniform mesh, not on its 4 dim band entries, and is not rounded to
    float64, so the refined solve is as exact as the long-double operator
    (_product).
    """
    COUNTS["extended_residuals"] += 1
    y = _product(forms, s, alpha, x)
    return _spd_solve(chol, np.subtract(forms.tables["e0"], y, out=y).astype(float), alpha)


def _product(forms: PencilForms, s: float, alpha: float, x: np.ndarray) -> np.ndarray:
    """y = (s A + alpha B) x in np.longdouble, on the pencil's long-double
    values, for _refine's residual.

    Row j of the coefficient map (dim, 7), gathered from the values, times
    row j of x shifted by each offset (both of the pencil's layout, _layout),
    holds the seven terms of y[j] next to each other. One einsum contracts
    each row in one pass: NumPy's long-double loop multiplies and adds a
    row's seven terms left to right, in _OFFSETS' order, and makes no
    (dim, 7) product array, so each entry rounds as the product of the
    long-double bands by diagonals does (tests/conftest.py). That order is
    NumPy's loop, not its contract, and tests/test_pencil.py pins it bit for
    bit against the explicit left-to-right sum. Past the matrix the zero class meets x
    clipped to its ends: a term of +-0, which can change only the sign of a
    zero entry, and no bit of r = e0 - y.
    """
    t = forms.tables
    values = np.dot((s, alpha), forms.weighted)
    shifted = x.astype(np.longdouble).take(t["shifted"], mode="clip")
    return np.einsum("ji,ji->j", values[t["rows"]], shifted)


def alpha_below(forms: PencilForms, s: float, alpha: float) -> bool:
    """The inertia test: whether alpha_k(s) < alpha, by one banded Cholesky.

    M = s A + alpha B - c_k e0 e0^T is positive definite exactly when alpha
    exceeds the largest eigenvalue alpha_k(s) of the pencil (for alpha >= 0,
    when H^N(s, alpha) > c_k: modeforms module docstring), and the
    factorization M = L L^T runs to completion (dpbtrf, info = 0) exactly
    then. At alpha = s^2 success proves s > Lambda_k.

    In floating point, success proves this for a nearby matrix: forming M
    perturbs each entry by at most 3u (|s A| + |alpha B| + |c_k| e0 e0^T), u
    the unit roundoff, and the computed factor is the exact factor of M + E
    with |E| <= gamma_5 |L| |L^T| entrywise, gamma_m = m u / (1 - m u), since
    every inner product has at most four terms (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, Theorem 10.3). So success proves
    alpha > alpha_k(s) - delta, and failure alpha < alpha_k(s) + delta, where
    delta is the largest B-Rayleigh quotient of these perturbations: a
    backward error at the rounding level of the energy matrix, which grows
    with its condition number (about 4e8 at N = 128).
    """
    COUNTS["inertia_tests"] += 1
    COUNTS["factorizations"] += 1
    m = _energy(forms, s, alpha)
    m[0, forms.e0_index] -= forms.c_k
    info = lapack.dpbtrf(m, lower=1, overwrite_ab=1)[1]
    if info < 0:
        raise SolverError(f"banded Cholesky rejected its arguments (LAPACK info {info})")
    return info == 0


def mode_alpha(forms: PencilForms, s: float) -> float:
    """alpha_k(s), the largest eigenvalue of the pencil, on either sign of c_k.

    Where c_k > 0, by the secular Newton loop (_secular_newton) along
    alpha -> s A + alpha B from alpha = 0, with slope x^T B x, on
    phi = c_k / H^N(s, alpha): alpha_k(s) > 0 solves H^N(s, alpha) = c_k
    (modeforms module docstring). 1 / phi is concave and increasing in
    alpha, so its tangent lies above it, and in exact arithmetic Newton on
    1 - 1/phi from 0 rises monotonically to alpha_k(s) > 0, never past it.
    The loop's float64 phase takes these steps on unrefined solves, so a
    step may overshoot the root by rounding; the refined loop's bracket
    then takes over, and a positive alpha_k(s) takes one extended residual,
    at the last point.

    Where phi(0) <= 1 the float64 phase stops at 0, since its Newton step
    would leave [0, inf), and the refined loop's bracket closes there: it
    returns 0. Only within the refined solves' noise of a zero of
    alpha_k(s) can the unrefined phi(0) lie above 1 where the refined one
    does not, and the loop then returns a positive value inside that noise:
    on the reference config at N = 128, k = 1, for s within 6e-10 relative
    of the zero, such values read up to 1.5e-9 where bisection read down to
    -2.4e-9. There and wherever c_k <= 0, c_k <= H^N(s, 0), so the inertia
    test passes at every alpha > 0 and alpha_k(s) <= 0 is proven; it is
    bisected on alpha_below down from 0. The lower end steps down from 0 by
    doubling from s until the test fails,
    and the bracket is halved to 1e-14 of its width. So alpha_k(s) depends
    on its pencil and s alone, whoever asks. A value at or below 0 is
    resolved only to the inertia test's backward error: on the contrast
    config (rho 5.2/0.2, mu 0.1/5, g 20, L = 2, h = 0.3) at N = 128, element
    tables that differ in their last bits (up to 7.6 ulp) moved such values
    by up to 3.4e-6 relative (k = 6.185: -0.45411737 against -0.45411894).
    """
    COUNTS["alpha_solves"] += 1
    if s <= 0.0:
        raise ValueError(f"modification parameter must be > 0, got {s!r}")
    alpha = _secular_newton(forms, lambda t: (s, t), lambda t, x0, xb: xb, 0.0)[0] if forms.c_k > 0.0 else 0.0
    if alpha > 0.0:
        return alpha
    hi, step = 0.0, s
    while alpha_below(forms, s, hi - step):
        hi, step = hi - step, 2.0 * step
    lo, tol = hi - step, 1e-14 * step
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if alpha_below(forms, s, mid):
            hi = mid
        else:
            lo = mid
    return float(0.5 * (lo + hi))


@dataclass(frozen=True, eq=False)
class FixedPoint:
    """Per-mode growth rate Lambda_k with its eigenvector: the one per-mode
    result of every growth solve, global or single-mode.

    lam is fixed when fixed_point returns. The last solve, which gives only
    alpha, the eigenvector and the residual, runs the first time one of them
    (or profile) is read, and is kept: a caller that reads only lam, as
    oracle.compare_modes and the modes a growth scan does not keep as its
    maximum do, pays for no solve after lam is fixed. The fields hold what
    that solve needs: x and its correction d, the refined solve x + d at s
    that fixed lam, the factor chol of s A + s^2 B, B's float64 band b, as
    the loop gathered it, and xb = (x + d)^T B (x + d). Where lam is s,
    x + d is already the last solve. A last solve whose factorization fails
    raises when it runs, on that first read.

    alpha is alpha_k(lam) to first order from the last solve. vector is the
    eigenvector, normalized to x^T B x = 1. Its interface value psi(0) is
    positive with no sign flip: it is a positive multiple of
    e0^T (s A + s^2 B)^(-1) e0 > 0, s A + s^2 B being positive definite.
    noise is the refinement noise that a last solve on the held factor
    cannot show (fixed_point); 0 after a fresh last solve and where lam is s.
    """

    forms: PencilForms
    lam: float
    s: float = field(repr=False)
    chol: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    xb: float = field(repr=False)

    @cached_property
    def _last(self) -> tuple[float, np.ndarray, float]:
        return _last_solve(self)

    @property
    def alpha(self) -> float:
        return self._last[0]

    @property
    def vector(self) -> np.ndarray:
        return self._last[1]

    @property
    def noise(self) -> float:
        return self._last[2]

    @property
    def residual(self) -> float:
        """The fixed-point residual |lam^2 - alpha| + noise."""
        return abs(self.lam * self.lam - self.alpha) + self.noise

    @cached_property
    def profile(self) -> VerticalProfile:
        return coeffs_to_profile(self.vector, self.forms)


def _eigenpair(forms: PencilForms, s: float, x: np.ndarray, xb: float) -> tuple[float, np.ndarray]:
    """(alpha, vector) at s from the solve x = (s A + s^2 B)^(-1) e0 and
    xb = x^T B x, with alpha = s^2 + (phi - 1) / (c_k xb) to first order
    in phi - 1."""
    phi = forms.c_k * float(x[forms.e0_index])
    return s * s + (phi - 1.0) / (forms.c_k * xb), x / math.sqrt(xb)


def _last_solve(fp: FixedPoint) -> tuple[float, np.ndarray, float]:
    """(alpha, vector, noise) of fp from its last solve at t = fp.lam: the
    held step where the refinement's noise at s is within
    _HELD_GATE max(1, s^2), a fresh factorization and refined solve at t
    elsewhere (fixed_point). Either forms one band."""
    COUNTS["last_solves"] += 1
    forms, t, s, x, d = fp.forms, fp.lam, fp.s, fp.x, fp.d
    xr = x + d
    if t == s:
        return (*_eigenpair(forms, t, xr, fp.xb), 0.0)
    # kappa tau / (c_k xb), tau = |d| / |x + d|
    noise = _KAPPA * float(abs(d).max() / abs(xr).max()) / (float(forms.c_k) * fp.xb)
    if noise <= _HELD_GATE * max(1.0, s * s):
        dm = _energy(forms, t - s, (t - s) * (t + s))  # M(t) - M(s), without cancellation
        x = x + (d - _spd_solve(fp.chol, band_matvec(dm, xr), s * s))
    else:
        chol, x = _factor_solve(forms, t, t * t)
        x, noise = x + _refine(forms, chol, t, t * t, x), 0.0
    return (*_eigenpair(forms, t, x, float(x @ band_matvec(fp.b, x))), noise)


# _secular_newton's two phases, for fixed_point and mode_alpha alike: float64
# steps until one is at most _FLOAT_STEP * t, t the point it moves, then
# refined steps until one is at most _LAST_STEP * max(t, s) (derived in
# fixed_point's docstring)
_FLOAT_STEP = 1e-3
_LAST_STEP = 1e-7
# the last step's solve reuses the factor and residual held when the one
# refinement's noise _KAPPA tau / (c_k xb) is at most _HELD_GATE max(1, s^2)
_KAPPA = 1e-2
_HELD_GATE = 1e-9


def fixed_point(forms: PencilForms, start: float) -> FixedPoint:
    """Lambda_k with alpha_k(Lambda_k) = Lambda_k^2, for c_k > 0.

    With x = (s A + s^2 B)^(-1) e0, phi(s) = c_k x[e0] = c_k / H^N(s, s^2)
    is below 1 exactly when s > Lambda_k (modeforms module docstring). Since
    x^T (s A + s^2 B) x = x[e0], the kinetic share q = s^2 x^T B x / x[e0]
    lies in (0, 1), and phi' = -c_k x^T (A + 2 s B) x
    = -c_k (x[e0] / s + s x^T B x): one banded matvec per step, and two
    positive terms, so nothing cancels. start should bound Lambda_k from
    above, as the compliance bound r_k (spectrum.compliance_bound) does; the
    closer it is, the fewer the steps. A start rounded to 0 raises
    DegenerateExponents.

    Lambda_k is the root of the secular loop (_secular_newton) along
    (t, t^2) from start, where t is s. Its float64 phase steps to the root
    of a refit of y(t) = 1 / phi(t) as a t^2 + b t through its value and
    slope at s: y(0) = 0, since e0^T (t A + t^2 B)^(-1) e0 grows without
    bound as t -> 0. This is the two-limit model of the compliance bound,
    y(t) / y(s) = q (t/s)^2 + (1 - q) t/s, so a and b are positive and the
    refit has exactly one positive root, the next point, which never
    leaves [0, inf). A start's bound that rounding puts below Lambda_k (near
    theta_c) only makes s the refined bracket's lower end. The loop's last
    step fixes lam = t; the solve at t, which gives only alpha, the
    eigenvector and the residual, runs the first time one of them is read
    (FixedPoint, _last_solve), held or fresh as the gate below decides.

    Held last step. With M(s) = s A + s^2 B, x the float64 solve at s,
    r = e0 - M(s) x its extended residual and d its correction, solved on
    the factor of M(s), the residual of x + d at t is

        e0 - M(t) (x + d) = (r - M(s) d) - (M(t) - M(s)) (x + d).

    r - M(s) d is only the correction solve's backward error, about
    u |M| |d| with |d| = tau |x + d|, so r carries nothing this step reads
    and stays in _refine. The second term is small, |t - s| <= _LAST_STEP * s:
    M(t) - M(s) is formed without cancellation, and x + d, formed in
    float64, costs only u |M(t) - M(s)| |x| in it. So the factor of M(s)
    already held solves M(s) d2 = -(M(t) - M(s)) (x + d), and
    x + (d + d2) is the last solve: one step of a stationary iteration that
    contracts by |M(s)^(-1) (M(t) - M(s))| <= 2 |t - s| / s (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, ch. 12). The step
    costs no factorization and no extended residual, forms one band, and
    lam = t keeps the bits of a fresh step.
    The held solve cannot show the noise of the one refinement at s: Newton
    chose t from that same phi, so |lam^2 - alpha| reads ~0. So the residual
    adds noise = kappa tau / (c_k xb), with xb = x^T B x and
    tau = max|d| / max|x + d|, the relative change the refinement made; an
    error e in phi moves alpha = s^2 + (phi - 1) / (c_k xb) by e / (c_k xb).
    The held step runs only where noise <= _HELD_GATE * max(1, s^2), a tenth
    of solve_lambda's 1e-8 acceptance. Elsewhere t is factored and refined
    afresh, and the residual is that solve's |lam^2 - alpha|.

    Thresholds. A step leaves an error of about K e^2 from an error e.
    Measured at N = 128 on the reference maximizer (k = 5) and on mu = 1
    (k = 1 and sqrt(8)), K s is 0.02 to 0.31 for the Newton step and at most
    0.011 for the refit step. So after a float64 step of at most
    _FLOAT_STEP * s the error is at most about 1e-8 s, plus the unrefined
    solve's rounding, and the first refined step is below _LAST_STEP * s.
    After a refined step of d <= _LAST_STEP * s the error left is
    K d^2 <= 3e-15 s, below the refined solve's own rounding (1e-12 to
    1e-11 relative at N = 128). So the next solve is the last and is the
    eigenprofile. In growth solves at theta/theta_c = 0, 0.5, 0.9 and 0.99
    on the reference, viscous (mu = 1) and contrast configs, 92 of 96 fixed
    points at N = 32 to 128 and 19 of 32 at N = 256 took one extended
    residual and the held last step, the rest two refined solves. At
    N = 512 to 2048 the refined phase measured three or four refined solves,
    and from N = 4096 on (cond ~ 1e14) one refinement no longer resolves
    the root.
    kappa = _KAPPA = 1e-2. One refinement leaves phi off by about
    cond * u_ext (u_ext = 5.4e-20, the extended residual's roundoff), while
    tau is about cond * u (u = 1.1e-16): a ratio near 5e-4. Refined solves
    at 17 points 1e-12 apart around Lambda_k (those three configs at
    theta/theta_c = 0, 0.5 and 0.99, k = 1 to 7.28, N = 64 to 1024)
    scattered phi about their line by 4e-4 tau to 1.4e-2 tau; the two above
    1e-2 lie at N = 1024 near theta_c, where the gate fails 11- and
    25-fold. Over 130 held fixed points (those configs at N = 64 to 256 and
    random configs of the property-test box at N = 32 to 128) the held alpha
    lay within 0.0098 tau / (c_k xb) of alpha from a line through 33 such
    solves, 99 % within 0.0072. The e0 entry alone, |d[e0]| / |x[e0]|,
    swung up to a thousandfold between points 1e-9 apart and fell to a
    fifth of that error, so tau reads the whole vector. At N = 128,
    tau / (c_k xb max(1, s^2)) measured 1.6e-10 to 1.0e-6 in those growth
    solves; the gate sent the contrast config's k = 2, 4 and its maximizer
    7.28 to the fresh step.
    """
    COUNTS["fixed_points"] += 1
    c = float(forms.c_k)
    if not c > 0.0:
        raise ValueError(f"a fixed point needs c_k > 0, got {c!r}")
    if not start > 0.0:
        raise DegenerateExponents(f"mode k = {forms.k!r} has its bound r_k rounded to 0 at c_k = {c!r}")

    def refit(s, x0, xb):
        y, q = 1.0 / (c * x0), s * s * xb / x0
        b = y * (1.0 - q)  # y(t) = y q (t/s)^2 + b t/s
        return s * (2.0 / (b + math.sqrt(b * b + 4.0 * y * q)) - 1.0)

    held = _secular_newton(forms, lambda t: (t, t * t), lambda t, x0, xb: x0 / t + t * xb, float(start), refit)
    return FixedPoint(forms, *held)


def _secular_newton(forms: PencilForms, path, slope, t: float, propose=None):
    """The root t of phi(t) = c_k e0^T M(t)^(-1) e0 = 1, c_k > 0, along a
    path of positive definite energy matrices M(t) = s(t) A + alpha(t) B,
    path(t) = (s(t), alpha(t)): (t, t^2) for Lambda_k (fixed_point), (s, t)
    for alpha_k(s) (mode_alpha), from the start t >= 0. slope(t, x0, xb) is
    x^T M'(t) x for x = M(t)^(-1) e0, x0 = x[e0] and xb = x^T B x, so
    phi' = -c_k slope < 0. Newton on 1 - 1/phi steps by
    phi (1 - phi) / phi'.

    Float64 phase. Each step factors M(t) and solves once, unrefined
    (_factor_solve), and moves t by propose(t, x0, xb) (fixed_point's refit),
    or by the Newton step where propose is None. Steps are measured against
    t, the point they move: the phase ends at t, with the factor in hand,
    after a step of at most _FLOAT_STEP * t, or without moving on a step of
    at most _LAST_STEP * t, on a step not below half the one before and on a
    step that would leave [0, inf). This phase only proposes a point: it
    sets no bracket end and no returned value, so it cannot change what the
    refined phase certifies; a poor proposal costs refined steps, never
    accuracy. An unrefined solve is off by about cond * u, u = 1.1e-16, with
    cond ~ 4e8 at N = 128 growing like N^4: 2e-9 at N = 128 and 2e-4 at
    N = 1024, below _FLOAT_STEP, so up to N ~ 1500 the phase ends on a short
    step. Past that a step can be mostly rounding; such steps stop halving,
    so the phase still ends after a few solves.

    Refined phase. Safeguarded Newton on 1 - 1/phi from the float64 phase's
    last point and factor, with every solve refined once (_refine),
    bisecting the bracket [lo, hi], first [0, inf), when a step leaves it;
    phi > 1 makes t its lower end. Bracket and stop tests are relative to
    max(t, s(t)). A step of at most _LAST_STEP of that fixes t_next,
    unsolved, and the loop returns (t_next, t, chol, x, d, b, xb): x the
    float64 solve at t, d its correction, b B's float64 band and
    xb = (x + d)^T B (x + d), which fixed_point's last step reads. Where
    the bracket closes, t_next = t; at phi = 1 the Newton step is -0.0, so
    t_next = t too.
    """
    c, i0, b_band = float(forms.c_k), forms.e0_index, _energy(forms, 0.0, 1.0)

    def newton(t, x0, xb):
        phi = c * x0
        return phi * (1.0 - phi) / (-c * slope(t, x0, xb))

    propose, size = propose or newton, math.inf
    chol, x = _factor_solve(forms, *path(t))
    for _ in range(100):
        step = propose(t, float(x[i0]), float(x @ band_matvec(b_band, x)))
        if abs(step) <= _LAST_STEP * t or not abs(step) <= 0.5 * size or t + step < 0.0:
            break  # also on a NaN step
        near, t, size = abs(step) <= _FLOAT_STEP * t, t + step, abs(step)
        chol, x = _factor_solve(forms, *path(t))
        if near:
            break
    lo, hi = 0.0, math.inf
    for _ in range(100):
        s, alpha = path(t)
        d = _refine(forms, chol, s, alpha, x)
        xr = x + d
        x0, xb = float(xr[i0]), float(xr @ band_matvec(b_band, xr))
        phi = c * x0
        lo, hi = (t, hi) if phi > 1.0 else (lo, t)
        scale = max(t, s)
        if hi - lo <= 1e-15 * scale:
            return t, t, chol, x, d, b_band, xb
        step = newton(t, x0, xb)
        nxt = t + step if lo <= t + step <= hi else 0.5 * (lo + hi)
        if abs(step) <= _LAST_STEP * scale:
            return nxt, t, chol, x, d, b_band, xb
        t = nxt
        chol, x = _factor_solve(forms, *path(t))
    raise SolverError(f"no secular root of mode k = {forms.k!r} after 100 Newton steps")


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
        raise SolverError(f"transverse solve needs k > 0, got {k!r}")
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
