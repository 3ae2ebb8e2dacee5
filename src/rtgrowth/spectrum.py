"""Global alpha(s, theta) and Lambda: suprema over the lattice of wavenumbers.

The admissible wavenumbers are xi = (n1/L1, n2/L2) over nonzero integer
pairs; every per-mode quantity depends on xi only through k = |xi|, so the
search collapses to the sorted list of distinct magnitudes. A FrozenModeSet
holds the magnitudes and their two interface compliances (closed forms,
taken the first time the growth rate is asked for), which depend on neither
s nor theta, and no pencil: every coupled-branch value is solved, when it is
needed, on a pencil assembled for it (pencil.assemble, alpha_below,
mode_alpha, fixed_point), from the k-free tables that every pencil of the
config and N shares.

Both suprema are one pruned scan (_scan) fed by one of two pairs of
per-mode bound, test and solve: Lambda = max_k Lambda_k (_growth_pair:
r_k = compliance_bound, the inertia test at (M, M^2), fixed_point) and
alpha(s) (_alpha_pair: the least split bound B_l, the inertia test at
(s, M), mode_alpha, over the floor of one transverse root at the smallest
magnitude). alpha(s) only locates Lambda, so it returns values and the
maximizing mode, never a profile; the eigenprofile is the last solve of the
maximizing mode's fixed point.

The zero horizontal mode is excluded: its vertical amplitude vanishes
identically under the divergence constraint, leaving pure dissipation, so it
never competes for the supremum near the fixed point.

Cutoff policy: one family of proven per-mode bounds B_l (split_bound), which
splits the dissipation between an interior and an interface estimate, falls
below any floor beyond a computable wavenumber. For alpha_k(s) on both
branches the cutoff is the smallest over the splits _SPLITS
(certified_cutoff), whose least bound also orders and stops the alpha(s)
scan.
For Lambda_k it is the split l = 1 at s = Lambda and floor Lambda^2
(growth_cutoff). Each cutoff is the largest root of a convex cubic, found by
Newton steps from above and certified where they stop (_split_cutoff). An
owned mode set starts at the smallest lattice magnitude and grows, at most
doubling per step, until the cutoff of its pair at the value on the set
lies inside it (size_mode_set); every mode left out then provably cannot
reach that value. A set handed in by the caller must have been built for
the caller's config, up to theta, and resolution
(FrozenModeSet.check_serves). A growth solve sizes it like an owned set
(fixedpoint.solve_lambda); alpha(s) evaluates it as it is
(FrozenModeSet.alpha_value).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SolverError
from .model import FluidConfig, smallest_magnitude, surface_coefficient
from .pencil import (
    COUNTS,
    Discretization,
    alpha_below,
    assemble,
    fixed_point,
    mode_alpha,
    transverse_min_eigenvalue,
)
from .modeforms import ExactMode, compliances

_DEDUP_RTOL = 1e-12
# the splits l of the bounds B_l (certified_cutoff) whose least value orders
# and stops the alpha(s) scan and whose cutoffs certified_cutoff takes
_SPLITS = (0.0, 0.5, 1.0)
# the most lattice points enumerate_modes forms, (2 n1 + 1)(2 n2 + 1) with
# n_i = ceil(k_max L_i): k_max = 1023 on a unit box, 225,996 magnitudes
LATTICE_POINTS = 1 << 22


@dataclass(frozen=True, eq=False)
class ModeSet:
    """Distinct lattice magnitudes in (0, k_max], sorted increasing."""

    magnitudes: np.ndarray
    k_max: float

    def __post_init__(self):
        mags = np.asarray(self.magnitudes, dtype=float)
        mags.flags.writeable = False
        object.__setattr__(self, "magnitudes", mags)

    def __len__(self) -> int:
        return self.magnitudes.size


def enumerate_modes(cfg: FluidConfig, k_max: float) -> ModeSet:
    """Exactly the distinct lattice magnitudes in (0, k_max].

    A magnitude reads only |n1| and |n2|, and (-n) / L is -(n / L) exactly,
    which hypot takes as n / L. So the quadrant n1, n2 >= 0 holds every float
    of the whole lattice, where the lattice holds each two or four times. A
    repeat lies 0 above the float below it, so the dedup drops it, and the
    gaps between different floats are the quadrant's: the result has the
    bits of the whole lattice's. The first magnitude is hypot(1/L, 0) = 1/L,
    the bits of model.smallest_magnitude.

    This function owns the rule on k_max: one below that magnitude, infinite
    or NaN raises ConfigError. A finite k_max whose lattice,
    (2 n1 + 1)(2 n2 + 1) points with n_i = ceil(k_max L_i), exceeds
    LATTICE_POINTS raises SolverError.
    """
    k0 = smallest_magnitude(cfg)
    if not k0 <= k_max < math.inf:
        raise ConfigError(f"k_max = {k_max!r} below smallest lattice magnitude {k0!r} or not finite")
    # min keeps LATTICE_POINTS unless k_max L is smaller, so a product that
    # overflows to inf stays out of ceil
    n1, n2 = (math.ceil(min(LATTICE_POINTS, k_max * scale)) for scale in (cfg.L1, cfg.L2))
    if (2 * n1 + 1) * (2 * n2 + 1) > LATTICE_POINTS:
        raise SolverError(f"k_max = {k_max!r} needs more than {LATTICE_POINTS} lattice points")
    kk = np.hypot.outer(np.arange(n1 + 1) / cfg.L1, np.arange(n2 + 1) / cfg.L2).ravel()
    kk.sort()
    kk = kk[1 : kk.searchsorted(k_max, side="right")]  # the origin sorts first
    # a magnitude within _DEDUP_RTOL (relative) of the one below it repeats it
    distinct = np.ones(kk.size, dtype=bool)
    distinct[1:] = np.diff(kk) > _DEDUP_RTOL * kk[1:]
    return ModeSet(kk[distinct], k_max)


@dataclass(frozen=True, eq=False)
class ModeTable:
    """Per-mode branch values underlying one alpha evaluation."""

    k: np.ndarray
    alpha_longitudinal: np.ndarray
    alpha_transverse: np.ndarray

    @property
    def branch(self) -> list[str]:
        return [
            "longitudinal" if al >= at else "transverse"
            for al, at in zip(self.alpha_longitudinal, self.alpha_transverse)
        ]


@dataclass(frozen=True, eq=False)
class AlphaValue:
    """Global supremum alpha(s, theta) with its maximizer."""

    alpha: float
    argmax_k: float
    branch: str
    s: float
    theta: float


class FrozenModeSet:
    """A lattice mode set with the theta-free data of its modes.

    It caches the interface compliances (I_k, C_k) of modeforms.compliances
    of every mode, taken once the growth rate is asked for and re-read at
    every theta (alpha(s) alone never needs them), and the growth bounds of
    the last theta. It holds no pencil: a scan and table assemble each mode
    they solve or test (pencil.assemble weighs the 25 long-double values of
    each form by k, from the k-free tables shared per config and N), so a
    pencil lives as long as its solve. table solves its own transverse
    column. The coupled branch is solved on demand, so one set serves every
    (s, theta).
    """

    def __init__(self, cfg: FluidConfig, disc: Discretization, modes: ModeSet):
        self.cfg = cfg
        self.disc = disc
        self.modes = modes
        COUNTS["modes"] += len(modes)
        self._compliance = np.empty((0, 2))  # rows (I_k, C_k) of the first modes
        self._bounds = (None, None)  # ((theta, number of modes), r_k of every mode at theta)

    @classmethod
    def freeze(cls, cfg: FluidConfig, disc: Discretization, k_max: float) -> "FrozenModeSet":
        return cls(cfg, disc, enumerate_modes(cfg, k_max))

    def extend_to(self, k_max: float) -> None:
        if k_max > self.modes.k_max:
            COUNTS["modes"] -= len(self.modes)
            self.modes = enumerate_modes(self.cfg, k_max)
            COUNTS["modes"] += len(self.modes)

    def check_serves(self, cfg: FluidConfig, disc: Discretization) -> None:
        """Raise ValueError unless the set was built for cfg, up to theta, and disc.

        A set serves every theta of its config, so a sweep may hand one set to
        every point; any other difference would solve a different problem.
        """
        if self.cfg.with_theta(cfg.theta) != cfg or self.disc != disc:
            raise ValueError(
                f"the mode set was built for {self.cfg!r} at {self.disc!r}, "
                f"not for {cfg!r} at {disc!r}"
            )

    def growth_bounds(self, theta: float) -> np.ndarray:
        """compliance_bound of every mode at theta: Lambda_k <= r_k, read-only.

        Takes the compliances of the modes that have none yet, with no
        matrix; extend_to only appends modes, so those are the last ones.
        The bounds of the last (theta, number of modes) asked for are kept,
        and any other key takes every r_k afresh: each is formed element by
        element with correctly rounded operations, so its bits do not depend
        on the modes beside it.
        """
        ks = self.modes.magnitudes
        fresh = [compliances(ExactMode(k, self.cfg)) for k in ks[len(self._compliance):].tolist()]
        if fresh:
            self._compliance = np.concatenate([self._compliance, fresh])
        key, bounds = self._bounds
        if key != (theta, ks.size):
            c = surface_coefficient(ks, self.cfg.with_theta(theta))
            bounds = compliance_bound(c, self._compliance[:, 0], self._compliance[:, 1])
            bounds.flags.writeable = False
            self._bounds = ((theta, ks.size), bounds)
        return bounds

    def alpha_value(self, s: float, theta: float) -> AlphaValue:
        """alpha(s, theta), the larger branch value maximized over the set as
        it is: one scan (_scan) of the alpha(s) pair (_alpha_pair)."""
        pair = _alpha_pair(self, theta, s)
        return _scan(self, pair, 0, pair.floor)[2]

    def table(self, s: float, theta: float) -> ModeTable:
        """Both branch values of every mode at (s, theta): one mode_alpha and
        one transverse root each."""
        cfg = self.cfg.with_theta(theta)
        ks = self.modes.magnitudes
        longitudinal = [mode_alpha(assemble(k, cfg, self.disc), s) for k in ks]
        lam_tau = np.asarray([transverse_min_eigenvalue(k, self.cfg) for k in ks])
        return ModeTable(ks, np.asarray(longitudinal), -s * lam_tau)


def compliance_bound(c, inviscid, stokes):
    """r_k, the positive root of r^2 / I_k + r / C_k = max(c_k, 0): Lambda_k <= r_k.

    inviscid and stokes are the interface compliances I_k and C_k
    (modeforms.compliances); arguments may be arrays. The proof, on the
    exact and the Hermite space alike, is the superadditivity of the
    interface impedance H_k (modeforms module docstring). The bound is exact
    in both classical limits: without viscosity (D = 0) the fixed point is
    the inviscid rate sqrt(c_k I_k), without inertia (K = 0) the Stokes rate
    c_k C_k (Chandrasekhar, Hydrodynamic and Hydromagnetic Stability, 1961,
    ch. X). 0 where c_k <= 0. numpy squares C_k, also for Python floats, so
    a C_k whose square underflows (mu = 1e300) gives 0, not a
    ZeroDivisionError, and a scalar call returns the bits of an array one.
    """
    c = np.maximum(c, 0.0)
    return 2.0 * c / (1.0 / stokes + np.sqrt(1.0 / np.square(stokes) + 4.0 * c / inviscid))


def mode_compliance_bound(mode: ExactMode) -> float | None:
    """r_k of the one mode mode.k, from its config alone: the start of a
    single-mode fixed point and the top of the oracle's bracket. None where
    c_k <= 0, before compliances, which raises at extreme k where a stable
    mode needs no bound; an r_k rounded to 0 is 0.0, for the caller to judge."""
    if mode.c_k <= 0.0:
        return None
    return float(compliance_bound(mode.c_k, *compliances(mode)))


def split_bound(cfg: FluidConfig, s: float, split: float):
    """B_l at l = split (certified_cutoff), as a function of k, a float or an array.

    B_0 is max(c_k, 0) k / (rho+ + rho-) - s mu_min k^2 / rho_max.
    """
    return _split_bound(cfg, s, split)[0]


def _split_bound(cfg: FluidConfig, s: float, split: float):
    """(B_l, a, t, b, i) at l = split, with B_l as a function of k and

        B_l(k) = max(a k - t k^3 - b k^2, -i k^2),

    a = g [rho] / (rho+ + rho-), t = theta / (rho+ + rho-), i the interior
    coefficient (1 - l) s mu_min / rho_max and b = 2 l s (mu+ + mu-) /
    (rho+ + rho-) + i: the positive part of c_k - 2 l s k (mu+ + mu-) is the
    larger of it and 0. The coefficients are Python floats, also where a
    sweep's theta grid makes theta a numpy one.
    """
    gr = cfg.g * cfg.density_jump
    theta = cfg.theta
    rho_sum = cfg.rho_plus + cfg.rho_minus
    stokes = 2.0 * split * s * (cfg.mu_plus + cfg.mu_minus)
    interior = (1.0 - split) * s * min(cfg.mu_plus, cfg.mu_minus) / max(
        cfg.rho_plus, cfg.rho_minus
    )

    def bound(k):
        c = gr - (theta * k + stokes) * k
        return 0.5 * (c + abs(c)) * k / rho_sum - interior * k * k

    coefficients = (gr / rho_sum, theta / rho_sum, stokes / rho_sum + interior, interior)
    return (bound, *map(float, coefficients))


def certified_cutoff(cfg: FluidConfig, s: float, floor: float) -> float:
    """Largest k > 0 at which a mode may reach alpha_k(s) >= floor; 0 if none may.

    For every split l in [0, 1],

        B_l(k) = k max(c_k - 2 l s k (mu+ + mu-), 0) / (rho+ + rho-)
                 - (1 - l) s mu_min k^2 / rho_max

    bounds both branches of every mode: alpha_k(s) <= B_l(k) (split_bound).
    Proof, for a clamped C^1 profile psi with kinetic
    form K = sum_layers rho int(psi^2 + psi'^2/k^2) and dissipation
    D = sum_layers mu int (k psi + psi''/k)^2 + 4 psi'^2:

    - Trace: psi vanishes at each wall, so on each layer psi(0)^2 =
      |int (psi^2)'| <= int k psi^2 + psi'^2/k; weighting the layers by rho+
      and rho- and adding gives (rho+ + rho-) psi(0)^2 <= k K. So the
      inviscid compliance has the envelope I_k <= k / (rho+ + rho-).
    - Dissipation, interior: D is at least mu_min times the same integral
      over the whole column, where int psi psi'' = -int psi'^2 by parts (psi,
      psi' continuous at the interface, psi = 0 at the walls), so
      D >= mu_min int k^2 psi^2 + 2 psi'^2 + psi''^2/k^2 >= mu_min k^2 K / rho_max.
    - Dissipation, interface: D >= 2 k (mu+ + mu-) psi(0)^2, that is the
      envelope C_k <= 1 / (2 k (mu+ + mu-)) of the Stokes compliance. Extend
      psi by zero past the walls, which leaves D unchanged. On a half line
      with psi(0) = 1 and psi'(0) = a, the minimum of
      mu int (k psi + psi''/k)^2 + 4 psi'^2 is 2 k mu (1 + a^2 / k^2) >= 2 k mu,
      attained at a = 0 by (1 + k|y|) e^(-k|y|); add both layers.
    - Coupled branch: split D = l D + (1 - l) D and bound the parts by
      the interface and the interior estimate. At K = 1,
      c_k psi(0)^2 - s D <= (c_k - 2 l s k (mu+ + mu-)) psi(0)^2
      - (1 - l) s mu_min k^2 / rho_max, and the trace bounds the first term
      by its positive part times k / (rho+ + rho-). Maximizing over psi gives
      alpha_k(s) <= B_l(k).
    - Transverse branch: lambda_tau = min sum mu int(tau'^2 + k^2 tau^2) /
      sum rho int tau^2 >= mu_min k^2 / rho_max, so -s lambda_tau <=
      -(1 - l) s mu_min k^2 / rho_max <= B_l(k). The computed lambda_tau
      is this exact minimum, so the bound holds for it directly.

    The Hermite space is a subspace (it is H^2-conforming) and its element
    matrices are the exact integrals of its shapes, from closed-form integer
    tables (pencil._element_matrices), so the coupled bound holds for the
    computed alpha_k(s) too, and both envelopes hold for the discrete
    compliances. The returned cutoff is the smallest over the splits
    _SPLITS, l = 0, 1/2 and 1, without l = 1 for a floor at or below 0
    (B_1 >= 0 reaches every such floor). B_0 is sharp where viscosity is
    small, the larger l where mu_min / rho_max understates the dissipation
    of a strong viscosity contrast. The alpha(s) scan orders and stops by
    min_l B_l(k) over the same splits (_alpha_pair). The growth rate is cut
    off by l = 1 at s = Lambda (growth_cutoff).
    """
    if s <= 0.0:
        raise ValueError(f"modification parameter must be > 0, got {s!r}")
    return min(_split_cutoff(cfg, s, floor, split) for split in _SPLITS if floor > 0.0 or split < 1.0)


def _split_cutoff(cfg: FluidConfig, s: float, floor: float, split: float) -> float:
    """Largest k > 0 with B_l(k) >= floor at l = split (certified_cutoff), or
    0 when no k reaches floor; B_l < floor holds, as computed, at a returned
    k > 0.

    With B_l(k) = max(a k - t k^3 - b k^2, -i k^2) (_split_bound), B_l(k) >=
    floor exactly when the cubic p(k) = t k^3 + b k^2 - a k + floor is at most
    0 or i k^2 <= -floor. So {B_l >= floor} is an interval whose upper end is
    the larger of two roots:

    - far = sqrt(-floor / i) for floor < 0, none for floor >= 0;
    - the largest root of p. p is convex on k > 0 (p'' = 6 t k + 2 b >= 0)
      and least at the peak of B_l, where p' = 0: a / (b + sqrt(b^2 + 3 a t)).
      If p is positive there (B_l below floor, only for floor > 0), no k
      reaches floor and the cutoff is 0. Else p increases from the peak on,
      through its root. Let u = 2 a / (b + sqrt(b^2 + 4 a t)), the root of
      t k^2 + b k = a; u is past the peak, since p'(u) = 2 t u^2 + b u >= 0.
      For k >= u, t k^2 + b k - a >= b (k - u), so at k0 = u + d with
      d = sqrt(max(-floor, 0) / b), p(k0) >= k0 b d + floor >= b d^2 + floor
      >= 0: k0 lies at or past the root. From there Newton steps
      k <- k - p(k) / p'(k) fall monotonically and never pass the root, p
      being convex and increasing there; they stop once a step is at most
      1e-15 k, or is not positive (rounding at the root).

    The larger root is then raised by steps that double from one ulp until
    B_l, evaluated as split_bound does, is below floor, so the cutoff is
    certified as computed and not below the exact one. Square roots of
    squares go through hypot, which neither overflows (b ~ 1e300) nor
    underflows (b ~ 1e-300). A cutoff that is not positive and finite (a rate
    or viscosity near the float range's end) raises SolverError.
    """
    bound, a, t, b, interior = _split_bound(cfg, s, split)
    den = b + math.hypot(b, math.sqrt(3.0 * a * t))
    far = 0.0
    if floor < 0.0:
        far = math.sqrt(-floor / interior) if interior > 0.0 else math.inf
    if not (0.0 < den < math.inf and far < math.inf):
        raise SolverError(f"the cutoff of the bound B_l at s = {float(s)!r} is not finite")
    if bound(a / den) < floor:
        return 0.0
    k = 2.0 * a / (b + math.hypot(b, 2.0 * math.sqrt(a * t)))
    if floor < 0.0:
        k += math.sqrt(-floor / b)
    for _ in range(100):
        step = (((t * k + b) * k - a) * k + floor) / ((3.0 * t * k + 2.0 * b) * k - a)
        if not 0.0 < step < k:
            break
        k -= step
        if step <= 1e-15 * k:
            break
    k = max(k, far)
    for j in range(64):
        if 0.0 < k < math.inf and bound(k) < floor:
            return k
        k += k * 2.0 ** (j - 52)
    raise SolverError(f"the cutoff of the bound B_l at s = {float(s)!r} is not finite")


def growth_cutoff(cfg: FluidConfig, lam: float) -> float:
    """Largest k > 0 at which a mode may reach the growth rate lam; 0 if none may.

    Lambda_k >= lam needs alpha_k(lam) >= lam^2, since alpha_k(s) - s^2
    strictly decreases through zero at Lambda_k, and alpha_k(lam) <= B_1(k)
    at s = lam (certified_cutoff). So every mode above the largest k with
    B_1(k) >= lam^2 has Lambda_k < lam. That condition is p(k) <= 0 for the
    convex cubic
        p(k) = theta k^3 + 2 (mu+ + mu-) lam k^2 - g [rho] k + (rho+ + rho-) lam^2,
    which is also the compliance bound r_k >= lam with I_k and C_k replaced
    by their whole-line envelopes (certified_cutoff).
    """
    if lam <= 0.0:
        raise ValueError(f"growth rate must be > 0, got {lam!r}")
    return _split_cutoff(cfg, lam, lam * lam, 1.0)


# The per-mode side of one pruned maximum (_scan): cfg at its theta; the
# proven bounds of the modes from start on; the running maximum
# (value, k, result) before any mode; test(forms, M), passed only by a mode
# below M; solve(forms, bound) -> (value, result); cutoff(M), past which no
# mode reaches M.
_Pair = namedtuple("_Pair", "cfg bounds floor test solve cutoff")


def _growth_pair(fm: FrozenModeSet, theta: float) -> _Pair:
    """The pair of Lambda = max_k Lambda_k at theta; its result is the fixed point.

    alpha(s) > s^2 exactly when some alpha_k(s) > s^2, that is when
    s < Lambda_k; the transverse branch is never positive. The bound is
    Lambda_k <= r_k (growth_bounds), the test at M the inertia test at
    (s, alpha) = (M, M^2), which passes only when Lambda_k < M, the solve the
    fixed point from r_k, and the cutoff growth_cutoff at M. The floor 0 has
    no result.
    """
    cfg = fm.cfg.with_theta(theta)

    def solve(forms, bound):
        fp = fixed_point(forms, bound)
        return fp.lam, fp

    return _Pair(
        cfg, bounds=lambda start: fm.growth_bounds(theta)[start:], floor=(0.0, 0.0, None),
        test=lambda forms, m: alpha_below(forms, m, m * m), solve=solve,
        cutoff=lambda m: growth_cutoff(cfg, m),
    )


def _alpha_pair(fm: FrozenModeSet, theta: float, s: float) -> _Pair:
    """The pair of alpha(s, theta); its result is the AlphaValue.

    The scanned value is the coupled branch: bound min_l B_l(k) over
    _SPLITS, the family certified_cutoff cuts with (each B_l bounds
    alpha_k(s), so their minimum does), test the inertia test at (s, M),
    solve mode_alpha, cutoff certified_cutoff at the floor M. mode_alpha's
    value depends on the pencil and s alone, so the bound changes only which
    modes are visited, and the scan's tie rule makes its result independent
    of their order. The floor is the
    transverse maximum -s lambda_tau(k0) at the smallest magnitude k0, one
    scalar root. Proof that lambda_tau strictly increases in k: for every
    nonzero tau in H^1_0 the quotient

        Q_k(tau) = sum mu int(tau'^2 + k^2 tau^2) / sum rho int tau^2
                 = Q_0(tau) + k^2 sum mu int tau^2 / sum rho int tau^2

    strictly increases in k, its last factor being positive. For k < k',
    the minimum lambda_tau(k') is attained, by the eigenfunction tau_* of
    pencil.transverse_min_eigenvalue, so
    lambda_tau(k) <= Q_k(tau_*) < Q_k'(tau_*) = lambda_tau(k'). With s > 0
    the branch value -s lambda_tau(k) therefore strictly decreases in k.
    """
    if s <= 0.0:
        raise ValueError(f"modification parameter must be > 0, got {s!r}")
    cfg = fm.cfg.with_theta(theta)
    k0 = float(fm.modes.magnitudes[0])
    floor = -s * transverse_min_eigenvalue(k0, fm.cfg)
    family = [split_bound(cfg, s, split) for split in _SPLITS]

    def solve(forms, bound):
        alpha = mode_alpha(forms, s)
        return alpha, AlphaValue(alpha, forms.k, "longitudinal", s, theta)

    return _Pair(
        cfg, bounds=lambda start: np.min([b(fm.modes.magnitudes[start:]) for b in family], axis=0),
        floor=(floor, k0, AlphaValue(floor, k0, "transverse", s, theta)),
        test=lambda forms, m: alpha_below(forms, s, m), solve=solve,
        cutoff=lambda m: certified_cutoff(cfg, s, m),
    )


def _scan(fm: FrozenModeSet, pair: _Pair, start: int, best: tuple) -> tuple:
    """The running maximum (value, k, result) after a pruned scan of the
    modes of fm from start on, begun at the running maximum best.

    Modes are visited in decreasing order of their bound, equal bounds in
    increasing k. The scan stops at the first bound at or below the running
    maximum M, skips a mode whose test at M passes, and solves the rest.
    Ties go to the smaller k and, at equal k (only the floor's mode can
    repeat one), to the solved value. A floor with no result stands for no
    mode and is never tested against.

    Resuming: with best the scan of the first start modes, every mode before
    start was solved, or proven at or below a running maximum at most best's
    value, and every later mode has a larger k, so a tie keeps best: the
    scan from start on returns the bits of one scan of the whole set.
    """
    bounds = pair.bounds(start)
    order = np.argsort(-bounds, kind="stable")
    for k, bound in zip(fm.modes.magnitudes[start:][order].tolist(), bounds[order]):
        if bound <= best[0]:
            break
        forms = assemble(k, pair.cfg, fm.disc)
        if best[2] is not None and pair.test(forms, best[0]):
            continue
        value, result = pair.solve(forms, bound)
        if (value, -k) >= (best[0], -best[1]):
            best = (value, k, result)
    return best


def size_mode_set(fm: FrozenModeSet, theta: float, s: float | None = None):
    """The value over fm, extended until no mode above its cutoff can change it.

    The value is alpha(s) (_alpha_pair), an AlphaValue, or without s Lambda
    (_growth_pair), the FixedPoint of the fastest mode. Each pass scans the
    modes the last extension appended, resuming from the passes before
    (_scan), and extends toward the pair's cutoff at the value so far, at
    most doubling k_max. The value only rises, so the cutoff only falls and
    the loop ends, unless the extension needs more than LATTICE_POINTS
    lattice points (on the reference densities and depths, below about
    mu = 1e-4 at N = 128): that raises SolverError, naming the cutoff. So
    does a growth scan that solved no mode. Its callers have checked that
    c_k > 0 at the smallest magnitude (model.upper_bound_m), so modes grow
    there, and no mode is solved only where every r_k rounds to 0: at
    mu = 1e300 the square of C_k underflows.
    """
    pair = _growth_pair(fm, theta) if s is None else _alpha_pair(fm, theta, s)
    best, start = pair.floor, 0
    while True:
        best = _scan(fm, pair, start, best)
        if best[2] is None:
            raise SolverError(f"every bound r_k rounds to 0 at theta = {float(theta)!r}, though c_k > 0")
        cutoff = pair.cutoff(best[0])
        if cutoff <= fm.modes.k_max:
            return best[2]
        start = len(fm.modes)
        try:
            fm.extend_to(min(cutoff, 2.0 * fm.modes.k_max))
        except SolverError as exc:  # the lattice up to there is too large
            raise SolverError(
                f"the cutoff k = {cutoff!r} lies past the lattice that can be enumerated: {exc}"
            ) from None


@dataclass(frozen=True, eq=False)
class AlphaCurve:
    """Samples of alpha over a strictly increasing s grid."""

    s: np.ndarray
    values: list[AlphaValue] = field(repr=False)
    zero_bracket: tuple[float, float] | None


def alpha_curve(
    cfg: FluidConfig,
    s_grid,
    disc: Discretization,
    frozen: FrozenModeSet | None = None,
) -> AlphaCurve:
    """Sample alpha(s, cfg.theta) on s_grid over one mode set; verify strict
    decrease.

    Without `frozen` each sample is the value size_mode_set returns at s. The
    set only grows, and every mode added after a sample lies above that
    sample's cutoff, so its alpha_k(s) is below the sample and never visited.
    A set handed in must serve cfg and disc (FrozenModeSet.check_serves).
    An s_grid of fewer than two points, or not strictly increasing, positive
    and finite, raises ValueError, the one check of the grid.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.ndim != 1 or s_grid.size < 2:
        raise ValueError("s_grid must be a 1-d grid with at least two points")
    # increasing, so only the last point can be inf; NaN fails > 0
    if not (np.all(s_grid > 0.0) and np.all(np.diff(s_grid) > 0.0) and s_grid[-1] < math.inf):
        raise ValueError("s_grid must be strictly increasing, positive and finite")

    if frozen is None:
        fm = FrozenModeSet.freeze(cfg, disc, smallest_magnitude(cfg))
        values = [size_mode_set(fm, cfg.theta, float(s)) for s in s_grid]
    else:
        frozen.check_serves(cfg, disc)
        values = [frozen.alpha_value(float(s), cfg.theta) for s in s_grid]

    alphas = np.asarray([v.alpha for v in values])
    if not np.all(np.diff(alphas) < 0.0):
        raise SolverError(
            "sampled alpha(s) is not strictly decreasing; the mode set changed "
            "between samples or the discretization is inconsistent"
        )
    zero_bracket = None
    sign_change = np.nonzero((alphas[:-1] > 0.0) & (alphas[1:] <= 0.0))[0]
    if sign_change.size:
        i = int(sign_change[0])
        zero_bracket = (float(s_grid[i]), float(s_grid[i + 1]))
    return AlphaCurve(s=s_grid, values=values, zero_bracket=zero_bracket)
