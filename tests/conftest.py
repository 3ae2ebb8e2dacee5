from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg as sla

from rtgrowth import pencil
from rtgrowth.errors import ZeroWaveNumber
from rtgrowth.model import FluidConfig
from rtgrowth.modeforms import _quad_data


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
    x = x / np.sqrt(x @ pencil.band_matvec(forms.B_band, x))
    x = fix_sign(x, forms.e0_index)
    r = pencil._pencil_residual(forms, pencil._energy(forms, s, alpha), x)
    return EigenSolution(float(alpha), x, float(np.linalg.norm(r) / np.linalg.norm(x)))


def largest_eigenpair(forms, s):
    """Largest generalized eigenpair of one mode's pencil by a dense solve: the
    reference that the banded solves are tested against."""
    if s <= 0.0:
        raise ValueError(f"modification parameter must be > 0, got {s!r}")
    n = forms.dim
    numerator = -s * dense(forms.A_band)
    numerator[forms.e0_index, forms.e0_index] += forms.c_k
    w, v = sla.eigh(numerator, dense(forms.B_band), subset_by_index=[n - 1, n - 1])
    return finish_eigenpair(forms, s, w[0], v[:, 0])


def _layer_weights(profile, lower, upper):
    return np.where(profile.layer_tags < 0, lower, upper)


def kinetic_form(k, profile, cfg):
    """sum_layers rho * integral( psi'^2 / k^2 + psi^2 ) by Gauss quadrature of
    the profile: the reference that the assembled kinetic band is tested against."""
    if k <= 0.0:
        raise ZeroWaveNumber(f"kinetic form needs k > 0, got {k!r}")
    _, w, psi, dpsi, _ = _quad_data(profile)
    rho = _layer_weights(profile, cfg.rho_minus, cfg.rho_plus)
    return float((rho[:, None] * w * (dpsi**2 / k**2 + psi**2)).sum())


def dissipation_form(k, profile, cfg):
    """sum_layers mu * integral( 4 psi'^2 + (k psi + psi''/k)^2 ) by Gauss
    quadrature of the profile: the reference for the dissipation band.

    This is the longitudinal-optimal value of the per-mode dissipation
    functional, i.e. one half of the mu-weighted symmetric-gradient norm of
    the reconstructed velocity field.
    """
    if k <= 0.0:
        raise ZeroWaveNumber(f"dissipation form needs k > 0, got {k!r}")
    _, w, psi, dpsi, ddpsi = _quad_data(profile)
    mu = _layer_weights(profile, cfg.mu_minus, cfg.mu_plus)
    integrand = 4.0 * dpsi**2 + (k * psi + ddpsi / k) ** 2
    return float((mu[:, None] * w * integrand).sum())
