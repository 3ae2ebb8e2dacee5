from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg as sla

from rtgrowth import pencil
from rtgrowth.model import FluidConfig


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


def finish_eigenpair(forms, s, alpha, x):
    """Normalize and sign-fix x as pencil.fixed_point does, and measure its residual."""
    x = x / np.sqrt(x @ pencil.band_matvec(forms.B_band, x))
    x = pencil._fix_sign(x, forms.e0_index)
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
