from functools import lru_cache

import numpy as np
import pytest
from scipy.fft import dst, irfft, rfft

from zkbstrip import Field, StripGeometry, run
from zkbstrip.diagnostics import _modes, _weighted_pairing
from zkbstrip.fields import _band


# Reference transforms built on scipy.fft alone, independent of the
# package's band matrices.  The orthonormal DST-I is its own inverse, and
# sqrt(dy) turns its unit vectors into the samples of the orthonormal
# modes w_j, so sum(a**2) = dy * sum(values**2).

def reference_sine_coeffs(values, g, axis=-1):
    """Interior-grid samples -> coefficients of the modes w_j."""
    return dst(values, type=1, axis=axis, norm="ortho") * np.sqrt(g.dy)


def reference_sine_values(coeffs, g, axis=-1):
    """Coefficients of the modes w_j -> interior-grid samples."""
    return dst(coeffs, type=1, axis=axis, norm="ortho") / np.sqrt(g.dy)


def reference_to_spectral(values, g):
    """Grid samples (Nx, Ny) -> coefficients (Nx//2+1, Ny)."""
    return rfft(reference_sine_coeffs(values, g, axis=1), axis=0) / g.Nx


def reference_to_grid(coeffs, g):
    """Coefficients (Nx//2+1, Ny) -> grid samples (Nx, Ny)."""
    return reference_sine_values(irfft(coeffs, n=g.Nx, axis=0) * g.Nx, g,
                                 axis=1)


def weighted_dy_sq(u):
    """(exp(2bx), u_y^2) by the package's mode-space pairing."""
    a = _modes(u)
    return _weighted_pairing(u.geometry, a, a, dy=True)


# Triple-product coupling oracle: the exact y-integral of three modes,
# against which the pseudospectral nonlinearity is tested.

def _cos_sin_integral(m: int, k: int) -> float:
    # int_0^pi cos(m t) sin(k t) dt, closed form
    m = abs(m)
    if k == m:
        return 0.0
    return k * (1 - (-1) ** (k + m)) / (k * k - m * m)


@lru_cache(maxsize=None)
def _sin_triple(i: int, j: int, k: int) -> float:
    # int_0^pi sin(i t) sin(j t) sin(k t) dt via product-to-sum
    return 0.5 * (_cos_sin_integral(i - j, k) - _cos_sin_integral(i + j, k))


def coupling_coefficient(i: int, j: int, k: int, B: float) -> float:
    """Exact triple-product integral of orthonormal modes over (0, B).

    Symmetric in (i, j, k) and zero whenever i + j + k is even.
    """
    for idx in (i, j, k):
        if idx < 1:
            raise ValueError(f"mode index must be >= 1, got {idx}")
    if not B > 0:
        raise ValueError(f"strip width B must be positive, got {B}")
    if (i + j + k) % 2 == 0:
        return 0.0
    i, j, k = sorted((i, j, k))  # bitwise-identical under permutations
    return (2.0 / B) ** 1.5 * (B / np.pi) * _sin_triple(i, j, k)


def nonlinear_term(u):
    """u*u_x of the 2/3 band projection of u, by the package's band product."""
    band = _band(u.geometry)
    square = band.square(band.gather(u.coeffs))
    return Field(u.geometry, band.scatter(-band.slot * square))


def final_field(u0, cfg):
    """The Field of the last sample of ``run(u0, cfg)``."""
    fields = []
    run(u0, cfg, observer=lambda sample, u: fields.append(u))
    return fields[-1]


@pytest.fixture(scope="session")
def paper_ref():
    """Reference decay run (B=pi, Lx=30, 1024x32, t_end=40), computed once.

    Takes about a minute and a half; shared by the energy-identity and
    weighted-decay acceptance criteria.
    """
    from zkbstrip.cli import paper_ref_run

    return paper_ref_run()


@pytest.fixture
def small_geom():
    return StripGeometry(B=np.pi, Lx=10.0, Nx=128, Ny=16, b=0.1)
