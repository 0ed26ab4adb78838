import numpy as np
import pytest
from scipy.fft import dst, irfft, rfft

from zkbstrip import StripGeometry, run


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
