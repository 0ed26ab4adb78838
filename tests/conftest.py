import math
from dataclasses import replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import pytest
from scipy.fft import dst, irfft, rfft

from zkbstrip import Field, StripGeometry, evolve, make_initial_field, run
from zkbstrip.diagnostics import _moments, _modes
from zkbstrip.fields import _band, random_blocks
from zkbstrip.solver import Stepper
from zkbstrip.theory import _holds


def zeros(geom):
    """The zero Field of geom."""
    return Field(geom, np.zeros((geom.Nx // 2 + 1, geom.Ny), complex))


def dx(u):
    """The spectral x-derivative of u, by the band's i*k table (zero on
    the Nyquist slot)."""
    return Field(u.geometry, u.coeffs * _band(u.geometry).ik)


def random_field(geom, seed):
    """The corpus field of one seed: random_blocks' stack of one, padded
    to the full layout."""
    c = random_blocks(geom, [seed])[0]
    pad = [(0, geom.Nx // 2 + 1 - len(c)), (0, geom.Ny - len(c[0]))]
    return Field(geom, np.pad(c, pad))


class Check(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def inequality(sides, u, *args):
    """One inequality on the Field u: ``sides`` (``theory.steklov_sides``,
    ``gn_sides`` or ``sup_sides``, with its further args) on the stack of
    one u.coeffs[None].  One Check, or a list of them, one per rhs of
    ``sup_sides``' pairs."""
    lhs, rhs = sides(u.geometry, u.coeffs[None], *args)
    checks = [Check(float(lhs[0]), float(r), bool(_holds(lhs[0], r)))
              for r in np.atleast_1d(rhs[0])]
    return checks if rhs.ndim > 1 else checks[0]


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
    """(exp(2bx), u_y^2) by the package's mode-space moments."""
    a = _modes(u)
    m = _moments(u.geometry, a, a)[0]
    return float(u.geometry.eigenvalues()[: len(m)] @ m)


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
    """u*u_x of the 2/3 band projection of u, by the stepper's band
    product of the stack of one."""
    band = _band(u.geometry)
    square = Stepper(u.geometry, 1e-3).nonlinear_rhs(band.gather(u.coeffs)[None])
    return Field(u.geometry, band.scatter(-band.slot * square[0]))


def final_field(u0, cfg):
    """The Field of the last sample of ``evolve(u0, cfg)``."""
    for _, u in evolve(u0, cfg):
        pass
    return u


# The linear flow's exact weighted norm on the line.  For data
# A exp(-(x - x0)^2/s^2) w_j(y), the transform of e^{bx} u is the data's
# transform at xi + ib times exp(sigma(xi + ib, lambda_j) t) (the Fourier
# contour shifted by ib, Pego & Weinstein 1994), and the Gaussian integral
# gives W(t)/W(0) = exp(-r t) (1 + 4(1 + 3b) t/s^2)^(-1/2), with
# W = (e^{2bx}, u^2) and r = 2b(lambda_j - b - b^2).  The bar sits far above
# the worst deviation measured on paper-ref data at 256x32 to t = 1 (3.75e-14)
# and far below that of lambda x 0.99 in the stepper (2.0e-3).
LINEAR_ORACLE_BAR = 1e-12


def linear_oracle_deviation():
    """Worst relative deviation of w_l2 from the exact W(t), over every
    sample of paper-ref data on 256x32 (Lx = 30) with nonlinear false, to
    t = 1, a sample every 100 steps; the periodic box is clean there."""
    from zkbstrip.cli import paper_ref_config

    ref = paper_ref_config()
    geom = replace(ref.geometry, Nx=256)
    cfg = replace(ref.solver, t_end=1.0, output_every=100, nonlinear=False)
    b, s = geom.b, ref.initial.s
    r = 2.0 * b * (geom.eigenvalues()[ref.initial.j - 1] - b - b * b)
    samples = run(make_initial_field(ref.initial, geom).field, cfg).samples
    assert len(samples) == 11
    return max(abs(smp.w_l2 / samples[0].w_l2 / (
        math.exp(-r * smp.t) / math.sqrt(1.0 + 4.0 * (1.0 + 3.0 * b) * smp.t / s**2))
        - 1.0) for smp in samples)


def step_rows(monkeypatch, st) -> list[tuple[int, int]]:
    """The shape (S, n) of each stack of S states of n band rows that st
    steps from now on."""
    rows, step = [], st.step_erk4

    def recording_step(c):
        rows.append(c.shape[:-1])
        return step(c)

    monkeypatch.setattr(st, "step_erk4", recording_step)
    return rows


@pytest.fixture(scope="session")
def paper_ref():
    """Reference decay run (B=pi, Lx=30, 1024x32, t_end=40), computed once.

    Takes 17 to 25 s (2-vCPU x86-64 VM, one BLAS thread); shared by the
    energy-identity and weighted-decay acceptance criteria.
    """
    from zkbstrip.cli import paper_ref_run

    return paper_ref_run()


@pytest.fixture
def small_geom():
    return StripGeometry(B=np.pi, Lx=10.0, Nx=128, Ny=16, b=0.1)
