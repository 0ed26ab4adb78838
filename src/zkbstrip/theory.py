"""Closed-form decay constants and functional-inequality verifiers.

The decay analysis for the strip equation balances the weighted energy
production 4b + 10b**2 against the Poincare gain pi**2/B**2 through a
parameter gamma in (0, 1):

    4b + 10b**2 = gamma * pi**2 / B**2,
    16*||u0||**2 / 9 = (1 - gamma)**2 * pi**2 / B**2,
    decay rate chi = b * gamma * (1 - gamma) * pi**2 / B**2.

gamma = 1/2 maximizes gamma*(1-gamma) and yields the closed forms

    b*  = (1/5) * (-1 + sqrt(1 + 5*pi**2/(4*B**2))),
    chi = b* * pi**2 / (4*B**2),

with smallness thresholds 3*pi/(8*B) (regular solutions) and 3*pi/(16*B)
(weak solutions, where only the non-sharp energy bound is available).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .diagnostics import _moments, weighted_sup
from .fields import _band, parseval_sums, quartic_samples
from .geometry import StripGeometry

RELATIVE_SLACK = 1e-10
GN_CONSTANT = 2.0


@dataclass(frozen=True)
class TheoremConstants:
    """Decay constants and smallness thresholds for a given strip width."""

    B: float
    b_star: float
    chi: float
    gamma: float
    reg_threshold: float
    weak_threshold: float


def constants_for_width(B: float) -> TheoremConstants:
    """Evaluate the optimal weight rate, decay rate, and thresholds."""
    if not 0 < B < math.inf:
        raise ValueError(f"strip width B must be positive and finite, got {B}")
    root = math.sqrt(1.0 + 5.0 * math.pi**2 / (4.0 * B * B))
    b_star = (root - 1.0) / 5.0
    return TheoremConstants(
        B=B,
        b_star=b_star,
        chi=b_star * math.pi**2 / (4.0 * B * B),
        gamma=0.5,
        reg_threshold=3.0 * math.pi / (8.0 * B),
        weak_threshold=3.0 * math.pi / (16.0 * B),
    )


class SmallnessCheck(NamedTuple):
    ok: bool
    margin: float
    threshold: float


def check_smallness(u0_norm: float, B: float, regime: str = "regular") -> SmallnessCheck:
    """Whether the initial L2 norm satisfies the decay-theorem threshold."""
    if u0_norm < 0:
        raise ValueError(f"norm must be >= 0, got {u0_norm}")
    consts = constants_for_width(B)
    if regime == "regular":
        threshold = consts.reg_threshold
    elif regime == "weak":
        threshold = consts.weak_threshold
    else:
        raise ValueError(f"unknown regime {regime!r}; choose 'regular' or 'weak'")
    margin = threshold - u0_norm
    return SmallnessCheck(ok=u0_norm <= threshold, margin=margin, threshold=threshold)


def _holds(lhs, rhs):
    return lhs <= rhs * (1.0 + RELATIVE_SLACK) + 1e-300


# One implementation per inequality, ``*_sides(geom, c)``: both sides for
# each member of a stack c (S, n, J) of full-layout coefficients, from one x
# transform, one moment product and (GN, sup) one sine product; every sum
# and maximum runs over one member's axes.  A stack's grids hold S*Nx*Ny
# values, so cli.verify_suite sizes its stacks from the grid.

def steklov_sides(geom: StripGeometry, c: np.ndarray):
    """Weighted Poincare bound (e^{2bx}, u^2) <= (B/pi)^2 (e^{2bx}, u_y^2),
    both sides per member.  Equality holds exactly on fields proportional
    to the first sine mode; mode j alone gives lhs = rhs / j**2."""
    a = _band(geom).x_modes(c)
    m = _moments(geom, a, a)[..., 0, :]
    lam = geom.eigenvalues()[: m.shape[-1]]
    return np.sum(m, axis=-1), (geom.B / math.pi) ** 2 * np.vecdot(m, lam)


def gn_sides(geom: StripGeometry, c: np.ndarray):
    """Plane interpolation bound ||u||_{L4}^2 <= C ||u|| ||grad u||, C the
    paper's GN_CONSTANT 2 (sharp: about 0.413), for u extended by zero off
    the strip, both sides per member.  The L4 norm is a grid sum on the
    smallest grid exact for u**4 (:func:`~zkbstrip.fields.quartic_samples`)."""
    vals, grid = quartic_samples(c, geom)
    # the one grid sum of the package, unweighted: u**2 dotted with itself
    sq = np.multiply(vals, vals, out=vals).reshape(len(c), -1)
    l4sq = np.sqrt(grid.dx * grid.dy * np.vecdot(sq, sq))
    band, (n, J) = _band(geom), c.shape[-2:]
    l2sq, gradsq = parseval_sums(c, band.w_l2[:n], band.w_grad[:n, :J])
    return l4sq, GN_CONSTANT * np.sqrt(l2sq) * np.sqrt(gradsq)


def sup_sides(geom: StripGeometry, c: np.ndarray, pairs):
    """Weighted sup bound for fields vanishing at the channel walls,

    sup |e^{bx} u|^2 <= delta*(1+2b^2)*(e^{2bx},u_y^2) + 2*delta*(e^{2bx},u_xy^2)
                      + (2*delta1/delta)*(e^{2bx},u_x^2)
                      + (1/delta)*(1/delta1 + 2*delta1*b^2)*(e^{2bx},u^2),

    for positive delta, delta1 and the weight rate b of geom: the lhs per
    member, and the rhs per member and (delta, delta1) in pairs."""
    if not all(delta > 0 and delta1 > 0 for delta, delta1 in pairs):
        raise ValueError(f"delta and delta1 must be positive, got {pairs}")
    b = geom.b
    a = _band(geom).x_modes(c, dx=True)
    m, nj = _moments(geom, a, a)[..., 0, :], a.shape[-1] // 2
    sup = weighted_sup(geom, a[..., :nj])
    lam = geom.eigenvalues()[:nj]
    dy_sq, dxy_sq = np.vecdot(m[..., :nj], lam), np.vecdot(m[..., nj:], lam)
    dx_sq, sq = np.sum(m[..., nj:], axis=-1), np.sum(m[..., :nj], axis=-1)
    rhs = [delta * (1.0 + 2.0 * b * b) * dy_sq + 2.0 * delta * dxy_sq
           + (2.0 * delta1 / delta) * dx_sq
           + (1.0 / delta) * (1.0 / delta1 + 2.0 * delta1 * b * b) * sq
           for delta, delta1 in pairs]
    return sup * sup, np.stack(rhs, axis=-1)
