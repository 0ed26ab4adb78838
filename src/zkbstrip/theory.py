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

from .diagnostics import _modes, _weighted_pairing, weighted_sup
from .fields import Field, _band, parseval_sums

RELATIVE_SLACK = 1e-10


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


class InequalityCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def _holds(lhs: float, rhs: float) -> bool:
    return lhs <= rhs * (1.0 + RELATIVE_SLACK) + 1e-300


def verify_steklov(u: "Field") -> InequalityCheck:
    """Weighted Poincare bound (e^{2bx}, u^2) <= (B/pi)^2 (e^{2bx}, u_y^2).

    Equality is attained exactly on fields proportional to the first
    sine mode; mode j alone gives lhs = rhs / j**2.
    """
    geom, a = u.geometry, _modes(u)
    lhs = _weighted_pairing(geom, a, a)
    rhs = (geom.B / math.pi) ** 2 * _weighted_pairing(geom, a, a, dy=True)
    return InequalityCheck(lhs=lhs, rhs=rhs, holds=_holds(lhs, rhs))


def verify_gn(u: "Field") -> InequalityCheck:
    """Plane interpolation bound ||u||_{L4}^2 <= 2 ||u|| ||grad u||.

    The field is treated as extended by zero outside the strip.  The L4
    norm is integrated on a 2x-refined grid so the quartic is alias-free
    for band-limited fields.
    """
    vals, fine = u.values_padded()
    sq = vals * vals  # numpy's vals**4 is a libm pow call per element
    # the one grid sum of the package: unweighted, on the refined grid
    l4sq = math.sqrt(fine.dy * float(np.sum(fine.dx * sq * sq)))
    band = _band(u.geometry)
    l2sq, gradsq = parseval_sums(u.coeffs, band.w_l2, band.w_grad)
    rhs = 2.0 * math.sqrt(l2sq) * math.sqrt(gradsq)
    return InequalityCheck(lhs=l4sq, rhs=rhs, holds=_holds(l4sq, rhs))


def verify_sup_lemma(u: "Field",
                     pairs: tuple[tuple[float, float], ...]) -> list[InequalityCheck]:
    """Weighted sup bound for fields vanishing at the channel walls:

    sup |e^{bx} u|^2 <= delta*(1+2b^2)*(e^{2bx},u_y^2) + 2*delta*(e^{2bx},u_xy^2)
                      + (2*delta1/delta)*(e^{2bx},u_x^2)
                      + (1/delta)*(1/delta1 + 2*delta1*b^2)*(e^{2bx},u^2),

    for positive delta, delta1: one check per (delta, delta1) in pairs,
    with the weight rate b of the field's geometry.
    """
    if not all(delta > 0 and delta1 > 0 for delta, delta1 in pairs):
        raise ValueError(f"delta and delta1 must be positive, got {pairs}")
    geom, b = u.geometry, u.geometry.b
    sup = weighted_sup(u)
    lhs = sup * sup
    a, ax = _modes(u), _modes(u.dx())
    dy_sq, dxy_sq = (_weighted_pairing(geom, f, f, dy=True) for f in (a, ax))
    dx_sq, sq = (_weighted_pairing(geom, f, f) for f in (ax, a))
    rhs = [
        delta * (1.0 + 2.0 * b * b) * dy_sq
        + 2.0 * delta * dxy_sq
        + (2.0 * delta1 / delta) * dx_sq
        + (1.0 / delta) * (1.0 / delta1 + 2.0 * delta1 * b * b) * sq
        for delta, delta1 in pairs
    ]
    return [InequalityCheck(lhs=lhs, rhs=r, holds=_holds(lhs, r)) for r in rhs]
