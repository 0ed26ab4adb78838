"""Strip geometry and the Dirichlet sine eigenbasis.

The channel strip is periodic in x on [-Lx, Lx) and carries homogeneous
Dirichlet conditions at y = 0 and y = B.  In y we use the orthonormal
eigenbasis of -d2/dy2,

    w_j(y) = sqrt(2/B) * sin(j*pi*y/B),   lambda_j = (j*pi/B)**2,

sampled on the uniform interior grid y_m = m*B/(Ny+1), m = 1..Ny, where
the modes are discretely orthogonal and the Dirichlet conditions hold by
construction; the transforms between mode coefficients and grid samples
live in :mod:`zkbstrip.fields`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StripGeometry:
    """Discretized channel strip.

    B  : strip width, y in (0, B)
    Lx : x-truncation half-length, x in [-Lx, Lx) periodic
    Nx : number of x grid points (even)
    Ny : number of interior y grid points / sine modes
    b  : rate of the exponential weight exp(2*b*x) used by the
         weighted diagnostics (b >= 0; b = 0 disables the weighting)
    """

    B: float
    Lx: float
    Nx: int
    Ny: int
    b: float = 0.0

    def __post_init__(self):
        if not 0 < self.B < math.inf:
            raise ValueError(
                f"strip width B must be positive and finite, got {self.B}")
        if not 0 < self.Lx < math.inf:
            raise ValueError(
                f"half-length Lx must be positive and finite, got {self.Lx}")
        if self.Nx < 4 or self.Nx % 2 != 0:
            raise ValueError(f"Nx must be even and >= 4, got {self.Nx}")
        if self.Ny < 1:
            raise ValueError(f"Ny must be >= 1, got {self.Ny}")
        if not 0 <= self.b < math.inf:
            raise ValueError(f"weight rate b must be >= 0 and finite, got {self.b}")

    @property
    def dx(self) -> float:
        return 2.0 * self.Lx / self.Nx

    @property
    def dy(self) -> float:
        """Quadrature weight of the interior y grid."""
        return self.B / (self.Ny + 1)

    def x_grid(self) -> np.ndarray:
        return -self.Lx + self.dx * np.arange(self.Nx)

    def y_grid(self) -> np.ndarray:
        return self.dy * np.arange(1, self.Ny + 1)

    def wavenumbers(self) -> np.ndarray:
        """Physical x-wavenumbers k_n = n*pi/Lx carried by the rfft slots."""
        return (np.pi / self.Lx) * np.arange(self.Nx // 2 + 1)

    def eigenvalues(self) -> np.ndarray:
        return eigenvalue(np.arange(1, self.Ny + 1), self.B)


def eigenvalue(j, B: float):
    """Eigenvalue lambda_j = (j*pi/B)**2 of the Dirichlet sine mode j."""
    j = np.asarray(j)
    if np.any(j < 1):
        raise ValueError(f"mode index must be >= 1, got {j}")
    if not 0 < B < math.inf:
        raise ValueError(f"strip width B must be positive and finite, got {B}")
    return (j * np.pi / B) ** 2


def evaluate_mode(j: int, y, B: float):
    """Evaluate the orthonormal mode w_j(y) = sqrt(2/B)*sin(j*pi*y/B)."""
    if j < 1:
        raise ValueError(f"mode index must be >= 1, got {j}")
    if not 0 < B < math.inf:
        raise ValueError(f"strip width B must be positive and finite, got {B}")
    y = np.asarray(y, dtype=float)
    if np.any(y < 0) or np.any(y > B):
        raise ValueError(f"y must lie in [0, {B}]")
    return np.sqrt(2.0 / B) * np.sin(j * np.pi * y / B)

