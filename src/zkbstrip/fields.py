"""Fields on the strip: grid/spectral views, derivatives, initial data.

A :class:`Field` stores the complex coefficient tensor c[n, j] of

    u(x, y) = sum_{n,j} c[n, j] * exp(i*k_n*x) * w_j(y),

with k_n = n*pi/Lx kept in rfft layout (n = 0..Nx/2, negative frequencies
implied by conjugate symmetry) and w_j the orthonormal Dirichlet sine
modes.  Real-valuedness and the Dirichlet trace are enforced by the
representation itself.  The one transform between coefficients and grid
samples (:class:`_Band`: an x FFT and a dense type-I sine matrix in y)
serves both the views of a Field and the stepper's dealiased square,
and holds every other read-only table of its geometry.  The x FFTs are
numpy's, which write into given arrays.  The dealiased square copies
its band into a zero-tailed padded buffer before the x irfft (numpy's
own zero-padding inside the transform is slower) and returns one of
its scratch arrays; its band is shared through a cache, so that is
safe from one call to the next, but not across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.fft import irfft, rfft

from .geometry import StripGeometry, evaluate_mode

TAIL_REJECT_THRESHOLD = 1e-8


# ---------------------------------------------------------------------------
# Coefficients <-> grid samples
# ---------------------------------------------------------------------------

def band_shape(geom: StripGeometry) -> tuple[int, int]:
    """(nb, nj): the x slots n < Nx/3 and the y modes j <= 2*Ny/3 kept
    by the 2/3 rule.  The Nyquist slot n = Nx/2 is never among them.

    The first mode of each direction is always retained so degenerate
    grids (Ny in {1, 2}) stay usable.
    """
    return (geom.Nx + 2) // 3, max(1, (2 * geom.Ny) // 3)


class _Band:
    """The 2/3 band of coefficients as a (nj, nb) array, x contiguous.

    Only the first nj y modes and nb x slots are ever non-zero in a run,
    so the stepper keeps just those.  The grid is reached by an x irfft
    of the nj rows, copied into the leading slots of a zero-tailed
    padded buffer, followed by one (Ny, nj) sine product in y; the way
    back is one (nj, Ny) sine product and an x rfft of the nj rows.  Nx
    and the normalisation of the orthonormal modes make up one scale
    factor each way; the stepper's synthesis and analysis matrices carry
    them.  The x derivative of the nonlinear term sits in one per-slot
    factor, ``slot``, which the stepper folds into its ETDRK4 weights,
    so :meth:`square` returns the band spectrum of u**2 itself.  It
    writes its x samples, grid values and spectrum into scratch arrays
    made on its first call, so a band that only serves the transforms
    below never holds them; the rfft output is also the padded irfft
    input of the next call.  One band per geometry also serves
    :func:`to_grid`, :func:`to_spectral` and :meth:`x_modes`, which
    take every y mode of the full sine matrix and scale after the sine
    product, as a plain type-I DST does: a scale folded into the matrix
    rounds the sampled initial data differently, and long contaminated
    runs amplify that last bit to 1e-13 in the tail mass.  Every table
    derived from the geometry is built here, once, and frozen.
    """

    def __init__(self, geom: StripGeometry):
        nb, nj = band_shape(geom)
        self.geom = geom
        self.nb, self.nj = nb, nj
        k, x = geom.wavenumbers(), geom.x_grid()
        # type-I DST matrix: sine mode j = 1..Ny on the interior point y_m
        m = np.arange(1, geom.Ny + 1)
        self.sines = np.sin(np.pi * np.outer(m, m) / (geom.Ny + 1))
        self.grid_scale = geom.Nx * math.sqrt(2.0 / geom.B)
        self.coeff_scale = math.sqrt(2.0 * geom.B) / ((geom.Ny + 1) * geom.Nx)
        self.synthesis = self.grid_scale * self.sines[:, :nj]
        self.analysis = self.sines[:, :nj].T * self.coeff_scale
        # -(u u_x)^hat = -0.5*i*k*(u^2)^hat
        self.slot = (-0.5j) * k[:nb]
        # Parseval weights of ||u||^2, ||u_x||^2 and ||grad u||^2; every
        # rfft slot but the mean and the Nyquist one stands for a +/- pair
        mult = np.full(geom.Nx // 2 + 1, 2.0)
        mult[0] = mult[-1] = 1.0
        self.w_l2 = 2.0 * geom.Lx * mult[:, None]
        k2 = k**2
        self.w_dx = self.w_l2 * k2[:, None]
        self.w_grad = self.w_l2 * (k2[:, None] + geom.eigenvalues()[None, :])
        # i*k_n of the spectral x-derivative, zero on the Nyquist slot
        self.ik = (1j * k)[:, None]
        self.ik[-1] = 0.0
        # x weights of the exp(2bx) trapezoid rule and of the exp(bx) sup
        self.w_x = geom.dx * np.exp(2.0 * geom.b * x)
        self.w_x[0] = geom.dx * math.cosh(2.0 * geom.b * geom.Lx)
        self.w_sup = np.exp(geom.b * x)
        for table in vars(self).values():
            if isinstance(table, np.ndarray):
                table.setflags(write=False)  # shared through the cache
        self._scratch = None

    def gather(self, full: np.ndarray) -> np.ndarray:
        """Full-layout (Nx//2+1, Ny) coefficients, or a Parseval table,
        -> contiguous band array (a copy)."""
        return np.ascontiguousarray(full[: self.nb, : self.nj].T)

    def scatter(self, a: np.ndarray) -> np.ndarray:
        """Band array -> full (Nx//2+1, Ny) coefficients, zero off the band."""
        g = self.geom
        full = np.zeros((g.Nx // 2 + 1, g.Ny), dtype=complex)
        full[: self.nb, : self.nj] = a.T
        return full

    def x_modes(self, full: np.ndarray) -> np.ndarray:
        """Full-layout coefficients -> (Nx, J) amplitudes a_j(x) on the x
        grid of the leading J orthonormal y modes, up to the last mode
        that holds a non-zero coefficient."""
        return irfft(_leading_modes(full), n=self.geom.Nx, axis=0) * self.geom.Nx

    def square(self, a: np.ndarray) -> np.ndarray:
        """(u**2)^ on the band, from the band coefficients a of u, in a
        scratch array that the next call overwrites."""
        g = self.geom
        if self._scratch is None:
            self._scratch = (np.empty((self.nj, g.Nx)),  # x samples, each way
                             np.empty((g.Ny, g.Nx)),  # u, then u^2
                             np.empty((self.nj, g.Nx // 2 + 1), dtype=complex),
                             np.empty((self.nj, self.nb), dtype=complex))
        xs, u, spec, out = self._scratch
        spec[:, : self.nb] = a  # the padded irfft input, then the rfft output
        spec[:, self.nb :] = 0.0
        irfft(spec, n=g.Nx, axis=1, out=xs)
        np.matmul(self.synthesis, xs, out=u)
        np.multiply(u, u, out=u)
        np.matmul(self.analysis, u, out=xs)
        rfft(xs, axis=1, out=spec)
        # contiguous for the stepper: numpy's ufuncs copy a strided 2-D
        # operand into a buffer of its full size
        np.copyto(out, spec[:, : self.nb])
        return out


@lru_cache(maxsize=32)
def _band(geom: StripGeometry) -> _Band:
    return _Band(geom)


def to_spectral(values: np.ndarray, geom: StripGeometry) -> np.ndarray:
    """Grid samples (Nx, Ny) -> coefficient tensor (Nx//2+1, Ny)."""
    band = _band(geom)
    return rfft((values @ band.sines) * band.coeff_scale, axis=0)


def _leading_modes(coeffs: np.ndarray) -> np.ndarray:
    """The columns (y modes) of coeffs up to the last one that holds a
    non-zero coefficient; none for a zero array."""
    live = np.flatnonzero(coeffs.any(axis=0))
    return coeffs[:, : live[-1] + 1 if live.size else 0]


def to_grid(coeffs: np.ndarray, geom: StripGeometry) -> np.ndarray:
    """Coefficients (Nx//2+1, J) of the first J <= Ny y modes -> grid (Nx, Ny).

    Trailing all-zero modes are skipped: the transform is bit-identical
    to the one over them.
    """
    band = _band(geom)
    coeffs = _leading_modes(coeffs)
    sines = band.sines[:, : coeffs.shape[1]]
    return (irfft(coeffs, n=geom.Nx, axis=0) @ sines.T) * band.grid_scale


def parseval_sums(coeffs: np.ndarray, *weights: np.ndarray) -> tuple[float, ...]:
    """Squared norms sum(w * |coeffs|**2), one per Parseval weight table
    w of :class:`_Band` or of the stepper, each |coeffs|**2 made once.

    A table of length 1 along one axis (y: (n, 1) in the full layout,
    (1, nb) in the band one) weights the power summed along that axis,
    one einsum over the float view; any other table weights the power
    itself.
    """
    flat = np.ascontiguousarray(coeffs).view(np.float64)
    summed, power = {}, None
    sums = []
    for w in weights:
        if 1 in w.shape:
            axis = w.shape.index(1)
            if axis not in summed:
                summed[axis] = _summed_power(flat, axis)
            sums.append(float(np.dot(w.ravel(), summed[axis])))
        else:
            if power is None:
                power = coeffs.real**2 + coeffs.imag**2
            sums.append(float(np.sum(w * power)))
    return tuple(sums)


def _summed_power(flat: np.ndarray, axis: int) -> np.ndarray:
    """|c|**2 summed along one axis of a 2-D complex array c, from its
    float view flat (real and imaginary parts interleaved along the last
    axis)."""
    if axis == 1:
        return np.einsum("ij,ij->i", flat, flat)
    parts = np.einsum("ij,ij->j", flat, flat)
    return parts[0::2] + parts[1::2]


class Field:
    """Immutable real field on the strip with a spectral view.

    Construct from coefficients or via :meth:`from_values`.  The grid
    view is synthesised on each access, not cached: the package reads a
    field's grid only once, in the weighted sup.
    """

    __slots__ = ("geometry", "coeffs")

    def __init__(self, geometry: StripGeometry, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        expected = (geometry.Nx // 2 + 1, geometry.Ny)
        if coeffs.shape != expected:
            raise ValueError(f"coefficient shape {coeffs.shape} != {expected}")
        if not np.all(np.isfinite(coeffs.view(np.float64))):
            raise ValueError("field coefficients contain non-finite entries")
        if coeffs[0].imag.any() or coeffs[-1].imag.any():
            raise ValueError("the mean (n = 0) and Nyquist rows of a real "
                             "field must be real")
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    # -- construction -------------------------------------------------

    @classmethod
    def from_values(cls, geometry: StripGeometry, values: np.ndarray) -> "Field":
        values = np.asarray(values, dtype=float)
        if values.shape != (geometry.Nx, geometry.Ny):
            raise ValueError(
                f"value shape {values.shape} != {(geometry.Nx, geometry.Ny)}"
            )
        return cls(geometry, to_spectral(values, geometry))

    @classmethod
    def zeros(cls, geometry: StripGeometry) -> "Field":
        return cls(geometry, np.zeros((geometry.Nx // 2 + 1, geometry.Ny), complex))

    # -- views ---------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        return to_grid(self.coeffs, self.geometry)

    # -- calculus ------------------------------------------------------

    def dx(self) -> "Field":
        """Spectral x-derivative; the Nyquist slot is zeroed (it has no
        consistent real representative)."""
        return Field(self.geometry, self.coeffs * _band(self.geometry).ik)

    # -- norms -----------------------------------------------------------

    def l2sq(self) -> float:
        """Squared L2 norm over the strip, by Parseval."""
        return parseval_sums(self.coeffs, _band(self.geometry).w_l2)[0]

    # -- arithmetic ------------------------------------------------------

    def _check_same_grid(self, other: "Field"):
        if self.geometry != other.geometry:
            raise ValueError("fields live on different grids")

    def __add__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.geometry, self.coeffs + other.coeffs)

    def __sub__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.geometry, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.geometry, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def values_padded(self) -> tuple[np.ndarray, StripGeometry]:
        """Field sampled on the (2*Nx, 2*Ny) refinement of the grid.

        Used for alias-free quadrature of quartic quantities.  Returns the
        sample array and the refined geometry, unweighted (b = 0), for the
        quadrature weights.
        """
        geom = self.geometry
        fine = StripGeometry(geom.B, geom.Lx, 2 * geom.Nx, 2 * geom.Ny)
        pad = np.concatenate([self.coeffs, np.zeros((geom.Nx // 2, geom.Ny))])
        pad[geom.Nx // 2] /= 2.0  # Nyquist splits into +/- pair
        return to_grid(pad, fine), fine


# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InitialData:
    """Specification of the initial field.

    kinds:
      gaussian_mode  : amplitude * exp(-(x-x0)**2/s**2) * w_j(y)
      single_mode    : amplitude * sin(k*(x-x0)) * w_j(y), k an integer
                       multiple of pi/Lx
      custom_samples : explicit (Nx, Ny) grid samples in ``values``

    ``target_l2_norm``, when set, must be positive; it rescales the
    amplitude so the sampled field has exactly that L2 norm.
    """

    kind: str
    amplitude: float = 1.0
    x0: float = 0.0
    s: float = 1.0
    j: int = 1
    k: float = 1.0
    values: np.ndarray | None = None
    target_l2_norm: float | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian_mode", "single_mode", "custom_samples"):
            raise ValueError(f"unknown initial-data kind: {self.kind!r}")
        if self.kind == "gaussian_mode" and not self.s > 0:
            raise ValueError(f"gaussian width s must be positive, got {self.s}")
        if self.kind == "custom_samples" and self.values is None:
            raise ValueError("custom_samples requires explicit values")
        if self.target_l2_norm is not None and not self.target_l2_norm > 0:
            raise ValueError(
                f"target_l2_norm must be positive, got {self.target_l2_norm}")


class InitialField(NamedTuple):
    field: Field
    l2_norm: float
    tail_mass: float


class SupportTooWideError(ValueError):
    """Initial data carries weighted mass too close to the x-boundaries."""


def make_initial_field(init: InitialData, geom: StripGeometry) -> InitialField:
    """Sample initial data on the grid and report its norm and tail mass.

    Localized kinds (gaussian_mode, custom_samples) are rejected when the
    weighted tail mass exceeds 1e-8: such data cannot be represented
    faithfully on the truncated domain.  single_mode data is exempt; it
    is periodic by construction and used for linear exactness tests, not
    for decay experiments.
    """
    from .diagnostics import tail_mass as _tail_mass

    if init.j < 1 or init.j > geom.Ny:
        raise ValueError(f"y-mode j={init.j} outside 1..{geom.Ny}")

    x = geom.x_grid()
    wj = evaluate_mode(init.j, geom.y_grid(), geom.B)

    if init.kind == "gaussian_mode":
        profile = init.amplitude * np.exp(-((x - init.x0) ** 2) / init.s**2)
        vals = profile[:, None] * wj[None, :]
    elif init.kind == "single_mode":
        n = init.k * geom.Lx / np.pi
        if abs(n - round(n)) > 1e-9:
            raise ValueError(
                f"wavenumber k={init.k} is not an integer multiple of pi/Lx"
            )
        if round(n) > geom.Nx // 2:
            raise ValueError(f"wavenumber k={init.k} not representable on the grid")
        vals = init.amplitude * np.sin(init.k * (x - init.x0))[:, None] * wj[None, :]
    else:
        vals = np.asarray(init.values, dtype=float) * init.amplitude

    field = Field.from_values(geom, vals)
    if init.target_l2_norm is not None:
        current = np.sqrt(field.l2sq())
        if current == 0.0:
            raise ValueError("cannot rescale a zero field to a target norm")
        field = field * (init.target_l2_norm / current)

    norm = float(np.sqrt(field.l2sq()))
    tail = _tail_mass(field)
    if init.kind != "single_mode" and tail > TAIL_REJECT_THRESHOLD:
        raise SupportTooWideError(
            f"support too wide for truncation: initial tail mass {tail:.3e} > "
            f"{TAIL_REJECT_THRESHOLD:.0e}"
        )
    return InitialField(field, norm, tail)


def make_random_field(geom: StripGeometry, seed: int) -> Field:
    """Band-limited random field with unit L2 norm.

    Coefficients are drawn from a seeded normal distribution on the block
    n <= max(1, Nx//6), j <= max(1, Ny//3) (half the dealiasing band in
    each direction), making the corpus reproducible across runs.
    """
    nx_max = max(1, geom.Nx // 6)
    j_max = max(1, geom.Ny // 3)

    rng = np.random.default_rng(seed)
    coeffs = np.zeros((geom.Nx // 2 + 1, geom.Ny), dtype=complex)
    block = rng.standard_normal((nx_max + 1, j_max)) + 1j * rng.standard_normal(
        (nx_max + 1, j_max)
    )
    block[0, :] = block[0, :].real  # mean mode of a real field is real
    coeffs[: nx_max + 1, :j_max] = block
    l2 = parseval_sums(coeffs, _band(geom).w_l2)[0]
    return Field(geom, coeffs * float(1.0 / np.sqrt(l2)))
