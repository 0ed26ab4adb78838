"""Fields on the strip: grid/spectral views, derivatives, initial data.

A :class:`Field` stores the complex coefficient tensor c[n, j] of

    u(x, y) = sum_{n,j} c[n, j] * exp(i*k_n*x) * w_j(y),

with k_n = n*pi/Lx kept in rfft layout (n = 0..Nx/2, negative frequencies
implied by conjugate symmetry) and w_j the orthonormal Dirichlet sine
modes.  Real-valuedness and the Dirichlet trace are enforced by the
representation itself.  One band per geometry (:class:`_Band`: an x
FFT and a dense type-I sine matrix in y) holds every read-only table of
that geometry.  Coefficients reach the grid by two paths that read its
tables: the stepper's dealiased square (``solver.Stepper.nonlinear_rhs``)
and, for every reader of a Field or of a stack (S, n, J) of fields cut to
their live n x slots and J y modes (:func:`random_blocks`), an x
transform to the amplitudes a_j(x) of the y modes, then one sine product
for grid values, one transform per stack.  The x FFTs are numpy's.  The
band keeps its odd y modes first: the odd sine modes are even about
y = B/2, so data with no even mode (an exactly zero even block) is
squared from its odd block on the top half of the grid alone.
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
TAIL_BAND_FRACTION = 0.1


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
    so the stepper keeps just those, the odd modes j = 1, 3, ... in the
    first n_odd rows and the even ones after them (``order`` maps a row
    to its column j - 1 of the full layout).  The band holds read-only
    tables alone, nothing that a product writes.  The stepper's product
    (``solver.Stepper.nonlinear_rhs``) reaches the grid by an x irfft of
    the rows and one (Ny, nj) sine product in y, ``synthesis``, and comes
    back by one (nj, Ny) sine product, ``analysis``, and an x rfft.  Rows
    of the odd block alone stand for an all-zero even block: such data
    is even about y = B/2, and so is its square, so the products take
    only the odd modes on the top (Ny + 1)//2 grid rows, each row but an
    unpaired middle one (Ny odd) weighted twice for its mirror in
    ``analysis_odd``: a quarter of the flops of the full products.  Nx
    and the normalisation of the orthonormal modes make up one scale
    factor each way, carried by those matrices.  The x derivative of the
    nonlinear term sits in one per-slot factor, ``slot``, which the
    stepper folds into its ETDRK4 weights, so its product returns the
    band spectrum of u**2 itself.  The band also serves
    :func:`to_spectral` and the other way from coefficients to grid
    values: :meth:`x_modes`, the amplitudes every diagnostic reads, then
    :meth:`grid` (:func:`to_grid` composes the two).  These take every y
    mode of the full sine matrix, its arguments m*j reduced modulo
    2(Ny + 1), and scale after the sine product, as a plain type-I DST
    does: at Ny = 512 both match scipy's DST-I to 1e-15 (6e-14 unreduced,
    a last-bit change that moves 400 paper-ref steps only in their tail
    mass, by 4e-12 of itself).  Every table derived from the geometry is
    built here, once, and frozen.
    """

    def __init__(self, geom: StripGeometry):
        nb, nj = band_shape(geom)
        self.geom = geom
        self.nb, self.nj = nb, nj
        k, x = geom.wavenumbers(), geom.x_grid()
        # type-I DST matrix, sin(pi*m*j/(Ny + 1)), m*j reduced mod 2(Ny + 1)
        m = np.arange(1, geom.Ny + 1)
        mj = np.outer(m, m) % (2 * geom.Ny + 2)
        self.sines = np.sin(np.pi * mj / (geom.Ny + 1))
        self.mode_scale = math.sqrt(2.0 / geom.B)
        self.coeff_scale = math.sqrt(2.0 * geom.B) / ((geom.Ny + 1) * geom.Nx)
        # band rows: the odd modes j = 1, 3, ... first, then the even ones
        self.order = np.r_[0:nj:2, 1:nj:2]
        self.n_odd = (nj + 1) // 2
        self.synthesis = (geom.Nx * self.mode_scale) * self.sines[:, self.order]
        self.analysis = self.sines[:, self.order].T * self.coeff_scale
        # the odd block's half grid: the top Ny//2 rows stand for their
        # mirrors too, the unpaired middle row (Ny odd) for itself
        half = (geom.Ny + 1) // 2
        fold = np.full(half, 2.0)
        fold[geom.Ny // 2 :] = 1.0
        self.synthesis_odd = self.synthesis[:half, : self.n_odd].copy()
        self.analysis_odd = self.analysis[: self.n_odd, :half] * fold
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
        # x weights of the exp(2bx) trapezoid rule, over the period and
        # over the outer x-bands of the tail mass, and of the exp(bx) sup
        self.w_x = np.empty((2, geom.Nx))
        self.w_x[0] = geom.dx * np.exp(2.0 * geom.b * x)
        self.w_x[0, 0] = geom.dx * math.cosh(2.0 * geom.b * geom.Lx)
        edge = (1.0 - 2.0 * TAIL_BAND_FRACTION) * geom.Lx
        self.w_x[1] = np.where(np.abs(x) >= edge, self.w_x[0], 0.0)
        self.w_sup = np.exp(geom.b * x)
        for table in vars(self).values():
            if isinstance(table, np.ndarray):
                table.setflags(write=False)  # shared through the cache

    def gather(self, full: np.ndarray) -> np.ndarray:
        """Full-layout (Nx//2+1, Ny) coefficients -> contiguous band
        array (a copy), rows in band order."""
        return full[: self.nb, self.order].T.copy()

    def scatter(self, a: np.ndarray) -> np.ndarray:
        """Band array, or its odd block alone, -> full (Nx//2+1, Ny)
        coefficients, zero off the band."""
        g = self.geom
        full = np.zeros((g.Nx // 2 + 1, g.Ny), dtype=complex)
        full[: self.nb, self.order[: len(a)]] = a.T
        return full

    def x_modes(self, coeffs: np.ndarray, dx: bool = False) -> np.ndarray:
        """Full-layout coefficients, or a stack (S, n, J) of their first n x
        slots and J y modes -> (Nx, J) amplitudes a_j(x) per member on the x
        grid of the leading J orthonormal y modes, up to the last live one;
        with dx, (Nx, 2J): those of u, then of u_x.  One x transform."""
        c = _leading_modes(coeffs)
        if dx:
            c = np.concatenate([c, c * self.ik[: c.shape[-2]]], axis=-1)
        return irfft(c, n=self.geom.Nx, axis=-2) * self.geom.Nx

    def grid(self, a: np.ndarray) -> np.ndarray:
        """(Nx, J) amplitudes of the leading J y modes (:meth:`x_modes`),
        per member -> (Nx, Ny) grid values, by one sine product in y."""
        return (a @ self.sines[:, : a.shape[-1]].T) * self.mode_scale


@lru_cache(maxsize=32)
def _band(geom: StripGeometry) -> _Band:
    return _Band(geom)


def to_spectral(values: np.ndarray, geom: StripGeometry) -> np.ndarray:
    """Grid samples (Nx, Ny) -> coefficient tensor (Nx//2+1, Ny)."""
    band = _band(geom)
    return rfft((values @ band.sines) * band.coeff_scale, axis=0)


def _leading_modes(coeffs: np.ndarray) -> np.ndarray:
    """The columns (y modes) of coeffs, or of a stack of them, up to the
    last one that holds a non-zero coefficient; none for a zero array."""
    live = np.flatnonzero(coeffs.any(axis=tuple(range(coeffs.ndim - 1))))
    return coeffs[..., : live[-1] + 1 if live.size else 0]


def to_grid(coeffs: np.ndarray, geom: StripGeometry) -> np.ndarray:
    """Coefficients (n, J) of the first n x slots and J y modes, or a stack
    of them -> grid (Nx, Ny) per member: :meth:`_Band.x_modes`, then grid."""
    band = _band(geom)
    return band.grid(band.x_modes(coeffs))


def parseval_sums(coeffs: np.ndarray, *weights: np.ndarray) -> tuple[float, ...]:
    """Squared norms sum(w * |coeffs|**2), one per Parseval weight table
    w of :class:`_Band` or of the stepper, each |coeffs|**2 made once;
    for a stack (S, n, J) of either layout, one sum per member.

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
            sums.append(np.vecdot(summed[axis], w.ravel()))
        else:
            if power is None:
                power = coeffs.real**2 + coeffs.imag**2
            sums.append(np.sum(w * power, axis=(-2, -1)))
    return tuple(sums)


def _summed_power(flat: np.ndarray, axis: int) -> np.ndarray:
    """|c|**2 summed along one of the last two axes of a complex array c,
    2-D or a stack of them, from its float view flat (real and imaginary
    parts interleaved along the last axis)."""
    if axis == 1:
        return np.einsum("...ij,...ij->...i", flat, flat)
    parts = np.einsum("...ij,...ij->...j", flat, flat)
    return parts[..., 0::2] + parts[..., 1::2]


def _check_coeffs(coeffs: np.ndarray, *real: np.ndarray) -> None:
    """A Field's checks: all coefficients finite, the given rows real."""
    if not np.all(np.isfinite(coeffs.view(np.float64))):
        raise ValueError("field coefficients contain non-finite entries")
    if any(row.imag.any() for row in real):
        raise ValueError("the mean (n = 0) and Nyquist rows of a real "
                         "field must be real")


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Field:
    """Immutable real field on the strip with a spectral view.

    Construct from complex128 coefficients, or from grid values as
    ``Field(geometry, to_spectral(values, geometry))``; its grid values
    are ``to_grid(coeffs, geometry)``.
    """

    geometry: StripGeometry
    coeffs: np.ndarray

    def __post_init__(self):
        c, g = self.coeffs, self.geometry
        if getattr(c, "dtype", None) != np.complex128:
            raise TypeError("field coefficients must be a complex128 array")
        expected = (g.Nx // 2 + 1, g.Ny)
        if c.shape != expected:
            raise ValueError(f"coefficient shape {c.shape} != {expected}")
        _check_coeffs(c, c[0], c[-1])

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


def quartic_samples(coeffs: np.ndarray,
                    geom: StripGeometry) -> tuple[np.ndarray, StripGeometry]:
    """Coefficients of a field, or a stack of them (as :func:`to_grid`),
    sampled on the smallest grid, of fx*Nx by fy*Ny points, that
    integrates u**4 exactly: fx the least of 1, 2, 4 with 4*n_max < fx*Nx
    (n_max the last x slot with a non-zero coefficient in any member;
    periodic trapezoid rule; only a live Nyquist slot needs 4*Nx), fy = 1
    when 2*J <= Ny (J the leading live y modes; interior rectangle rule)
    and 2 otherwise.  Returns the samples, per member, and their
    unweighted (b = 0) geometry, for the quadrature weights."""
    c = _leading_modes(coeffs)
    n_max = np.flatnonzero(c.any(-1).any(tuple(range(c.ndim - 2)))).max(initial=0)
    fx = next(f for f in (1, 2, 4) if 4 * n_max < f * geom.Nx)
    fy = 1 if 2 * c.shape[-1] <= geom.Ny else 2
    grid = StripGeometry(geom.B, geom.Lx, fx * geom.Nx, fy * geom.Ny)
    if n_max == geom.Nx // 2:  # a live Nyquist slot splits into a +/- pair
        c = np.concatenate([c[..., :-1, :], c[..., -1:, :] / 2.0], axis=-2)
    return to_grid(c, grid), grid  # its x irfft zero-pads the finer slots


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
    """Sample initial data on the grid; return the field a run steps, the
    samples' 2/3 band projection, with its norm and tail mass.

    Data holding more than 1e-8 of its squared norm off the band (x slots
    n >= nb, the Nyquist one among them, or y modes j > nj) is refused.
    Localized kinds (gaussian_mode, custom_samples) are also rejected when
    the weighted tail mass exceeds 1e-8: such data cannot be represented
    faithfully on the truncated domain.  single_mode data is exempt; it
    is periodic by construction and used for linear exactness tests, not
    for decay experiments.  Both kinds that sample one sine mode w_j
    keep only its column j - 1 of the transform; the others hold only
    rounding, and are set to exact zeros.  Their mode, and the x slot of
    single_mode data, must lie in the band.
    """
    from .diagnostics import tail_mass as _tail_mass

    nb, nj = band_shape(geom)
    if init.j < 1 or init.j > geom.Ny:
        raise ValueError(f"y-mode j={init.j} outside 1..{geom.Ny}")
    if init.kind != "custom_samples" and init.j > nj:
        raise ValueError(f"y-mode j={init.j} outside the 2/3 band j <= {nj}")

    x = geom.x_grid()
    wj = evaluate_mode(init.j, geom.y_grid(), geom.B)

    if init.kind == "gaussian_mode":
        profile = init.amplitude * np.exp(-((x - init.x0) ** 2) / init.s**2)
        vals = profile[:, None] * wj[None, :]
    elif init.kind == "single_mode":
        n = init.k * geom.Lx / np.pi
        if abs(n - round(n)) > 1e-9:
            raise ValueError(
                f"wavenumber k={init.k} is not an integer multiple of pi/Lx")
        if round(n) > geom.Nx // 2:
            raise ValueError(f"wavenumber k={init.k} not representable on the grid")
        if abs(round(n)) >= nb:
            raise ValueError(f"wavenumber k={init.k} outside the 2/3 band n < {nb}")
        vals = init.amplitude * np.sin(init.k * (x - init.x0))[:, None] * wj[None, :]
    else:
        vals = np.asarray(init.values, dtype=float) * init.amplitude
        if vals.shape != (geom.Nx, geom.Ny):
            raise ValueError(f"value shape {vals.shape} != {(geom.Nx, geom.Ny)}")

    band = _band(geom)
    c = to_spectral(vals, geom)
    if init.kind != "custom_samples":
        # by DST-I orthogonality the samples of w_j hold no other y mode:
        # every other column is rounding, and would break the y parity
        c[:, np.arange(geom.Ny) != init.j - 1] = 0.0
    if init.target_l2_norm is not None:
        current = np.sqrt(parseval_sums(c, band.w_l2)[0])
        if current == 0.0:
            raise ValueError("cannot rescale a zero field to a target norm")
        c *= init.target_l2_norm / current
    total = parseval_sums(c, band.w_l2)[0]
    field = Field(geom, band.scatter(band.gather(c)))
    c[:nb, :nj] = 0.0  # what the band leaves out
    lost = parseval_sums(c, band.w_l2)[0] / (total or 1.0)
    if lost > TAIL_REJECT_THRESHOLD:
        raise ValueError(f"initial data outside the 2/3 band n < {nb}, j <= {nj}: "
                         f"{lost:.3e} of its squared norm > {TAIL_REJECT_THRESHOLD:.0e}")
    norm = float(np.sqrt(field.l2sq()))
    tail = _tail_mass(field)
    if init.kind != "single_mode" and tail > TAIL_REJECT_THRESHOLD:
        raise SupportTooWideError(
            f"support too wide for truncation: initial tail mass {tail:.3e} > "
            f"{TAIL_REJECT_THRESHOLD:.0e}")
    return InitialField(field, norm, tail)


def random_blocks(geom: StripGeometry, seeds) -> np.ndarray:
    """The verifiers' corpus: a stack (S, n, J), one member per seed, of
    band-limited random fields of unit L2 norm stored on their live block
    alone, the first n = max(1, Nx//6) + 1 x slots and J = max(1, Ny//3) y
    modes (half the dealiasing band each way) in the full layout's order.
    ``cli.verify_suite`` sizes its stacks from the grid.  One seeded normal
    draw per field, then one Parseval pass and a Field's checks per stack."""
    n, J = max(1, geom.Nx // 6) + 1, max(1, geom.Ny // 3)
    c = np.array([np.random.default_rng(s).standard_normal((2, n, J)) for s in seeds])
    c = c[:, 0] + 1j * c[:, 1]
    c[:, 0] = c[:, 0].real  # mean mode of a real field is real
    c *= (1.0 / np.sqrt(parseval_sums(c, _band(geom).w_l2[:n])[0]))[:, None, None]
    _check_coeffs(c, c[:, 0])
    return c
