"""Time integration of the channel-strip wave equation.

The evolved equation is

    u_t - u_xx + u*u_x + u_xxx + u_xyy + c*u_x = 0,

with c in {0, 1} an optional linear convection switch (off by default).
In the Fourier x sine-mode y representation every mode obeys

    dc/dt = sigma(k, lambda) * c - (u u_x)^hat,
    sigma = -k**2 + i*k*(k**2 + lambda - c),

so the linear part is diagonal and is integrated exactly by a
fourth-order exponential Runge-Kutta scheme; the quadratic term is formed
pseudospectrally as 0.5*d/dx(u^2) with 2/3-rule dealiasing, which keeps
the discrete pairing (u*u_x, u) at exact zero.  The stepper's state holds
only the coefficients inside the 2/3 band, y modes by x slots with x
contiguous; the full (Nx//2+1, Ny) layout of a Field is rebuilt only for
output.  The factor -0.5*i*k of the derivative is folded into the ETDRK4
weights once, so each stage takes the band spectrum of u^2 as it comes
from the transforms, and a step forms its stages in four buffers of the
stepper and allocates only its result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .diagnostics import TimeSeries, sample_field
from .fields import Field, _band, band_shape, parseval_sums
from .geometry import StripGeometry

DISPERSION_SANITY_LIMIT = 50.0
BLOWUP_NORM_FACTOR = 1e6


def linear_symbol(k, lam, convection: int = 0):
    """Per-mode rate: Re = -k^2 (dissipation), Im = k*(k^2+lam-c).

    Scalars give a complex; arrays broadcast to an array of rates.
    """
    if np.any(np.asarray(lam) < 0):
        raise ValueError(f"eigenvalue must be >= 0, got {lam}")
    sigma = -(k * k) + 1j * k * (k * k + lam - convection)
    return complex(sigma) if np.ndim(sigma) == 0 else sigma


@dataclass(frozen=True)
class SolverConfig:
    """Time-integration parameters.

    A sample is recorded every output_every steps and at t_end; the
    dissipation integral is accumulated by the trapezoid rule at every
    step, whatever the sampling.  nonlinear=False forces N(u) == 0,
    leaving the pure (exactly integrated) linear flow.
    """

    dt: float
    t_end: float
    convection: int = 0
    output_every: int = 1
    nonlinear: bool = True

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if self.convection not in (0, 1):
            raise ValueError(f"convection flag must be 0 or 1, got {self.convection}")
        if self.output_every < 1:
            raise ValueError(f"output_every must be >= 1, got {self.output_every}")


class BlowUpError(RuntimeError):
    """Raised when a run produces non-finite values or a norm explosion."""

    def __init__(self, t: float, last_l2: float, series: TimeSeries):
        super().__init__(f"solution blew up at t = {t:.6g} (l2 = {last_l2:.3e})")
        self.t = t
        self.last_l2 = last_l2
        self.series = series


def check_dispersion_sanity(geom: StripGeometry, cfg: SolverConfig):
    """Guard the explicit nonlinear stage against extreme phase rotation.

    Evaluated on the x slots of the 2/3 band at the gravest
    y-eigenvalue, where the cubic x-dispersion dominates; the
    exponential integrator itself is exact on the linear part at any dt.
    """
    k = geom.wavenumbers()[: band_shape(geom)[0]]
    sigma = linear_symbol(k, geom.eigenvalues()[0], cfg.convection)
    stiff = float(np.max(np.abs(sigma.imag)))
    if cfg.dt * stiff >= DISPERSION_SANITY_LIMIT:
        raise ValueError(
            f"dt*max|Im sigma| = {cfg.dt * stiff:.1f} exceeds "
            f"{DISPERSION_SANITY_LIMIT}; reduce dt or the resolution"
        )


def _phi123(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi_1, phi_2, phi_3 with a series branch for small |z|."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1.0
    zs = np.where(small, 1.0, z)  # dummy value, replaced below
    ez = np.exp(zs)
    p1 = (ez - 1.0) / zs
    p2 = (ez - 1.0 - zs) / zs**2
    p3 = (ez - 1.0 - zs - zs**2 / 2.0) / zs**3
    s1 = np.zeros_like(z)
    s2 = np.zeros_like(z)
    s3 = np.zeros_like(z)
    term = np.ones_like(z)
    for n in range(19):
        s1 += term / math.factorial(n + 1)
        s2 += term / math.factorial(n + 2)
        s3 += term / math.factorial(n + 3)
        term = term * z
    return (
        np.where(small, s1, p1),
        np.where(small, s2, p2),
        np.where(small, s3, p3),
    )


class Stepper:
    """Precomputed coefficients and transforms for one geometry, time
    step, convection flag and nonlinear switch: all that a step reads.

    It steps the band array of :class:`fields._Band`: every coefficient
    table below has its (nj, nb) shape, or (1, nb) for the norm weights.
    The weights M, f1, f2, f3 carry the derivative factor ``band.slot``.
    The tables are frozen, since the stepper is shared through a cache;
    its stage buffers make a step safe from one call to the next, but
    not across threads.
    """

    def __init__(self, geom: StripGeometry, dt: float, convection: int = 0,
                 nonlinear: bool = True):
        self.nonlinear = nonlinear
        self.band = band = _band(geom)
        sigma = linear_symbol(geom.wavenumbers()[None, : band.nb],
                              geom.eigenvalues()[: band.nj, None],
                              convection)
        self.w_l2 = band.gather(band.w_l2)
        self.w_dx = band.gather(band.w_dx)

        z = dt * sigma
        self.E = np.exp(z)
        self.E2 = np.exp(z / 2.0)
        p1h, _, _ = _phi123(z / 2.0)
        p1, p2, p3 = _phi123(z)
        self.M = (dt / 2.0) * p1h * band.slot
        self.f1 = dt * (p1 - 3.0 * p2 + 4.0 * p3) * band.slot
        self.f2 = 2.0 * dt * (p2 - 2.0 * p3) * band.slot  # weight of na and nb
        self.f3 = dt * (4.0 * p3 - p2) * band.slot
        for table in vars(self).values():
            if isinstance(table, np.ndarray):
                table.setflags(write=False)  # shared through the cache
        self._stages = tuple(np.empty_like(self.E) for _ in range(4))

    def nonlinear_rhs(self, c: np.ndarray) -> np.ndarray:
        """(u^2)^ on the band, in scratch that the next call overwrites;
        the weights turn it into -(u u_x)^hat."""
        return self.band.square(c)

    def step_erk4(self, c: np.ndarray) -> np.ndarray:
        if not self.nonlinear:
            return self.E * c
        # Each stage sum of
        #   a = E2*c + M*n0,  b = E2*c + M*na,  cc = E2*a + M*(nb*2 - n0),
        #   E*c + f1*n0 + f2*na + f2*nb + f3*nc
        # is formed in place, left to right.  A product n is the band's
        # scratch, used up before the next one; only n0 is kept.
        e2c, n0, a, tmp = self._stages
        out = np.multiply(self.E, c)
        np.multiply(self.E2, c, out=e2c)
        n = self.nonlinear_rhs(c)
        np.copyto(n0, n)
        out += np.multiply(self.f1, n, out=n)
        np.multiply(self.M, n0, out=a)
        a += e2c
        n = self.nonlinear_rhs(a)
        b = np.multiply(self.M, n, out=tmp)
        b += e2c
        out += np.multiply(self.f2, n, out=n)
        n = self.nonlinear_rhs(b)
        out += np.multiply(self.f2, n, out=tmp)
        n *= 2.0
        n -= n0
        cc = np.multiply(self.E2, a, out=a)
        cc += np.multiply(self.M, n, out=n)
        n = self.nonlinear_rhs(cc)
        out += np.multiply(self.f3, n, out=n)
        return out


# Keyed on what a step reads, so runs that differ in t_end or the
# sampling share one stepper: its tables and its stage buffers
_stepper = lru_cache(maxsize=8)(Stepper)


def run(u0: Field, cfg: SolverConfig, *, observer=None) -> TimeSeries:
    """Integrate to t_end, sampling diagnostics every output_every steps.

    Returns the diagnostics series, whose status reads "contaminated"
    (the series is still returned) when the weighted tail mass ever
    exceeds 1e-6 at a snapshot.  Runs on one geometry with the same dt,
    convection flag and nonlinear switch share one cached stepper.
    Non-finite values or a norm explosion raise :class:`BlowUpError`
    with the partial series attached.  When given, ``observer(sample,
    u)`` is called with each recorded sample and its Field; if it
    returns True, the run ends at that sample.
    """
    geom = u0.geometry
    check_dispersion_sanity(geom, cfg)
    st = _stepper(geom, cfg.dt, cfg.convection, cfg.nonlinear)
    c = st.band.gather(u0.coeffs)

    n_steps = int(round(cfg.t_end / cfg.dt))
    if abs(n_steps * cfg.dt - cfg.t_end) > 1e-9 * max(1.0, cfg.t_end):
        raise ValueError(
            f"t_end = {cfg.t_end} is not an integer number of steps of {cfg.dt}"
        )

    series = TimeSeries(geometry=geom, samples=[])

    l2_0, dxsq = parseval_sums(c, st.w_l2, st.w_dx)
    blow_limit = max(BLOWUP_NORM_FACTOR**2 * l2_0, 1e-300)
    diss = 0.0
    f_prev = 2.0 * dxsq

    def record(step_idx: int, l2_now: float) -> bool:
        """Append a sample; True when the observer ends the run."""
        f = Field(geom, st.band.scatter(c))
        sample = sample_field(f, t=step_idx * cfg.dt, l2=l2_now, diss_cum=diss)
        series.samples.append(sample)
        return observer is not None and bool(observer(sample, f))

    if record(0, l2_0):
        n_steps = 0  # the observer ended the run at its first sample
    for n in range(1, n_steps + 1):
        c = st.step_erk4(c)
        l2_now, dxsq = parseval_sums(c, st.w_l2, st.w_dx)
        if not math.isfinite(l2_now) or l2_now > blow_limit:
            raise BlowUpError(n * cfg.dt, l2_now, series)
        f_now = 2.0 * dxsq
        diss += 0.5 * cfg.dt * (f_prev + f_now)
        f_prev = f_now
        if n % cfg.output_every == 0 or n == n_steps:
            if record(n, l2_now):
                break

    return series
