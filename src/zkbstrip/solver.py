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
the discrete pairing (u*u_x, u) at exact zero.  A run's state holds
only the coefficients inside the 2/3 band, n y modes by x slots with x
contiguous, odd modes first; :func:`advance`, the one stepping loop,
steps runs that share a stepper and n as one stack (S, n, nb), one band
product per stage and one Parseval pass per step for all S (a run alone
is a stack of one).  The full (Nx//2+1, Ny) layout of a
Field is rebuilt only for output: :func:`evolve` advances one run, and
:func:`run` keeps its samples.
The equation and the Dirichlet conditions are unchanged by y -> B - y,
so data even about y = B/2 (no even sine mode) stays so for all time:
when the even block of the initial state is exactly zero, with no
tolerance, the run steps the odd block alone, whose square takes half the y grid.
The stepper forms the dealiased product itself, from the band's
read-only tables.  The factor -0.5*i*k of the derivative is folded into
the ETDRK4 weights once, so each stage takes the band spectrum of u^2 as
it comes from the transforms.  A step writes its stages and the
product's transforms into the stepper's one workspace, made for the
shape of the stack last stepped, and allocates only its result.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import irfft, rfft

from .diagnostics import NormSample, TimeSeries, sample_field
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
    return -(k * k) + 1j * k * (k * k + lam - convection)


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
        # run counts steps to t_end and samples at multiples of output_every
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0 <= self.t_end < math.inf:
            raise ValueError(f"t_end must be >= 0 and finite, got {self.t_end}")
        if self.convection not in (0, 1):
            raise ValueError(f"convection flag must be 0 or 1, got {self.convection}")
        if not isinstance(self.output_every, numbers.Integral) or self.output_every < 1:
            raise ValueError(
                f"output_every must be an integer >= 1, got {self.output_every}")


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
    step, convection flag and nonlinear switch: all that a step reads,
    and the one workspace that a step writes.

    It steps a stack (S, n, nb) of S band arrays of :class:`fields._Band`,
    n the band's nj rows or the n_odd of its odd block alone.  Every
    coefficient table below has the (nj, nb) shape of the band, or
    (1, nb) for the norm weights; a step runs its stage sums on the
    stack, against the leading n rows of each table tiled to (S, n, nb).
    The weights M, f1, f2, f3 carry the derivative factor ``band.slot``.
    The tables are frozen (the stepper is shared through a cache).  The
    workspace holds the buffers of the shape of the stack last stepped,
    rebuilt when that changes; a step is safe from one call to the next,
    not across threads.
    """

    def __init__(self, geom: StripGeometry, dt: float, convection: int = 0,
                 nonlinear: bool = True):
        self.nonlinear = nonlinear
        self.band = band = _band(geom)
        sigma = linear_symbol(geom.wavenumbers()[None, : band.nb],
                              geom.eigenvalues()[band.order, None],
                              convection)
        self.w_l2 = band.w_l2[: band.nb].T
        self.w_dx = band.w_dx[: band.nb].T

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
        self._work = None  # (S, n) of the stack last stepped, and its buffers

    def _workspace(self, S: int, n: int) -> tuple[np.ndarray, ...]:
        """The buffers of an (S, n, nb) stack: each table's leading n rows,
        tiled to (S, n, nb) (broadcast tables lose numpy's contiguous fast
        path), four stage buffers, and the product's x samples, grid
        values, padded spectrum and result."""
        if self._work is None or self._work[0] != (S, n):
            g = self.band.geom
            tables = [t[None, :n] if S == 1 else np.tile(t[:n], (S, 1, 1)) for t in (
                self.E, self.E2, self.M, self.f1, self.f2, self.f3)]
            for table in tables:
                table.setflags(write=False)
            ny = g.Ny if n == self.band.nj else (g.Ny + 1) // 2  # grid rows
            self._work = (S, n), (
                *tables, *(np.empty_like(tables[0]) for _ in range(4)),
                np.empty((S, n, g.Nx)), np.empty((S, ny, g.Nx)),
                np.empty((S, n, g.Nx // 2 + 1), dtype=complex),
                np.empty_like(tables[0]))
        return self._work[1]

    def nonlinear_rhs(self, c: np.ndarray) -> np.ndarray:
        """(u**2)^ on the band, from the band coefficients of u, a
        C-contiguous stack (S, n, nb): one x irfft of all rows, one sine
        product each way broadcast over the stack, one rfft.  The weights
        turn it into -(u u_x)^hat.  n = n_odd odd rows stand for data
        with an all-zero even block, whose square has one too: the
        product then takes the half grid and returns the odd rows.  The
        result is the workspace's, which the next product overwrites."""
        band, Nx = self.band, self.band.geom.Nx
        synthesis, analysis = ((band.synthesis, band.analysis) if c.shape[1] == band.nj
                               else (band.synthesis_odd, band.analysis_odd))
        *_, xs, u, spec, out = self._workspace(*c.shape[:2])
        spec[..., : band.nb] = c  # the padded irfft input, then the rfft output
        spec[..., band.nb :] = 0.0
        irfft(spec, n=Nx, axis=-1, out=xs)
        np.matmul(synthesis, xs, out=u)
        np.multiply(u, u, out=u)
        np.matmul(analysis, u, out=xs)
        rfft(xs, axis=-1, out=spec)
        # contiguous for the stage sums: numpy's ufuncs copy a strided
        # operand into a buffer of its full size
        np.copyto(out, spec[..., : band.nb])
        return out

    def step_erk4(self, c: np.ndarray) -> np.ndarray:
        E, E2, M, f1, f2, f3, e2c, n0, a, tmp, *_ = self._workspace(*c.shape[:2])
        if not self.nonlinear:
            return E * c
        # Each stage sum of
        #   a = E2*c + M*n0,  b = E2*c + M*na,  cc = E2*a + M*(nb*2 - n0),
        #   E*c + f1*n0 + f2*na + f2*nb + f3*nc
        # is formed in place, left to right.  A product n is the
        # workspace's result, used up before the next one; only n0 is kept.
        out = np.multiply(E, c)
        np.multiply(E2, c, out=e2c)
        n = self.nonlinear_rhs(c)
        np.copyto(n0, n)
        out += np.multiply(f1, n, out=n)
        np.multiply(M, n0, out=a)
        a += e2c
        n = self.nonlinear_rhs(a)
        b = np.multiply(M, n, out=tmp)
        b += e2c
        out += np.multiply(f2, n, out=n)
        n = self.nonlinear_rhs(b)
        out += np.multiply(f2, n, out=tmp)
        n *= 2.0
        n -= n0
        cc = np.multiply(E2, a, out=a)
        cc += np.multiply(M, n, out=n)
        n = self.nonlinear_rhs(cc)
        out += np.multiply(f3, n, out=n)
        return out


# Keyed on what a step reads, so runs that differ in t_end or the
# sampling share one stepper: its tables and its workspace
_stepper = lru_cache(maxsize=8)(Stepper)


class Trajectory:
    """One run's ledger for :func:`advance`: its state, a stack of one
    band array, the step index and that of its next sample, the
    trapezoid dissipation, the blow-up limit and the samples so far."""

    def __init__(self, u0: Field, cfg: SolverConfig):
        self.geom, self.cfg = u0.geometry, cfg
        check_dispersion_sanity(self.geom, cfg)
        self.stepper = st = _stepper(self.geom, cfg.dt, cfg.convection, cfg.nonlinear)
        c = st.band.gather(u0.coeffs)
        # data even about y = B/2 stays so: step its odd block alone
        self.state = (c if c[st.band.n_odd :].any() else c[: st.band.n_odd])[None]
        self.n_steps = int(round(cfg.t_end / cfg.dt))
        if abs(self.n_steps * cfg.dt - cfg.t_end) > 1e-9 * max(1.0, cfg.t_end):
            raise ValueError(f"t_end = {cfg.t_end} is not an integer number "
                             f"of steps of {cfg.dt}")
        self.step = self.target = 0  # target: the next sample's step; None when done
        self.samples = []  # for BlowUpError too
        (self.l2,), (dxsq,) = (s.tolist() for s in parseval_sums(
            self.state, st.w_l2, st.w_dx))
        self.limit = max(BLOWUP_NORM_FACTOR**2 * self.l2, 1e-300)
        self.diss = 0.0
        self.f = 2.0 * dxsq  # the dissipation integrand at this step

    def _record(self) -> tuple[NormSample, Field]:
        f = Field(self.geom, self.stepper.band.scatter(self.state[0]))
        self.samples.append(sample_field(f, t=self.step * self.cfg.dt,
                                         l2=self.l2, diss_cum=self.diss))
        self.target = (None if self.step == self.n_steps
                       else min(self.step + self.cfg.output_every, self.n_steps))
        return self.samples[-1], f


def advance(runs: list[Trajectory]) -> list[tuple[NormSample, Field]]:
    """Step each run, none of them done, to its next sample (t = 0 takes
    no step) and record it: ``(sample, u)`` of each, in order.  The runs
    step as one stack, so they must share one stepper and one row count
    (:class:`ValueError` otherwise, before any is recorded or stepped);
    longest to go first, so a run leaves from its end at its sample.  The
    per-step norms of all are one Parseval pass of the stack.
    :class:`BlowUpError`, with its samples so far, is raised for the run
    with the earliest t among those that blow up at one step."""
    st, n = runs[0].stepper, runs[0].state.shape[1]
    if any(r.stepper is not st or r.state.shape[1] != n for r in runs):
        raise ValueError("advance steps one stack: its runs must share one "
                         "stepper and one row count")
    got = {r: r._record() for r in runs if r.step == r.target}
    m = sorted((r for r in runs if r not in got), key=lambda r: r.step - r.target)
    c = np.concatenate([r.state for r in m]) if m else None
    while m:
        c = st.step_erk4(c)
        blown = []
        for r, l2, dxsq in zip(m, *(s.tolist() for s in parseval_sums(
                c, st.w_l2, st.w_dx))):  # the ledger and blow-up check
            r.step += 1
            r.l2 = l2
            r.diss += 0.5 * r.cfg.dt * (r.f + 2.0 * dxsq)
            r.f = 2.0 * dxsq
            if not math.isfinite(l2) or l2 > r.limit:
                blown.append(r)
        if blown:
            r = min(blown, key=lambda r: r.step * r.cfg.dt)
            raise BlowUpError(r.step * r.cfg.dt, r.l2, TimeSeries(r.geom, r.samples))
        while m and m[-1].step == m[-1].target:
            r = m.pop()
            r.state = c[len(m) : len(m) + 1]
            got[r] = r._record()
        c = c[: len(m)]
    return [got[r] for r in runs]


def evolve(u0: Field, cfg: SolverConfig):
    """Integrate to t_end, yielding ``(sample, u)``, the diagnostics
    sample and the Field, at t = 0, every output_every steps and at t_end:
    :func:`advance` of one :class:`Trajectory`, a stack of one state.

    A caller ends the run by asking for no further sample.  A sample's
    tail mass above 1e-6 marks it contaminated; the run goes on.  Runs
    that share a stepper may be advanced in turn: a step keeps nothing
    in it from one call to the next.  Non-finite values or a norm
    explosion raise :class:`BlowUpError` with the samples so far.
    """
    run = Trajectory(u0, cfg)
    while run.target is not None:
        yield advance([run])[0]


def run(u0: Field, cfg: SolverConfig) -> TimeSeries:
    """The samples of :func:`evolve`, run to t_end, as a series; its
    status reads "contaminated" when a sample is."""
    return TimeSeries(u0.geometry, [sample for sample, _ in evolve(u0, cfg)])
