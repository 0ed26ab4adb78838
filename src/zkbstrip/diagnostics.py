"""Norms, functionals, and decay-rate fits for fields and run histories.

Every weighted pairing integrates exp(2*b*x)*f*g over the strip, with
the weight rate b of the field's geometry.  x uses the uniform
trapezoid rule on [-Lx, Lx] (the periodic grid value at -Lx serves both
endpoints).  y is summed in mode space, from the amplitudes a_j(x) of
the orthonormal sine modes on the x grid: the sine modes are discretely
orthogonal on the interior y grid, so sum_j a^f_j a^g_j equals the
interior rectangle rule dy * sum_m f(x, y_m) g(x, y_m) exactly, and
sum_j lambda_j a^f_j a^g_j is the exact integral of f_y g_y (a cosine
series, which the rectangle rule would not integrate exactly).  Every
pairing is a sum or a lambda_j-dot of the moments of :func:`_moments`,
and the weighted sup is a grid maximum made from the same amplitudes,
so each diagnostic makes one x transform per field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .fields import Field, _band
from .geometry import StripGeometry

CONTAMINATION_THRESHOLD = 1e-6


def _modes(u: Field, dx: bool = False) -> np.ndarray:
    """(Nx, J) amplitudes a_j(x) of u's leading non-zero y modes; with
    dx, (Nx, 2J): those of u, then those of u_x."""
    return _band(u.geometry).x_modes(u.coeffs, dx)


def _moments(geom: StripGeometry, fa: np.ndarray, ga: np.ndarray) -> np.ndarray:
    """(2, J) weighted moments of two fields per y mode, from their mode
    amplitudes (:func:`_modes`): row 0 holds the x trapezoid sums of
    exp(2bx) a^f_j a^g_j, which add up to (exp(2bx) f, g) and whose dot
    with lambda_j is (exp(2bx), f_y g_y), and row 1 their shares in the
    outer x-bands of the tail mass.  Modes past the shorter of the two
    amplitude arrays are zero in one factor and drop out.  Per member
    for the amplitudes of two stacks."""
    nj = min(fa.shape[-1], ga.shape[-1])
    return _band(geom).w_x @ (fa[..., :nj] * ga[..., :nj])


def weighted_inner(f: Field, g: Field) -> float:
    """Weighted pairing (exp(2bx) f, g) over the strip."""
    if f.geometry != g.geometry:
        raise ValueError("fields live on different grids")
    fa = _modes(f)
    ga = fa if g is f else _modes(g)
    return float(np.sum(_moments(f.geometry, fa, ga)[0]))


def weighted_sup(geom: StripGeometry, a: np.ndarray) -> np.ndarray:
    """Grid maximum of |exp(bx) u|, per member, from amplitudes a (:func:`_modes`)."""
    band = _band(geom)
    values = band.grid(a)  # one grid-sized temporary: each costs page faults
    values *= band.w_sup[:, None]
    return np.max(np.abs(values, out=values), axis=(-2, -1))


def tail_mass(u: Field) -> float:
    """Fraction of (exp(2bx), u^2) carried by the outer 10% x-bands.

    The endpoint row at -Lx stands for both periodic endpoints, so its
    whole weight lies in the bands.  Returns 0 for a zero field.
    """
    a = _modes(u)
    total, tail = np.sum(_moments(u.geometry, a, a), axis=1)
    return float(tail) / float(total) if total != 0.0 else 0.0


@dataclass(frozen=True)
class NormSample:
    """Diagnostics of one snapshot.

    l2       : squared L2 norm of u
    diss_cum : accumulated dissipation 2*int_0^t ||u_x||^2 ds
    w_l2     : (exp(2bx), u^2)
    w_h1     : (exp(2bx), u^2 + |grad u|^2)
    sup_w    : grid maximum of |exp(bx) u|
    tail     : weighted tail-mass fraction
    """

    t: float
    l2: float
    diss_cum: float
    w_l2: float
    w_h1: float
    sup_w: float
    tail: float

    @property
    def contaminated(self) -> bool:
        """Whether the tail mass exceeds the contamination threshold."""
        return self.tail > CONTAMINATION_THRESHOLD


# the norms a TimeSeries holds per sample: every field but t
NORM_COLUMNS = tuple(f.name for f in fields(NormSample))[1:]


def sample_field(u: Field, t: float, l2: float, diss_cum: float) -> NormSample:
    """The diagnostic record of one field, given its squared L2 norm and
    the dissipation accumulated so far."""
    geom, a = u.geometry, _modes(u, dx=True)
    m, nj = _moments(geom, a, a), a.shape[1] // 2
    w_l2 = float(np.sum(m[0, :nj]))
    w_h1 = (w_l2 + float(np.sum(m[0, nj:]))
            + float(geom.eigenvalues()[:nj] @ m[0, :nj]))
    tail = float(np.sum(m[1, :nj])) / w_l2 if w_l2 != 0.0 else 0.0
    return NormSample(t=t, l2=l2, diss_cum=diss_cum, w_l2=w_l2, w_h1=w_h1,
                      sup_w=float(weighted_sup(geom, a[:, :nj])), tail=tail)


@dataclass
class TimeSeries:
    """Diagnostics history of one run.  Its status and contamination
    time are read from the samples' tail masses."""

    geometry: StripGeometry
    samples: list[NormSample]

    @property
    def contaminated_at(self) -> float | None:
        """Time of the first sample whose tail mass exceeds the
        threshold; None for a clean run."""
        return next((s.t for s in self.samples if s.contaminated), None)

    @property
    def status(self) -> str:
        return "clean" if self.contaminated_at is None else "contaminated"

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def column(self, name: str) -> np.ndarray:
        if name not in NORM_COLUMNS:
            raise ValueError(f"unknown norm column: {name!r}")
        return np.array([getattr(s, name) for s in self.samples])

    def clean_end(self) -> float:
        """Time of the last sample before contamination (run end if clean)."""
        end = self.contaminated_at
        clean = [s.t for s in self.samples if end is None or s.t < end]
        if not clean:
            raise ValueError("run is contaminated from the first sample")
        return clean[-1]


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential-decay fit over a time window."""

    t0: float
    t1: float
    rate: float
    residual: float
    norm: str


def fit_decay_rate(series: TimeSeries, norm: str, t0: float, t1: float) -> DecayFit:
    """Slope of -log(norm) versus t on [t0, t1], by least squares.

    Requires at least 10 samples in the window and positive norm values.
    """
    if not t0 < t1:
        raise ValueError(f"need t0 < t1, got [{t0}, {t1}]")
    t = series.times()
    v = series.column(norm)
    mask = (t >= t0) & (t <= t1)
    if int(np.sum(mask)) < 10:
        raise ValueError(
            f"need >= 10 samples in [{t0}, {t1}], found {int(np.sum(mask))}"
        )
    tw, vw = t[mask], v[mask]
    if np.any(vw <= 0):
        raise ValueError(f"nonpositive {norm} values in fit window")
    y = -np.log(vw)
    design = np.column_stack([tw, np.ones_like(tw)])
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = float(np.sqrt(np.mean((design @ [slope, intercept] - y) ** 2)))
    return DecayFit(t0=float(tw[0]), t1=float(tw[-1]), rate=float(slope),
                    residual=resid, norm=norm)


def default_fit_window(series: TimeSeries) -> tuple[float, float]:
    """Last half of the clean prefix of the series.

    Truncation-contaminated samples carry boundary wrap-around artifacts
    the decay theorems say nothing about, so fits skip them; for a clean
    run this is simply the last half of the series.
    """
    t_end = series.clean_end()
    t_first = series.samples[0].t
    return (t_first + 0.5 * (t_end - t_first), t_end)


def energy_residual(series: TimeSeries) -> float:
    """Max relative defect of ||u||^2(t) + 2 int ||u_x||^2 - ||u_0||^2."""
    if not series.samples:
        raise ValueError("empty series")
    l2 = series.column("l2")
    diss = series.column("diss_cum")
    if l2[0] == 0.0:
        return 0.0 if float(np.max(l2 + diss)) == 0.0 else math.inf
    return float(np.max(np.abs(l2 + diss - l2[0]))) / l2[0]

