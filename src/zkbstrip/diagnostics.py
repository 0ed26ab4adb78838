"""Norms, functionals, and decay-rate fits for fields and run histories.

Every weighted pairing integrates exp(2*b*x)*f*g over the strip, with
the weight rate b of the field's geometry.  x uses the uniform
trapezoid rule on [-Lx, Lx] (the periodic grid value at -Lx serves both
endpoints).  y is summed in mode space, from the amplitudes a_j(x) of
the orthonormal sine modes on the x grid: the sine modes are discretely
orthogonal on the interior y grid, so sum_j a^f_j a^g_j equals the
interior rectangle rule dy * sum_m f(x, y_m) g(x, y_m) exactly, and
sum_j lambda_j a^f_j a^g_j is the exact integral of f_y g_y (a cosine
series, which the rectangle rule would not integrate exactly).  No
pairing builds grid values; only the weighted sup does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .fields import Field, _band
from .geometry import StripGeometry

CONTAMINATION_THRESHOLD = 1e-6
TAIL_BAND_FRACTION = 0.1


def _modes(u: Field) -> np.ndarray:
    """(Nx, J) amplitudes a_j(x) of u's leading non-zero y modes."""
    return _band(u.geometry).x_modes(u.coeffs)


def _weighted_density(geom: StripGeometry, fa: np.ndarray, ga: np.ndarray,
                      dy: bool = False) -> np.ndarray:
    """Per-x-node share of the weighted pairing of two fields, from their
    mode amplitudes (:func:`_modes`): the x weight times
    sum_j a^f_j a^g_j, which sums to (exp(2bx) f, g), or with dy times
    sum_j lambda_j a^f_j a^g_j, which sums to (exp(2bx), f_y g_y).
    Modes past the shorter of the two amplitude arrays are zero in one
    factor and drop out.
    """
    nj = min(fa.shape[1], ga.shape[1])
    prod = fa[:, :nj] * ga[:, :nj]
    y_sum = prod @ geom.eigenvalues()[:nj] if dy else np.sum(prod, axis=1)
    return _band(geom).w_x * y_sum


def _weighted_pairing(geom: StripGeometry, fa: np.ndarray, ga: np.ndarray,
                      dy: bool = False) -> float:
    """The sum of :func:`_weighted_density` over x."""
    return float(np.sum(_weighted_density(geom, fa, ga, dy)))


def weighted_inner(f: Field, g: Field) -> float:
    """Weighted pairing (exp(2bx) f, g) over the strip."""
    if f.geometry != g.geometry:
        raise ValueError("fields live on different grids")
    fa = _modes(f)
    return _weighted_pairing(f.geometry, fa, fa if g is f else _modes(g))


def weighted_sup(u: Field) -> float:
    """Grid maximum of |exp(bx) u|."""
    return float(np.max(np.abs(_band(u.geometry).w_sup[:, None] * u.values)))


def tail_mass(u: Field) -> float:
    """Fraction of (exp(2bx), u^2) carried by the outer 10% x-bands.

    The endpoint row at -Lx stands for both periodic endpoints, so its
    whole weight lies in the bands.  Returns 0 for a zero field.
    """
    geom, a = u.geometry, _modes(u)
    density = _weighted_density(geom, a, a)
    return _tail_fraction(geom, density, float(np.sum(density)))


def _tail_fraction(geom: StripGeometry, density: np.ndarray,
                   total: float) -> float:
    """The share of the outer x-bands in a weighted density
    (:func:`_weighted_density`) whose sum is total."""
    if total == 0.0:
        return 0.0
    edge = (1.0 - 2.0 * TAIL_BAND_FRACTION) * geom.Lx
    return float(np.sum(density[np.abs(geom.x_grid()) >= edge])) / total


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


# the norms a TimeSeries holds per sample: every field but t
NORM_COLUMNS = tuple(f.name for f in fields(NormSample))[1:]


def sample_field(u: Field, t: float, l2: float, diss_cum: float) -> NormSample:
    """The diagnostic record of one field, given its squared L2 norm and
    the dissipation accumulated so far."""
    geom, a, ax = u.geometry, _modes(u), _modes(u.dx())
    density = _weighted_density(geom, a, a)
    w_l2 = float(np.sum(density))
    w_h1 = (w_l2 + _weighted_pairing(geom, ax, ax)
            + _weighted_pairing(geom, a, a, dy=True))
    return NormSample(
        t=t, l2=l2, diss_cum=diss_cum, w_l2=w_l2, w_h1=w_h1,
        sup_w=weighted_sup(u), tail=_tail_fraction(geom, density, w_l2),
    )


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
        return next((s.t for s in self.samples
                     if s.tail > CONTAMINATION_THRESHOLD), None)

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

