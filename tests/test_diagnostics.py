import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.fft import irfft

from zkbstrip import (
    Field,
    InitialData,
    NormSample,
    SolverConfig,
    StripGeometry,
    TimeSeries,
    default_fit_window,
    energy_residual,
    evaluate_mode,
    fit_decay_rate,
    make_initial_field,
    make_random_field,
    run,
    tail_mass,
    weighted_inner,
)
from zkbstrip.diagnostics import weighted_sup
from zkbstrip.fields import _band, to_grid

from conftest import weighted_dy_sq


def gaussian_mode_field(geom, amplitude=1.0, s=1.0, j=1):
    fld, _, _ = make_initial_field(
        InitialData(kind="gaussian_mode", amplitude=amplitude, s=s, j=j), geom
    )
    return fld


def synthetic_series(times, values, geom=None):
    geom = geom or StripGeometry(B=np.pi, Lx=1.0, Nx=4, Ny=1)
    samples = [
        NormSample(t=t, l2=v, diss_cum=0.0, w_l2=v, w_h1=v, sup_w=v, tail=0.0)
        for t, v in zip(times, values)
    ]
    return TimeSeries(geometry=geom, samples=samples)


class TestWeightedInner:
    def test_unweighted_is_l2(self, small_geom):
        u = make_random_field(replace(small_geom, b=0.0), seed=0)
        assert weighted_inner(u, u) == pytest.approx(u.l2sq(), rel=1e-12)

    def test_zero_field(self, small_geom):
        geom = replace(small_geom, b=0.3)
        z = Field.zeros(geom)
        u = make_random_field(geom, seed=1)
        assert weighted_inner(z, u) == 0.0

    def test_gaussian_closed_form(self):
        # int exp(0.2x - 2x^2) dx = sqrt(pi/2) exp(0.005)
        g = StripGeometry(B=np.pi, Lx=12.0, Nx=512, Ny=16, b=0.1)
        u = gaussian_mode_field(g)
        expected = math.sqrt(math.pi / 2.0) * math.exp(0.005)
        assert weighted_inner(u, u) == pytest.approx(expected, rel=1e-12)

    def test_symmetric_bilinear_positive(self, small_geom):
        geom = replace(small_geom, b=0.2)
        u = make_random_field(geom, seed=2)
        v = make_random_field(geom, seed=3)
        w = make_random_field(geom, seed=4)
        assert weighted_inner(u, v) == pytest.approx(
            weighted_inner(v, u), rel=1e-13
        )
        lhs = weighted_inner(u + 2.0 * v, w)
        rhs = weighted_inner(u, w) + 2.0 * weighted_inner(v, w)
        assert lhs == pytest.approx(rhs, rel=1e-11)
        assert weighted_inner(u, u) > 0.0

    def test_grid_mismatch(self, small_geom):
        other = StripGeometry(B=small_geom.B, Lx=small_geom.Lx,
                              Nx=small_geom.Nx * 2, Ny=small_geom.Ny)
        with pytest.raises(ValueError):
            weighted_inner(Field.zeros(small_geom), Field.zeros(other))


class TestTailMass:
    def test_central_support(self):
        g = StripGeometry(B=np.pi, Lx=10.0, Nx=256, Ny=8, b=0.1)
        u = gaussian_mode_field(g, s=1.0)
        assert tail_mass(u) < 1e-30

    def test_zero_field_convention(self, small_geom):
        assert tail_mass(Field.zeros(small_geom)) == 0.0

    def test_uniform_field_matches_weight_measure(self):
        # constant-in-x field: fraction = band weight / total weight
        b, L = 0.15, 10.0
        g = StripGeometry(B=np.pi, Lx=L, Nx=1024, Ny=8, b=b)
        vals = np.ones((g.Nx, 1)) * evaluate_mode(1, g.y_grid(), g.B)[None, :]
        u = Field.from_values(g, vals)

        def Iexp(lo, hi):
            return (math.exp(2 * b * hi) - math.exp(2 * b * lo)) / (2 * b)

        expected = (Iexp(-L, -0.8 * L) + Iexp(0.8 * L, L)) / Iexp(-L, L)
        assert tail_mass(u) == pytest.approx(expected, rel=2e-3)


class TestEnergyResidual:
    def test_zero_run(self, small_geom):
        series = run(Field.zeros(small_geom), SolverConfig(dt=0.01, t_end=0.05))
        assert energy_residual(series) == 0.0

    def test_empty_series(self, small_geom):
        with pytest.raises(ValueError):
            energy_residual(TimeSeries(geometry=small_geom, samples=[]))

    def test_linear_single_mode(self):
        # l2(t) = l2(0) e^{-2t} and diss integral sum to l2(0)
        g = StripGeometry(B=np.pi, Lx=np.pi, Nx=32, Ny=4)
        f0, _, _ = make_initial_field(
            InitialData(kind="single_mode", amplitude=1.0, k=1.0, j=1), g
        )
        cfg = SolverConfig(dt=1e-3, t_end=1.0, nonlinear=False,
                           output_every=100)
        assert energy_residual(run(f0, cfg)) < 1e-6


class TestWeightedDySq:
    def test_dense_grid_oracle(self):
        # independent trapezoid quadrature of the analytic derivatives of
        # u = exp(-x^2/s^2) w_2(y), at a positive weight rate
        B, b, s = 2.0, 0.05, 1.3
        g = StripGeometry(B=B, Lx=8.0, Nx=128, Ny=24, b=b)
        u = gaussian_mode_field(g, s=s, j=2)

        x = np.linspace(-8.0, 8.0, 4001)
        y = np.linspace(0.0, B, 2001)
        X, Y = np.meshgrid(x, y, indexing="ij")
        Uy = (np.exp(-(X**2) / s**2)
              * np.sqrt(2 / B) * (2 * np.pi / B) * np.cos(2 * np.pi * Y / B))
        Uxy = -2 * X / s**2 * Uy
        weight = np.exp(2 * b * X)

        def oracle(f):
            return np.trapezoid(np.trapezoid(weight * f**2, y, axis=1), x)

        assert weighted_dy_sq(u) == pytest.approx(oracle(Uy), rel=1e-8)
        assert weighted_dy_sq(u.dx()) == pytest.approx(oracle(Uxy), rel=1e-8)


def _coeffs_with_modes(geom, n_live, seed):
    """Full-layout coefficients of a real field whose first n_live y
    modes are random and whose trailing modes are zero."""
    rng = np.random.default_rng(seed)
    c = np.zeros((geom.Nx // 2 + 1, geom.Ny), complex)
    c[:, :n_live] = (rng.standard_normal((geom.Nx // 2 + 1, n_live))
                     + 1j * rng.standard_normal((geom.Nx // 2 + 1, n_live)))
    c[0].imag = c[-1].imag = 0.0
    return c


def _untrimmed_x_modes(c, geom):
    """Amplitudes a_j(x) of all Ny modes, trailing zero modes included."""
    return irfft(c, n=geom.Nx, axis=0) * geom.Nx


def _reference_x_weights(geom):
    """Trapezoid weights of exp(2bx) on the periodic x grid."""
    w = geom.dx * np.exp(2.0 * geom.b * geom.x_grid())
    w[0] = geom.dx * math.cosh(2.0 * geom.b * geom.Lx)
    return w


def _grid_quad(geom, fvals, gvals):
    """Trapezoid rule in x and interior rectangle rule in y on the grid."""
    w = _reference_x_weights(geom)
    return geom.dy * float(np.sum(w[:, None] * fvals * gvals))


class TestModeSpacePairing:
    """Weighted pairings summed over y modes instead of y grid points."""

    GEOM = StripGeometry(B=np.pi, Lx=10.0, Nx=256, Ny=32, b=0.15)

    @pytest.mark.parametrize("n_f,n_g", [(32, 32), (10, 10), (5, 12), (1, 32)])
    def test_matches_grid_rectangle_rule(self, n_f, n_g):
        g = self.GEOM
        f = Field(g, _coeffs_with_modes(g, n_f, seed=n_f))
        h = Field(g, _coeffs_with_modes(g, n_g, seed=100 + n_g))
        for a, c in ((f, f), (f, h), (h, f), (h, h)):
            expected = _grid_quad(g, a.values, c.values)
            assert weighted_inner(a, c) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("n_live", [32, 10, 1])
    def test_dy_form_matches_all_mode_sum(self, n_live):
        g = self.GEOM
        u = Field(g, _coeffs_with_modes(g, n_live, seed=n_live))
        w = _reference_x_weights(g)
        for v in (u, u.dx()):
            modal = _untrimmed_x_modes(v.coeffs, g)
            expected = float(np.sum(w[:, None] * g.eigenvalues()[None, :]
                                    * modal**2))
            assert weighted_dy_sq(v) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("n_live", [32, 10, 1, 0])
    def test_trimmed_transforms_bit_identical(self, n_live):
        g = self.GEOM
        c = _coeffs_with_modes(g, n_live, seed=7)
        if n_live > 2:
            c[:, 1] = 0.0  # an inner zero mode is kept, only trailing ones go
        full = _untrimmed_x_modes(c, g)
        modes = _band(g).x_modes(c)
        assert modes.shape == (g.Nx, n_live)
        assert np.array_equal(modes, full[:, :n_live])
        assert np.all(full[:, n_live:] == 0.0)
        grid = (irfft(c, n=g.Nx, axis=0) @ _band(g).sines.T) * (
            g.Nx * math.sqrt(2.0 / g.B))
        assert np.array_equal(to_grid(c, g), grid)
        assert np.array_equal(Field(g, c).values, grid)

    def test_zero_field(self):
        z = Field.zeros(self.GEOM)
        assert z.values.shape == (self.GEOM.Nx, self.GEOM.Ny)
        assert np.all(z.values == 0.0)
        assert tail_mass(z) == 0.0
        assert weighted_dy_sq(z) == 0.0

    def test_cached_weights_bit_identical(self):
        g = self.GEOM
        u = make_random_field(g, seed=3)
        fresh = np.exp(g.b * g.x_grid())[:, None]
        assert weighted_sup(u) == float(np.max(np.abs(fresh * u.values)))
        mult = 1j * g.wavenumbers()
        mult[-1] = 0.0
        assert np.array_equal(u.dx().coeffs, u.coeffs * mult[:, None])


class TestFitDecayRate:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 10.0, 101)
        series = synthetic_series(t, np.exp(-0.5 * t))
        fit = fit_decay_rate(series, "w_l2", 0.0, 10.0)
        assert fit.rate == pytest.approx(0.5, abs=1e-10)
        assert fit.residual < 1e-12

    def test_constant_series(self):
        t = np.linspace(0.0, 5.0, 51)
        fit = fit_decay_rate(synthetic_series(t, np.ones_like(t)), "l2", 0.0, 5.0)
        assert fit.rate == pytest.approx(0.0, abs=1e-14)

    def test_log_corrected_exponential(self):
        t = np.linspace(0.0, 40.0, 401)
        series = synthetic_series(t, (1 + t) * np.exp(-0.3 * t))
        fit = fit_decay_rate(series, "w_l2", 20.0, 40.0)
        assert 0.25 <= fit.rate <= 0.3

    def test_window_errors(self):
        t = np.linspace(0.0, 10.0, 101)
        series = synthetic_series(t, np.exp(-t))
        with pytest.raises(ValueError):
            fit_decay_rate(series, "w_l2", 5.0, 5.0)
        with pytest.raises(ValueError, match=">= 10 samples"):
            fit_decay_rate(series, "w_l2", 9.95, 10.0)

    def test_nonpositive_values(self):
        t = np.linspace(0.0, 10.0, 101)
        v = np.exp(-t)
        v[50] = 0.0
        with pytest.raises(ValueError, match="nonpositive"):
            fit_decay_rate(synthetic_series(t, v), "w_l2", 0.0, 10.0)

    def test_unknown_norm(self):
        t = np.linspace(0.0, 10.0, 11)
        with pytest.raises(ValueError, match="unknown norm"):
            synthetic_series(t, np.exp(-t)).column("energy")


class TestSeriesWindows:
    def _series_with_tail(self, tails):
        t = np.arange(len(tails), dtype=float)
        samples = [
            NormSample(t=tt, l2=1.0, diss_cum=0.0, w_l2=1.0, w_h1=1.0,
                       sup_w=1.0, tail=tl)
            for tt, tl in zip(t, tails)
        ]
        return TimeSeries(geometry=StripGeometry(B=np.pi, Lx=1.0, Nx=4, Ny=1),
                          samples=samples)

    def test_clean_series_window(self):
        s = self._series_with_tail([0.0] * 11)
        assert s.status == "clean"
        assert default_fit_window(s) == (5.0, 10.0)

    def test_contaminated_window_stops_at_clean_prefix(self):
        s = self._series_with_tail([0.0] * 6 + [1e-3] * 5)
        assert s.status == "contaminated"
        assert s.contaminated_at == 6.0
        assert s.clean_end() == 5.0
        assert default_fit_window(s) == (2.5, 5.0)

    def test_contaminated_from_start(self):
        s = self._series_with_tail([1.0, 1.0])
        with pytest.raises(ValueError):
            s.clean_end()
