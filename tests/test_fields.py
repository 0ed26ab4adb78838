from dataclasses import replace

import numpy as np
import pytest

from zkbstrip import (
    Field,
    InitialData,
    StripGeometry,
    SupportTooWideError,
    evaluate_mode,
    make_initial_field,
    make_random_field,
    weighted_inner,
)

from zkbstrip.fields import _band, parseval_sums, to_grid

from conftest import (
    reference_sine_values,
    reference_to_grid,
    weighted_dy_sq,
)


class TestFieldBasics:
    def test_round_trip(self, small_geom):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((small_geom.Nx, small_geom.Ny))
        f = Field.from_values(small_geom, vals)
        assert np.max(np.abs(f.values - vals)) < 1e-12

    def test_shape_errors(self, small_geom):
        with pytest.raises(ValueError):
            Field.from_values(small_geom, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            Field(small_geom, np.zeros((3, 3), complex))

    def test_nonfinite_rejected(self, small_geom):
        c = np.zeros((small_geom.Nx // 2 + 1, small_geom.Ny), complex)
        c[2, 3] = np.nan
        with pytest.raises(ValueError):
            Field(small_geom, c)

    def test_immutable(self, small_geom):
        f = Field.zeros(small_geom)
        with pytest.raises(AttributeError):
            f.coeffs = None

    def test_grid_mismatch_arithmetic(self, small_geom):
        other = StripGeometry(B=small_geom.B, Lx=small_geom.Lx,
                              Nx=small_geom.Nx, Ny=small_geom.Ny + 1, b=0.0)
        with pytest.raises(ValueError):
            Field.zeros(small_geom) + Field.zeros(other)

    def test_real_valuedness(self, small_geom):
        # reconstruct through the full complex spectrum; imaginary part of
        # the inverse transform must vanish
        u = make_random_field(small_geom, seed=5)
        full = np.zeros((small_geom.Nx, small_geom.Ny), complex)
        half = u.coeffs
        full[: half.shape[0]] = half
        full[small_geom.Nx // 2 + 1:] = np.conj(half[1:small_geom.Nx // 2][::-1])
        grid = np.fft.ifft(full * small_geom.Nx, axis=0)
        vals = reference_sine_values(grid, small_geom, axis=1)
        assert np.max(np.abs(vals.imag)) < 1e-12
        assert np.max(np.abs(vals.real - u.values)) < 1e-12


class TestRealRows:
    def test_imaginary_mean_or_nyquist_row_rejected(self):
        # the grid view would drop these parts while l2sq counts them
        g = StripGeometry(B=np.pi, Lx=np.pi, Nx=16, Ny=4)
        c = np.zeros((9, 4), complex)
        c[8, 0] = c[0, 1] = 1j
        with pytest.raises(ValueError, match="must be real"):
            Field(g, c)
        for row in (0, 8):
            one = np.zeros((9, 4), complex)
            one[row, 2] = 1j
            with pytest.raises(ValueError, match="must be real"):
                Field(g, one)

    def test_real_mean_and_nyquist_rows_accepted(self):
        g = StripGeometry(B=np.pi, Lx=np.pi, Nx=16, Ny=4)
        c = np.zeros((9, 4), complex)
        c[8, 0] = c[0, 1] = 1.0
        u = Field(g, c)
        assert u.l2sq() > 0.0 and np.any(u.values != 0.0)


class TestDerivatives:
    def test_dx_on_single_wave(self):
        g = StripGeometry(B=np.pi, Lx=np.pi, Nx=64, Ny=8)
        x = g.x_grid()
        w3 = evaluate_mode(3, g.y_grid(), g.B)
        f = Field.from_values(g, np.sin(2 * x)[:, None] * w3[None, :])
        expected = 2 * np.cos(2 * x)[:, None] * w3[None, :]
        assert np.max(np.abs(f.dx().values - expected)) < 1e-12

    def test_parseval_norms(self, small_geom):
        u = make_random_field(replace(small_geom, b=0.0), seed=9)
        assert u.l2sq() == pytest.approx(weighted_inner(u, u), rel=1e-12)
        grad_quad = weighted_inner(u.dx(), u.dx()) + weighted_dy_sq(u)
        gradsq = parseval_sums(u.coeffs, _band(u.geometry).w_grad)[0]
        assert gradsq == pytest.approx(grad_quad, rel=1e-11)


class TestInitialData:
    def test_zero_amplitude(self, small_geom):
        fld, norm, tail = make_initial_field(
            InitialData(kind="gaussian_mode", amplitude=0.0), small_geom
        )
        assert norm == 0.0
        assert tail == 0.0
        assert np.all(fld.values == 0.0)

    def test_single_mode_norm(self):
        # int sin(x)^2 * w1(y)^2 over [-pi,pi)x(0,pi) = pi
        g = StripGeometry(B=np.pi, Lx=np.pi, Nx=64, Ny=16)
        fld, norm, _ = make_initial_field(
            InitialData(kind="single_mode", amplitude=1.0, k=1.0, j=1), g
        )
        assert norm**2 == pytest.approx(np.pi, rel=1e-12)

    def test_gaussian_norm(self):
        # int exp(-2x^2) dx = sqrt(pi/2); y factor 1 by orthonormality
        g = StripGeometry(B=np.pi, Lx=12.0, Nx=256, Ny=8)
        fld, norm, _ = make_initial_field(
            InitialData(kind="gaussian_mode", amplitude=1.0, s=1.0, j=1), g
        )
        assert norm**2 == pytest.approx(np.sqrt(np.pi / 2.0), rel=1e-12)

    def test_target_norm_rescale(self, small_geom):
        fld, norm, _ = make_initial_field(
            InitialData(kind="gaussian_mode", amplitude=5.0, s=1.0,
                        target_l2_norm=0.25),
            small_geom,
        )
        assert norm == pytest.approx(0.25, rel=1e-12)

    def test_wide_support_rejected(self):
        g = StripGeometry(B=np.pi, Lx=10.0, Nx=128, Ny=8, b=0.1)
        with pytest.raises(SupportTooWideError, match="support too wide"):
            make_initial_field(
                InitialData(kind="gaussian_mode", amplitude=1.0, s=20.0), g
            )

    def test_single_mode_exempt_from_tail_guard(self):
        # periodic test data is legitimate even though it has no decay
        g = StripGeometry(B=np.pi, Lx=np.pi, Nx=32, Ny=4, b=0.1)
        fld, norm, tail = make_initial_field(
            InitialData(kind="single_mode", amplitude=1.0, k=1.0, j=1), g
        )
        assert tail > 1e-8  # would have been rejected were it localized data

    def test_mode_out_of_range(self, small_geom):
        with pytest.raises(ValueError):
            make_initial_field(
                InitialData(kind="gaussian_mode", j=small_geom.Ny + 1), small_geom
            )

    def test_unrepresentable_wavenumber(self):
        g = StripGeometry(B=np.pi, Lx=np.pi, Nx=32, Ny=4)
        with pytest.raises(ValueError, match="integer multiple"):
            make_initial_field(
                InitialData(kind="single_mode", k=1.5, j=1), g
            )

    def test_custom_samples(self, small_geom):
        rng = np.random.default_rng(2)
        vals = rng.standard_normal((small_geom.Nx, small_geom.Ny)) * 1e-3
        # localize so the weighted tail stays tiny
        x = small_geom.x_grid()
        vals *= np.exp(-(x**2))[:, None]
        fld, norm, _ = make_initial_field(
            InitialData(kind="custom_samples", values=vals), small_geom
        )
        assert np.max(np.abs(fld.values - vals)) < 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            InitialData(kind="wavelet")


class TestRandomField:
    def test_unit_norm_and_determinism(self, small_geom):
        u1 = make_random_field(small_geom, seed=11)
        u2 = make_random_field(small_geom, seed=11)
        u3 = make_random_field(small_geom, seed=12)
        assert u1.l2sq() == pytest.approx(1.0, rel=1e-12)
        assert np.array_equal(u1.coeffs, u2.coeffs)
        assert not np.array_equal(u1.coeffs, u3.coeffs)

    @pytest.mark.parametrize("seed", [0, 1, 1000, 2000, 3000])
    def test_bit_identical_to_scaled_field(self, seed):
        # the same draw, normalised through a second Field
        geom = StripGeometry(B=np.pi, Lx=10.0, Nx=256, Ny=32, b=0.1)
        nx_max, j_max = geom.Nx // 6, geom.Ny // 3
        rng = np.random.default_rng(seed)
        c = np.zeros((geom.Nx // 2 + 1, geom.Ny), dtype=complex)
        shape = (nx_max + 1, j_max)
        block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        block[0, :] = block[0, :].real
        c[: nx_max + 1, :j_max] = block
        f = Field(geom, c)
        expected = f * (1.0 / np.sqrt(f.l2sq()))
        assert np.array_equal(make_random_field(geom, seed).coeffs, expected.coeffs)

    def test_band_limits(self, small_geom):
        # the block n <= Nx//6, j <= Ny//3: 21 x 5 on a 128 x 16 grid
        u = make_random_field(small_geom, seed=4)
        nx_max, j_max = small_geom.Nx // 6, small_geom.Ny // 3
        assert np.all(u.coeffs[nx_max + 1:, :] == 0.0)
        assert np.all(u.coeffs[:, j_max:] == 0.0)
        assert np.all(u.coeffs[: nx_max + 1, :j_max] != 0.0)


def _random_coeffs(Nx, Ny, seed):
    """Full-band coefficients of a real field; the mean and Nyquist slots
    are real."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((Nx // 2 + 1, Ny)) + 1j * rng.standard_normal(
        (Nx // 2 + 1, Ny))
    c[0].imag = c[-1].imag = 0.0
    return c


class TestPaddedSynthesis:
    @pytest.mark.parametrize("Nx,Ny", [(256, 32), (10, 7)])
    def test_to_grid_on_leading_modes(self, Nx, Ny):
        # the coarse grid's Ny modes synthesised on the (2Nx, 2Ny) grid
        fine = StripGeometry(B=np.pi, Lx=10.0, Nx=2 * Nx, Ny=2 * Ny, b=0.1)
        lead = _random_coeffs(fine.Nx, Ny, seed=Nx + Ny)
        full = np.zeros((fine.Nx // 2 + 1, fine.Ny), complex)
        full[:, :Ny] = lead
        assert np.array_equal(to_grid(lead, fine), to_grid(full, fine))

    @pytest.mark.parametrize("Nx,Ny", [(256, 32), (10, 7)])
    def test_values_padded_matches_full_padding(self, Nx, Ny):
        geom = StripGeometry(B=np.pi, Lx=10.0, Nx=Nx, Ny=Ny, b=0.1)
        u = Field(geom, _random_coeffs(Nx, Ny, seed=3))
        vals, fine = u.values_padded()
        assert (fine.Nx, fine.Ny) == (2 * Nx, 2 * Ny)
        pad = np.zeros((Nx + 1, 2 * Ny), complex)
        pad[: Nx // 2 + 1, :Ny] = u.coeffs
        pad[Nx // 2] /= 2.0  # the Nyquist slot splits into a +/- pair
        assert np.array_equal(vals, to_grid(pad, fine))
        # and the scipy reference transform of the same padding
        err = np.max(np.abs(vals - reference_to_grid(pad, fine)))
        assert err < 1e-13 * np.max(np.abs(vals))
