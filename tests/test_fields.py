from dataclasses import replace

import numpy as np
import pytest

from zkbstrip import (
    Field,
    InitialData,
    SolverConfig,
    StripGeometry,
    SupportTooWideError,
    evaluate_mode,
    make_initial_field,
    run,
    tail_mass,
    weighted_inner,
)

from zkbstrip.fields import (
    _band, band_shape, parseval_sums, quartic_samples, random_blocks, to_grid,
    to_spectral)
from zkbstrip.theory import gn_sides

from conftest import (
    dx,
    from_values,
    inequality,
    random_field,
    reference_sine_values,
    reference_to_grid,
    weighted_dy_sq,
    zeros,
)


class TestFieldBasics:
    def test_round_trip(self, small_geom):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((small_geom.Nx, small_geom.Ny))
        f = from_values(small_geom, vals)
        assert np.max(np.abs(to_grid(f.coeffs, small_geom) - vals)) < 1e-12

    def test_shape_errors(self, small_geom):
        with pytest.raises(ValueError):
            from_values(small_geom, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            Field(small_geom, np.zeros((3, 3), complex))

    def test_coefficients_must_be_complex128(self, small_geom):
        # a Field stores its coefficients as given, and its Parseval sums
        # read them as interleaved real and imaginary parts
        shape = (small_geom.Nx // 2 + 1, small_geom.Ny)
        for c in (np.zeros(shape), np.zeros(shape, np.complex64),
                  np.zeros(shape, complex).tolist()):
            with pytest.raises(TypeError, match="complex128"):
                Field(small_geom, c)

    def test_nonfinite_rejected(self, small_geom):
        c = np.zeros((small_geom.Nx // 2 + 1, small_geom.Ny), complex)
        c[2, 3] = np.nan
        with pytest.raises(ValueError):
            Field(small_geom, c)

    def test_immutable(self, small_geom):
        f = zeros(small_geom)
        with pytest.raises(AttributeError):
            f.coeffs = None

    def test_grid_mismatch_arithmetic(self, small_geom):
        other = StripGeometry(B=small_geom.B, Lx=small_geom.Lx,
                              Nx=small_geom.Nx, Ny=small_geom.Ny + 1, b=0.0)
        with pytest.raises(ValueError):
            zeros(small_geom) + zeros(other)

    def test_real_valuedness(self, small_geom):
        # reconstruct through the full complex spectrum; imaginary part of
        # the inverse transform must vanish
        u = random_field(small_geom, seed=5)
        full = np.zeros((small_geom.Nx, small_geom.Ny), complex)
        half = u.coeffs
        full[: half.shape[0]] = half
        full[small_geom.Nx // 2 + 1:] = np.conj(half[1:small_geom.Nx // 2][::-1])
        grid = np.fft.ifft(full * small_geom.Nx, axis=0)
        vals = reference_sine_values(grid, small_geom, axis=1)
        assert np.max(np.abs(vals.imag)) < 1e-12
        assert np.max(np.abs(vals.real - to_grid(u.coeffs, small_geom))) < 1e-12


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
        assert u.l2sq() > 0.0 and np.any(to_grid(u.coeffs, g) != 0.0)


class TestDerivatives:
    def test_dx_on_single_wave(self):
        g = StripGeometry(B=np.pi, Lx=np.pi, Nx=64, Ny=8)
        x = g.x_grid()
        w3 = evaluate_mode(3, g.y_grid(), g.B)
        f = from_values(g, np.sin(2 * x)[:, None] * w3[None, :])
        expected = 2 * np.cos(2 * x)[:, None] * w3[None, :]
        assert np.max(np.abs(to_grid(dx(f).coeffs, g) - expected)) < 1e-12

    def test_parseval_norms(self, small_geom):
        u = random_field(replace(small_geom, b=0.0), seed=9)
        assert u.l2sq() == pytest.approx(weighted_inner(u, u), rel=1e-12)
        grad_quad = weighted_inner(dx(u), dx(u)) + weighted_dy_sq(u)
        gradsq = parseval_sums(u.coeffs, _band(u.geometry).w_grad)[0]
        assert gradsq == pytest.approx(grad_quad, rel=1e-11)


class TestInitialData:
    def test_zero_amplitude(self, small_geom):
        fld, norm, tail = make_initial_field(
            InitialData(kind="gaussian_mode", amplitude=0.0), small_geom
        )
        assert norm == 0.0
        assert tail == 0.0
        assert np.all(to_grid(fld.coeffs, small_geom) == 0.0)

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
        # s = 4: tail mass 1.5e-4.  Wider ones (s = 5 to 20) are refused
        # first as outside the 2/3 band, for the kink of their periodic
        # extension at x = +/-Lx
        g = StripGeometry(B=np.pi, Lx=10.0, Nx=128, Ny=8, b=0.1)
        with pytest.raises(SupportTooWideError, match="support too wide"):
            make_initial_field(
                InitialData(kind="gaussian_mode", amplitude=1.0, s=4.0), g
            )

    # cdep's perturbation: a unit-norm first-mode bump of width 1
    UNIT_BUMP = InitialData(kind="gaussian_mode", amplitude=1.0, s=1.0, j=1,
                            target_l2_norm=1.0)

    def test_tail_of_the_field_a_run_steps_is_checked(self):
        # on 56 x points with b = 0.3 the samples' tail mass is rounding,
        # but their 2/3 band projection, which a run steps, rings into the
        # tail bands
        g = StripGeometry(B=np.pi, Lx=10.0, Nx=56, Ny=4, b=0.3)
        with pytest.raises(SupportTooWideError, match="tail mass 5.276e-08"):
            make_initial_field(self.UNIT_BUMP, g)

    @pytest.mark.parametrize("kind", ["gaussian_mode", "custom_samples"])
    def test_reported_tail_is_the_returned_fields(self, kind):
        g = StripGeometry(B=np.pi, Lx=10.0, Nx=56, Ny=4, b=0.0)
        x, w1 = g.x_grid(), evaluate_mode(1, g.y_grid(), g.B)
        init = (self.UNIT_BUMP if kind == "gaussian_mode" else InitialData(
            kind=kind, values=np.exp(-(x**2))[:, None] * w1[None, :]))
        fld, _, tail = make_initial_field(init, g)
        assert 0.0 < tail < 1e-8
        assert tail == tail_mass(fld)

    # samples that hold every y mode, against a 2/3 band of j <= 5 on
    # 64 x 8 (B = pi, Lx = 10, b = 0.1)
    WIDE_GEOMETRY = StripGeometry(B=np.pi, Lx=10.0, Nx=64, Ny=8, b=0.1)

    @classmethod
    def wide_samples(cls, seed=0):
        rng = np.random.default_rng(seed)
        return (np.exp(-(cls.WIDE_GEOMETRY.x_grid() ** 2))[:, None]
                * rng.standard_normal((64, 8)))

    def test_custom_samples_outside_the_band_rejected(self):
        # a run would step their band projection, which holds 1.696 of the
        # samples' squared norm 4.229 and has tail mass 0.0122
        init = InitialData(kind="custom_samples", values=self.wide_samples())
        with pytest.raises(ValueError, match="outside the 2/3 band n < 22, j <= 5"):
            make_initial_field(init, self.WIDE_GEOMETRY)

    def test_custom_samples_report_the_field_a_run_steps(self):
        # samples in the band plus 1e-6 of the wide ones: the field
        # returned, its norm and its tail mass are those of the band
        # projection, the field whose norm a run records at t = 0
        g = self.WIDE_GEOMETRY
        x, band = g.x_grid(), _band(g)
        vals = np.exp(-(x**2))[:, None] * sum(
            evaluate_mode(j, g.y_grid(), g.B) for j in (1, 2, 5))[None, :]
        vals += 1e-6 * self.wide_samples()
        fld, norm, tail = make_initial_field(
            InitialData(kind="custom_samples", values=vals), g)
        projected = band.scatter(band.gather(to_spectral(vals, g)))
        assert np.array_equal(fld.coeffs, projected)
        assert norm == np.sqrt(fld.l2sq()) and tail == tail_mass(fld)
        first = run(fld, SolverConfig(dt=1e-3, t_end=0.0)).samples[0]
        assert first.l2 == pytest.approx(norm**2, rel=1e-14)
        assert first.tail == pytest.approx(tail, rel=1e-12)

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
        # band-limited, localized samples: random multiples of the first
        # nj = 10 y modes, each on a Gaussian in x
        rng = np.random.default_rng(2)
        x, y = small_geom.x_grid(), small_geom.y_grid()
        vals = sum(1e-3 * rng.standard_normal() * np.exp(-(x**2))[:, None]
                   * evaluate_mode(j, y, small_geom.B)[None, :] for j in range(1, 11))
        fld, norm, _ = make_initial_field(
            InitialData(kind="custom_samples", values=vals), small_geom
        )
        assert np.max(np.abs(to_grid(fld.coeffs, small_geom) - vals)) < 1e-12

    def test_custom_samples_in_all_y_modes_rejected(self, small_geom):
        # the former data of test_custom_samples: noise in all 16 y modes
        rng = np.random.default_rng(2)
        vals = rng.standard_normal((small_geom.Nx, small_geom.Ny)) * 1e-3
        vals *= np.exp(-(small_geom.x_grid() ** 2))[:, None]
        with pytest.raises(ValueError, match="outside the 2/3 band"):
            make_initial_field(
                InitialData(kind="custom_samples", values=vals), small_geom)

    @pytest.mark.parametrize("kind", ["gaussian_mode", "single_mode"])
    @pytest.mark.parametrize("j", [1, 2, 5])
    def test_sampled_mode_holds_only_its_column(self, kind, j):
        # DST-I orthogonality: the other columns are exact zeros, and the
        # mode's own column is the plain transform of the samples on the
        # x slots of the 2/3 band, and zero on the rest, which no run steps
        g = StripGeometry(B=np.pi, Lx=2 * np.pi, Nx=64, Ny=12)
        x, wj = g.x_grid(), evaluate_mode(j, g.y_grid(), g.B)
        profile = np.exp(-(x**2)) if kind == "gaussian_mode" else np.sin(x)
        fld, _, _ = make_initial_field(
            InitialData(kind=kind, amplitude=1.0, s=1.0, k=1.0, j=j), g)
        plain = from_values(g, profile[:, None] * wj[None, :]).coeffs
        others = np.arange(g.Ny) != j - 1
        nb = band_shape(g)[0]
        assert not fld.coeffs[:, others].any() and not fld.coeffs[nb:].any()
        assert np.array_equal(fld.coeffs[:nb, j - 1], plain[:nb, j - 1])

    def test_custom_samples_shape_checked(self, small_geom):
        with pytest.raises(ValueError, match=r"value shape \(3, 3\) != \(128, 16\)"):
            make_initial_field(
                InitialData(kind="custom_samples", values=np.zeros((3, 3))), small_geom)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            InitialData(kind="wavelet")


class TestRandomField:
    def test_unit_norm_and_determinism(self, small_geom):
        u1 = random_field(small_geom, seed=11)
        u2 = random_field(small_geom, seed=11)
        u3 = random_field(small_geom, seed=12)
        assert u1.l2sq() == pytest.approx(1.0, rel=1e-12)
        assert np.array_equal(u1.coeffs, u2.coeffs)
        assert not np.array_equal(u1.coeffs, u3.coeffs)

    @pytest.mark.parametrize("seed", [0, 1, 1000, 2000, 3000])
    def test_bit_identical_to_scaled_field(self, seed):
        # the same draw, normalised by the Parseval sum of its live block
        geom = StripGeometry(B=np.pi, Lx=10.0, Nx=256, Ny=32, b=0.1)
        nx_max, j_max = geom.Nx // 6, geom.Ny // 3
        rng = np.random.default_rng(seed)
        c = np.zeros((geom.Nx // 2 + 1, geom.Ny), dtype=complex)
        shape = (nx_max + 1, j_max)
        block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        block[0, :] = block[0, :].real
        l2 = parseval_sums(block, _band(geom).w_l2[: nx_max + 1])[0]
        c[: nx_max + 1, :j_max] = block * (1.0 / np.sqrt(l2))
        got = random_field(geom, seed)
        assert np.array_equal(got.coeffs, c)
        # and, to rounding, normalised through a second Field: the sum
        # over the full layout adds its zeros in another order
        c[: nx_max + 1, :j_max] = block
        f = Field(geom, c)
        scaled = (f * (1.0 / np.sqrt(f.l2sq()))).coeffs
        np.testing.assert_allclose(got.coeffs, scaled, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("Nx,Ny", [(256, 32), (10, 7)])
    def test_stack_members_are_the_seeds_fields(self, Nx, Ny):
        # each member drawn and normalized on its own, bit for bit; a norm
        # taken over the whole stack would scale every member alike
        geom = StripGeometry(B=np.pi, Lx=10.0, Nx=Nx, Ny=Ny, b=0.1)
        seeds = range(3, 12)
        c = random_blocks(geom, seeds)
        assert c.shape == (9, max(1, Nx // 6) + 1, max(1, Ny // 3))
        for member, seed in zip(c, seeds):
            full = random_field(geom, seed).coeffs
            assert np.array_equal(full[: c.shape[1], : c.shape[2]], member)
            assert not full[c.shape[1]:].any() and not full[:, c.shape[2]:].any()

    def test_band_limits(self, small_geom):
        # the block n <= Nx//6, j <= Ny//3: 21 x 5 on a 128 x 16 grid
        u = random_field(small_geom, seed=4)
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
    def test_quartic_samples_match_full_padding(self, Nx, Ny):
        # a full-band field, its Nyquist slot live, needs the (4Nx, 2Ny) grid
        geom = StripGeometry(B=np.pi, Lx=10.0, Nx=Nx, Ny=Ny, b=0.1)
        u = Field(geom, _random_coeffs(Nx, Ny, seed=3))
        vals, fine = quartic_samples(u.coeffs, u.geometry)
        assert (fine.Nx, fine.Ny) == (4 * Nx, 2 * Ny)
        pad = _padded(u.coeffs, fx=4)
        assert np.array_equal(vals, to_grid(pad, fine))
        # and the scipy reference transform of the same padding
        err = np.max(np.abs(vals - reference_to_grid(pad, fine)))
        assert err < 1e-13 * np.max(np.abs(vals))


def _padded(c, fx=2):
    """Coefficients (Nx//2+1, Ny) -> their (fx*Nx//2+1, 2Ny) zero padding
    for the (fx*Nx, 2Ny) grid; the Nyquist slot splits into a +/- pair."""
    Nx, Ny = 2 * (len(c) - 1), c.shape[1]
    pad = np.zeros((fx * Nx // 2 + 1, 2 * Ny), complex)
    pad[: Nx // 2 + 1, :Ny] = c
    pad[Nx // 2] /= 2.0
    return pad


class TestQuarticGrid:
    """u**4 is integrated on the field's own grid in each direction
    where the quadrature is exact there: x when 4*n_max < Nx, y when
    2*J <= Ny; on the doubled grid otherwise, and in x on the 4Nx grid
    when the Nyquist slot n_max = Nx/2 is live."""

    @pytest.mark.parametrize("Nx,Ny,n_max,J,grid", [
        (64, 16, 15, 3, (64, 16)),  # n_max = Nx/4 - 1
        (64, 16, 16, 3, (128, 16)),  # n_max = Nx/4
        (64, 16, 10, 8, (64, 16)),  # J = Ny/2
        (64, 16, 10, 9, (64, 32)),  # J = Ny/2 + 1
        (64, 7, 10, 3, (64, 7)),  # odd Ny: J = (Ny - 1)/2
        (64, 7, 10, 4, (64, 14)),  # odd Ny: J = (Ny + 1)/2
        (64, 16, 16, 9, (128, 32)),
    ])
    def test_l4_matches_doubled_grid(self, Nx, Ny, n_max, J, grid):
        geom = StripGeometry(B=np.pi, Lx=10.0, Nx=Nx, Ny=Ny, b=0.1)
        c = np.zeros((Nx // 2 + 1, Ny), complex)
        c[: n_max + 1, :J] = _random_coeffs(2 * n_max, J, seed=n_max + J)
        u = Field(geom, c)
        _, chosen = quartic_samples(u.coeffs, u.geometry)
        assert (chosen.Nx, chosen.Ny) == grid
        fine = StripGeometry(B=np.pi, Lx=10.0, Nx=2 * Nx, Ny=2 * Ny)
        vals = reference_to_grid(_padded(c), fine)
        want = np.sqrt(fine.dx * fine.dy * np.sum(vals**4))
        assert inequality(gn_sides, u).lhs == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_sampled_gaussian_takes_the_doubled_grid(self):
        # sampling leaves -6.9e-18 in the Nyquist slot of this field, which
        # no run steps; kept, it sent GN to the 4Nx grid
        geom = StripGeometry(B=np.pi, Lx=10.0, Nx=256, Ny=32, b=0.1)
        u = make_initial_field(InitialData(kind="gaussian_mode", j=2), geom).field
        assert not u.coeffs[-1].any()
        _, chosen = quartic_samples(u.coeffs, u.geometry)
        assert (chosen.Nx, chosen.Ny) == (512, 32)
        fine = StripGeometry(B=np.pi, Lx=10.0, Nx=1024, Ny=64)
        vals = reference_to_grid(_padded(u.coeffs, fx=4), fine)
        want = np.sqrt(fine.dx * fine.dy * np.sum(vals**4))
        assert inequality(gn_sides, u).lhs == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_live_nyquist_slot_matches_quadrupled_grid(self):
        # 4*n_max = 2Nx aliases to the mean on the doubled grid, which
        # read ||u||_L4^2 = 3.0822 for this field, 2.7 % high
        geom = StripGeometry(B=3.0, Lx=4.0, Nx=16, Ny=4)
        c = np.zeros((9, 4), complex)
        c[8, 0], c[1, 0] = 1.0, 0.5
        u = Field(geom, c)
        _, chosen = quartic_samples(u.coeffs, u.geometry)
        assert (chosen.Nx, chosen.Ny) == (64, 4)
        fine = StripGeometry(B=3.0, Lx=4.0, Nx=64, Ny=8)
        vals = reference_to_grid(_padded(c, fx=4), fine)
        want = np.sqrt(fine.dx * fine.dy * np.sum(vals**4))
        assert want == pytest.approx(3.0, rel=1e-14)
        assert inequality(gn_sides, u).lhs == pytest.approx(want, rel=1e-14, abs=0.0)
