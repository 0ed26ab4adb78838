import math
import tracemalloc

import numpy as np
import pytest

from zkbstrip import (
    BlowUpError,
    Field,
    InitialData,
    SolverConfig,
    StripGeometry,
    energy_residual,
    evaluate_mode,
    evolve,
    linear_symbol,
    make_initial_field,
    run,
    weighted_inner,
)
from zkbstrip.fields import _band, to_grid
from zkbstrip.solver import (
    DISPERSION_SANITY_LIMIT,
    Stepper,
    Trajectory,
    _phi123,
    _stepper,
    advance,
    check_dispersion_sanity,
)

from conftest import (
    LINEAR_ORACLE_BAR,
    coupling_coefficient,
    final_field,
    from_values,
    linear_oracle_deviation,
    nonlinear_term,
    random_field,
    reference_sine_coeffs,
    reference_to_grid,
    reference_to_spectral,
    step_rows,
    zeros,
)


def band_mask(g: StripGeometry) -> np.ndarray:
    """Full-layout 0/1 mask of the 2/3 rule: n < Nx/3, j <= max(1, 2*Ny//3).
    It zeroes the Nyquist slot n = Nx/2."""
    mask = np.ones((g.Nx // 2 + 1, g.Ny))
    mask[np.arange(g.Nx // 2 + 1) >= g.Nx / 3.0, :] = 0.0
    mask[:, max(1, 2 * g.Ny // 3):] = 0.0
    return mask


def reference_rhs(c: np.ndarray, g: StripGeometry) -> np.ndarray:
    """-(u u_x)^hat in the full coefficient layout, through the scipy
    reference transforms, on the band projection of c."""
    mask = band_mask(g)
    u = reference_to_grid(c * mask, g)
    return ((-0.5j) * g.wavenumbers()[:, None]
            * reference_to_spectral(u * u, g) * mask)


class TestLinearSymbol:
    def test_constant_mode_is_steady(self):
        assert linear_symbol(0.0, 3.7) == 0.0

    @pytest.mark.parametrize("k,lam,expected", [
        (1.0, 1.0, -1 + 2j),
        (2.0, 1.0, -4 + 10j),
    ])
    def test_dispersion_relation(self, k, lam, expected):
        assert linear_symbol(k, lam) == pytest.approx(expected, abs=1e-14)

    def test_convection_shifts_phase_only(self):
        s0 = linear_symbol(1.5, 2.0, 0)
        s1 = linear_symbol(1.5, 2.0, 1)
        assert s1.real == s0.real
        assert s1.imag == pytest.approx(s0.imag - 1.5)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            linear_symbol(1.0, -0.5)
        with pytest.raises(ValueError):
            linear_symbol(np.ones(2), np.array([1.0, -0.5]))

    def test_arrays_broadcast_like_scalars(self):
        k = np.array([0.0, 0.5, 2.0])[:, None]
        lam = np.array([1.0, 4.0])[None, :]
        sigma = linear_symbol(k, lam, 1)
        assert sigma.shape == (3, 2)
        for i, j in np.ndindex(sigma.shape):
            assert sigma[i, j] == linear_symbol(float(k[i, 0]), float(lam[0, j]), 1)


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, t_end=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, t_end=1.0, convection=2)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, t_end=1.0, output_every=0)

    # no sample step is ever hit at output_every=1.5, so run would step
    # past t_end forever; a non-finite dt or t_end has no step count
    @pytest.mark.parametrize("kwargs,message", [
        ({"output_every": 1.5}, "output_every must be an integer"),
        ({"output_every": 2.0}, "output_every must be an integer"),
        ({"t_end": math.inf}, "t_end must be >= 0 and finite"),
        ({"t_end": math.nan}, "t_end must be >= 0 and finite"),
        ({"dt": math.inf}, "dt must be positive and finite"),
    ], ids=["fractional-output-every", "float-output-every", "infinite-t-end",
            "nan-t-end", "infinite-dt"])
    def test_values_run_cannot_finish(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SolverConfig(**{"dt": 1e-2, "t_end": 0.05, **kwargs})

    def test_dispersion_guard(self):
        g = StripGeometry(B=np.pi, Lx=10.0, Nx=512, Ny=8)
        with pytest.raises(ValueError, match="Im sigma"):
            check_dispersion_sanity(g, SolverConfig(dt=0.1, t_end=1.0))
        check_dispersion_sanity(g, SolverConfig(dt=1e-4, t_end=1.0))

    def test_guard_accepts_reference_resolution(self):
        g = StripGeometry(B=np.pi, Lx=30.0, Nx=1024, Ny=32, b=0.1)
        check_dispersion_sanity(g, SolverConfig(dt=1e-3, t_end=40.0))

    def test_guard_stops_at_band_edge(self):
        # the 2/3 band of a 32-point grid ends at slot n = 10, k = 10
        g = StripGeometry(B=np.pi, Lx=np.pi, Nx=32, Ny=4)
        limit = DISPERSION_SANITY_LIMIT / linear_symbol(10.0, 1.0).imag
        check_dispersion_sanity(g, SolverConfig(dt=limit * 0.999, t_end=1.0))
        with pytest.raises(ValueError, match="Im sigma"):
            check_dispersion_sanity(g, SolverConfig(dt=limit * 1.001, t_end=1.0))


class TestLinearExactness:
    def test_every_mode_evolves_by_exponential(self):
        g = StripGeometry(B=np.pi, Lx=5.0, Nx=64, Ny=8)
        u = random_field(g, seed=8)
        cfg = SolverConfig(dt=0.01, t_end=0.1, nonlinear=False, output_every=10)
        final = final_field(u, cfg).coeffs

        k = g.wavenumbers()
        lam = g.eigenvalues()
        sigma = np.array([[linear_symbol(kk, ll) for ll in lam] for kk in k])
        # the 2/3 band of a 64x8 grid: slots n < 64/3 and modes j <= 5
        expected = np.zeros_like(u.coeffs)
        expected[:22, :5] = u.coeffs[:22, :5] * np.exp(sigma[:22, :5] * 0.1)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(final - expected)) < 1e-13 * max(scale, 1.0)

    def test_single_step_amplitude_and_phase(self):
        g = StripGeometry(B=np.pi, Lx=np.pi, Nx=32, Ny=4)
        f0, _, _ = make_initial_field(
            InitialData(kind="single_mode", amplitude=1.0, k=1.0, j=1), g
        )
        cfg = SolverConfig(dt=0.02, t_end=0.02, nonlinear=False)
        f1 = final_field(f0, cfg)
        ratio = f1.coeffs[1, 0] / f0.coeffs[1, 0]
        assert abs(ratio) == pytest.approx(np.exp(-0.02), rel=1e-13)
        assert np.angle(ratio) == pytest.approx(2 * 0.02, abs=1e-13)

    def test_zero_field_fixed_point(self):
        g = StripGeometry(B=np.pi, Lx=2.0, Nx=16, Ny=4)
        f = zeros(g)
        fields = [u for _, u in evolve(f, SolverConfig(dt=0.01, t_end=0.01))]
        assert len(fields) == 2
        assert np.all(fields[-1].coeffs == 0.0)

    def test_modes_outside_band_leave_only_round_off(self):
        # n = 12 lies outside the 2/3 band n < 32/3 of a 32-point grid
        # (make_initial_field rejects such data)
        g = StripGeometry(B=np.pi, Lx=np.pi, Nx=32, Ny=4)
        c = np.zeros((17, 4), dtype=complex)
        c[12, 0] = -0.5j
        cfg = SolverConfig(dt=1e-3, t_end=0.01, nonlinear=False, output_every=10)
        final = final_field(Field(g, c), cfg)
        # nothing outside the band is left, and at most round-off inside
        assert np.all(final.coeffs[11:, :] == 0.0)
        assert np.max(np.abs(final.coeffs)) < 1e-15

    def test_convection_switch(self):
        # with c=1 the k=1, lam=1 mode rotates at k*(k^2+lam-1) = 1
        g = StripGeometry(B=np.pi, Lx=np.pi, Nx=32, Ny=4)
        f0, _, _ = make_initial_field(
            InitialData(kind="single_mode", amplitude=1.0, k=1.0, j=1), g
        )
        cfg = SolverConfig(dt=1e-2, t_end=0.5, nonlinear=False, convection=1,
                           output_every=50)
        ratio = final_field(f0, cfg).coeffs[1, 0] / f0.coeffs[1, 0]
        assert abs(ratio) == pytest.approx(np.exp(-0.5), rel=1e-12)
        assert np.angle(ratio) == pytest.approx(0.5, abs=1e-12)


class TestLinearWeightedOracle:
    def test_every_sample_matches_the_exact_weighted_norm(self):
        assert linear_oracle_deviation() < LINEAR_ORACLE_BAR


class TestNonlinearTerm:
    def test_zero(self, small_geom):
        out = nonlinear_term(zeros(small_geom))
        assert np.all(out.coeffs == 0.0)

    def test_skew_symmetry(self):
        g = StripGeometry(B=np.pi, Lx=8.0, Nx=96, Ny=12)
        for seed in range(5):
            u = random_field(g, seed=seed)
            pairing = weighted_inner(nonlinear_term(u), u)
            # cubic scale: ||u||^3-ish; fields are unit norm
            assert abs(pairing) < 1e-10

    def test_matches_coupling_oracle(self):
        # u = sin(x) w_1(y): modal content of u*u_x is T_{11j} * sin(2x)/2
        g = StripGeometry(B=np.pi, Lx=np.pi, Nx=48, Ny=128)
        x = g.x_grid()
        w1 = evaluate_mode(1, g.y_grid(), g.B)
        u = from_values(g, np.sin(x)[:, None] * w1[None, :])
        grid = to_grid(nonlinear_term(u).coeffs, g)
        modal = reference_sine_coeffs(grid, g, axis=1)
        target = 0.5 * np.sin(2 * x)
        for j in range(1, 9):
            T = coupling_coefficient(1, 1, j, g.B)
            assert np.max(np.abs(modal[:, j - 1] - T * target)) < 1e-6

    def test_dealias_removes_high_modes(self):
        g = StripGeometry(B=np.pi, Lx=np.pi, Nx=48, Ny=12)
        u = random_field(g, seed=2)
        out = nonlinear_term(u)
        assert np.all(out.coeffs[16:, :] == 0.0)  # n >= Nx/3
        assert np.all(out.coeffs[:, 8:] == 0.0)   # j > 2*Ny/3


def random_coeffs(g: StripGeometry, seed: int) -> np.ndarray:
    """Coefficients of a real field with every slot and mode filled."""
    rng = np.random.default_rng(seed)
    shape = (g.Nx // 2 + 1, g.Ny)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c[[0, -1]] = c[[0, -1]].real  # the mean and Nyquist slots are real
    return c


def symmetric_coeffs(g: StripGeometry, seed: int) -> np.ndarray:
    """random_coeffs with the even y modes zeroed: a field even about
    y = B/2."""
    c = random_coeffs(g, seed)
    c[:, 1::2] = 0.0
    return c


def stepper_cases(g: StripGeometry, seed: int, scale: float = 1.0):
    """(stepper, stack of one band state) for random band data and for its
    odd block alone, the state of data with an all-zero even block."""
    st = Stepper(g, 1e-3)
    c = st.band.gather(scale * random_coeffs(g, seed))[None]
    return [(st, c), (st, c[:, : st.band.n_odd].copy())]


def reference_etdrk4_step(c: np.ndarray, g: StripGeometry, dt: float) -> np.ndarray:
    """One ETDRK4 step in the full layout, from the band projection of c."""
    k = g.wavenumbers()[:, None]
    z = dt * (-(k**2) + 1j * k * (k**2 + g.eigenvalues()[None, :]))
    (p1h, _, _), (p1, p2, p3) = _phi123(z / 2.0), _phi123(z)
    E, E2, M = np.exp(z), np.exp(z / 2.0), (dt / 2.0) * p1h
    c = c * band_mask(g)
    n0 = reference_rhs(c, g)
    a = E2 * c + M * n0
    na = reference_rhs(a, g)
    nb = reference_rhs(E2 * c + M * na, g)
    nc = reference_rhs(E2 * a + M * (2.0 * nb - n0), g)
    return (E * c + dt * (p1 - 3.0 * p2 + 4.0 * p3) * n0
            + 2.0 * dt * (p2 - 2.0 * p3) * (na + nb) + dt * (4.0 * p3 - p2) * nc)


@pytest.mark.parametrize("Nx,Ny", [(4, 1), (4, 2), (4, 3), (10, 7), (48, 12),
                                   (1024, 32)])
class TestBandEquivalence:
    """The band-only stepper against the full-layout transforms and an
    explicit 2/3 mask, on degenerate grids, on an Nx that 3 does not
    divide and on the paper-ref grid."""

    @staticmethod
    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @staticmethod
    def geometry(Nx, Ny):
        # at 1024 points only paper-ref's Lx = 30 passes the dispersion
        # guard with dt = 1e-3
        return StripGeometry(B=np.pi, Lx=30.0 if Nx == 1024 else np.pi,
                             Nx=Nx, Ny=Ny)

    def test_nonlinear_term(self, Nx, Ny):
        g = self.geometry(Nx, Ny)
        c = random_coeffs(g, seed=Nx + Ny)
        got = nonlinear_term(Field(g, c)).coeffs
        assert self.close(got, -reference_rhs(c, g))

    def test_one_step_run(self, Nx, Ny):
        g = self.geometry(Nx, Ny)
        c = random_coeffs(g, seed=Nx * Ny)
        cfg = SolverConfig(dt=1e-3, t_end=1e-3)
        got = final_field(Field(g, c), cfg).coeffs
        assert self.close(got, reference_etdrk4_step(c, g, 1e-3))

    def test_symmetric_nonlinear_term(self, Nx, Ny):
        # the odd block alone, product skipping every even-mode term
        g = self.geometry(Nx, Ny)
        c = symmetric_coeffs(g, seed=Nx + Ny)
        band = _band(g)
        square = Stepper(g, 1e-3).nonlinear_rhs(band.gather(c)[None, : band.n_odd])
        got, want = band.scatter(-band.slot * square[0]), -reference_rhs(c, g)
        # at 4x3 the one kept product slot is 1e-4 of its O(|c|**2) terms
        scale = max(np.max(np.abs(want)), np.max(np.abs(c)) ** 2)
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    def test_symmetric_one_step_run(self, Nx, Ny):
        g = self.geometry(Nx, Ny)
        c = symmetric_coeffs(g, seed=Nx * Ny)
        cfg = SolverConfig(dt=1e-3, t_end=1e-3)
        got = final_field(Field(g, c), cfg).coeffs
        assert not got[:, 1::2].any()
        assert self.close(got, reference_etdrk4_step(c, g, 1e-3))


def allocating_etdrk4_step(st: Stepper, c: np.ndarray) -> np.ndarray:
    """One ETDRK4 step of a stack c as the plain allocating expression on
    the band, in the stepper's operand order, with the derivative in its
    weights."""
    def square(v):
        return st.nonlinear_rhs(v).copy()

    E, E2, M, f1, f2, f3 = (t[: c.shape[1]] for t in (
        st.E, st.E2, st.M, st.f1, st.f2, st.f3))
    e2c = E2 * c
    n0 = square(c)
    a = e2c + M * n0
    na = square(a)
    b = e2c + M * na
    nb = square(b)
    cc = E2 * a + M * (nb * 2.0 - n0)
    nc = square(cc)
    return E * c + f1 * n0 + f2 * na + f2 * nb + f3 * nc


class TestInPlaceStep:
    """The stepper forms its stage sums and its product in the buffers of
    its workspace; that may not change a bit of the result."""

    @pytest.mark.parametrize("Lx,Nx,Ny", [
        (30.0, 1024, 32),
        (8.0, 64, 12),
        (np.pi, 10, 7),
    ])
    def test_matches_allocating_step(self, Lx, Nx, Ny):
        g = StripGeometry(B=np.pi, Lx=Lx, Nx=Nx, Ny=Ny)
        for st, c in stepper_cases(g, seed=Nx, scale=0.1):
            want = c.copy()
            for _ in range(20):
                c = st.step_erk4(c)
                want = allocating_etdrk4_step(st, want)
                assert np.array_equal(c, want)

    def test_step_results_do_not_alias(self):
        g = StripGeometry(B=np.pi, Lx=8.0, Nx=64, Ny=12)
        for st, c in stepper_cases(g, seed=1, scale=0.1):
            c = st.step_erk4(c)
            kept = c.copy()
            later = st.step_erk4(c)
            assert np.array_equal(c, kept)
            st.step_erk4(later)
            assert np.array_equal(c, kept)
            assert not np.shares_memory(c, later)

    def test_square_after_another_matches_fresh_band(self):
        # the padded tail of the workspace's spectrum is zero again on
        # every call; a fresh stepper has a fresh workspace
        g = StripGeometry(B=np.pi, Lx=8.0, Nx=64, Ny=12)
        st, band = Stepper(g, 1e-3), _band(g)
        st.nonlinear_rhs(band.gather(random_coeffs(g, seed=1))[None])
        second = band.gather(random_coeffs(g, seed=2))[None]
        assert np.array_equal(st.nonlinear_rhs(second),
                              Stepper(g, 1e-3).nonlinear_rhs(second))

    def test_step_allocates_only_its_result(self):
        # one state, and a stack of three on its tiled tables
        g = StripGeometry(B=np.pi, Lx=30.0, Nx=1024, Ny=32)
        for st, c in stepper_cases(g, seed=3, scale=0.1):
            for c in (c, np.concatenate([c, 0.5 * c, 2.0 * c])):
                c = st.step_erk4(st.step_erk4(c))  # workspace, FFT plans
                tracemalloc.start()
                try:
                    out = st.step_erk4(c)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert out.shape == c.shape
                assert peak < 1.5 * out.nbytes

    def test_runs_differing_in_t_end_share_a_stepper(self):
        g = StripGeometry(B=np.pi, Lx=8.0, Nx=64, Ny=12)
        u0 = random_field(g, seed=2) * 0.1
        _stepper.cache_clear()
        run(u0, SolverConfig(dt=1e-3, t_end=0.01))
        run(u0, SolverConfig(dt=1e-3, t_end=0.02, output_every=7))
        assert _stepper.cache_info().misses == 1

    def test_stepper_steps_the_transform_band(self):
        g = StripGeometry(B=np.pi, Lx=8.0, Nx=64, Ny=12)
        assert Stepper(g, 1e-3).band is _band(g)

    def test_band_tables_are_read_only(self):
        # every table of the band is shared by all users of its geometry
        g = StripGeometry(B=np.pi, Lx=8.0, Nx=64, Ny=12, b=0.1)
        band = _band(g)
        Stepper(g, 1e-3).nonlinear_rhs(band.gather(random_coeffs(g, seed=1))[None])
        tables = {name: t for name, t in vars(band).items()
                  if isinstance(t, np.ndarray)}
        assert {"sines", "synthesis", "analysis", "synthesis_odd",
                "analysis_odd", "slot", "w_l2", "w_dx", "w_grad", "ik", "w_x",
                "w_sup", "order"} <= tables.keys()
        for name, t in tables.items():
            assert not t.flags.writeable, name
            with pytest.raises(ValueError):
                t.flat[0] = 1.0

    def test_stepper_tables_are_read_only(self):
        # _stepper shares one stepper between runs, with the tables its
        # workspace tiles for a stack
        g = StripGeometry(B=np.pi, Lx=8.0, Nx=64, Ny=12, b=0.1)
        for st, c in stepper_cases(g, seed=1):
            st.step_erk4(c)
            st.step_erk4(np.concatenate([c, c]))
            tables = {name: t for name, t in vars(st).items()
                      if isinstance(t, np.ndarray)}
            assert tables.keys() == {"E", "E2", "M", "f1", "f2", "f3",
                                     "w_l2", "w_dx"}
            shape, buffers = st._work
            tiled = buffers[:6]
            assert shape == (2, c.shape[1])
            assert all(t.shape == (2, c.shape[1], st.band.nb) for t in tiled)
            tables.update((f"tiled {k}", t) for k, t in enumerate(tiled))
            for name, t in tables.items():
                assert not t.flags.writeable, name
                with pytest.raises(ValueError):
                    t.flat[0] = 1.0

    def test_transforms_between_steps_leave_run_unchanged(self):
        # the stepper shares its band with to_grid and x_modes; neither
        # may touch the stepper's workspace
        g = StripGeometry(B=np.pi, Lx=8.0, Nx=64, Ny=12, b=0.1)
        band = _band(g)
        u0 = random_field(g, seed=5) * 0.2
        other = Field(g, random_coeffs(g, seed=9))
        want = (to_grid(other.coeffs, g), band.x_modes(other.coeffs))
        cfg = SolverConfig(dt=1e-3, t_end=0.02)

        def runs(observer):
            samples, fields = [], []
            for sample, u in evolve(u0, cfg):
                samples.append(tuple(vars(sample).values()))
                fields.append(u.coeffs)
                observer()
            return samples, fields

        grids, stale = [], []

        def transforms():
            # the grids made at the last sample must survive the step since
            stale.extend(not np.array_equal(v, w) for v, w in zip(grids, want))
            grids[:] = to_grid(other.coeffs, g), band.x_modes(other.coeffs)

        plain, plain_fields = runs(lambda: None)
        busy, busy_fields = runs(transforms)
        assert busy == plain
        assert all(np.array_equal(a, b) for a, b in zip(busy_fields, plain_fields))
        assert len(busy_fields) == 21
        assert len(stale) == 40 and not any(stale)


class TestStackedStep:
    """A stack (S, n, nb) of S states steps, through one product per
    stage, exactly as S single steps do."""

    @pytest.mark.parametrize("S", [1, 2, 3])
    @pytest.mark.parametrize("Lx,Nx,Ny", [
        (30.0, 1024, 32),
        (8.0, 64, 12),
        (np.pi, 10, 7),
        (8.0, 64, 30),  # 2*n_odd = nj: tables keyed on (S, n), not S*n
    ])
    def test_matches_single_steps(self, Lx, Nx, Ny, S):
        g = StripGeometry(B=np.pi, Lx=Lx, Nx=Nx, Ny=Ny)
        for st, c in stepper_cases(g, seed=Nx + S, scale=0.1):
            singles = [(1.0 + 0.5 * s) * c for s in range(S)]
            stack = np.concatenate(singles)
            for _ in range(20):
                stack = st.step_erk4(stack)
                singles = [st.step_erk4(c) for c in singles]
                assert stack.shape == (S, *singles[0].shape[1:])
                assert stack.flags.c_contiguous
                assert all(np.array_equal(a, c[0]) for a, c in zip(stack, singles))


class TestParitySplit:
    """Data even about y = B/2 (odd modes only) stays so; run then steps
    its odd block alone, on half the y grid."""

    @pytest.mark.parametrize("Lx,Nx,Ny", [
        (30.0, 1024, 32),
        (8.0, 64, 12),
        (np.pi, 10, 7),
        (np.pi, 4, 3),
    ])
    def test_odd_block_step_matches_full_band_step(self, Lx, Nx, Ny):
        # The full-grid product sums mirrored grid rows whose sines differ
        # in the last bit, so it leaves rounding in the even block and the
        # two part by rounding: at most 6.1e-16 of the largest coefficient
        # over these 20 steps (1024x32), and exactly nothing at Ny <= 7.
        g = StripGeometry(B=np.pi, Lx=Lx, Nx=Nx, Ny=Ny)
        st = Stepper(g, 1e-3)
        n_odd = st.band.n_odd
        c = st.band.gather(0.1 * symmetric_coeffs(g, seed=Nx))[None]
        c_odd = c[:, :n_odd].copy()
        for _ in range(20):
            c, c_odd = st.step_erk4(c), st.step_erk4(c_odd)
            assert c_odd.shape == (1, n_odd, st.band.nb)
            scale = np.max(np.abs(c_odd))
            assert np.max(np.abs(c[:, :n_odd] - c_odd)) <= 1e-14 * scale
            assert np.max(np.abs(c[:, n_odd:])) <= 1e-15 * scale

    def test_symmetric_run_steps_the_odd_block(self, monkeypatch):
        g = StripGeometry(B=np.pi, Lx=8.0, Nx=64, Ny=12)
        u0 = make_initial_field(
            InitialData(kind="gaussian_mode", amplitude=0.2, j=3), g).field
        st = _stepper(g, 1e-3, 0, True)
        rows = step_rows(monkeypatch, st)
        got = final_field(u0, SolverConfig(dt=1e-3, t_end=0.01)).coeffs
        assert rows == [(1, st.band.n_odd)] * 10
        assert not got[:, 1::2].any() and got[:, 2].any()

    def test_even_mode_data_takes_the_full_band(self, monkeypatch):
        # w_2 is odd about y = B/2; forcing the reduction would drop it
        g = StripGeometry(B=np.pi, Lx=8.0, Nx=64, Ny=12)
        u0 = make_initial_field(
            InitialData(kind="gaussian_mode", amplitude=0.2, j=2), g).field
        st = _stepper(g, 1e-3, 0, True)
        c = st.band.gather(u0.coeffs)[None]
        for _ in range(10):
            c = st.step_erk4(c)
        rows = step_rows(monkeypatch, st)
        got = final_field(u0, SolverConfig(dt=1e-3, t_end=0.01)).coeffs
        assert rows == [(1, st.band.nj)] * 10
        assert np.array_equal(got, st.band.scatter(c[0]))
        assert got[:, 1].any()


class TestRun:
    def test_zero_run(self, small_geom):
        series = run(zeros(small_geom), SolverConfig(dt=0.01, t_end=0.1))
        assert series.status == "clean"
        assert all(s.l2 == 0.0 and s.w_l2 == 0.0 for s in series.samples)

    def test_linear_mode_decay_to_t1(self):
        g = StripGeometry(B=np.pi, Lx=np.pi, Nx=32, Ny=4)
        f0, _, _ = make_initial_field(
            InitialData(kind="single_mode", amplitude=1.0, k=1.0, j=1), g
        )
        cfg = SolverConfig(dt=1e-3, t_end=1.0, nonlinear=False, output_every=100)
        series = run(f0, cfg)
        ratio = series.samples[-1].l2 / series.samples[0].l2
        assert ratio == pytest.approx(np.exp(-2.0), abs=1e-12)

    def test_single_y_mode_grid(self):
        # degenerate Ny=1 grid must keep its one mode under dealiasing
        g = StripGeometry(B=np.pi, Lx=np.pi, Nx=32, Ny=1)
        f0, _, _ = make_initial_field(
            InitialData(kind="single_mode", amplitude=0.5, k=1.0, j=1), g
        )
        series = run(f0, SolverConfig(dt=1e-2, t_end=0.5, nonlinear=False,
                                      output_every=50))
        assert series.samples[-1].l2 > 0
        ratio = series.samples[-1].l2 / series.samples[0].l2
        assert ratio == pytest.approx(np.exp(-1.0), rel=1e-10)

    def test_monotone_l2_and_energy_identity(self):
        g = StripGeometry(B=np.pi, Lx=15.0, Nx=256, Ny=24, b=0.1)
        f0, _, _ = make_initial_field(
            InitialData(kind="gaussian_mode", amplitude=0.2, s=2.0, j=1), g
        )
        cfg = SolverConfig(dt=1e-3, t_end=1.0, output_every=50)
        series = run(f0, cfg)
        l2 = series.column("l2")
        diss = series.column("diss_cum")
        assert np.all(np.diff(l2) <= 0)
        assert np.all(np.diff(diss) >= 0)
        assert energy_residual(series) < 1e-6

    def test_default_config_meets_energy_identity(self):
        # sampling every 100 steps does not coarsen the dissipation integral
        g = StripGeometry(B=np.pi, Lx=15.0, Nx=256, Ny=24, b=0.1)
        f0, _, _ = make_initial_field(
            InitialData(kind="gaussian_mode", amplitude=0.2, s=2.0, j=1), g
        )
        series = run(f0, SolverConfig(dt=1e-3, t_end=1.0, output_every=100))
        assert energy_residual(series) < 1e-6

    def test_times_strictly_increasing(self, small_geom):
        u = random_field(small_geom, seed=1) * 1e-3
        series = run(u, SolverConfig(dt=0.01, t_end=0.3, output_every=7))
        t = series.times()
        assert np.all(np.diff(t) > 0)
        assert t[-1] == pytest.approx(0.3)

    def test_blow_up_raises_with_partial_series(self):
        g = StripGeometry(B=np.pi, Lx=10.0, Nx=32, Ny=4)
        f0, _, _ = make_initial_field(
            InitialData(kind="gaussian_mode", amplitude=40.0, s=2.0, j=1), g
        )
        with pytest.raises(BlowUpError) as info:
            run(f0, SolverConfig(dt=1.0, t_end=30.0))
        err = info.value
        assert err.series.samples[-1].t < err.t
        assert len(err.series.samples) >= 1

    def test_contamination_flagged_but_returned(self):
        g = StripGeometry(B=np.pi, Lx=15.0, Nx=256, Ny=24, b=0.1)
        f0, _, _ = make_initial_field(
            InitialData(kind="gaussian_mode", amplitude=0.3, s=2.0, j=1), g
        )
        series = run(f0, SolverConfig(dt=1e-3, t_end=2.0, output_every=100))
        assert series.status == "contaminated"
        assert series.contaminated_at is not None
        assert series.samples[-1].t == pytest.approx(2.0)

    def test_t_end_not_divisible(self, small_geom):
        u = zeros(small_geom)
        with pytest.raises(ValueError, match="integer number of steps"):
            run(u, SolverConfig(dt=0.007, t_end=0.1))

    def test_deterministic_reruns(self, small_geom):
        u = random_field(small_geom, seed=6) * 0.1
        cfg = SolverConfig(dt=0.005, t_end=0.2, output_every=10)
        s1 = run(u, cfg)
        s2 = run(u, cfg)
        assert [tuple(vars(a).values()) for a in s1.samples] == [
            tuple(vars(b).values()) for b in s2.samples
        ]



class TestEvolve:
    """evolve yields each sample; run collects them."""

    def test_run_collects_the_samples_of_evolve(self, small_geom):
        u = random_field(small_geom, seed=2) * 0.1
        cfg = SolverConfig(dt=0.005, t_end=0.1, output_every=7)
        assert run(u, cfg).samples == [s for s, _ in evolve(u, cfg)]

    def test_caller_that_stops_steps_no_further(self, monkeypatch):
        g = StripGeometry(B=np.pi, Lx=8.0, Nx=64, Ny=12)
        u0 = random_field(g, seed=3) * 0.1
        cfg = SolverConfig(dt=1e-3, t_end=0.1, output_every=10)
        rows = step_rows(monkeypatch, _stepper(g, cfg.dt, 0, True))
        samples = evolve(u0, cfg)
        assert [next(samples)[0].t, next(samples)[0].t] == [0.0, 10 * cfg.dt]
        samples.close()
        assert len(rows) == 10

    def test_runs_in_turn_match_runs_one_after_the_other(self, monkeypatch):
        # an odd-block run (j = 1) and a full-band run (j = 2) on one
        # geometry share the stepper and its workspace, row counts
        # alternating from one step to the next
        g = StripGeometry(B=np.pi, Lx=8.0, Nx=64, Ny=12)
        u0s = [make_initial_field(
            InitialData(kind="gaussian_mode", amplitude=0.2, j=j), g).field
            for j in (1, 2)]
        cfg = SolverConfig(dt=1e-3, t_end=0.02)
        apart = [list(evolve(u0, cfg)) for u0 in u0s]
        st = _stepper(g, cfg.dt, 0, True)
        rows = step_rows(monkeypatch, st)
        in_turn = list(zip(*(evolve(u0, cfg) for u0 in u0s)))
        assert rows == [(1, st.band.n_odd), (1, st.band.nj)] * 20
        for k, want in enumerate(apart):
            got = [pair[k] for pair in in_turn]
            assert len(got) == len(want) == 21
            for (s, u), (s_want, u_want) in zip(got, want):
                assert s == s_want
                assert np.array_equal(u.coeffs, u_want.coeffs)

    def test_blow_up_carries_the_samples_so_far(self):
        g = StripGeometry(B=np.pi, Lx=10.0, Nx=32, Ny=4)
        f0, _, _ = make_initial_field(
            InitialData(kind="gaussian_mode", amplitude=40.0, s=2.0, j=1), g
        )
        seen = []
        with pytest.raises(BlowUpError) as info:
            for sample, _ in evolve(f0, SolverConfig(dt=1.0, t_end=30.0)):
                seen.append(sample)
        assert seen and info.value.series.samples == seen
        assert seen[-1].t < info.value.t

class TestAdvance:
    """advance steps runs together, each to its own next sample."""

    G = StripGeometry(B=np.pi, Lx=8.0, Nx=64, Ny=12)

    @staticmethod
    def assert_same(got, want):
        assert len(got) == len(want)
        for (s, u), (s_want, u_want) in zip(got, want):
            assert s == s_want
            assert np.array_equal(u.coeffs, u_want.coeffs)

    def test_members_leave_at_their_own_samples(self, monkeypatch):
        # a run one sample ahead reaches t_end after 5 steps and leaves the
        # stack; the other steps on alone to its sample 5 steps later
        u0s = [random_field(self.G, seed=s) * 0.1 for s in (1, 2)]
        cfg = SolverConfig(dt=1e-3, t_end=0.025, output_every=10)
        apart = [list(evolve(u0, cfg)) for u0 in u0s]
        behind, ahead = (Trajectory(u0, cfg) for u0 in u0s)
        st = behind.stepper
        got = [advance([behind, ahead]), advance([ahead]), advance([ahead])]
        rows = step_rows(monkeypatch, st)
        got.append(advance([ahead, behind]))
        assert rows == [(2, st.band.nj)] * 5 + [(1, st.band.nj)] * 5
        assert ahead.target is None and behind.step == 10
        got += [advance([behind]), advance([behind])]
        assert behind.target is None
        self.assert_same([got[0][0], got[3][1], got[4][0], got[5][0]], apart[0])
        self.assert_same([got[0][1], got[1][0], got[2][0], got[3][0]], apart[1])

    @pytest.mark.parametrize("other", ["row count", "stepper"])
    def test_one_stack_per_call(self, monkeypatch, other):
        # an odd-block run (j = 1) with a full-band run (j = 2), or with a
        # run at another dt, is refused before either is recorded or stepped
        j1, j2 = (make_initial_field(
            InitialData(kind="gaussian_mode", amplitude=0.2, j=j), self.G).field
            for j in (1, 2))
        cfg = SolverConfig(dt=1e-3, t_end=0.02, output_every=10)
        first = Trajectory(j1, cfg)
        advance([first])
        second = (Trajectory(j2, cfg) if other == "row count"
                  else Trajectory(j1, SolverConfig(dt=2e-3, t_end=0.02)))
        rows = step_rows(monkeypatch, first.stepper)
        with pytest.raises(ValueError, match="one stepper and one row count"):
            advance([first, second])
        assert rows == [] and first.step == 0 and len(first.samples) == 1
        assert second.step == 0 and second.samples == []

    def test_blow_up_raised_for_the_earliest_t(self):
        # two members blow up at one stacked step: whatever their order,
        # the one at the earlier t is raised, with its samples
        cfg = SolverConfig(dt=1e-3, t_end=0.05, output_every=10)
        early, late = (Trajectory(random_field(self.G, seed=s) * 0.1, cfg)
                       for s in (1, 2))
        advance([early, late])
        advance([late])
        early.limit = late.limit = 0.0
        with pytest.raises(BlowUpError) as info:
            advance([late, early])
        assert info.value.t == 1e-3
        assert info.value.series.samples is early.samples
        assert late.step == 11


def cnab2_final(u0: Field, dt: float, t_end: float) -> Field:
    """Independent reference integrator: IMEX Crank-Nicolson on the
    linear part, second-order Adams-Bashforth on the dealiased nonlinear
    term (first order on the first step)."""
    g = u0.geometry
    k = g.wavenumbers()[:, None]
    z = dt * (-(k**2) + 1j * k * (k**2 + g.eigenvalues()[None, :]))
    cn_inv = 1.0 / (1.0 - z / 2.0)
    cn_fwd = (1.0 + z / 2.0) * cn_inv
    c = u0.coeffs * band_mask(g)
    n_prev = None
    for _ in range(int(round(t_end / dt))):
        n_cur = -nonlinear_term(Field(g, c)).coeffs
        n_prev = n_cur if n_prev is None else n_prev
        c = cn_fwd * c + dt * cn_inv * (1.5 * n_cur - 0.5 * n_prev)
        n_prev = n_cur
    return Field(g, c)


class TestSchemes:
    @pytest.fixture(scope="class")
    def u0(self):
        g = StripGeometry(B=np.pi, Lx=15.0, Nx=128, Ny=16, b=0.0)
        return make_initial_field(
            InitialData(kind="gaussian_mode", amplitude=1.0, s=1.5, j=1), g
        ).field

    @staticmethod
    def etdrk4_final(u0, dt):
        cfg = SolverConfig(dt=dt, t_end=0.5, output_every=int(round(0.5 / dt)))
        return final_field(u0, cfg)

    def test_cnab2_second_order(self, u0):
        ref = self.etdrk4_final(u0, 1.25e-4)
        errs = []
        for dt in (2e-3, 1e-3, 5e-4):
            diff = cnab2_final(u0, dt, 0.5) - ref
            errs.append(np.sqrt(diff.l2sq()))
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        assert all(r > 3.0 for r in ratios), (errs, ratios)

    def test_schemes_agree_at_small_dt(self, u0):
        diff = self.etdrk4_final(u0, 2.5e-4) - cnab2_final(u0, 2.5e-4, 0.5)
        assert np.sqrt(diff.l2sq()) < 1e-6
