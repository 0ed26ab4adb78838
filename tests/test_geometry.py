import numpy as np
import pytest
from scipy.integrate import quad

from zkbstrip import StripGeometry, eigenvalue, evaluate_mode
from zkbstrip.fields import _band, parseval_sums, to_grid, to_spectral

from conftest import (
    coupling_coefficient,
    reference_to_grid,
    reference_to_spectral,
)


class TestEigenvalue:
    @pytest.mark.parametrize("j,B,expected", [
        (1, np.pi, 1.0),
        (2, np.pi, 4.0),
        (1, np.pi / 2, 4.0),
    ])
    def test_closed_form(self, j, B, expected):
        assert eigenvalue(j, B) == pytest.approx(expected, abs=1e-14)

    def test_scaling_is_exact(self):
        # halving the width quadruples every eigenvalue, exactly in floats
        for j in range(1, 20):
            for B in (0.7, np.pi, 12.5):
                assert eigenvalue(j, B) == 4.0 * eigenvalue(j, 2 * B)

    def test_strictly_increasing(self):
        lams = [eigenvalue(j, 2.3) for j in range(1, 30)]
        assert all(a < b for a, b in zip(lams, lams[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            eigenvalue(0, np.pi)
        with pytest.raises(ValueError):
            eigenvalue(1, -1.0)
        with pytest.raises(ValueError):
            eigenvalue(1, 0.0)
        with pytest.raises(ValueError, match="finite"):
            eigenvalue(1, np.inf)


class TestEvaluateMode:
    def test_peak_value(self):
        # sqrt(2/2)*sin(pi/2) = 1
        assert evaluate_mode(1, 1.0, 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_midpoint_zero_for_even_mode(self):
        for B in (1.0, np.pi, 7.5):
            assert evaluate_mode(2, B / 2, B) == pytest.approx(0.0, abs=1e-14)

    def test_hand_evaluation(self):
        # sqrt(2/pi)*sin(pi/4) = 1/sqrt(pi)
        val = evaluate_mode(1, np.pi / 4, np.pi)
        assert val == pytest.approx(1.0 / np.sqrt(np.pi), abs=1e-14)

    def test_vanishes_at_walls(self):
        for j in (1, 3, 8):
            assert evaluate_mode(j, 0.0, 2.5) == 0.0
            assert evaluate_mode(j, 2.5, 2.5) == pytest.approx(0.0, abs=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            evaluate_mode(1, -0.1, 2.0)
        with pytest.raises(ValueError):
            evaluate_mode(1, 2.1, 2.0)
        with pytest.raises(ValueError):
            evaluate_mode(0, 1.0, 2.0)
        with pytest.raises(ValueError, match="finite"):
            evaluate_mode(1, 0.5, np.inf)


class TestBasis:
    def test_orthonormal_gram(self):
        # interior-grid quadrature reproduces the identity Gram matrix
        B, Ny = 2.7, 256
        geom = StripGeometry(B=B, Lx=1.0, Nx=4, Ny=Ny)
        W = np.column_stack(
            [evaluate_mode(j, geom.y_grid(), B) for j in range(1, Ny + 1)]
        )
        gram = geom.dy * (W.T @ W)
        assert np.max(np.abs(gram - np.eye(Ny))) < 1e-10


# y mode counts from the degenerate 1 to well past the 64 of the widest
# grid a run or verifier uses
SINE_NYS = (1, 32, 64, 65, 100, 512)


class TestSineTransform:
    """fields.to_grid/to_spectral, whose y part is the dense DST-I matrix,
    against the scipy.fft reference in conftest."""

    def test_single_mode_round_trip(self):
        for Ny in SINE_NYS:
            g = StripGeometry(B=np.pi, Lx=1.0, Nx=4, Ny=Ny)
            e1 = np.zeros((3, Ny), complex)
            e1[0, 0] = 1.0
            vals = to_grid(e1, g)
            assert np.allclose(vals, evaluate_mode(1, g.y_grid(), g.B)[None, :],
                               atol=1e-14)
            assert np.allclose(to_spectral(vals, g), e1, atol=1e-14)

    def test_zero_vector(self):
        for Ny in SINE_NYS:
            g = StripGeometry(B=1.5, Lx=1.0, Nx=4, Ny=Ny)
            assert np.all(to_spectral(np.zeros((4, Ny)), g) == 0.0)
            assert np.all(to_grid(np.zeros((3, Ny), complex), g) == 0.0)

    def test_random_round_trips(self):
        rng = np.random.default_rng(42)
        for Ny in SINE_NYS:
            g = StripGeometry(B=1.9, Lx=1.0, Nx=8, Ny=Ny)
            for _ in range(10):
                v = rng.standard_normal((8, Ny))
                c = to_spectral(v, g)
                back = to_grid(c, g)
                assert np.max(np.abs(back - v)) < 1e-12
                assert np.max(np.abs(back - reference_to_grid(c, g))) < 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(7)
        for Ny in SINE_NYS:
            g = StripGeometry(B=3.3, Lx=2.0, Nx=8, Ny=Ny)
            for _ in range(5):
                v = rng.standard_normal((8, Ny))
                c = to_spectral(v, g)
                band = _band(g)
                tables = (band.w_l2, band.w_dx, band.w_grad)
                sums = parseval_sums(c, *tables)
                assert sums[0] == pytest.approx(g.dx * g.dy * np.sum(v**2),
                                                rel=1e-10)
                # one sum per table, each as if computed on its own
                assert sums == tuple(parseval_sums(c, t)[0] for t in tables)

    def test_matches_scipy_reference(self):
        rng = np.random.default_rng(3)
        for Ny in SINE_NYS:
            g = StripGeometry(B=2.2, Lx=1.0, Nx=10, Ny=Ny)
            v = rng.standard_normal((10, Ny))
            direct = reference_to_spectral(v, g)
            assert np.max(np.abs(to_spectral(v, g) - direct)) < 1e-13

    def test_ny_512_matches_scipy_to_rounding(self):
        # the sine matrix's arguments m*j, reduced modulo 2(Ny + 1), keep
        # both directions within about 1e-15 of scipy's DST-I at Ny = 512,
        # relative to the largest reference value (6e-14 unreduced)
        g = StripGeometry(B=np.pi, Lx=np.pi, Nx=16, Ny=512)
        rng = np.random.default_rng(0)
        v = rng.standard_normal((g.Nx, g.Ny))
        want = reference_to_spectral(v, g)
        assert np.max(np.abs(to_spectral(v, g) - want)) < 1e-14 * np.max(np.abs(want))
        c = rng.standard_normal((9, g.Ny)) + 1j * rng.standard_normal((9, g.Ny))
        want = reference_to_grid(c, g)
        assert np.max(np.abs(to_grid(c, g) - want)) < 1e-14 * np.max(np.abs(want))

    def test_round_trip_preserves_length(self):
        for Ny in SINE_NYS:
            g = StripGeometry(B=2.0, Lx=1.0, Nx=6, Ny=Ny)
            v = np.linspace(0.3, 1.0, 6 * Ny).reshape(6, Ny)
            assert to_spectral(v, g).shape == (4, Ny)
            assert to_grid(to_spectral(v, g), g).shape == (6, Ny)


class TestCouplingCoefficient:
    def test_parity_zero(self):
        assert coupling_coefficient(1, 1, 2, np.pi) == 0.0
        assert coupling_coefficient(2, 2, 8, 1.7) == 0.0

    def test_frozen_values(self):
        # quadrature-oracle values; hand "approximations" elsewhere differ
        # in the 5th digit
        assert coupling_coefficient(1, 1, 1, np.pi) == pytest.approx(
            0.677265449965237, abs=1e-12
        )
        assert coupling_coefficient(1, 2, 2, np.pi) == pytest.approx(
            0.5418123599721896, abs=1e-12
        )

    def test_symmetry(self):
        B = 2.4
        for (i, j, k) in [(1, 2, 4), (3, 5, 2), (2, 2, 1)]:
            vals = {
                coupling_coefficient(a, b, c, B)
                for (a, b, c) in [(i, j, k), (j, i, k), (k, j, i), (i, k, j)]
            }
            assert len(vals) == 1

    def test_against_adaptive_quadrature(self):
        B = 1.3

        def oracle(i, j, k):
            val, _ = quad(
                lambda y: evaluate_mode(i, y, B)
                * evaluate_mode(j, y, B)
                * evaluate_mode(k, y, B),
                0.0, B, limit=200,
            )
            return val

        for i in range(1, 9):
            for j in range(i, 9):
                for k in range(j, 9):
                    assert coupling_coefficient(i, j, k, B) == pytest.approx(
                        oracle(i, j, k), abs=1e-10
                    )

    def test_index_validation(self):
        with pytest.raises(ValueError):
            coupling_coefficient(0, 1, 1, 1.0)
        with pytest.raises(ValueError):
            coupling_coefficient(1, 1, 1, -2.0)


class TestGeometryInvariants:
    def test_validation(self):
        with pytest.raises(ValueError):
            StripGeometry(B=-1.0, Lx=1.0, Nx=8, Ny=4)
        with pytest.raises(ValueError):
            StripGeometry(B=1.0, Lx=0.0, Nx=8, Ny=4)
        with pytest.raises(ValueError):
            StripGeometry(B=1.0, Lx=1.0, Nx=7, Ny=4)
        with pytest.raises(ValueError):
            StripGeometry(B=1.0, Lx=1.0, Nx=2, Ny=4)
        with pytest.raises(ValueError):
            StripGeometry(B=1.0, Lx=1.0, Nx=8, Ny=0)
        with pytest.raises(ValueError):
            StripGeometry(B=1.0, Lx=1.0, Nx=8, Ny=4, b=-0.1)

    @pytest.mark.parametrize("field", ["B", "Lx", "b"])
    def test_non_finite_rejected(self, field):
        for value in (np.inf, np.nan):
            with pytest.raises(ValueError, match=f"{field} must be"):
                StripGeometry(**{"B": 1.0, "Lx": 1.0, "Nx": 8, "Ny": 4,
                                 field: value})

    def test_grids(self):
        g = StripGeometry(B=2.0, Lx=5.0, Nx=10, Ny=4)
        x = g.x_grid()
        assert x[0] == -5.0 and len(x) == 10
        assert x[1] - x[0] == pytest.approx(1.0)
        y = g.y_grid()
        assert len(y) == 4
        assert y[0] == pytest.approx(0.4)
        assert g.wavenumbers()[1] == pytest.approx(np.pi / 5.0)
