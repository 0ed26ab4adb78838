import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zkbstrip import (
    InitialData,
    StripGeometry,
    check_smallness,
    constants_for_width,
    evaluate_mode,
    make_initial_field,
    weighted_inner,
)
from zkbstrip import theory
from zkbstrip.diagnostics import _moments, _modes
from zkbstrip.fields import quartic_samples, to_grid
from zkbstrip.theory import gn_sides, steklov_sides, sup_sides

from conftest import dx, from_values, inequality, random_field, weighted_dy_sq, zeros

VERIF_GEOM = StripGeometry(B=np.pi, Lx=10.0, Nx=256, Ny=32, b=0.1)


class TestConstants:
    def test_width_pi_is_rational_point(self):
        c = constants_for_width(math.pi)
        # 5*pi^2/(4*B^2) = 1.25 makes the square root rational
        assert abs(c.b_star - 0.1) < 1e-14
        assert abs(c.chi - 0.025) < 1e-14
        assert abs(c.reg_threshold - 0.375) < 1e-14
        assert abs(c.weak_threshold - 0.1875) < 1e-14

    def test_width_half_pi(self):
        c = constants_for_width(math.pi / 2)
        assert c.b_star == pytest.approx((math.sqrt(6.0) - 1.0) / 5.0, abs=1e-15)

    def test_wide_strip_asymptote(self):
        # leading-order deviation from pi^2/(8B^2) is x/4 with
        # x = 5*pi^2/(4B^2) = 1/80 here, i.e. 0.3125%
        c = constants_for_width(10 * math.pi)
        asymptote = math.pi**2 / (8.0 * (10 * math.pi) ** 2)
        assert abs(c.b_star / asymptote - 1.0) < 0.0032
        assert c.b_star == pytest.approx((math.sqrt(1.0125) - 1.0) / 5.0,
                                         rel=1e-14)

    def test_closed_forms_agree(self):
        for B in np.geomspace(0.05, 200.0, 40):
            c = constants_for_width(B)
            alt = (math.sqrt(1 + 5 * math.pi**2 / (4 * B * B)) - 1) / 20 \
                * math.pi**2 / (B * B)
            assert abs(c.chi - alt) <= 1e-14 * alt

    def test_monotone_in_width(self):
        widths = np.geomspace(0.1, 50.0, 30)
        cs = [constants_for_width(B) for B in widths]
        assert all(a.b_star > b.b_star for a, b in zip(cs, cs[1:]))
        assert all(a.chi > b.chi for a, b in zip(cs, cs[1:]))

    def test_thresholds_scale_inversely(self):
        c1 = constants_for_width(1.3)
        c2 = constants_for_width(2.6)
        assert c1.reg_threshold == pytest.approx(2 * c2.reg_threshold, rel=1e-14)
        assert c1.weak_threshold == pytest.approx(c1.reg_threshold / 2, rel=1e-14)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            constants_for_width(0.0)
        with pytest.raises(ValueError):
            constants_for_width(-3.0)


class TestSmallness:
    def test_regular_example(self):
        ok, margin, threshold = check_smallness(0.3, math.pi, "regular")
        assert ok and margin == pytest.approx(0.075, abs=1e-14)

    def test_weak_example(self):
        ok, margin, _ = check_smallness(0.3, math.pi, "weak")
        assert not ok and margin == pytest.approx(-0.1125, abs=1e-14)

    def test_zero_norm(self):
        assert check_smallness(0.0, 0.7, "weak").ok

    def test_errors(self):
        with pytest.raises(ValueError):
            check_smallness(-1.0, 1.0)
        with pytest.raises(ValueError):
            check_smallness(0.1, 1.0, regime="strong")


def single_mode_field(j, geom=VERIF_GEOM, profile=None):
    x = geom.x_grid()
    phi = profile if profile is not None else np.exp(-((x / 3.0) ** 2))
    wj = evaluate_mode(j, geom.y_grid(), geom.B)
    return from_values(geom, phi[:, None] * wj[None, :])


class TestSteklov:
    def test_equality_on_first_mode(self):
        u = single_mode_field(1)
        lhs, rhs, holds = inequality(steklov_sides, u)
        assert holds
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_mode_ratio(self):
        for j in range(1, 9):
            lhs, rhs, holds = inequality(steklov_sides, single_mode_field(j))
            assert holds
            assert lhs == pytest.approx(rhs / j**2, rel=1e-10)

    def test_random_sweep(self):
        for seed in range(20):
            u = random_field(VERIF_GEOM, seed=seed)
            assert inequality(steklov_sides, u).holds


class TestGagliardoNirenberg:
    def test_zero_field(self):
        res = inequality(gn_sides, zeros(VERIF_GEOM))
        assert res.lhs == 0.0 and res.holds

    def test_radial_gaussian_desk_check(self):
        # closed forms for exp(-(x^2+y^2)) on the plane, outside the strip
        # pipeline: ||u||_{L4}^2 = sqrt(pi)/2, 2||u|| ||grad u|| = pi*sqrt(2)
        x = np.linspace(-8, 8, 1601)
        X, Y = np.meshgrid(x, x, indexing="ij")
        U = np.exp(-(X**2 + Y**2))
        dx = x[1] - x[0]
        l4sq = math.sqrt(np.sum(U**4) * dx * dx)
        l2 = math.sqrt(np.sum(U**2) * dx * dx)
        grad = math.sqrt(np.sum(4 * (X**2 + Y**2) * U**2) * dx * dx)
        assert l4sq == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-10)
        assert 2 * l2 * grad == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-10)
        assert l4sq <= 2 * l2 * grad

    @pytest.mark.parametrize("Nx, Ny, s, b", [
        (128, 32, 0.3, 0.0), (128, 32, 0.4, 0.2), (192, 48, 0.25, 0.1),
        (256, 64, 0.4, 0.0)])
    def test_round_gaussian_ratio(self, Nx, Ny, s, b):
        # exp(-(x^2 + (y - B/2)^2)/s^2), resolved on its grid and below
        # 1e-6 of its peak at the walls: on the plane ||u||_{L4}^2 =
        # s*sqrt(pi)/2, ||u|| = s*sqrt(pi/2) and ||grad u|| = sqrt(pi), so
        # lhs/rhs = 1/(2*sqrt(2*pi)) with the constant 2 (measured within
        # 5e-13 on these grids), and 1.14 with 0.35, below the sharp 0.413
        g = StripGeometry(B=np.pi, Lx=np.pi, Nx=Nx, Ny=Ny, b=b)
        x, y = g.x_grid()[:, None], g.y_grid()[None, :]
        u = from_values(g, np.exp(-(x**2 + (y - g.B / 2) ** 2) / s**2))
        res = inequality(gn_sides, u)
        assert res.lhs / res.rhs == pytest.approx(
            1.0 / (2.0 * math.sqrt(2.0 * math.pi)), rel=1e-10, abs=0.0)

    def test_random_sweep(self):
        for seed in range(20):
            u = random_field(VERIF_GEOM, seed=seed)
            res = inequality(gn_sides, u)
            assert res.holds
            assert res.lhs > 0.0

    def test_localized_field(self):
        fld, _, _ = make_initial_field(
            InitialData(kind="gaussian_mode", amplitude=0.7, s=1.2, j=2),
            VERIF_GEOM,
        )
        assert inequality(gn_sides, fld).holds

    def test_lhs_matches_pow_quadrature(self):
        # ||u||_{L4}^2 from vals**4 on the quadrature grid, where every
        # trapezoid weight in x is dx (no weighting)
        fld, _, _ = make_initial_field(
            InitialData(kind="gaussian_mode", amplitude=0.7, s=1.2, j=2),
            VERIF_GEOM,
        )
        corpus = [random_field(VERIF_GEOM, seed=s) for s in range(20)]
        for u in [*corpus, fld]:
            vals, grid = quartic_samples(u.coeffs, u.geometry)
            ref = math.sqrt(grid.dx * grid.dy * float(np.sum(vals**4)))
            assert inequality(gn_sides, u).lhs == pytest.approx(ref, rel=1e-14, abs=0.0)


class TestSupLemma:
    # distinct deltas and delta1s, so a swap inside a pair or a reordering
    # of the pairs changes some rhs
    PAIRS = ((0.1, 1.0), (1.0, 0.5), (10.0, 2.0), (0.3, 7.0))

    def test_zero_field(self):
        (res,) = inequality(sup_sides, zeros(VERIF_GEOM), ((1.0, 1.0),))
        assert res.lhs == 0.0 and res.holds

    def test_gaussian_example(self):
        fld, _, _ = make_initial_field(
            InitialData(kind="gaussian_mode", amplitude=1.0, s=1.0, j=1),
            VERIF_GEOM,
        )
        (res,) = inequality(sup_sides, fld, ((1.0, 1.0),))
        assert res.holds
        assert res.lhs > 0.0 and res.rhs > res.lhs

    def test_delta_sweep(self):
        pairs = ((0.1, 1.0), (1.0, 1.0), (10.0, 1.0))
        for seed in range(20):
            u = random_field(VERIF_GEOM, seed=seed)
            checks = inequality(sup_sides, u, pairs)
            assert len(checks) == 3
            assert all(c.holds for c in checks)

    def test_invalid_parameters(self):
        u = zeros(VERIF_GEOM)
        with pytest.raises(ValueError):
            inequality(sup_sides, u, ((0.0, 1.0),))
        with pytest.raises(ValueError):
            inequality(sup_sides, u, ((1.0, -2.0),))

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("bad", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0),
                                     (1.0, -3.0), (math.nan, 1.0)],
                             ids=["zero-delta", "zero-delta1", "negative-delta",
                                  "negative-delta1", "nan-delta"])
    def test_invalid_pair_at_any_position(self, monkeypatch, position, bad):
        # rejected before any of the per-field integrals is computed
        def no_work(*args):
            raise AssertionError("integral computed before validation")

        monkeypatch.setattr(theory, "_band", no_work)
        monkeypatch.setattr(theory, "_moments", no_work)
        pairs = [(0.1, 1.0), (1.0, 1.0), (10.0, 1.0)]
        pairs[position] = bad
        u = random_field(VERIF_GEOM, seed=0)
        with pytest.raises(ValueError, match="must be positive"):
            inequality(sup_sides, u, tuple(pairs))

    def test_shared_integrals_match_per_pair_evaluation(self):
        b, lam = VERIF_GEOM.b, VERIF_GEOM.eigenvalues()
        for seed in range(20):
            u = random_field(VERIF_GEOM, seed=seed)
            ux = dx(u)
            weight = np.exp(b * VERIF_GEOM.x_grid())[:, None]
            sup = float(np.max(np.abs(weight * to_grid(u.coeffs, VERIF_GEOM))))
            # the moments of u and u_x side by side, from two transforms
            a = np.hstack([_modes(u), _modes(ux)])
            nj = a.shape[1] // 2
            m = _moments(VERIF_GEOM, a, a)[0]
            shared = (lam[:nj] @ m[:nj], lam[:nj] @ m[nj:], np.sum(m[nj:]),
                      np.sum(m[:nj]))
            # each integral of one field alone, by a moment product of
            # its own width, which BLAS may sum in another order
            alone = (weighted_dy_sq(u), weighted_dy_sq(ux),
                     weighted_inner(ux, ux), weighted_inner(u, u))
            assert shared == pytest.approx(alone, rel=1e-14, abs=0.0)
            checks = inequality(sup_sides, u, self.PAIRS)
            assert len(checks) == len(self.PAIRS)
            for (delta, delta1), check in zip(self.PAIRS, checks):
                # the lemma's rhs, evaluated afresh for this pair alone
                def rhs(dy_sq, dxy_sq, dx_sq, sq):
                    return (
                        delta * (1.0 + 2.0 * b * b) * float(dy_sq)
                        + 2.0 * delta * float(dxy_sq)
                        + (2.0 * delta1 / delta) * float(dx_sq)
                        + (1.0 / delta) * (1.0 / delta1 + 2.0 * delta1 * b * b)
                        * float(sq)
                    )

                assert check.rhs == rhs(*shared)
                assert check.rhs == pytest.approx(rhs(*alone), rel=1e-14, abs=0.0)
                assert check.lhs == sup * sup
                assert check.holds


class TestHypothesisProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_steklov_holds_for_any_seed(self, seed):
        u = random_field(VERIF_GEOM, seed=seed)
        assert inequality(steklov_sides, u).holds

    @given(
        width=st.floats(min_value=0.05, max_value=100.0,
                        allow_nan=False, allow_infinity=False),
        norm=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_weak_threshold_is_stricter(self, width, norm):
        weak = check_smallness(norm, width, "weak")
        reg = check_smallness(norm, width, "regular")
        assert weak.threshold == pytest.approx(reg.threshold / 2.0, rel=1e-12)
        if weak.ok:
            assert reg.ok
