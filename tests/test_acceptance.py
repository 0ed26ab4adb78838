"""Acceptance suite: one test per release criterion, tolerances pinned.

Criteria 2, 4 and 5 and ``verify --suite energy``'s test share the
session-scoped reference run (17 to 25 s of compute on a 2-vCPU x86-64
VM with one BLAS thread, whose speed varies from run to run), which no
test outside this file takes; criterion 10 runs its own three
continuous-dependence runs up to the reference run's clean end, and the
remainder are fast.  Run with ``pytest -v -s
tests/test_acceptance.py`` to see one verdict line per criterion.
"""

import math

import numpy as np
import pytest

from zkbstrip import (
    Field,
    InitialData,
    SolverConfig,
    StripGeometry,
    constants_for_width,
    default_fit_window,
    energy_residual,
    evaluate_mode,
    fit_decay_rate,
    linear_symbol,
    make_initial_field,
    run,
)
from zkbstrip.cli import verify_suite
from zkbstrip.diagnostics import CONTAMINATION_THRESHOLD
from zkbstrip.fields import to_grid
from zkbstrip.theory import gn_sides, steklov_sides, sup_sides

from conftest import (
    coupling_coefficient,
    final_field,
    inequality,
    nonlinear_term,
    random_field,
    reference_sine_coeffs,
)

CHI_REF = 0.025
SWEEP_GEOM = StripGeometry(B=math.pi, Lx=10.0, Nx=256, Ny=32, b=0.1)


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


def test_criterion_1_constants_exactness():
    c = constants_for_width(math.pi)
    assert abs(c.b_star - 0.1) <= 1e-14
    assert abs(c.chi - 0.025) <= 1e-14
    assert abs(c.reg_threshold - 0.375) <= 1e-14
    assert abs(c.weak_threshold - 0.1875) <= 1e-14
    report(1, f"b*={c.b_star}, chi={c.chi}, thresholds "
              f"({c.reg_threshold}, {c.weak_threshold}) exact to 1e-14")


def test_criterion_2_energy_identity(paper_ref):
    _, series = paper_ref
    residual = energy_residual(series)
    assert residual < 1e-6
    report(2, f"max relative energy residual {residual:.3e} < 1e-6 "
              f"on the reference run (per-step accumulation)")


def test_criterion_3_linear_exactness():
    geom = StripGeometry(B=math.pi, Lx=math.pi, Nx=64, Ny=8)
    f0, _, _ = make_initial_field(
        InitialData(kind="single_mode", amplitude=1.0, k=1.0, j=1), geom
    )
    cfg = SolverConfig(dt=1e-3, t_end=1.0, nonlinear=False, output_every=1000)
    series = run(f0, cfg)
    ratio = series.samples[-1].l2 / series.samples[0].l2
    assert abs(ratio - math.exp(-2.0)) <= 1e-10

    mode_ratio = final_field(f0, cfg).coeffs[1, 0] / f0.coeffs[1, 0]
    phase = np.angle(mode_ratio)
    expected_phase = linear_symbol(1.0, 1.0).imag * 1.0  # 2t at t=1
    assert abs(phase - expected_phase) <= 1e-10
    report(3, f"|l2 ratio - e^-2| = {abs(ratio - math.exp(-2.0)):.2e}, "
              f"|phase - 2t| = {abs(phase - expected_phase):.2e}")


def test_criterion_4_weighted_l2_decay(paper_ref):
    config, series = paper_ref
    chi = constants_for_width(config.geometry.B).chi
    t = series.times()
    w = series.column("w_l2")
    tails = series.column("tail")

    clean = tails <= CONTAMINATION_THRESHOLD
    assert clean[0]
    envelope = np.exp(-chi * t) * w[0] * (1.0 + 1e-6)
    assert np.all(w[clean] <= envelope[clean]), "pointwise decay bound violated"

    t0, t1 = default_fit_window(series)
    fit = fit_decay_rate(series, "w_l2", t0, t1)
    assert fit.rate >= chi * 0.95
    report(4, f"pointwise bound holds at {int(clean.sum())} clean samples; "
              f"fitted rate {fit.rate:.4f} >= 0.95*chi = {0.95 * chi:.5f} "
              f"on window [{t0:.2f}, {t1:.2f}]")


def test_criterion_5_weighted_h1_decay(paper_ref):
    config, series = paper_ref
    chi = constants_for_width(config.geometry.B).chi
    t0, t1 = default_fit_window(series)
    fit = fit_decay_rate(series, "w_h1", t0, t1)
    assert fit.rate >= chi * 0.95
    report(5, f"fitted H1-level rate {fit.rate:.4f} >= 0.95*chi = "
              f"{0.95 * chi:.5f} on window [{t0:.2f}, {t1:.2f}]")


def test_criterion_6_steklov_suite():
    # equality case
    x = SWEEP_GEOM.x_grid()
    profile = np.exp(-((x / 2.5) ** 2))
    w1 = evaluate_mode(1, SWEEP_GEOM.y_grid(), SWEEP_GEOM.B)
    u1 = Field.from_values(SWEEP_GEOM, profile[:, None] * w1[None, :])
    lhs, rhs, holds = inequality(steklov_sides, u1)
    assert holds and abs(lhs - rhs) <= 1e-10 * rhs

    # mode ratio 1/j^2
    for j in range(1, 9):
        wj = evaluate_mode(j, SWEEP_GEOM.y_grid(), SWEEP_GEOM.B)
        uj = Field.from_values(SWEEP_GEOM, profile[:, None] * wj[None, :])
        res = inequality(steklov_sides, uj)
        assert abs(res.lhs - res.rhs / j**2) <= 1e-10 * res.rhs

    # seeded corpus
    worst = math.inf
    for seed in range(100):
        u = random_field(SWEEP_GEOM, seed=seed)
        res = inequality(steklov_sides, u)
        assert res.holds
        worst = min(worst, (res.rhs - res.lhs) / res.rhs)
    report(6, f"equality case exact to 1e-10, mode ratios 1/j^2 for j<=8, "
              f"100 random fields hold (worst margin {worst:.3e})")


def test_criterion_7_gn_and_sup_suites():
    worst_gn = math.inf
    for seed in range(100):
        u = random_field(SWEEP_GEOM, seed=seed)
        res = inequality(gn_sides, u)
        assert res.holds
        worst_gn = min(worst_gn, (res.rhs - res.lhs) / res.rhs)

    worst_sup = math.inf
    for seed in range(100):
        u = random_field(SWEEP_GEOM, seed=1000 + seed)
        (res,) = inequality(sup_sides, u, ((1.0, 1.0),))
        assert res.holds
        worst_sup = min(worst_sup, (res.rhs - res.lhs) / res.rhs)
    report(7, f"interpolation bound worst margin {worst_gn:.3e}; "
              f"sup bound worst margin {worst_sup:.3e}; all 200 fields hold")


def test_criterion_8_coupling_oracle_equivalence():
    geom = StripGeometry(B=math.pi, Lx=math.pi, Nx=48, Ny=512)
    x = geom.x_grid()
    w1 = evaluate_mode(1, geom.y_grid(), geom.B)
    u = Field.from_values(geom, np.sin(x)[:, None] * w1[None, :])
    grid = to_grid(nonlinear_term(u).coeffs, geom)
    modal = reference_sine_coeffs(grid, geom, axis=1)
    target = 0.5 * np.sin(2 * x)
    worst = 0.0
    for j in range(1, 10):
        T = coupling_coefficient(1, 1, j, geom.B)
        worst = max(worst, float(np.max(np.abs(modal[:, j - 1] - T * target))))
    assert worst <= 1e-8
    report(8, f"pseudospectral vs coupling-tensor projection: worst "
              f"mode-by-mode deviation {worst:.2e} <= 1e-8")


def test_criterion_9_self_convergence():
    geom = StripGeometry(B=math.pi, Lx=15.0, Nx=256, Ny=32, b=0.1)
    f0, _, _ = make_initial_field(
        InitialData(kind="gaussian_mode", amplitude=1.5, s=1.5, j=1), geom
    )

    def final(dt):
        cfg = SolverConfig(dt=dt, t_end=1.0, output_every=int(round(1.0 / dt)))
        return final_field(f0, cfg)

    ref = final(1.25e-4)
    errors = [math.sqrt((final(dt) - ref).l2sq()) for dt in (4e-3, 2e-3, 1e-3)]
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    assert all(r >= 8.0 for r in ratios), (errors, ratios)

    def terminal_w(nx, ny):
        g = StripGeometry(B=math.pi, Lx=15.0, Nx=nx, Ny=ny, b=0.1)
        ff, _, _ = make_initial_field(
            InitialData(kind="gaussian_mode", amplitude=0.5, s=1.5, j=1), g
        )
        series = run(ff, SolverConfig(dt=1e-3, t_end=1.0, output_every=1000))
        return series.samples[-1].w_l2

    w_coarse = terminal_w(256, 32)
    w_fine = terminal_w(512, 64)
    refinement = abs(w_coarse - w_fine) / w_coarse
    assert refinement < 1e-6
    report(9, f"dt-halving error ratios {[f'{r:.1f}' for r in ratios]} >= 8; "
              f"grid-doubling relative change {refinement:.2e} < 1e-6")


def test_criterion_10_continuous_dependence():
    from zkbstrip.cli import cdep_experiment, paper_ref_config

    result = cdep_experiment(paper_ref_config(), 1e-3)
    assert abs(result["ratio"] - 1.0) <= 0.10
    # the end-of-window factors are the non-degenerate linearization
    # check (the max sits at t=0 because differences contract)
    assert abs(result["final_ratio"] - 1.0) <= 0.10
    report(10, f"growth factors {result['growth_factor_eps']:.4f} (eps) vs "
               f"{result['growth_factor_half_eps']:.4f} (eps/2), ratio "
               f"{result['ratio']:.4f}; end-of-window factors "
               f"{result['final_factor_eps']:.4e} vs "
               f"{result['final_factor_half_eps']:.4e}, ratio "
               f"{result['final_ratio']:.4f}; both within 10%")


class TestVerifyCommand:
    def test_energy_suite(self, paper_ref):
        # sample 0 is the reference run of the paper_ref fixture, made once
        _, series = paper_ref
        report = verify_suite("energy", 3, 0)
        residuals = report["residuals"]
        assert len(residuals) == 3
        assert residuals[0] == energy_residual(series)
        assert report["worst_residual"] == max(residuals)
        assert report["all_hold"] is True
