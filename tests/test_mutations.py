"""Kill matrix: each row puts one fault into the program by a monkeypatch
and names the check that must catch it.  A row asserts that its check
passes on the program as it is and fails on the mutated one, so a check
that could not fail shows here.  The stepper's tables and workspace and
the band's tables are cached, so each row clears ``solver._stepper``'s
cache and ``fields._band``'s before and after.  A check that is a test
of the suite is that test's own code, called here; it fails when it
raises ``AssertionError``.
"""

import numpy as np
import pytest

from zkbstrip import fields, solver

import test_diagnostics
import test_solver
from conftest import LINEAR_ORACLE_BAR, linear_oracle_deviation

_symbol = solver.linear_symbol
_sums = solver.parseval_sums
_square = solver.Stepper.nonlinear_rhs
_workspace = solver.Stepper._workspace
_band_init = fields._Band.__init__


def _lambda_low(k, lam, convection=0):
    return _symbol(k, 0.99 * lam, convection)


def _dissipation_doubled(k, lam, convection=0):
    return _symbol(k, lam, convection) - k * k


def _member_0_norms(coeffs, *weights):
    """The stacked ledger's Parseval sums, member 0's for every member."""
    return tuple(np.full_like(s, s[0]) for s in _sums(coeffs, *weights))


def _member_0_squared(self, a):
    """The stacked product, member 0's square in every member."""
    out = _square(self, a)
    out[1:] = out[0]
    return out


def _stage_buffer_twice(self, S, n):
    """The workspace with the stage buffer e2c also in tmp's place."""
    E, E2, M, f1, f2, f3, e2c, n0, a, tmp, *product = _workspace(self, S, n)
    return E, E2, M, f1, f2, f3, e2c, n0, a, e2c, *product


def _odd_block_unfolded(self, geom):
    """The odd block's analysis matrix without its mirror fold."""
    _band_init(self, geom)
    self.analysis_odd = self.analysis[: self.n_odd, : (geom.Ny + 1) // 2]


def _weight_rate_high(self, geom):
    """The band's x weights with e^{2.02bx} for e^{2bx}."""
    _band_init(self, geom)
    self.w_x = self.w_x * np.exp(0.02 * geom.b * geom.x_grid())


def linear_oracle_holds():
    return linear_oracle_deviation() < LINEAR_ORACLE_BAR


def passes(test):
    """A test of the suite as a check: True when it passes."""
    def check():
        try:
            with pytest.MonkeyPatch.context() as mp:
                test(mp)
        except AssertionError:
            return False
        return True
    return check


# (name, (owner, attribute, mutant), check)
ROWS = [
    ("lambda-x0.99-in-linear_symbol", (solver, "linear_symbol", _lambda_low),
     linear_oracle_holds),
    ("dissipation-doubled-in-linear_symbol",
     (solver, "linear_symbol", _dissipation_doubled), linear_oracle_holds),
    ("stacked-ledger-takes-member-0-norms",
     (solver, "parseval_sums", _member_0_norms),
     passes(lambda mp: test_solver.TestAdvance()
            .test_members_leave_at_their_own_samples(mp))),
    ("stacked-product-squares-member-0",
     (solver.Stepper, "nonlinear_rhs", _member_0_squared),
     passes(lambda mp: test_solver.TestStackedStep()
            .test_matches_single_steps(8.0, 64, 12, 3))),
    ("workspace-hands-out-a-stage-buffer-twice",
     (solver.Stepper, "_workspace", _stage_buffer_twice),
     passes(lambda mp: test_solver.TestInPlaceStep()
            .test_matches_allocating_step(8.0, 64, 12))),
    ("odd-block-analysis-without-mirror-fold",
     (fields._Band, "__init__", _odd_block_unfolded),
     passes(lambda mp: test_solver.TestBandEquivalence()
            .test_symmetric_nonlinear_term(48, 12))),
    ("weight-rate-2.02b-in-_Band.w_x", (fields._Band, "__init__", _weight_rate_high),
     passes(lambda mp: test_diagnostics.TestWeightedInner()
            .test_gaussian_closed_form())),
]


def clear_caches():
    solver._stepper.cache_clear()
    fields._band.cache_clear()


@pytest.fixture
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.mark.parametrize("patch,check", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_check_kills_mutation(monkeypatch, fresh_caches, patch, check):
    assert check()
    clear_caches()
    monkeypatch.setattr(*patch)
    assert not check()
