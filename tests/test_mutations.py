"""Kill matrix: each row puts one fault into the program by a monkeypatch
and names the check that must catch it.  A row asserts that its check
passes on the program as it is and fails on the mutated one, so a check
that could not fail shows here.  The stepper's tables are frozen and
cached, so each row clears ``solver._stepper``'s cache before and after.
"""

import pytest

from zkbstrip import solver

from conftest import LINEAR_ORACLE_BAR, linear_oracle_deviation

_symbol = solver.linear_symbol


def _lambda_low(k, lam, convection=0):
    return _symbol(k, 0.99 * lam, convection)


def _dissipation_doubled(k, lam, convection=0):
    return _symbol(k, lam, convection) - k * k


def linear_oracle_holds():
    return linear_oracle_deviation() < LINEAR_ORACLE_BAR


# (name, (owner, attribute, mutant), check)
ROWS = [
    ("lambda-x0.99-in-linear_symbol", (solver, "linear_symbol", _lambda_low),
     linear_oracle_holds),
    ("dissipation-doubled-in-linear_symbol",
     (solver, "linear_symbol", _dissipation_doubled), linear_oracle_holds),
]


@pytest.fixture
def fresh_steppers():
    solver._stepper.cache_clear()
    yield
    solver._stepper.cache_clear()


@pytest.mark.parametrize("patch,check", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_check_kills_mutation(monkeypatch, fresh_steppers, patch, check):
    assert check()
    solver._stepper.cache_clear()
    monkeypatch.setattr(*patch)
    assert not check()
