"""Pseudospectral simulator and decay-verification harness for a
dissipative-dispersive wave equation on a periodic channel strip."""

__version__ = "0.1.0"

from .diagnostics import (
    DecayFit,
    NormSample,
    TimeSeries,
    compute_J0,
    default_fit_window,
    energy_residual,
    fit_decay_rate,
    tail_mass,
    weighted_inner,
)
from .fields import (
    Field,
    InitialData,
    InitialField,
    SupportTooWideError,
    make_initial_field,
    make_random_field,
)
from .geometry import (
    StripGeometry,
    coupling_coefficient,
    eigenvalue,
    evaluate_mode,
)
from .solver import (
    BlowUpError,
    SolverConfig,
    linear_symbol,
    nonlinear_term,
    run,
)
from .theory import (
    GammaPoint,
    InequalityCheck,
    SmallnessCheck,
    TheoremConstants,
    check_smallness,
    constants_for_width,
    gamma_tradeoff,
    verify_gn,
    verify_steklov,
    verify_sup_lemma,
)

__all__ = [
    "__version__",
    "BlowUpError",
    "DecayFit",
    "Field",
    "GammaPoint",
    "InequalityCheck",
    "InitialData",
    "InitialField",
    "NormSample",
    "SmallnessCheck",
    "SolverConfig",
    "StripGeometry",
    "SupportTooWideError",
    "TheoremConstants",
    "TimeSeries",
    "check_smallness",
    "compute_J0",
    "constants_for_width",
    "coupling_coefficient",
    "default_fit_window",
    "eigenvalue",
    "energy_residual",
    "evaluate_mode",
    "fit_decay_rate",
    "gamma_tradeoff",
    "linear_symbol",
    "make_initial_field",
    "make_random_field",
    "nonlinear_term",
    "run",
    "tail_mass",
    "verify_gn",
    "verify_steklov",
    "verify_sup_lemma",
    "weighted_inner",
]
