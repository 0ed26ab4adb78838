"""Pseudospectral simulator and decay-verification harness for a
dissipative-dispersive wave equation on a periodic channel strip."""

__version__ = "0.1.0"

from .diagnostics import (
    DecayFit,
    NormSample,
    TimeSeries,
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
)
from .geometry import (
    StripGeometry,
    eigenvalue,
    evaluate_mode,
)
from .solver import (
    BlowUpError,
    SolverConfig,
    evolve,
    linear_symbol,
    run,
)
from .theory import (
    SmallnessCheck,
    TheoremConstants,
    check_smallness,
    constants_for_width,
)

__all__ = [
    "__version__",
    "BlowUpError",
    "DecayFit",
    "Field",
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
    "constants_for_width",
    "default_fit_window",
    "eigenvalue",
    "energy_residual",
    "evaluate_mode",
    "evolve",
    "fit_decay_rate",
    "linear_symbol",
    "make_initial_field",
    "run",
    "tail_mass",
    "weighted_inner",
]
