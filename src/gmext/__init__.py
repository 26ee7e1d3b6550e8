"""Steady states of activator-inhibitor systems on exterior radial domains.

Library layout:

- :mod:`gmext.params`   parameters, regime classification, constant schedules
- :mod:`gmext.grid`     log-radial meshes and the tridiagonal radial Laplacian
- :mod:`gmext.scalar`   barrier construction and the monotone scalar solver
- :mod:`gmext.coupled`  the coupled fixed-point solver and box verification
- :mod:`gmext.fitting`  decay-exponent fits and profile comparison
- :mod:`gmext.probes`   nonexistence criteria and degeneration probes
- :mod:`gmext.cli`      command-line front end (classify/solve/sweep/fit/probe)
"""

from .params import (
    AsymptoticProfile,
    ConstantSchedule,
    ExponentSet,
    Outcome,
    RegimeVerdict,
    SourceEnvelope,
    SystemKind,
    classify,
    classify_lattice,
    constant_schedule,
    predicted_v_profile,
)
from .grid import (
    GridFunction,
    RadialGrid,
    RadialOperator,
    assemble_operator,
    backward_error,
    build_grid,
    grid_for_decades,
    solve_linear,
    source_relative_residual,
    weighted_residual,
)
from .scalar import (
    BarrierPair,
    NonlinearitySpec,
    ScalarSolveResult,
    barrier_W,
    barrier_Z,
    solve_monotone,
)
from .coupled import (
    BoxReport,
    CoupledState,
    apply_H,
    calibrate_barrier_constants,
    solve_system,
    suggest_lambda,
    verify_box,
)
from .fitting import FitResult, compare_profile, fit_power, fit_power_log
from .probes import ProbeReport, criterion_2d, degeneration_probe, integral_criterion

__version__ = "0.1.0"

__all__ = [
    "AsymptoticProfile", "BarrierPair", "BoxReport", "ConstantSchedule",
    "CoupledState", "ExponentSet", "FitResult", "GridFunction",
    "NonlinearitySpec", "Outcome", "ProbeReport",
    "RadialGrid", "RadialOperator",
    "RegimeVerdict", "ScalarSolveResult", "SourceEnvelope", "SystemKind",
    "apply_H", "assemble_operator", "backward_error", "barrier_W", "barrier_Z",
    "build_grid", "calibrate_barrier_constants", "classify", "classify_lattice",
    "compare_profile", "constant_schedule", "criterion_2d", "degeneration_probe",
    "fit_power", "fit_power_log", "grid_for_decades", "integral_criterion",
    "predicted_v_profile", "solve_linear", "solve_monotone", "solve_system",
    "source_relative_residual", "suggest_lambda", "verify_box",
    "weighted_residual",
]
