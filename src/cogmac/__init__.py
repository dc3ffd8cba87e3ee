"""Cognitive multiple-access channel: capacity region and sum-rate optimal
power splitting under a primary-rate-preservation constraint."""

__version__ = "0.1.0"

from .channel import (
    ChannelInstance,
    DimensionMismatchError,
    PowerSplit,
    baseline_primary_rate,
    feasibility_residual,
    primary_rate,
    relative_residual,
    sum_rate,
)
from .oracle import (
    KktReport,
    OracleResult,
    grid_search,
    instance_suite,
    kkt_check,
    random_instance,
    single_user_closed_form,
)
from .region import EmptyGridError, RegionBoundary, UnsupportedSizeError, region_boundary
from .solver import SolverResult, SolverStatus, solve_max_sum_rate, sweep_trajectory

__all__ = [
    "ChannelInstance",
    "PowerSplit",
    "DimensionMismatchError",
    "UnsupportedSizeError",
    "EmptyGridError",
    "baseline_primary_rate",
    "primary_rate",
    "feasibility_residual",
    "relative_residual",
    "sum_rate",
    "SolverResult",
    "SolverStatus",
    "solve_max_sum_rate",
    "sweep_trajectory",
    "RegionBoundary",
    "region_boundary",
    "OracleResult",
    "KktReport",
    "grid_search",
    "kkt_check",
    "single_user_closed_form",
    "random_instance",
    "instance_suite",
]
