"""Analytical cost models from Sections 2–4 of the paper.

Every model returns a :class:`~repro.costmodel.base.CostBreakdown` so the
benchmarks can report per-phase components as well as totals.  The models
are deliberately simple — no CPU/IO/message overlap, all nodes perfectly
parallel — because, as the paper says, their job is to predict *relative*
performance across grouping selectivities, not absolute running times.
"""

from repro.costmodel.adaptive import (
    adaptive_repartitioning_cost,
    adaptive_two_phase_cost,
    sampling_cost,
)
from repro.costmodel.base import CostBreakdown
from repro.costmodel.params import NetworkKind, SystemParameters
from repro.costmodel.traditional import (
    centralized_two_phase_cost,
    repartitioning_cost,
    two_phase_cost,
)
from repro.costmodel.scaleup import scaleup_series

MODEL_FUNCTIONS = {
    "centralized_two_phase": centralized_two_phase_cost,
    "two_phase": two_phase_cost,
    "repartitioning": repartitioning_cost,
    "sampling": sampling_cost,
    "adaptive_two_phase": adaptive_two_phase_cost,
    "adaptive_repartitioning": adaptive_repartitioning_cost,
}


def model_cost(name: str, params, selectivity: float) -> CostBreakdown:
    """Evaluate the named algorithm's analytical model."""
    try:
        func = MODEL_FUNCTIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown cost model {name!r}; expected one of "
            f"{sorted(MODEL_FUNCTIONS)}"
        ) from None
    return func(params, selectivity)


__all__ = [
    "CostBreakdown",
    "MODEL_FUNCTIONS",
    "NetworkKind",
    "SystemParameters",
    "adaptive_repartitioning_cost",
    "adaptive_two_phase_cost",
    "centralized_two_phase_cost",
    "model_cost",
    "repartitioning_cost",
    "sampling_cost",
    "scaleup_series",
    "two_phase_cost",
]
