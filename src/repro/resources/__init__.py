"""Memory budgets of the real executor and the service.

See ``docs/memory.md`` for the mp executor's per-fragment ceiling and
spill retry, and the service's budget slices.
"""

from repro.resources.governor import (
    BudgetExhaustedError,
    BudgetLease,
    MemoryBudgetPool,
    MemoryExceededError,
    SpillDepthExceededError,
)

__all__ = [
    "BudgetExhaustedError",
    "BudgetLease",
    "MemoryBudgetPool",
    "MemoryExceededError",
    "SpillDepthExceededError",
]
