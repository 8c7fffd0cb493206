"""Memory budgets of the real executor and the service.

The simulator prices memory the way the paper does, in hash-table
entries (``M``); this module holds what the real-process path reads:

- :class:`MemoryExceededError` — a fragment of
  ``multiprocessing_aggregate(memory_budget_bytes=...)`` outgrew its
  byte budget; the pool retries it in spill mode at a reduced budget.
- :class:`SpillDepthExceededError` — recursive overflow partitioning
  stopped making progress.
- :class:`MemoryBudgetPool` / :class:`BudgetLease` /
  :class:`BudgetExhaustedError` — the service's byte pool that
  concurrent queries carve their budgets from.
"""

from __future__ import annotations

import threading


class MemoryExceededError(RuntimeError):
    """An operator exceeded its byte budget and cannot degrade in place.

    Carries the high-water mark so the pool's spill-mode retry can
    report it and size the reduced-budget attempt.
    """

    def __init__(
        self,
        operator: str,
        budget_bytes: int,
        high_water_bytes: int,
        requested_bytes: int = 0,
    ) -> None:
        super().__init__(
            f"operator {operator!r} exceeded its memory budget: "
            f"high water {high_water_bytes} bytes against a budget of "
            f"{budget_bytes} bytes"
            + (f" (requested {requested_bytes} more)" if requested_bytes
               else "")
        )
        self.operator = operator
        self.budget_bytes = budget_bytes
        self.high_water_bytes = high_water_bytes
        self.requested_bytes = requested_bytes


class SpillDepthExceededError(RuntimeError):
    """Recursive overflow partitioning stopped making progress.

    Raised instead of recursing forever (or silently going unbounded)
    when a bucket keeps re-spilling past the depth limit — the signature
    of pathological key skew or total hash collapse.  Reports how skewed
    the offending level's bucket distribution was.
    """

    def __init__(
        self,
        depth: int,
        largest_bucket_items: int,
        total_spilled_items: int,
        max_entries: int,
    ) -> None:
        share = (
            largest_bucket_items / total_spilled_items
            if total_spilled_items
            else 1.0
        )
        super().__init__(
            f"overflow recursion exceeded depth {depth} with the table "
            f"capped at {max_entries} entries; largest bucket holds "
            f"{largest_bucket_items} of {total_spilled_items} spilled "
            f"items ({share:.0%}) — pathological key skew keeps every "
            f"item in one bucket, so further partitioning cannot reduce "
            f"the working set"
        )
        self.depth = depth
        self.largest_bucket_items = largest_bucket_items
        self.total_spilled_items = total_spilled_items
        self.max_entries = max_entries
        self.bucket_share = share


class BudgetExhaustedError(RuntimeError):
    """The service-wide budget pool cannot cover another lease.

    Admission control treats this as a shed signal (HTTP 429): the
    query never starts, so no partial work has to be unwound.
    """

    def __init__(self, requested_bytes: int, available_bytes: int) -> None:
        super().__init__(
            f"memory budget pool exhausted: requested {requested_bytes} "
            f"bytes with only {available_bytes} available"
        )
        self.requested_bytes = requested_bytes
        self.available_bytes = available_bytes


class BudgetLease:
    """One query's slice of the service-wide pool (context manager).

    Returned by :meth:`MemoryBudgetPool.lease`; ``bytes`` is the slice,
    and the lease must be released (``with`` or :meth:`release`) so the
    bytes return to the pool.  Release is idempotent: double-release
    cannot inflate the pool.
    """

    def __init__(self, pool: "MemoryBudgetPool", bytes_: int) -> None:
        self._pool = pool
        self.bytes = bytes_
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._pool._give_back(self.bytes)

    def __enter__(self) -> "BudgetLease":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class MemoryBudgetPool:
    """Thread-safe byte pool concurrent queries carve budgets from.

    The one-shot CLI hands its single query the whole node budget; a
    service admitting many queries at once cannot — their governed
    tables would overcommit the host.  Each admitted query takes a
    :class:`BudgetLease` of the bytes it asks for (floored at
    ``min_slice_bytes`` so a lease is always viable for the governed
    spill paths); when the pool cannot cover the floor the lease raises
    :class:`BudgetExhaustedError` and admission sheds the query instead
    of overcommitting.  Purely an accounting object: enforcement stays
    with the executor, which runs the query under the lease's bytes.
    """

    def __init__(self, total_bytes: int,
                 min_slice_bytes: int = 64 * 1024) -> None:
        if total_bytes < 1:
            raise ValueError("total_bytes must be positive")
        if min_slice_bytes < 1:
            raise ValueError("min_slice_bytes must be positive")
        self.total_bytes = total_bytes
        self.min_slice_bytes = min(min_slice_bytes, total_bytes)
        self._available = total_bytes
        self._lock = threading.Lock()

    @property
    def available_bytes(self) -> int:
        with self._lock:
            return self._available

    def lease(self, bytes_: int) -> BudgetLease:
        """Carve ``bytes_`` out of the pool, or raise BudgetExhaustedError.

        A partially-drained pool grants whatever remains above the floor
        rather than refusing outright — degrading a late query's budget
        beats shedding it.
        """
        want = max(bytes_, self.min_slice_bytes)
        with self._lock:
            if self._available < self.min_slice_bytes:
                raise BudgetExhaustedError(want, self._available)
            granted = min(want, self._available)
            self._available -= granted
        return BudgetLease(self, granted)

    def _give_back(self, bytes_: int) -> None:
        with self._lock:
            self._available = min(self._available + bytes_,
                                  self.total_bytes)
