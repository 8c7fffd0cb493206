"""Cluster-wide memory governance: budgets, accounting, and the ladder.

The paper's adaptive story is about *reacting* to memory pressure, but
the seed codebase only let the bounded hash table feel it; every other
allocation-heavy path (partition buffers, merge phase, repartition
queues, the mp executor) allocated unbounded.  This module is the single
accounting tree those paths register with:

``MemoryGovernor`` (cluster)
  └─ ``NodeLedger`` (one per node, holds that node's byte budget)
       └─ ``OperatorAccount`` (one per operator: merge table, local
          table, repartition buffer, mailbox, ...)

Charges bubble up to the node ledger, so one node's merge table and its
repartition buffers compete for the *same* budget — exactly the
situation a real shared-nothing node is in.  When a charge is denied the
caller walks the **graceful-degradation ladder**:

1. ``RUNG_BACKPRESSURE`` — the producer stalls (the simulator charges
   the stall to ``mem_stall_seconds``).
2. ``RUNG_SPILL`` — the operator spills to disk (byte-accounted through
   ``note_spill``; the stores in ``repro.storage.spill`` do the real
   I/O).
3. ``RUNG_SWITCH`` — the paper's adaptive switch: A-2P/A-Rep treat a
   governor denial exactly like a full hash table and change strategy.
4. ``RUNG_RETRY`` — a fragment that exceeded its budget outright is
   killed with :class:`MemoryExceededError` and retried at a reduced
   budget in spill mode (``repro.parallel.mp_executor``).

A ``None`` policy disables everything: no ledgers are created and every
integration point short-circuits, keeping governed-off runs bit-identical
to the pre-governor code.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

RUNG_BACKPRESSURE = 1
RUNG_SPILL = 2
RUNG_SWITCH = 3
RUNG_RETRY = 4

RUNG_NAMES = {
    RUNG_BACKPRESSURE: "backpressure",
    RUNG_SPILL: "spill",
    RUNG_SWITCH: "switch",
    RUNG_RETRY: "retry",
}


class MemoryExceededError(RuntimeError):
    """An operator exceeded its byte budget and cannot degrade in place.

    Carries the high-water mark so the retry layer (ladder rung 4) can
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


class SpillCapacityError(RuntimeError):
    """A spill store was asked to exceed its ``max_bytes`` disk budget."""

    def __init__(self, max_bytes: int, attempted_bytes: int) -> None:
        super().__init__(
            f"spill store capacity exhausted: writing {attempted_bytes} "
            f"bytes against a max_bytes limit of {max_bytes}"
        )
        self.max_bytes = max_bytes
        self.attempted_bytes = attempted_bytes


@dataclass(frozen=True)
class MemoryPolicy:
    """The budget knobs of one governed run (see ``docs/memory.md``).

    Attributes
    ----------
    node_budget_bytes:
        Byte budget each node's operators share.  The single required
        knob; everything else has workable defaults.
    entry_bytes:
        Bytes charged per aggregate-table entry (key + running state +
        container overhead).  The simulator prices memory in table
        entries, so this is the exchange rate between the paper's ``M``
        and the governor's byte ledger.
    stall_seconds:
        Rung-1 penalty: simulated seconds a producer stalls per
        backpressured network block.
    min_table_entries:
        Capacity floor for governed tables so every operator can always
        make progress (spilling needs at least a few resident entries).
    mailbox_budget_bytes:
        In-flight bytes a node's mailbox may hold before senders are
        backpressured; defaults to ``node_budget_bytes``.
    """

    node_budget_bytes: int
    entry_bytes: int = 64
    stall_seconds: float = 1e-4
    min_table_entries: int = 8
    mailbox_budget_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.node_budget_bytes < 1:
            raise ValueError("node_budget_bytes must be positive")
        if self.entry_bytes < 1:
            raise ValueError("entry_bytes must be positive")
        if self.stall_seconds < 0:
            raise ValueError("stall_seconds must be non-negative")
        if self.min_table_entries < 1:
            raise ValueError("min_table_entries must be at least 1")
        if (
            self.mailbox_budget_bytes is not None
            and self.mailbox_budget_bytes < 1
        ):
            raise ValueError("mailbox_budget_bytes must be positive")

    @property
    def effective_mailbox_budget(self) -> int:
        if self.mailbox_budget_bytes is not None:
            return self.mailbox_budget_bytes
        return self.node_budget_bytes


class OperatorAccount:
    """One operator's leaf in the accounting tree.

    ``try_charge`` is the pressure interface: a ``False`` return is a
    governor pressure event and the caller picks a ladder rung.
    ``charge`` force-charges (used where the operator *must* hold the
    bytes to preserve correctness — the pressure was already answered by
    stalling, shipping early, or spilling).
    """

    __slots__ = ("ledger", "name", "used", "high_water")

    def __init__(self, ledger: "NodeLedger", name: str) -> None:
        self.ledger = ledger
        self.name = name
        self.used = 0
        self.high_water = 0

    def try_charge(self, nbytes: int) -> bool:
        """Charge if the node has headroom; False = pressure event."""
        if nbytes < 0:
            raise ValueError("cannot charge negative bytes")
        if self.ledger.used + nbytes > self.ledger.budget_bytes:
            self.ledger.pressure_events += 1
            return False
        self._apply(nbytes)
        return True

    def charge(self, nbytes: int) -> None:
        """Force-charge (correctness over budget; high water still moves)."""
        if nbytes < 0:
            raise ValueError("cannot charge negative bytes")
        self._apply(nbytes)

    def _apply(self, nbytes: int) -> None:
        self.used += nbytes
        if self.used > self.high_water:
            self.high_water = self.used
        self.ledger._charged(nbytes)

    def release(self, nbytes: int) -> None:
        nbytes = min(nbytes, self.used)
        self.used -= nbytes
        self.ledger._released(nbytes)

    def close(self) -> None:
        """Release whatever the operator still holds (idempotent)."""
        self.release(self.used)


class NodeLedger:
    """One node's budget, its operator accounts, and its pressure stats."""

    def __init__(self, policy: MemoryPolicy, node_id: int) -> None:
        self.policy = policy
        self.node_id = node_id
        self.budget_bytes = policy.node_budget_bytes
        self.used = 0
        self.high_water = 0
        self.accounts: list[OperatorAccount] = []
        # Degradation accounting, folded into NodeMetrics after a run:
        self.spill_bytes = 0
        self.stall_seconds = 0.0
        self.pressure_events = 0
        self.ladder_rungs: dict[int, int] = {}

    def open(self, name: str) -> OperatorAccount:
        account = OperatorAccount(self, name)
        self.accounts.append(account)
        return account

    @property
    def headroom_bytes(self) -> int:
        return max(0, self.budget_bytes - self.used)

    def cap_entries(self, requested_entries: int) -> int:
        """Clamp a table allocation to what the budget can hold.

        Never below ``min_table_entries`` — a table that cannot hold a
        handful of groups cannot even spill productively.
        """
        by_budget = self.budget_bytes // self.policy.entry_bytes
        capped = min(requested_entries, by_budget)
        return max(self.policy.min_table_entries, capped)

    def note_spill(self, nbytes: int) -> None:
        self.spill_bytes += nbytes

    def note_stall(self, seconds: float) -> None:
        self.stall_seconds += seconds

    def note_rung(self, rung: int) -> None:
        self.ladder_rungs[rung] = self.ladder_rungs.get(rung, 0) + 1

    @property
    def max_rung(self) -> int:
        return max(self.ladder_rungs, default=0)

    # -- internal, called by accounts ---------------------------------------

    def _charged(self, nbytes: int) -> None:
        self.used += nbytes
        if self.used > self.high_water:
            self.high_water = self.used

    def _released(self, nbytes: int) -> None:
        self.used -= nbytes


class MemoryGovernor:
    """The cluster-wide accounting tree: one ledger per node."""

    def __init__(self, policy: MemoryPolicy, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError("num_nodes must be positive")
        self.policy = policy
        self.nodes = [NodeLedger(policy, i) for i in range(num_nodes)]

    def node(self, node_id: int) -> NodeLedger:
        return self.nodes[node_id]

    @property
    def total_spill_bytes(self) -> int:
        return sum(ledger.spill_bytes for ledger in self.nodes)

    @property
    def total_stall_seconds(self) -> float:
        return sum(ledger.stall_seconds for ledger in self.nodes)

    @property
    def max_rung(self) -> int:
        return max((ledger.max_rung for ledger in self.nodes), default=0)

    def snapshot(self) -> dict:
        """A JSON-serializable view of the whole tree's accounting."""
        return {
            "node_budget_bytes": self.policy.node_budget_bytes,
            "total_spill_bytes": self.total_spill_bytes,
            "total_stall_seconds": self.total_stall_seconds,
            "max_rung": self.max_rung,
            "nodes": [
                {
                    "node_id": ledger.node_id,
                    "high_water_bytes": ledger.high_water,
                    "spill_bytes": ledger.spill_bytes,
                    "stall_seconds": ledger.stall_seconds,
                    "pressure_events": ledger.pressure_events,
                    "ladder_rungs": {
                        RUNG_NAMES[r]: n
                        for r, n in sorted(ledger.ladder_rungs.items())
                    },
                    "operators": [
                        {
                            "name": account.name,
                            "high_water_bytes": account.high_water,
                        }
                        for account in ledger.accounts
                    ],
                }
                for ledger in self.nodes
            ],
        }


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
