"""A real multiprocessing Two Phase executor, hardened against failures.

Each worker process aggregates one node's fragment (phase 1); the parent
merges the partial states (phase 2).  This demonstrates the library's
partial-aggregate states compose across *real* process boundaries — the
states are picklable by construction — while the simulator remains the
source of timing results (see DESIGN.md on the GIL/1-core substitution).

Dispatch runs through a persistent worker pool: workers are forked once
and reused across fragments, retries and runs, and every non-empty
fragment travels as one serialized
:class:`~repro.storage.ColumnBlock` (dictionary-encoded columns) in a
``repro_mp_``-named ``multiprocessing.shared_memory`` segment — only a
small job descriptor (segment name, byte and row counts, query, schema)
is pickled over the pipe.  When the query has no WHERE predicate and the
caller did not substitute a ``phase_fn``, the block is projected to the
key + aggregate columns first, so an evaluation-schema tuple ships 16 of
its 100 bytes.  Empty fragments, and rows the block codec rejects (an
int outside int64, a mistyped value), are pickled inline instead.
Segments are owned by the parent and unlinked on *every* exit path
(success, worker error, timeout, dead worker, FragmentFailedError).

The parent detects a worker that raises, dies, or exceeds
``timeout`` seconds and retries that one fragment (in a fresh or
replacement worker) up to ``max_retries`` times.  A fragment that
still fails raises :class:`FragmentFailedError` carrying the partial
progress (every fragment that *did* complete) — the executor never hangs
on a dead or wedged worker.

``processes=0`` (the default) sizes the pool to the fragment count but
falls back to in-process execution when the host has a single CPU, so the
test suite stays fast everywhere.

The pool path is chaos-hardened end to end:

- **Unified fault injection** — the same seedable
  :class:`~repro.sim.faults.FaultPlan` that drives the simulator drives
  real-process injection here (``faults=plan``): a ``CrashFault``
  SIGKILLs the fragment's worker at job start (the worker shim delivers
  the signal to itself, so the crash always lands on the scheduled
  fragment), a ``Straggler`` limps it with an artificial per-row
  slowdown, a ``WorkerStall`` self-SIGSTOPs it until the parent's
  scheduled SIGCONT (the limplock scenario), ``read_error_rate`` raises
  :class:`InjectedFaultError` inside the worker, and ``message_loss``
  unlinks the fragment's shared-memory segment before dispatch.  Which
  faults fire where is the plan's deterministic
  ``injection_schedule`` — identical (kind, target, ordinal) tuples on
  the sim and mp substrates for a given seed.
- **Heartbeats** — workers emit liveness + progress beats mid-job over
  their pipes; the dispatcher declares a silent worker ``HeartbeatLost``
  after ``heartbeat_timeout`` seconds instead of waiting out the full
  job timeout, and detects workers that died while *idle* eagerly.
- **Speculative re-execution** — with ``speculate=True``, a fragment
  running longer than a robust multiple of the median attempt time gets
  a backup attempt on another worker; first result wins, the loser is
  cancelled, and every speculation is recorded through the
  :class:`~repro.obs.decisions.DecisionLedger` with a post-hoc verdict.
- **Quarantine + circuit breaker** — a fragment that kills
  ``poison_threshold`` workers fails fast as a ``PoisonFragment`` with
  the full cause chain; repeated infrastructure-level run failures trip
  a module-level breaker that rebuilds the shared pool once and then
  degrades: every later run gets a private pool of fresh workers, shut
  down when the run ends.  Surfaced in ``mp.breaker.*`` metrics and
  trace events.

The fault-free path is byte-identical to the pre-chaos executor; the
golden parity tests pin that.

The executor is also safe for **concurrent multi-threaded callers**
(the long-lived query service in :mod:`repro.service` is the first):
the shared pool hands out each worker to exactly one dispatcher at a
time under a pool lock, idle-pipe watching is restricted to a sole
dispatcher (concurrent runs detect idle deaths at acquire instead),
worker forks are serialized, and a pool that was shut down while
another run still held its workers discards them on release instead of
resurrecting them as orphans.  ``deadline=`` (an absolute
``time.monotonic()`` value) bounds a whole run: when it expires the
dispatcher cancels every in-flight attempt through the same
discard-on-timeout path, unlinks all shared-memory segments, and
raises :class:`DeadlineExceededError` — cooperative cancellation for
callers that serve queries under latency budgets.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import random
import secrets
import signal
import statistics
import threading
import time
from collections import deque
from multiprocessing import resource_tracker, shared_memory
from multiprocessing.connection import wait as _connection_wait

from repro.core.aggregates import GroupState
from repro.core.query import AggregateQuery
from repro.obs.decisions import (
    MP_STRATEGY_CHOICE,
    MP_STRATEGY_RESAMPLE,
    SPECULATIVE_EXECUTION,
    VERDICT_CORRECT,
    VERDICT_WRONG_CHEAP,
    VERDICT_WRONG_COSTLY,
)
from repro.obs.profile import WorkerProfile, profile_finish, profile_start
from repro.obs.tracer import PHASE as _CAT_PHASE
from repro.resources.governor import MemoryExceededError
from repro.sim.faults import (
    INJECT_ERROR,
    INJECT_KILL,
    INJECT_SHM_LOSS,
    INJECT_SLOW,
    INJECT_STALL,
)
from repro.storage.columnblock import ColumnBlock, StringDictionary
from repro.storage.hashing import stable_hash
from repro.storage.relation import DistributedRelation

_JOIN_GRACE_SECONDS = 5.0

# Every executor-owned shared-memory segment uses this name prefix, so
# leaked segments are countable (tests/test_mp_shm.py greps /dev/shm).
SHM_PREFIX = "repro_mp_"

# Accounting for the per-fragment memory budget: one resident group costs
# roughly its projected attributes plus running-state overhead.
_ENTRY_OVERHEAD_BYTES = 8
_MIN_SPILL_ENTRIES = 8


class FragmentFailedError(RuntimeError):
    """One fragment's phase-1 job failed after exhausting its retries.

    ``partial_results`` maps fragment index to the completed partial
    lists, so a caller can salvage finished work or re-dispatch only the
    failed fragment.  ``cause_type`` is the exception type name of the
    final failure (e.g. ``"MemoryExceededError"``, ``"WorkerDied"``,
    ``"Timeout"``) so callers can branch on *what* failed without
    parsing the message.
    """

    def __init__(
        self,
        fragment_index: int,
        attempts: int,
        cause: str,
        partial_results: dict[int, list],
        cause_type: str | None = None,
    ) -> None:
        super().__init__(
            f"fragment {fragment_index} failed after {attempts} "
            f"attempt(s): {cause}"
        )
        self.fragment_index = fragment_index
        self.attempts = attempts
        self.cause = cause
        self.cause_type = cause_type
        self.partial_results = partial_results


class DeadlineExceededError(RuntimeError):
    """The run's deadline expired before every fragment completed.

    Raised by :func:`multiprocessing_aggregate` when ``deadline=`` (an
    absolute ``time.monotonic()`` value) passes mid-run.  In-flight
    attempts are cancelled through the pool's discard path and every
    shared-memory segment is unlinked before this propagates, so a
    deadline miss never leaks processes or segments.  Distinct from
    :class:`FragmentFailedError` on purpose: a deadline miss says the
    *caller's* latency budget ran out, not that the executor (or the
    user's phase function) is sick — retrying at the same budget is
    pointless and the circuit breaker ignores it.
    """

    def __init__(
        self,
        deadline_seconds: float,
        completed_fragments: int,
        total_fragments: int,
    ) -> None:
        super().__init__(
            f"run deadline exceeded after {deadline_seconds:.3f}s with "
            f"{completed_fragments}/{total_fragments} fragment(s) complete"
        )
        self.deadline_seconds = deadline_seconds
        self.completed_fragments = completed_fragments
        self.total_fragments = total_fragments


class InjectedFaultError(RuntimeError):
    """Raised inside a worker by the fault injector (``read_error_rate``)."""


class WorkerFailure(RuntimeError):
    """The reconstructed cause of a cross-process fragment failure.

    Worker exceptions arrive as ``{"type", "message"}`` dicts — the
    original object cannot cross the pipe — so the final
    :class:`FragmentFailedError` chains from one of these (``raise …
    from WorkerFailure(error)``), giving pool dispatch the same
    cause-chain shape the in-process path gets from the real exception.
    """

    def __init__(self, error: dict) -> None:
        super().__init__(
            f"{error.get('type', 'Unknown')}: {error.get('message', '')}"
        )
        self.error_type = error.get("type", "Unknown")


def _local_phase(args) -> list[tuple[tuple, GroupState]]:
    """Phase 1 for one fragment: (source, query, schema) -> partials.

    ``source`` is a row list, or — for block-born fragments on the
    in-process path — a :class:`~repro.storage.ColumnBlock`, which runs
    through the columnar kernel and only decodes to rows when a kernel
    guard declines the shape.
    """
    rows, query, schema = args
    if isinstance(rows, ColumnBlock):
        result = _columnar_local_phase(rows, query)
        if result is not None:
            return result
        rows = rows.to_rows()
    bq = query.bind(schema)
    table: dict[tuple, GroupState] = {}
    for row in rows:
        if not bq.matches(row):
            continue
        key = bq.key_of(row)
        state = table.get(key)
        if state is None:
            state = GroupState(query.aggregates)
            table[key] = state
        state.update(bq.values_of(row))
    return list(table.items())


class _GovernedPhase:
    """Phase 1 under a byte budget — rung 4 of the degradation ladder.

    Picklable (a plain instance of a module-level class), so it crosses
    the worker-process boundary like any ``phase_fn``.  First attempt
    (``spill=False``): aggregate in memory with a watchdog that raises
    :class:`~repro.resources.MemoryExceededError` — carrying the
    high-water mark — the moment the table would outgrow the budget.
    Retry attempts (``spill=True``): rerun out-of-core at the reduced
    budget, spooling overflow groups through a
    :class:`~repro.storage.spill.FileSpillStore`, which completes under
    any budget without losing tuples.
    """

    def __init__(self, budget_bytes: int, spill: bool) -> None:
        if budget_bytes < 1:
            raise ValueError("budget_bytes must be positive")
        self.budget_bytes = budget_bytes
        self.spill = spill

    def _entry_bytes(self, bq) -> int:
        return max(1, bq.projected_bytes) + _ENTRY_OVERHEAD_BYTES

    def __call__(self, job) -> list[tuple[tuple, GroupState]]:
        rows, query, schema = job
        if isinstance(rows, ColumnBlock):
            # The budget ladder governs the per-row table; a block-born
            # fragment decodes first so accounting stays identical.
            rows = rows.to_rows()
        bq = query.bind(schema)
        entry_bytes = self._entry_bytes(bq)
        if self.spill:
            return self._spill_phase(rows, query, bq, entry_bytes)
        return self._watchdog_phase(rows, query, bq, entry_bytes)

    def _watchdog_phase(self, rows, query, bq, entry_bytes):
        table: dict[tuple, GroupState] = {}
        for row in rows:
            if not bq.matches(row):
                continue
            key = bq.key_of(row)
            state = table.get(key)
            if state is None:
                used = len(table) * entry_bytes
                if used + entry_bytes > self.budget_bytes:
                    raise MemoryExceededError(
                        "mp_local_phase",
                        self.budget_bytes,
                        high_water_bytes=used,
                        requested_bytes=entry_bytes,
                    )
                state = GroupState(query.aggregates)
                table[key] = state
            state.update(bq.values_of(row))
        return list(table.items())

    def _spill_phase(self, rows, query, bq, entry_bytes):
        from repro.core.hashtable import HashAggregator
        from repro.storage.spill import FileSpillStore

        max_entries = max(
            _MIN_SPILL_ENTRIES, self.budget_bytes // entry_bytes
        )
        with FileSpillStore() as store:
            agg = HashAggregator(
                lambda: GroupState(query.aggregates),
                max_entries,
                spill_store=store,
            )
            for row in rows:
                if not bq.matches(row):
                    continue
                agg.add_values(bq.key_of(row), bq.values_of(row))
            return list(agg.finish())


def _tracker_noop(*_args, **_kwargs) -> None:
    return None


def _disarm_resource_tracker() -> None:
    """Fork-safety: neuter the inherited resource tracker in a worker.

    Must run first thing in every forked child.  The parent's tracker
    lock may be *held by another thread* at fork time — concurrent
    dispatchers encode segments (``SharedMemory(create=True)`` registers
    with the tracker) while ``WorkerPool.acquire`` forks — and a lock
    captured mid-hold never unlocks in the child, because its owner
    thread does not exist there.  On this Python, merely *attaching* a
    segment also registers with the tracker, so the worker's first shm
    attach would deadlock forever and hang its dispatcher.

    Workers never own segments — the parent creates and unlinks all of
    them — so the tracker has no business in a worker at all: make
    register/unregister no-ops instead of trying to repair the lock.
    """
    resource_tracker.register = _tracker_noop
    resource_tracker.unregister = _tracker_noop
    resource_tracker.ensure_running = _tracker_noop
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None:
        tracker.register = _tracker_noop
        tracker.unregister = _tracker_noop
        tracker.ensure_running = _tracker_noop


# -- shared-memory block transfer ----------------------------------------------


def _projection_for(query: AggregateQuery, schema):
    """(subschema, column indexes) shipping only key + aggregate columns.

    Returns None when projection is unsafe or useless: a WHERE predicate
    may read any column, and a COUNT(*)-only query has no needed columns
    (an empty schema cannot exist — ship the full rows).
    """
    if query.where is not None:
        return None
    used = set(query.group_by)
    used.update(
        spec.column for spec in query.aggregates if spec.column is not None
    )
    needed = [c.name for c in schema.columns if c.name in used]
    if not needed or len(needed) == len(schema.columns):
        return None
    return schema.project(needed), schema.indexes_of(needed)


def _encode_fragment(rows, query, schema, segments: list, project: bool = True):
    """Encode one fragment into a shared-memory segment; returns the job
    descriptor for the pool worker.

    Every non-empty fragment — ``rows`` is a row list or a block-born
    :class:`~repro.storage.ColumnBlock` — ships as one
    ``ColumnBlock.to_bytes()`` buffer in one segment (appended to
    ``segments``, which the caller owns and unlinks):
    ``("shm_col", name, nbytes, num_rows, query, schema, as_rows)``.
    Empty fragments (``SharedMemory`` cannot be zero-sized) and rows the
    block codec rejects (an int outside int64, a mistyped value) fall
    back to an ``("inline", job)`` descriptor pickled over the pipe.

    ``project=True`` says a built-in phase will run the fragment: the
    block is projected to the key + aggregate columns when that is safe
    (:func:`_projection_for`) and the worker hands the phase the block
    itself.  ``project=False`` ships the full tuples and sets
    ``as_rows`` — a substituted ``phase_fn`` inspects raw row lists.
    """
    if not len(rows):
        return ("inline", ([], query, schema))
    proj = _projection_for(query, schema) if project else None
    ship_schema, idx = proj if proj is not None else (schema, None)
    try:
        if not isinstance(rows, ColumnBlock):
            block = ColumnBlock.from_rows(ship_schema, rows, idx=idx)
        elif idx is not None:
            block = rows.project(idx, ship_schema)
        else:
            block = rows
        data = block.to_bytes()
    except (ValueError, OverflowError, TypeError, AttributeError):
        return ("inline", (rows, query, schema))
    shm = shared_memory.SharedMemory(
        create=True, size=len(data), name=SHM_PREFIX + secrets.token_hex(8)
    )
    segments.append(shm)
    shm.buf[: len(data)] = data
    return (
        "shm_col", shm.name, len(data), block.num_rows, query, ship_schema,
        not project,
    )


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a parent-owned segment without adopting its lifecycle.

    Attaching registers the segment with a resource tracker, which would
    unlink it again at exit — but the parent owns the lifecycle.  Forked
    workers share the parent's tracker, where registration is idempotent
    and the parent's ``unlink`` deregisters exactly once, so nothing to
    undo; under any other start method the worker has its *own* tracker
    and the attachment must be unregistered immediately.
    """
    shm = shared_memory.SharedMemory(name=name)
    if multiprocessing.get_start_method() != "fork":
        try:  # pragma: no cover - non-fork platforms
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
    return shm


def _load_job(descriptor):
    """Worker side: a descriptor back into ``(source, query, schema)``.

    ``source`` is the shipped :class:`~repro.storage.ColumnBlock` for a
    built-in phase, decoded row tuples when the descriptor says
    ``as_rows`` (a substituted ``phase_fn``), and whatever the parent
    pickled for an inline descriptor.
    """
    if descriptor[0] == "inline":
        return descriptor[1]
    _kind, name, nbytes, num_rows, query, schema, as_rows = descriptor
    shm = _attach_segment(name)
    try:
        data = bytes(shm.buf[:nbytes])
    finally:
        shm.close()
    block = ColumnBlock.from_bytes(schema, data)
    if block.num_rows != num_rows:
        raise ValueError(
            f"columnar segment holds {block.num_rows} rows, "
            f"descriptor says {num_rows}"
        )
    return (block.to_rows() if as_rows else block, query, schema)


# -- the columnar kernel ------------------------------------------------------
#
# Works directly on a ColumnBlock's buffers: group keys of any type and
# arity via per-column ``np.unique`` codes (string columns group over
# their int32 dictionary codes), aggregates via ``bincount``/``ufunc.at``
# folds.  Every guard below exists to keep the kernel *bit-identical* to
# the per-row phase, not merely close — when a shape could diverge
# (NaN keys, signed-zero ties, int sums past exact float range) the
# kernel refuses and the caller runs the per-row loop instead.


def _aslist(data):
    """Python list from a numpy array or any sequence."""
    return data.tolist() if hasattr(data, "tolist") else list(data)


def _decode_unique(cblock, col_idx, kind, uniq):
    """Decoded Python values for one column's unique array."""
    if kind == "str":
        values = cblock.dictionaries[col_idx].values
        return [values[c] for c in uniq.tolist()]
    return uniq.tolist()


def _columnar_group_keys(cblock, query):
    """Group-key codes for a block: (decoded key columns, inv, n_groups).

    ``decoded[j][g]`` is key column ``j``'s Python value for group ``g``
    and ``inv[r]`` is row ``r``'s group index.  Returns None when the
    per-row path's key semantics cannot be reproduced vectorized: NaN
    keys (Python dicts keep distinct NaN objects distinct, ``np.unique``
    collapses them) and signed-zero float keys (the dict keeps the
    first-seen representative, the sort may not).
    """
    import numpy as np

    bq = query.bind(cblock.schema)
    columns = cblock.schema.columns
    per_col = []
    for i in bq.key_indexes:
        col = cblock.columns[i]
        if columns[i].kind == "float" and len(col):
            if np.isnan(col).any():
                return None
            zeros = col == 0.0
            if zeros.any() and np.signbit(col[zeros]).any():
                return None
        uniq, codes = np.unique(col, return_inverse=True)
        per_col.append((i, columns[i].kind, uniq, codes.reshape(-1)))
    if len(per_col) == 1:
        i, kind, uniq, inv = per_col[0]
        return [_decode_unique(cblock, i, kind, uniq)], inv, len(uniq)
    stacked = np.column_stack(
        [np.asarray(c[3], dtype=np.int64) for c in per_col]
    )
    uniq_rows, inv = np.unique(stacked, axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    decoded = []
    for j, (i, kind, uniq, _codes) in enumerate(per_col):
        vals = _decode_unique(cblock, i, kind, uniq)
        decoded.append([vals[c] for c in uniq_rows[:, j].tolist()])
    return decoded, inv, len(uniq_rows)


def _distinct_pairs(cblock, col_idx, inv, n_groups):
    """Sorted-unique ``(group, value)`` arrays for COUNT(DISTINCT).

    One structured-array unique over the whole column; the result is the
    column's distinct pairs sorted by (group, value) — the packed wire
    form for the distinct merge.  None for float columns containing NaN:
    the per-row path's set keeps each decoded NaN object as its own
    element while ``np.unique`` collapses them.
    """
    import numpy as np

    kind = cblock.schema.columns[col_idx].kind
    col = cblock.columns[col_idx]
    if kind == "float" and len(col) and np.isnan(col).any():
        return None
    rec = np.empty(len(col), dtype=[("g", np.int64), ("v", col.dtype)])
    rec["g"] = inv
    rec["v"] = col
    pairs = np.unique(rec)
    return pairs["g"], pairs["v"]


def _distinct_sets(cblock, col_idx, inv, n_groups):
    """Per-group distinct-value sets (the unpacked distinct state)."""
    pairs = _distinct_pairs(cblock, col_idx, inv, n_groups)
    if pairs is None:
        return None
    groups, vals = pairs
    sets: list[set] = [set() for _ in range(n_groups)]
    if cblock.schema.columns[col_idx].kind == "str":
        values = cblock.dictionaries[col_idx].values
        for g, v in zip(groups.tolist(), vals.tolist()):
            sets[g].add(values[v])
    else:
        for g, v in zip(groups.tolist(), vals.tolist()):
            sets[g].add(v)
    return sets


def _str_extremes(cblock, col_idx, inv, n_groups, func, as_codes=False):
    """Per-group MIN/MAX over a dictionary-encoded string column.

    Ranks the dictionary once (sort its values, invert the permutation),
    folds the per-row ranks with ``minimum.at``/``maximum.at``, and
    decodes the winning ranks — the same total order Python's ``<``
    gives, so results match the per-row fold exactly.  With
    ``as_codes=True`` the winners come back as an int64 array of
    *dictionary codes* instead of decoded strings — the packed wire
    form, which the parent merge re-ranks against the union dictionary
    without ever materializing per-group strings.
    """
    import numpy as np

    dvals = cblock.dictionaries[col_idx].values
    order = sorted(range(len(dvals)), key=dvals.__getitem__)
    rank_of = np.empty(len(dvals), dtype=np.int64)
    rank_of[np.asarray(order, dtype=np.int64)] = np.arange(
        len(dvals), dtype=np.int64
    )
    ranks = rank_of[cblock.columns[col_idx]]
    if func == "min":
        acc = np.full(n_groups, len(dvals), dtype=np.int64)
        np.minimum.at(acc, inv, ranks)
    else:
        acc = np.full(n_groups, -1, dtype=np.int64)
        np.maximum.at(acc, inv, ranks)
    if as_codes:
        # Every group holds >= 1 row, so no sentinel rank survives.
        return np.asarray(order, dtype=np.int64)[acc]
    return [dvals[order[r]] for r in acc.tolist()]


# SUM/AVG over int columns stay exact Python ints on the per-row path;
# the int64 kernel must refuse when a sum could leave int64, and the
# VAR/STDDEV square kernel when a value's square could round differently
# than Python's exact int multiply.
_INT64_LIMIT = 2**63
_EXACT_FLOAT_INT = 2**53


def _int_magnitude(values) -> int:
    """max(|v|) of an int64 array as a Python int (0 when empty)."""
    if not len(values):
        return 0
    return max(-int(values.min()), int(values.max()))


def _columnar_local_phase(cblock, query, packed=False):
    """Phase 1 on a ColumnBlock: every key type, every aggregate.

    Returns (key, GroupState) partials like :func:`_local_phase`, or —
    with ``packed=True`` — a
    ``("packed", n_groups, key_columns, state_columns)`` payload of raw
    arrays for the parent's vectorized global merge.  Every aggregate
    has a packed wire form: count_distinct ships sorted-unique
    ``(group, value)`` pair arrays (codes + the block dictionary for
    str columns) and str MIN/MAX ships per-group winner *codes* plus
    the dictionary, so the parent merges via LUT unions instead of
    unpacking to per-row states.  Returns None when
    a guard detects a shape whose vectorized result could differ from
    the per-row loop's (see the section comment); the caller then
    decodes and runs per-row.

    Bit-parity notes: ``bincount`` accumulates weights in input order —
    the sequential loop's order — so float sums agree bit for bit; int
    sums use int64 with an overflow guard and become Python ints again;
    int VAR moments cast int64→float64 exactly as Python's float+int
    add does; MIN/MAX ties are only distinguishable for signed zeros,
    which are guarded.
    """
    if query.where is not None or not query.group_by:
        return None

    import numpy as np

    comp = _columnar_group_keys(cblock, query)
    if comp is None:
        return None
    decoded_cols, inv, n_groups = comp
    counts = np.bincount(inv, minlength=n_groups).astype(np.int64)
    bq = query.bind(cblock.schema)
    columns = cblock.schema.columns

    state_payload: list[tuple] = []
    for spec, col_idx in zip(query.aggregates, bq.agg_indexes):
        func = spec.func
        if func == "count":
            # Codec rows never carry NULL, so COUNT(col) == COUNT(*).
            state_payload.append(("count", counts))
            continue
        if func == "count_distinct":
            if packed:
                pairs = _distinct_pairs(cblock, col_idx, inv, n_groups)
                if pairs is None:
                    return None
                groups_arr, vals_arr = pairs
                if columns[col_idx].kind == "str":
                    state_payload.append(
                        ("distinct_str", groups_arr, vals_arr,
                         cblock.dictionaries[col_idx].values)
                    )
                else:
                    state_payload.append(
                        ("distinct_num", groups_arr, vals_arr)
                    )
            else:
                sets = _distinct_sets(cblock, col_idx, inv, n_groups)
                if sets is None:
                    return None
                state_payload.append(("distinct", sets))
            continue
        if func not in ("sum", "avg", "min", "max", "var", "stddev"):
            return None
        kind = columns[col_idx].kind
        values = cblock.columns[col_idx]
        if kind == "str":
            if func not in ("min", "max"):
                return None
            if packed:
                state_payload.append(
                    (func + "_str_codes",
                     _str_extremes(cblock, col_idx, inv, n_groups, func,
                                   as_codes=True),
                     cblock.dictionaries[col_idx].values)
                )
            else:
                state_payload.append(
                    (func + "_str", _str_extremes(cblock, col_idx, inv,
                                                  n_groups, func))
                )
        elif kind == "float":
            if func in ("min", "max"):
                if len(values):
                    if np.isnan(values).any():
                        return None  # per-row keeps first, np propagates
                    zeros = values == 0.0
                    if zeros.any() and np.signbit(values[zeros]).any():
                        return None  # -0.0/0.0 tie winner differs
                if func == "min":
                    acc = np.full(n_groups, np.inf)
                    np.minimum.at(acc, inv, values)
                else:
                    acc = np.full(n_groups, -np.inf)
                    np.maximum.at(acc, inv, values)
                state_payload.append((func + "_float", acc))
            elif func == "sum":
                state_payload.append(
                    ("sum_float",
                     np.bincount(inv, weights=values, minlength=n_groups))
                )
            elif func == "avg":
                state_payload.append(
                    ("avg_float",
                     np.bincount(inv, weights=values, minlength=n_groups),
                     counts)
                )
            else:  # var / stddev share VarianceState's three moments
                state_payload.append(
                    ("var",
                     np.bincount(inv, weights=values, minlength=n_groups),
                     np.bincount(inv, weights=values * values,
                                 minlength=n_groups),
                     counts)
                )
        else:  # int
            if func in ("min", "max"):
                info = np.iinfo(np.int64)
                if func == "min":
                    acc = np.full(n_groups, info.max, dtype=np.int64)
                    np.minimum.at(acc, inv, values)
                else:
                    acc = np.full(n_groups, info.min, dtype=np.int64)
                    np.maximum.at(acc, inv, values)
                state_payload.append((func + "_int", acc))
            elif func in ("sum", "avg"):
                if _int_magnitude(values) * len(values) >= _INT64_LIMIT:
                    return None  # per-row Python ints cannot overflow
                acc = np.zeros(n_groups, dtype=np.int64)
                np.add.at(acc, inv, values)
                if func == "sum":
                    state_payload.append(("sum_int", acc))
                else:
                    state_payload.append(("avg_int", acc, counts))
            else:  # var / stddev over ints
                if _int_magnitude(values) > _EXACT_FLOAT_INT:
                    return None  # float64(v)**2 != float64(v*v)
                vf = values.astype(np.float64)
                state_payload.append(
                    ("var",
                     np.bincount(inv, weights=vf, minlength=n_groups),
                     np.bincount(inv, weights=vf * vf, minlength=n_groups),
                     counts)
                )

    if packed:
        key_payload = []
        for j, i in enumerate(bq.key_indexes):
            kind = columns[i].kind
            if kind == "str":
                key_payload.append(("str", decoded_cols[j]))
            else:
                dtype = np.int64 if kind == "int" else np.float64
                key_payload.append(
                    (kind, np.asarray(decoded_cols[j], dtype=dtype))
                )
        return ("packed", n_groups, key_payload, state_payload)

    keys = list(zip(*decoded_cols))
    per_spec = [
        _states_from_payload(spec, payload[0], payload[1:], n_groups)
        for spec, payload in zip(query.aggregates, state_payload)
    ]
    out = []
    for g in range(n_groups):
        group = GroupState.__new__(GroupState)
        group.states = [states[g] for states in per_spec]
        out.append((keys[g], group))
    return out


def _states_from_payload(spec, tag, data, n_groups):
    """Materialize per-group aggregate states from a kernel payload."""
    states = [spec.new_state() for _ in range(n_groups)]
    if tag == "count":
        for state, c in zip(states, _aslist(data[0])):
            state.count = c
    elif tag == "distinct":
        for state, values in zip(states, data[0]):
            state.values = values
    elif tag == "distinct_num":
        for g, v in zip(_aslist(data[0]), _aslist(data[1])):
            states[g].values.add(v)
    elif tag == "distinct_str":
        dvals = data[2]
        for g, c in zip(_aslist(data[0]), _aslist(data[1])):
            states[g].values.add(dvals[c])
    elif tag in ("min_str_codes", "max_str_codes"):
        dvals = data[1]
        for state, c in zip(states, _aslist(data[0])):
            state.value = dvals[c]
    elif tag in ("sum_int", "sum_float"):
        for state, t in zip(states, _aslist(data[0])):
            state.total = t
            state.seen = True
    elif tag in ("avg_int", "avg_float"):
        for state, t, c in zip(states, _aslist(data[0]), _aslist(data[1])):
            state.total = t
            state.count = c
    elif tag == "var":
        for state, t, s, c in zip(
            states, _aslist(data[0]), _aslist(data[1]), _aslist(data[2])
        ):
            state.total = t
            state.total_sq = s
            state.count = c
    else:  # min_*/max_* carry the per-group extremes directly
        for state, v in zip(states, _aslist(data[0])):
            state.value = v
    return states


def _is_packed(result) -> bool:
    return (
        isinstance(result, tuple) and len(result) == 4
        and result[0] == "packed"
    )


def _unpack_packed(payload, query):
    """Expand a packed worker payload into (key, GroupState) partials."""
    _tag, n_groups, key_payload, state_payload = payload
    keys = list(zip(*[_aslist(data) for _kind, data in key_payload]))
    per_spec = [
        _states_from_payload(spec, p[0], p[1:], n_groups)
        for spec, p in zip(query.aggregates, state_payload)
    ]
    out = []
    for g in range(n_groups):
        group = GroupState.__new__(GroupState)
        group.states = [states[g] for states in per_spec]
        out.append((keys[g], group))
    return out


def _merge_packed(payloads, query):
    """Vectorized global merge of per-worker packed payloads.

    ``payloads`` must be every fragment's packed result in fragment
    order.  Re-groups the concatenated per-fragment group keys with the
    same unique/codes machinery the kernel uses, then folds each
    aggregate's arrays — in concatenation (= fragment) order, so float
    accumulation matches the sequential merge bit for bit.  Returns the
    merged ``{key: GroupState}`` table, or None when exactness cannot
    be guaranteed (int-sum overflow risk), in which case the caller
    unpacks and merges sequentially.
    """
    import numpy as np

    if sum(p[1] for p in payloads) == 0:
        return {}
    num_keys = len(payloads[0][2])
    cols = []
    for j in range(num_keys):
        kind = payloads[0][2][j][0]
        if kind == "str":
            full = np.array(
                [v for p in payloads for v in p[2][j][1]], dtype=object
            )
        else:
            full = np.concatenate(
                [np.asarray(p[2][j][1]) for p in payloads]
            )
        uniq, codes = np.unique(full, return_inverse=True)
        cols.append((kind, uniq, codes.reshape(-1)))
    if num_keys == 1:
        kind, uniq, inv = cols[0]
        n_groups = len(uniq)
        decoded = [uniq.tolist()]
    else:
        stacked = np.column_stack(
            [np.asarray(c[2], dtype=np.int64) for c in cols]
        )
        uniq_rows, inv = np.unique(stacked, axis=0, return_inverse=True)
        inv = inv.reshape(-1)
        n_groups = len(uniq_rows)
        decoded = []
        for j, (kind, uniq, _codes) in enumerate(cols):
            vals = uniq.tolist()
            decoded.append([vals[c] for c in uniq_rows[:, j].tolist()])
    keys = list(zip(*decoded))
    # Fragment f's local group g sits at position offsets[f] + g in the
    # concatenated key arrays, so inv[offsets[f] + g] is its global
    # group — the LUT the pair-array and code-array merges fold through.
    offsets = []
    base = 0
    for p in payloads:
        offsets.append(base)
        base += p[1]

    per_spec = []
    for s_idx, spec in enumerate(query.aggregates):
        tag = payloads[0][3][s_idx][0]
        parts = [p[3][s_idx] for p in payloads]
        if any(part[0] != tag for part in parts):
            return None  # pragma: no cover - workers disagree on shape
        if tag == "count":
            full = np.concatenate([np.asarray(part[1]) for part in parts])
            acc = np.zeros(n_groups, dtype=np.int64)
            np.add.at(acc, inv, full)
            merged_payload = (tag, acc)
        elif tag in ("sum_int", "avg_int"):
            arrays = [np.asarray(part[1]) for part in parts]
            if sum(_int_magnitude(a) for a in arrays) >= _INT64_LIMIT:
                return None  # the Python merge keeps exact big ints
            acc = np.zeros(n_groups, dtype=np.int64)
            np.add.at(acc, inv, np.concatenate(arrays))
            if tag == "sum_int":
                merged_payload = (tag, acc)
            else:
                cacc = np.zeros(n_groups, dtype=np.int64)
                np.add.at(
                    cacc, inv,
                    np.concatenate([np.asarray(p[2]) for p in parts]),
                )
                merged_payload = (tag, acc, cacc)
        elif tag in ("sum_float", "avg_float"):
            totals = np.bincount(
                inv,
                weights=np.concatenate(
                    [np.asarray(part[1]) for part in parts]
                ),
                minlength=n_groups,
            )
            if tag == "sum_float":
                merged_payload = (tag, totals)
            else:
                cacc = np.zeros(n_groups, dtype=np.int64)
                np.add.at(
                    cacc, inv,
                    np.concatenate([np.asarray(p[2]) for p in parts]),
                )
                merged_payload = (tag, totals, cacc)
        elif tag == "var":
            totals = np.bincount(
                inv,
                weights=np.concatenate(
                    [np.asarray(part[1]) for part in parts]
                ),
                minlength=n_groups,
            )
            sq = np.bincount(
                inv,
                weights=np.concatenate(
                    [np.asarray(part[2]) for part in parts]
                ),
                minlength=n_groups,
            )
            cacc = np.zeros(n_groups, dtype=np.int64)
            np.add.at(
                cacc, inv,
                np.concatenate([np.asarray(part[3]) for part in parts]),
            )
            merged_payload = (tag, totals, sq, cacc)
        elif tag in ("min_int", "max_int", "min_float", "max_float"):
            full = np.concatenate([np.asarray(part[1]) for part in parts])
            if tag.endswith("_int"):
                info = np.iinfo(np.int64)
                fill = info.max if tag[:3] == "min" else info.min
                acc = np.full(n_groups, fill, dtype=np.int64)
            else:
                acc = np.full(
                    n_groups, np.inf if tag[:3] == "min" else -np.inf
                )
            (np.minimum if tag[:3] == "min" else np.maximum).at(
                acc, inv, full
            )
            merged_payload = (tag, acc)
        elif tag in ("min_str_codes", "max_str_codes"):
            # Dictionary-code LUT union: absorb every fragment's
            # dictionary into one union dictionary, remap the per-group
            # winner codes through it, rank the union once, and fold
            # ranks — ties are equal strings, so any winner decodes to
            # the same value the sequential merge keeps.
            union = StringDictionary()
            luts = [
                np.asarray(
                    [union.code_of(v) for v in part[2]], dtype=np.int64
                )
                for part in parts
            ]
            dvals = union.values
            order = sorted(range(len(dvals)), key=dvals.__getitem__)
            rank_of = np.empty(len(dvals), dtype=np.int64)
            rank_of[np.asarray(order, dtype=np.int64)] = np.arange(
                len(dvals), dtype=np.int64
            )
            ranks = np.concatenate(
                [
                    rank_of[lut[np.asarray(part[1], dtype=np.int64)]]
                    if len(part[1]) else np.empty(0, dtype=np.int64)
                    for lut, part in zip(luts, parts)
                ]
            )
            if tag.startswith("min"):
                acc = np.full(n_groups, len(dvals), dtype=np.int64)
                np.minimum.at(acc, inv, ranks)
            else:
                acc = np.full(n_groups, -1, dtype=np.int64)
                np.maximum.at(acc, inv, ranks)
            merged_payload = (
                tag[:3] + "_str", [dvals[order[r]] for r in acc.tolist()]
            )
        elif tag == "distinct_num":
            # Set fold over sorted-unique (group, value) pair arrays:
            # remap each fragment's local groups to global ones, then
            # one structured unique dedups across fragments.
            gparts, vparts = [], []
            for f, part in enumerate(parts):
                local = np.asarray(part[1], dtype=np.int64)
                gparts.append(inv[offsets[f] + local])
                vparts.append(np.asarray(part[2]))
            gg = np.concatenate(gparts)
            vv = np.concatenate(vparts)
            rec = np.empty(
                len(gg), dtype=[("g", np.int64), ("v", vv.dtype)]
            )
            rec["g"] = gg
            rec["v"] = vv
            upairs = np.unique(rec)
            merged_payload = (tag, upairs["g"], upairs["v"])
        elif tag == "distinct_str":
            # As distinct_num, but codes go through the union-dictionary
            # LUT first so equal strings from different fragments unify.
            union = StringDictionary()
            gparts, cparts = [], []
            for f, part in enumerate(parts):
                lut = np.asarray(
                    [union.code_of(v) for v in part[3]], dtype=np.int64
                )
                local = np.asarray(part[1], dtype=np.int64)
                codes = np.asarray(part[2], dtype=np.int64)
                gparts.append(inv[offsets[f] + local])
                cparts.append(
                    lut[codes] if len(codes)
                    else np.empty(0, dtype=np.int64)
                )
            gg = np.concatenate(gparts)
            cc = np.concatenate(cparts)
            rec = np.empty(
                len(gg), dtype=[("g", np.int64), ("v", np.int64)]
            )
            rec["g"] = gg
            rec["v"] = cc
            upairs = np.unique(rec)
            merged_payload = (
                tag, upairs["g"], upairs["v"], union.values
            )
        else:  # pragma: no cover - unknown payload tag
            return None
        per_spec.append(
            _states_from_payload(
                spec, merged_payload[0], merged_payload[1:], n_groups
            )
        )

    merged: dict[tuple, GroupState] = {}
    for g in range(n_groups):
        group = GroupState.__new__(GroupState)
        group.states = [states[g] for states in per_spec]
        merged[keys[g]] = group
    return merged


def _global_phase(job):
    """Phase 1 for ``strategy="global"``: packed columnar partials.

    A block source packs through the columnar kernel; a row source, or a
    block a kernel guard declines, degrades to ordinary partials, which
    the parent merge accepts (it unpacks mixed results).
    """
    source = job[0]
    if isinstance(source, ColumnBlock):
        result = _columnar_local_phase(source, job[1], packed=True)
        if result is not None:
            return result
        job = (source.to_rows(), job[1], job[2])
    return _local_phase(job)


# -- the Rep strategy's two worker phases -------------------------------------


class _RepPartitionPhase:
    """Round 1 of ``strategy="rep"``: hash-partition a fragment's rows
    into ``num_buckets`` disjoint key ranges (the paper's Repartitioning
    redistribution step, minus the network).  Picklable, so the pool can
    ship it like any substituted phase function.
    """

    __slots__ = ("num_buckets",)

    def __init__(self, num_buckets: int) -> None:
        self.num_buckets = num_buckets

    def __call__(self, job):
        rows, query, schema = job
        if isinstance(rows, ColumnBlock):
            block = rows
            # Project exactly like the pool's shipping path (a no-op on
            # a block that already shipped projected) so round-2 chunks
            # decode against the same rep schema either way.
            proj = _projection_for(query, block.schema)
            if proj is not None:
                ship_schema, idx = proj
                block = block.project(idx, ship_schema)
                schema = ship_schema
            out = self._partition_block(block, query, schema)
            if out is not None:
                return out
            rows = block.to_rows()
        bq = query.bind(schema)
        buckets: list[list] = [[] for _ in range(self.num_buckets)]
        memo: dict[tuple, int] = {}
        for row in rows:
            if not bq.matches(row):
                continue
            key = bq.key_of(row)
            b = memo.get(key)
            if b is None:
                b = stable_hash(key) % self.num_buckets
                memo[key] = b
            buckets[b].append(row)
        return ("rep_rows", [chunk or None for chunk in buckets])

    def _partition_block(self, block, query, schema):
        """Vectorized partition of a ColumnBlock; None to go per-row.

        Computes each row's bucket through the same ``stable_hash(key)``
        the per-row path uses (so a retried fragment that falls back
        per-row lands every group in the same bucket) and slices the
        block columns by bucket mask — each chunk re-serializes with the
        parent dictionary, codes untouched.
        """
        if query.where is not None or not query.group_by:
            return None

        import numpy as np

        comp = _columnar_group_keys(block, query)
        if comp is None:
            return None
        decoded_cols, inv, n_groups = comp
        lut = np.empty(max(n_groups, 1), dtype=np.int64)
        for g, key in enumerate(zip(*decoded_cols)):
            lut[g] = stable_hash(key) % self.num_buckets
        row_buckets = lut[inv]
        chunks = []
        for b in range(self.num_buckets):
            mask = row_buckets == b
            n = int(mask.sum())
            if not n:
                chunks.append(None)
                continue
            sub = ColumnBlock(
                schema, n, [arr[mask] for arr in block.columns],
                block.dictionaries,
            )
            chunks.append(sub.to_bytes())
        return ("rep_blocks", chunks)


def _rep_bucket_phase(job):
    """Round 2 of ``strategy="rep"``: aggregate one bucket's chunks.

    ``job`` is ``(chunks, query, schema)`` with one chunk per source
    fragment, in fragment order: ``("block", bytes)`` for a columnar
    slice or ``("rows", rows)`` for a per-row slice.  Each chunk is
    aggregated exactly like a 2P fragment (columnar kernel first,
    per-row fallback) and the per-chunk partials merged in fragment
    order — reproducing the 2P merge's operation order bit for bit,
    just sharded by key range.
    """
    chunks, query, schema = job
    merged: dict[tuple, GroupState] = {}
    for kind, payload in chunks:
        if kind == "block":
            block = ColumnBlock.from_bytes(schema, payload)
            partial = _columnar_local_phase(block, query)
            if partial is None:
                partial = _local_phase((block.to_rows(), query, schema))
        else:
            partial = _local_phase((payload, query, schema))
        for key, state in partial:
            mine = merged.get(key)
            if mine is None:
                mine = GroupState(query.aggregates)
                merged[key] = mine
            mine.merge(state)
    return list(merged.items())


# -- the persistent worker pool ----------------------------------------------


_SLOW_CHUNK_ROWS = 128


class _HeartbeatSender(threading.Thread):
    """Worker-side beat emitter: one ``("beat", {"rows_done": n}, None)``
    per interval while a job runs, sharing the reply pipe under a lock
    so beats never interleave with the final reply."""

    def __init__(self, conn, lock, interval: float, progress: list) -> None:
        super().__init__(daemon=True)
        self.conn = conn
        self.lock = lock
        self.interval = interval
        self.progress = progress
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(self.interval):
            try:
                with self.lock:
                    self.conn.send(
                        ("beat", {"rows_done": self.progress[0]}, None)
                    )
            except Exception:  # pragma: no cover - parent went away
                return

    def stop(self) -> None:
        self._done.set()
        self.join()


def _slow_job(fn, descriptor, factor: float, progress: list):
    """Injected straggler: run the job ``factor`` times slower.

    For the default phase the rows run through the per-row loop in
    chunks, sleeping off ``(factor - 1)`` of each chunk's elapsed time
    and advancing ``progress`` — a limping-but-alive worker whose beats
    show partial progress.  The accumulation order is exactly the
    sequential loop's, so results stay bit-identical to the fault-free
    run.  Substituted phase functions are opaque: they run whole, then
    sleep off the multiplier.
    """
    if fn is _local_phase:
        rows, query, schema = _load_job(descriptor)
        if isinstance(rows, ColumnBlock):
            rows = rows.to_rows()
        bq = query.bind(schema)
        table: dict[tuple, GroupState] = {}
        for start in range(0, len(rows), _SLOW_CHUNK_ROWS):
            t0 = time.perf_counter()
            for row in rows[start:start + _SLOW_CHUNK_ROWS]:
                if not bq.matches(row):
                    continue
                key = bq.key_of(row)
                state = table.get(key)
                if state is None:
                    state = GroupState(query.aggregates)
                    table[key] = state
                state.update(bq.values_of(row))
            progress[0] = min(start + _SLOW_CHUNK_ROWS, len(rows))
            time.sleep((factor - 1.0) * (time.perf_counter() - t0))
        return list(table.items())
    t0 = time.perf_counter()
    result = fn(_load_job(descriptor))
    time.sleep((factor - 1.0) * (time.perf_counter() - t0))
    return result


def _run_worker_job(fn, descriptor, inject: dict, progress: list):
    """Run one job under the (possibly empty) injection directive.

    Kill and stall are delivered *here*, by the worker to itself, so
    the fault lands on the fragment it was scheduled for — a parent
    signal sent after dispatch can race a fast job and hit whatever
    runs on this worker next instead.
    """
    if inject.get(INJECT_KILL):
        # A real crash: no exception, no reply, the parent sees EOF.
        os.kill(os.getpid(), signal.SIGKILL)
    if inject.get(INJECT_STALL) is not None:
        # Limplock: freeze (heartbeats included) until the parent's
        # scheduled SIGCONT — or its heartbeat-loss recovery — ends it.
        os.kill(os.getpid(), signal.SIGSTOP)
    if inject.get(INJECT_ERROR):
        raise InjectedFaultError(
            "injected worker fault (FaultPlan.read_error_rate)"
        )
    slow = inject.get(INJECT_SLOW)
    if slow:
        return _slow_job(fn, descriptor, slow, progress)
    return fn(_load_job(descriptor))


def _pool_worker_main(conn) -> None:
    """Long-lived worker loop: recv (fn, descriptor, opts), one reply each.

    The final reply is ``(status, payload, profile)``: status "ok"
    carries the result, status "error" a ``{"type", "message"}`` dict
    preserving the exception's type so the parent can classify the
    failure, and ``profile`` is the worker's self-measurement (wall/CPU
    seconds, high-water RSS); ``("beat", …)`` messages may precede it
    when ``opts["heartbeat"]`` asks for them.
    ``opts["inject"]`` carries the fault directive for this job
    (self-SIGKILL, self-SIGSTOP limplock, an injected exception, or a
    slowdown factor).  ``None`` is the shutdown
    sentinel; a closed pipe means the parent is gone.
    """
    _disarm_resource_tracker()
    lock = threading.Lock()
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            return
        if request is None:
            conn.close()
            return
        fn, descriptor, opts = request
        progress = [0]
        beat = None
        interval = opts.get("heartbeat")
        if interval:
            beat = _HeartbeatSender(conn, lock, interval, progress)
            beat.start()
        started = profile_start()
        try:
            result = _run_worker_job(
                fn, descriptor, opts.get("inject") or {}, progress
            )
        except BaseException as exc:
            reply = (
                "error",
                {"type": type(exc).__name__, "message": str(exc)},
                profile_finish(started),
            )
        else:
            reply = ("ok", result, profile_finish(started))
        if beat is not None:
            beat.stop()  # joins: no beat can trail the final reply
        try:
            with lock:
                conn.send(reply)
        except Exception:  # pragma: no cover - parent went away
            return


class _PoolWorker:
    __slots__ = ("proc", "conn")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn


class WorkerPool:
    """A lazily grown pool of persistent, replaceable worker processes.

    Workers survive across fragments, retries, and whole
    :func:`multiprocessing_aggregate` calls (the module keeps one shared
    instance), which is where the pool's throughput comes from: the
    fork and module import are paid once per worker instead of once per
    fragment attempt.

    A worker that died or was terminated mid-job (timeout, crash) is
    *discarded* and a fresh one forked on demand — the pool never hands
    out a worker in an unknown state.

    The pool is thread-safe: the idle list, fork, and dispatcher
    bookkeeping are guarded by one re-entrant lock, so concurrent
    :func:`multiprocessing_aggregate` calls (the query service runs one
    per request thread) can share it.  Each worker is held by exactly
    one dispatcher between ``acquire`` and ``release``/``discard``, so
    two runs never read the same pipe; idle-pipe *watching* is the one
    single-dispatcher privilege (see :meth:`watch_idle`).
    """

    def __init__(self, ctx=None) -> None:
        self._ctx = ctx or multiprocessing.get_context()
        self._idle: list[_PoolWorker] = []
        self._lock = threading.RLock()
        self._dispatchers = 0
        self.closed = False
        self.spawned = 0

    def acquire(self) -> _PoolWorker:
        with self._lock:
            while self._idle:
                worker = self._idle.pop()
                if worker.proc.is_alive():
                    return worker
                self.discard(worker)  # died while idle: reap, fork fresh
            # Fork under the lock: forking from several threads at once
            # is where fork-safety bugs live, and the fork is cheap
            # relative to the fragment it will run.
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_pool_worker_main, args=(child_conn,), daemon=True
            )
            proc.start()
            child_conn.close()
            self.spawned += 1
            return _PoolWorker(proc, parent_conn)

    def release(self, worker: _PoolWorker) -> None:
        """Return a healthy worker for reuse.

        A pool that was shut down while this worker was busy (circuit-
        breaker rebuild, service drain) must not resurrect it as an
        orphan nobody will ever stop — discard it instead.
        """
        with self._lock:
            if self.closed:
                self.discard(worker)
                return
            self._idle.append(worker)

    def register_dispatcher(self) -> None:
        """A dispatch loop is starting to use this pool."""
        with self._lock:
            self._dispatchers += 1

    def unregister_dispatcher(self) -> None:
        with self._lock:
            self._dispatchers -= 1

    def idle_workers(self) -> list[_PoolWorker]:
        """A snapshot of the idle set."""
        with self._lock:
            return list(self._idle)

    def watch_idle(self) -> list[_PoolWorker]:
        """The idle workers this dispatcher may wait on for eager
        idle-death detection — only when it is the *sole* dispatcher.

        With concurrent dispatchers the privilege is withdrawn: two
        loops waiting on the same idle pipe would race to ``recv`` the
        message (or steal a freshly dispatched job's reply), so idle
        deaths are instead caught at the next ``acquire``.
        """
        with self._lock:
            if self._dispatchers > 1:
                return []
            return list(self._idle)

    def recv_idle(self, worker: _PoolWorker) -> str:
        """Consume a ready message from a watched idle worker, safely.

        Re-checks idle membership under the pool lock before reading:
        between the dispatcher's wait and this call another thread may
        have acquired the worker, in which case the ready data is *that
        run's* reply and must not be stolen.  Returns ``"acquired"``
        (not ours anymore), ``"beat"`` (stale heartbeat from a finished
        job), or ``"dead"`` (EOF — the worker was retired).
        """
        with self._lock:
            if worker not in self._idle:
                return "acquired"
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                message = None
            if (isinstance(message, tuple) and message
                    and message[0] == "beat"):
                return "beat"
            self._idle.remove(worker)
            self.discard(worker)
            return "dead"

    def remove_idle(self, worker: _PoolWorker) -> None:
        """Retire a specific idle worker (it died or sent nonsense)."""
        with self._lock:
            try:
                self._idle.remove(worker)
            except ValueError:  # pragma: no cover - already gone
                return
            self.discard(worker)

    def discard(self, worker: _PoolWorker, hard: bool = False) -> None:
        """Terminate and reap a worker that cannot be reused.

        ``hard`` skips SIGTERM and kills outright — required for
        SIGSTOPped (stalled) workers, which would never see the TERM
        and would eat the full join grace, and used for cancelled
        speculation losers where promptness matters.
        """
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if hard:
            worker.proc.kill()
        else:
            worker.proc.terminate()
        worker.proc.join(_JOIN_GRACE_SECONDS)
        if worker.proc.is_alive():  # pragma: no cover - stuck after kill
            worker.proc.kill()
            worker.proc.join(_JOIN_GRACE_SECONDS)

    def shutdown(self) -> None:
        """Stop every idle worker (busy ones are the dispatcher's to
        kill) and mark the pool closed so late releases discard."""
        with self._lock:
            self.closed = True
            idle, self._idle = self._idle, []
        for worker in idle:
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
            self.discard(worker)


_shared_pool: WorkerPool | None = None
_atexit_registered = False
# Guards the module pool slot against concurrent get/shutdown — the
# query service calls multiprocessing_aggregate from many threads.
_pool_mutex = threading.Lock()


def _get_shared_pool() -> WorkerPool:
    global _shared_pool, _atexit_registered
    with _pool_mutex:
        if _shared_pool is None:
            _shared_pool = WorkerPool()
            if not _atexit_registered:
                # One hook for the module, not one per pool instance: an
                # explicit shutdown followed by a fresh pool must not
                # leave stale atexit entries resurrecting dead pools.
                atexit.register(shutdown_worker_pool)
                _atexit_registered = True
        return _shared_pool


def shutdown_worker_pool() -> None:
    """Terminate the module's shared pool; idempotent, safe anytime.

    Clears the module slot, so the next pooled run forks a fresh pool —
    this is also how the circuit breaker rebuilds a sick pool.  Runs
    still holding workers from the old pool finish normally; their
    workers are discarded on release (the pool is marked closed) rather
    than leaked as orphans.
    """
    global _shared_pool
    with _pool_mutex:
        pool, _shared_pool = _shared_pool, None
    if pool is not None:
        pool.shutdown()


# -- circuit breaker: pool -> rebuild -> private-pool degradation ------------

# Failure cause types that indicate executor infrastructure sickness
# rather than a user phase function's exception.
_INFRA_CAUSES = ("WorkerDied", "HeartbeatLost", "PoisonFragment")

# Worker-death cause types a fragment accumulates toward quarantine.
_INFRA_DEATHS = ("WorkerDied", "HeartbeatLost")


# Breaker states, in classic circuit-breaker vocabulary.  ``closed``
# is healthy pooled dispatch; ``open`` means infrastructure failures
# reached the threshold (the rebuild is pending its backoff, or the
# breaker has degraded for good); ``half_open`` is probation —
# the pool was just rebuilt and the next run's outcome decides.
BREAKER_CLOSED = "closed"
BREAKER_HALF_OPEN = "half_open"
BREAKER_OPEN = "open"

_BREAKER_STATE_CODES = {
    BREAKER_CLOSED: 0,
    BREAKER_HALF_OPEN: 1,
    BREAKER_OPEN: 2,
}


class PoolCircuitBreaker:
    """Escalating response to repeated pool-infrastructure failures.

    ``threshold`` consecutive runs failing with an infrastructure cause
    (:data:`_INFRA_CAUSES`) *open* the breaker: a rebuild of the shared
    pool is scheduled after an exponential backoff with jitter
    (``rebuild_backoff_seconds``, doubled per scheduled rebuild, capped,
    each delay stretched by up to ``backoff_jitter`` of itself) rather
    than immediately — a pool that is dying because the *host* is sick
    (OOM killer, cgroup pressure) would otherwise be reforked straight
    into the same grinder.  When the backoff elapses the next pooled
    run rebuilds and enters probation (``half_open``); if failures
    reach the threshold again the breaker *degrades* — every later
    pooled run stops trusting the shared pool and forks a private one
    for itself, shut down when the run ends (fresh processes, still
    isolated from the parent).  A successful run fully closes the
    breaker.  State is surfaced as :attr:`state` /
    :meth:`state_code` (gauge ``mp.breaker.state``: 0 closed,
    1 half-open, 2 open) so health endpoints can report it, and all
    transitions are thread-safe — concurrent service queries share this
    one module-level breaker.
    """

    def __init__(
        self,
        threshold: int = 3,
        rebuild_backoff_seconds: float = 0.5,
        rebuild_backoff_cap_seconds: float = 30.0,
        backoff_jitter: float = 0.5,
        rng: random.Random | None = None,
    ) -> None:
        if threshold < 1:
            raise ValueError("breaker threshold must be positive")
        if rebuild_backoff_seconds < 0:
            raise ValueError("rebuild_backoff_seconds must be >= 0")
        if not 0 <= backoff_jitter <= 1:
            raise ValueError("backoff_jitter must be within [0, 1]")
        self.threshold = threshold
        self.rebuild_backoff_seconds = rebuild_backoff_seconds
        self.rebuild_backoff_cap_seconds = rebuild_backoff_cap_seconds
        self.backoff_jitter = backoff_jitter
        self.consecutive_infra_failures = 0
        self.rebuilt = False
        self.degraded = False
        self.rebuilds = 0
        self.rebuild_not_before: float | None = None
        self._rng = rng if rng is not None else random.Random()
        self._lock = threading.Lock()

    def _next_backoff(self) -> float:
        base = min(
            self.rebuild_backoff_seconds * (2 ** self.rebuilds),
            self.rebuild_backoff_cap_seconds,
        )
        return base * (1.0 + self.backoff_jitter * self._rng.random())

    def record_success(self) -> None:
        with self._lock:
            self.consecutive_infra_failures = 0
            self.rebuilt = False
            self.rebuild_not_before = None

    def record_failure(self, cause_type: str | None) -> None:
        with self._lock:
            if cause_type not in _INFRA_CAUSES:
                # A user exception says nothing about pool health.
                self.consecutive_infra_failures = 0
                return
            self.consecutive_infra_failures += 1
            if self.consecutive_infra_failures < self.threshold:
                return
            if self.rebuilt:
                self.degraded = True
            elif self.rebuild_not_before is None:
                # Threshold first reached: schedule the rebuild after
                # the backoff; further failures keep the schedule.
                self.rebuild_not_before = (
                    time.monotonic() + self._next_backoff()
                )

    def _rebuild_due(self) -> bool:
        return (
            not self.degraded
            and not self.rebuilt
            and self.consecutive_infra_failures >= self.threshold
            and (
                self.rebuild_not_before is None
                or time.monotonic() >= self.rebuild_not_before
            )
        )

    def should_rebuild(self) -> bool:
        with self._lock:
            return self._rebuild_due()

    def take_rebuild(self) -> bool:
        """Atomically claim the pending rebuild (one thread wins)."""
        with self._lock:
            if not self._rebuild_due():
                return False
            self._note_rebuild()
            return True

    def note_rebuild(self) -> None:
        with self._lock:
            self._note_rebuild()

    def _note_rebuild(self) -> None:
        self.rebuilds += 1
        self.rebuilt = True
        self.consecutive_infra_failures = 0
        self.rebuild_not_before = None

    @property
    def state(self) -> str:
        """``closed`` / ``half_open`` / ``open`` (see module constants)."""
        with self._lock:
            if self.degraded:
                return BREAKER_OPEN
            if self.rebuilt:
                return BREAKER_HALF_OPEN
            if self.consecutive_infra_failures >= self.threshold:
                return BREAKER_OPEN
            return BREAKER_CLOSED

    def state_code(self) -> int:
        """The state as a gauge value: 0 closed, 1 half-open, 2 open."""
        return _BREAKER_STATE_CODES[self.state]


_pool_breaker = PoolCircuitBreaker()


def pool_breaker_state() -> PoolCircuitBreaker:
    """The live module-level breaker (read-only for callers)."""
    return _pool_breaker


def reset_pool_breaker(
    threshold: int = 3,
    rebuild_backoff_seconds: float = 0.5,
    backoff_jitter: float = 0.5,
) -> None:
    """Install a fresh breaker (tests; also un-degrades the executor)."""
    global _pool_breaker
    _pool_breaker = PoolCircuitBreaker(
        threshold,
        rebuild_backoff_seconds=rebuild_backoff_seconds,
        backoff_jitter=backoff_jitter,
    )


class MpFaultInjector:
    """Maps a :class:`~repro.sim.faults.FaultPlan` onto pool workers.

    Consumes the plan's deterministic ``injection_schedule`` — fragment
    index stands in for node id, attempt number for ordinal — and hands
    the dispatcher two views per (fragment, attempt): the directive to
    ship *into* the worker (self-SIGKILL, self-SIGSTOP, injected
    exception, slowdown factor) and the actions the parent applies
    *around* it (unlinking the fragment's shm segment, scheduling the
    SIGCONT that ends a stall).  Kill and stall execute in the worker
    shim at job start rather than as parent-side signals: a parent
    signal sent after dispatch races the job itself — a fast fragment
    can reply (and the worker return to the idle list) before the
    signal lands, killing or freezing whichever fragment is dispatched
    there next and mis-charging the fault.  Each schedule entry fires
    exactly once; ``injected`` logs what actually fired, in firing
    order.
    """

    def __init__(self, plan, num_fragments: int, attempts: int) -> None:
        self.plan = plan
        self.schedule = plan.injection_schedule(
            range(num_fragments), attempts
        )
        self._pending = set(self.schedule)
        self._slow = {s.node_id: s.slowdown for s in plan.stragglers}
        self._stall = {s.node_id: s.seconds for s in plan.worker_stalls}
        self.injected: list[tuple[str, int, int]] = []

    def _take(self, kind: str, index: int, attempt: int) -> bool:
        key = (kind, index, attempt)
        if key not in self._pending:
            return False
        self._pending.discard(key)
        self.injected.append(key)
        return True

    def worker_inject(self, index: int, attempt: int) -> dict | None:
        """The in-worker directive (kill beats everything: a dead worker
        can't limp; error beats slow: the job dies before it crawls)."""
        inject: dict = {}
        if self._take(INJECT_KILL, index, attempt):
            # A dead worker fires nothing else this attempt.
            return {INJECT_KILL: True}
        if self._take(INJECT_STALL, index, attempt):
            inject[INJECT_STALL] = self._stall[index]
        if self._take(INJECT_ERROR, index, attempt):
            inject[INJECT_ERROR] = True
        elif self._take(INJECT_SLOW, index, attempt):
            inject[INJECT_SLOW] = self._slow[index]
        return inject or None

    def parent_actions(self, index: int, attempt: int) -> dict:
        """Parent-side actions around the dispatch."""
        actions: dict = {}
        if self._take(INJECT_SHM_LOSS, index, attempt):
            actions[INJECT_SHM_LOSS] = True
        return actions


class ChaosOptions:
    """Resolved robustness knobs for one pool dispatch."""

    __slots__ = (
        "injector",
        "heartbeat_interval",
        "heartbeat_timeout",
        "speculate",
        "speculation_multiplier",
        "speculation_min_seconds",
        "poison_threshold",
        "ledger",
        "lose_segment",
    )

    def __init__(
        self,
        injector: MpFaultInjector | None = None,
        heartbeat_interval: float | None = 0.5,
        heartbeat_timeout: float | None = None,
        speculate: bool = False,
        speculation_multiplier: float = 3.0,
        speculation_min_seconds: float = 0.05,
        poison_threshold: int = 3,
        ledger=None,
        lose_segment=None,
    ) -> None:
        self.injector = injector
        self.heartbeat_interval = heartbeat_interval or None
        if heartbeat_timeout is None and self.heartbeat_interval:
            # Generous default: a busy single-core box can starve the
            # beat thread for a while without the worker being sick.
            heartbeat_timeout = max(8.0 * self.heartbeat_interval, 5.0)
        self.heartbeat_timeout = (
            heartbeat_timeout if self.heartbeat_interval else None
        )
        self.speculate = speculate
        self.speculation_multiplier = speculation_multiplier
        self.speculation_min_seconds = speculation_min_seconds
        self.poison_threshold = poison_threshold
        self.ledger = ledger
        self.lose_segment = lose_segment


class _PoolAttempt:
    """One in-flight fragment attempt on a pool worker."""

    __slots__ = (
        "index", "attempt", "worker", "deadline", "started",
        "mono_started", "last_beat", "backup", "stall_resume", "rows_done",
    )

    def __init__(self, index, attempt, worker, deadline, started,
                 backup=False) -> None:
        self.index = index
        self.attempt = attempt
        self.worker = worker
        self.deadline = deadline
        self.started = started
        self.mono_started = time.monotonic()
        self.last_beat = self.mono_started
        self.backup = backup
        self.stall_resume = None
        self.rows_done = 0


def _run_jobs_in_pool(
    fn_for,
    descriptors: list,
    processes: int,
    max_retries: int,
    timeout: float | None,
    obs: _ObsSink,
    pool: WorkerPool,
    chaos: ChaosOptions | None = None,
    reencode=None,
    run_deadline: float | None = None,
    on_complete=None,
) -> dict[int, list]:
    """Pool dispatch: jobs go to persistent workers as small
    descriptors; returns index -> result.

    ``fn_for(attempt)`` resolves the phase function for a given attempt
    number — how the memory ladder swaps in a reduced-budget spill phase
    on retry.  A worker that raises, dies (closed pipe without a
    result), goes silent or exceeds ``timeout`` fails that attempt; the
    fragment is retried up to ``max_retries`` times before
    :class:`FragmentFailedError` aborts the run.

    ``on_complete(index, payload)`` fires once per fragment, on its
    *first* successful payload (speculative losers and duplicate
    replies never re-fire it) — the mid-run strategy controller's
    observation hook.

    Timeout, heartbeat-loss and death handling must discard the worker
    (its loop may be wedged or gone); a clean "error" reply leaves it
    reusable.  ``chaos`` bundles the robustness machinery: heartbeat
    monitoring, fault injection, speculative re-execution and poison-
    fragment quarantine (see :class:`ChaosOptions`); ``reencode(index)``
    rebuilds a fragment's shm descriptor after injected segment loss.
    ``run_deadline`` (absolute monotonic) cancels the whole dispatch
    cooperatively: every in-flight worker is discarded and
    :class:`DeadlineExceededError` raised.
    """
    chaos = chaos if chaos is not None else ChaosOptions()
    injector = chaos.injector
    hb_timeout = chaos.heartbeat_timeout

    pending: deque[tuple[int, int]] = deque(
        (i, 0) for i in range(len(descriptors))
    )
    busy: dict[object, _PoolAttempt] = {}
    completed: dict[int, list] = {}
    durations: list[float] = []      # completed attempt wall seconds
    deaths: dict[int, list[str]] = {}  # fragment -> infra-death causes
    outstanding: dict[int, int] = {}   # fragment -> in-flight attempts
    spec_open: dict[int, dict] = {}    # fragment -> open speculation

    def drop(record: _PoolAttempt) -> None:
        busy.pop(record.worker.conn, None)
        outstanding[record.index] -= 1

    def dispatch(index: int, attempt: int, backup: bool = False) -> None:
        worker = pool.acquire()
        inject = None
        actions: dict = {}
        if injector is not None and not backup:
            # Backups model re-execution on a healthy node: they skip
            # injection, otherwise a straggler would limp its own rescue.
            inject = injector.worker_inject(index, attempt)
            actions = injector.parent_actions(index, attempt)
        if actions.get(INJECT_SHM_LOSS) and chaos.lose_segment is not None:
            if chaos.lose_segment(index):
                obs.fault_injected(INJECT_SHM_LOSS, index, attempt)
        deadline = None if timeout is None else time.monotonic() + timeout
        record = _PoolAttempt(index, attempt, worker, deadline, obs.now(),
                              backup)
        busy[worker.conn] = record
        outstanding[index] = outstanding.get(index, 0) + 1
        opts = {"inject": inject, "heartbeat": chaos.heartbeat_interval}
        try:
            worker.conn.send((fn_for(attempt), descriptors[index], opts))
        except (OSError, ValueError):  # pragma: no cover - died pre-send
            drop(record)
            pool.discard(worker)
            attempt_failed(record, {
                "type": "WorkerDied",
                "message": "worker pipe closed before dispatch",
            })
            return
        if inject:
            for kind in inject:
                obs.fault_injected(kind, index, attempt)
            if inject.get(INJECT_STALL) is not None:
                # The worker self-SIGSTOPs at job start; the parent
                # owns the SIGCONT that ends the limplock.
                record.stall_resume = (
                    time.monotonic() + inject[INJECT_STALL]
                )

    def fail_or_retry(record: _PoolAttempt, error: dict) -> None:
        cause = f"{error.get('type')}: {error.get('message')}"
        cause_type = error.get("type")
        if cause_type in _INFRA_DEATHS:
            chain = deaths.setdefault(record.index, [])
            chain.append(cause)
            obs.worker_death(record.index)
            if len(chain) >= chaos.poison_threshold:
                # Quarantine: this fragment is grinding the pool down —
                # fail fast with the whole chain, retries be damned.
                obs.quarantined(record.index, len(chain))
                raise FragmentFailedError(
                    record.index,
                    record.attempt + 1,
                    f"poison fragment: killed {len(chain)} worker(s) "
                    "[" + " <- ".join(chain) + "]",
                    dict(completed),
                    cause_type="PoisonFragment",
                ) from WorkerFailure(error)
        if record.attempt + 1 > max_retries:
            raise FragmentFailedError(
                record.index,
                record.attempt + 1,
                cause,
                dict(completed),
                cause_type=cause_type,
            ) from WorkerFailure(error)
        obs.retry(record.index, record.attempt, error)
        if (
            reencode is not None
            and cause_type == "FileNotFoundError"
            and descriptors[record.index][0] == "shm_col"
        ):
            # The segment vanished (injected shm loss): re-encode the
            # fragment into a fresh one before the retry ships.
            descriptors[record.index] = reencode(record.index)
            obs.reencoded(record.index)
        pending.append((record.index, record.attempt + 1))

    def attempt_failed(record: _PoolAttempt, error: dict,
                       profile=None) -> None:
        obs.attempt_done(record.index, record.attempt, record.started,
                         False, profile, error)
        if record.index in completed:
            return  # a speculative sibling already won
        if outstanding.get(record.index, 0) > 0:
            return  # a sibling is still running; it decides the outcome
        fail_or_retry(record, error)

    def wake_if_stalled(record: _PoolAttempt) -> None:
        # A fast job can reply before the injected SIGSTOP lands; the
        # worker then sits stopped while its stall deadline dies with
        # the finished record.  Wake it before it rejoins the idle list
        # or the next fragment dispatched to it hangs until heartbeat
        # loss.
        if record.stall_resume is not None:
            try:
                os.kill(record.worker.proc.pid, signal.SIGCONT)
            except ProcessLookupError:  # pragma: no cover - already dead
                pass
            record.stall_resume = None

    def resolve_ok(record: _PoolAttempt, payload, profile) -> None:
        drop(record)
        durations.append(time.monotonic() - record.mono_started)
        wake_if_stalled(record)
        pool.release(record.worker)
        first = record.index not in completed
        if first:
            completed[record.index] = payload
            if on_complete is not None:
                on_complete(record.index, payload)
        obs.attempt_done(record.index, record.attempt, record.started,
                         True, profile)
        if outstanding.get(record.index, 0) > 0:
            # First result wins: cancel the losing sibling(s) outright.
            for other in [r for r in busy.values()
                          if r.index == record.index]:
                drop(other)
                pool.discard(other.worker, hard=True)
                obs.speculation_cancelled(other.index, other.attempt,
                                          other.backup)
        marker = spec_open.pop(record.index, None)
        if marker is not None and first:
            obs.speculation_resolved(record.index, record.backup)
            event = marker.get("event")
            if event is not None:
                # Post-hoc verdict: a speculation whose backup won was
                # the right call; one the primary beat was wasted work
                # but cost only an idle-slot fork.
                event.truth = {
                    "backup_won": record.backup,
                    "verdict": (VERDICT_CORRECT if record.backup
                                else VERDICT_WRONG_CHEAP),
                }

    def maybe_speculate() -> None:
        if pending or len(busy) >= processes or len(durations) < 2:
            return
        median = statistics.median(durations)
        threshold = max(chaos.speculation_min_seconds,
                        chaos.speculation_multiplier * median)
        now = time.monotonic()
        for record in list(busy.values()):
            if len(busy) >= processes:
                break
            if record.backup or record.index in spec_open:
                continue
            elapsed = now - record.mono_started
            if elapsed < threshold:
                continue
            obs.speculation_launched(record.index, record.attempt,
                                     elapsed, threshold)
            event = None
            if chaos.ledger is not None:
                event = chaos.ledger.record(
                    SPECULATIVE_EXECUTION, record.index, obs.now(),
                    data={
                        "attempt": record.attempt,
                        "elapsed_seconds": round(elapsed, 6),
                        "threshold_seconds": round(threshold, 6),
                        "median_seconds": round(median, 6),
                    },
                )
            spec_open[record.index] = {"event": event}
            dispatch(record.index, record.attempt, backup=True)

    pool.register_dispatcher()
    try:
        while busy or pending:
            if run_deadline is not None and time.monotonic() >= run_deadline:
                obs.deadline_exceeded(len(completed), len(descriptors))
                raise DeadlineExceededError(
                    obs.now(), len(completed), len(descriptors)
                )
            while pending and len(busy) < processes:
                dispatch(*pending.popleft())
            if chaos.speculate:
                maybe_speculate()
            now = time.monotonic()
            wait_until: list[float] = []
            if run_deadline is not None:
                wait_until.append(run_deadline)
            for record in busy.values():
                if record.deadline is not None:
                    wait_until.append(record.deadline)
                if hb_timeout is not None:
                    wait_until.append(record.last_beat + hb_timeout)
                if record.stall_resume is not None:
                    wait_until.append(record.stall_resume)
            if (chaos.speculate and not pending
                    and len(busy) < processes and len(durations) >= 2):
                threshold = max(
                    chaos.speculation_min_seconds,
                    chaos.speculation_multiplier
                    * statistics.median(durations),
                )
                wait_until.extend(
                    r.mono_started + threshold
                    for r in busy.values()
                    if not r.backup and r.index not in spec_open
                )
            wait_for = (
                None if not wait_until
                else max(0.0, min(wait_until) - now)
            )
            idle = {w.conn: w for w in pool.watch_idle()}
            ready = _connection_wait(
                list(busy) + list(idle), timeout=wait_for
            )
            for conn in ready:
                if conn in idle:
                    if pool.recv_idle(idle[conn]) == "dead":
                        obs.idle_death()
                    continue
                record = busy.get(conn)
                if record is None:
                    continue  # cancelled earlier in this very batch
                profile = None
                try:
                    status, payload, profile = conn.recv()
                except (EOFError, OSError):
                    status, payload = "died", None
                if status == "beat":
                    record.last_beat = time.monotonic()
                    record.rows_done = payload.get(
                        "rows_done", record.rows_done
                    )
                    obs.beat()
                    continue
                if status == "ok":
                    resolve_ok(record, payload, profile)
                    continue
                drop(record)
                if status == "died":
                    error = {
                        "type": "WorkerDied",
                        "message": (
                            "worker died without a result "
                            f"(exitcode={record.worker.proc.exitcode})"
                        ),
                    }
                    pool.discard(record.worker)
                else:
                    error = payload
                    wake_if_stalled(record)
                    pool.release(record.worker)
                attempt_failed(record, error, profile)
            now = time.monotonic()
            for record in list(busy.values()):
                if (record.stall_resume is not None
                        and now >= record.stall_resume):
                    # The injected limplock ends: wake the worker.
                    try:
                        os.kill(record.worker.proc.pid, signal.SIGCONT)
                    except ProcessLookupError:  # pragma: no cover
                        pass
                    record.stall_resume = None
                    record.last_beat = now  # grace until beats resume
            if hb_timeout is not None:
                for record in list(busy.values()):
                    silence = now - record.last_beat
                    if silence >= hb_timeout:
                        drop(record)
                        # hard: a SIGSTOPped worker never sees SIGTERM.
                        pool.discard(record.worker, hard=True)
                        obs.heartbeat_lost(record.index, record.attempt)
                        attempt_failed(record, {
                            "type": "HeartbeatLost",
                            "message": (
                                f"no heartbeat for {silence:.2f}s "
                                "(worker stalled, starved, or wedged)"
                            ),
                        })
            for record in list(busy.values()):
                if record.deadline is not None and now >= record.deadline:
                    drop(record)
                    pool.discard(
                        record.worker,
                        hard=record.stall_resume is not None,
                    )
                    attempt_failed(record, {
                        "type": "Timeout",
                        "message": f"timed out after {timeout:g}s",
                    })
    finally:
        for record in busy.values():
            pool.discard(
                record.worker, hard=record.stall_resume is not None
            )
        pool.unregister_dispatcher()
    return completed


class _ObsSink:
    """Collects the executor's observability: spans, counters, profiles.

    Wraps an optional tracer and metrics registry behind unconditional
    method calls, so the dispatch loops stay readable; with neither
    attached only the ``profiles`` list is maintained.  Times are wall
    seconds relative to the sink's creation (the run start), keeping the
    exported trace starting at zero like a simulated one.
    """

    def __init__(self, tracer=None, metrics=None) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.t0 = time.perf_counter()
        self.profiles: list[WorkerProfile] = []

    def now(self) -> float:
        return time.perf_counter() - self.t0

    def attempt_done(
        self,
        index: int,
        attempt: int,
        start: float,
        ok: bool,
        profile: dict | None,
        error: dict | None = None,
    ) -> None:
        """One fragment attempt finished (either way) at ``self.now()``."""
        end = self.now()
        if profile:
            self.profiles.append(
                WorkerProfile.from_dict(index, attempt, profile, ok=ok)
            )
        if self.metrics is not None:
            m = self.metrics
            m.counter("mp.attempts").inc()
            if not ok:
                m.counter("mp.failed_attempts").inc()
            if profile:
                m.histogram("mp.worker_wall_seconds").observe(
                    profile.get("wall_seconds", 0.0)
                )
                m.histogram("mp.worker_cpu_seconds").observe(
                    profile.get("cpu_seconds", 0.0)
                )
                m.gauge("mp.worker_max_rss_bytes", mode="max").set(
                    profile.get("max_rss_bytes", 0)
                )
        if self.tracer is not None:
            args = {"attempt": attempt, "ok": ok}
            if profile:
                args["cpu_seconds"] = profile.get("cpu_seconds", 0.0)
                args["max_rss_bytes"] = profile.get("max_rss_bytes", 0)
            if error is not None:
                args["error_type"] = error.get("type")
                args["error"] = error.get("message")
            self.tracer.complete(
                f"fragment {index}", index, start, end,
                cat=_CAT_PHASE, **args,
            )

    def retry(self, index: int, attempt: int, error: dict) -> None:
        """A failed attempt is being re-dispatched — the exception the
        retry loop would otherwise discard goes on the record here."""
        if self.metrics is not None:
            self.metrics.counter("mp.retries").inc()
            self.metrics.counter(
                f"mp.errors.{error.get('type', 'Unknown')}"
            ).inc()
        if self.tracer is not None:
            self.tracer.instant(
                "fragment_retry", index, self.now(),
                attempt=attempt,
                error_type=error.get("type"),
                error=error.get("message"),
            )

    # -- chaos / robustness events -------------------------------------------

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def _instant(self, name: str, track: int, **args) -> None:
        if self.tracer is not None:
            self.tracer.instant(name, track, self.now(), **args)

    def beat(self) -> None:
        self._count("mp.heartbeat.beats")

    def heartbeat_lost(self, index: int, attempt: int) -> None:
        self._count("mp.heartbeat.lost")
        self._instant("heartbeat_lost", index, attempt=attempt)

    def idle_death(self) -> None:
        self._count("mp.pool.idle_deaths")
        self._instant("idle_worker_death", -1)

    def fault_injected(self, kind: str, index: int, attempt: int) -> None:
        self._count(f"mp.faults.injected.{kind}")
        self._instant("fault_injected", index, kind=kind, attempt=attempt)

    def speculation_launched(self, index: int, attempt: int,
                             elapsed: float, threshold: float) -> None:
        self._count("mp.speculative.launched")
        self._instant(
            "speculative_launch", index, attempt=attempt,
            elapsed_seconds=round(elapsed, 6),
            threshold_seconds=round(threshold, 6),
        )

    def speculation_resolved(self, index: int, backup_won: bool) -> None:
        self._count(
            "mp.speculative.backup_wins" if backup_won
            else "mp.speculative.primary_wins"
        )
        self._instant("speculation_resolved", index, backup_won=backup_won)

    def speculation_cancelled(self, index: int, attempt: int,
                              backup: bool) -> None:
        self._count("mp.speculative.cancelled")
        self._instant(
            "speculation_cancelled", index, attempt=attempt, backup=backup
        )

    def worker_death(self, index: int) -> None:
        self._count("mp.quarantine.worker_deaths")

    def quarantined(self, index: int, death_count: int) -> None:
        self._count("mp.quarantine.poisoned")
        self._instant("quarantine", index, deaths=death_count)

    def reencoded(self, index: int) -> None:
        self._count("mp.shm.reencoded")

    def pool_rebuild(self) -> None:
        self._count("mp.breaker.rebuilds")
        self._instant("pool_rebuild", -1)

    def pool_degraded(self) -> None:
        self._count("mp.breaker.degraded_runs")
        if self.metrics is not None:
            self.metrics.gauge("mp.breaker.degraded", mode="max").set(1)
        self._instant("pool_degraded", -1)

    def breaker_state(self, code: int) -> None:
        """The breaker's state after this run (0 closed, 1 half-open,
        2 open) — health endpoints read this gauge."""
        if self.metrics is not None:
            self.metrics.gauge("mp.breaker.state", mode="last").set(code)

    def deadline_exceeded(self, completed: int, total: int) -> None:
        self._count("mp.deadline_exceeded")
        self._instant(
            "run_deadline_exceeded", -1, completed=completed, total=total
        )


def _run_jobs_in_process(
    fn_for, jobs: list, max_retries: int, obs: _ObsSink,
    run_deadline: float | None = None,
    on_complete=None,
) -> dict[int, list]:
    """The single-CPU path: same retry semantics, no processes.

    Failures are classified like the pool path's:
    :class:`~repro.resources.MemoryExceededError` is the budget ladder's
    *expected* trigger (the retry reruns with spilling), anything else
    is an unexpected fragment error — and either way the exception of a
    retried attempt is logged through the sink, never discarded, and
    the final :class:`FragmentFailedError` chains from its cause.
    The run deadline is checked between fragments and between attempts
    (a running fragment cannot preempt itself without a process).
    """
    completed: dict[int, list] = {}
    for index, job in enumerate(jobs):
        attempts = 0
        while True:
            if (run_deadline is not None
                    and time.monotonic() >= run_deadline):
                obs.deadline_exceeded(len(completed), len(jobs))
                raise DeadlineExceededError(
                    obs.now(), len(completed), len(jobs)
                )
            attempts += 1
            started = profile_start()
            span_start = obs.now()
            try:
                completed[index] = fn_for(attempts - 1)(job)
                if on_complete is not None:
                    on_complete(index, completed[index])
            except MemoryExceededError as exc:
                cause = exc
                error = {
                    "type": "MemoryExceededError",
                    "message": str(exc),
                    "expected": True,
                }
            except Exception as exc:
                cause = exc
                error = {"type": type(exc).__name__, "message": str(exc)}
            else:
                obs.attempt_done(
                    index, attempts - 1, span_start, True,
                    profile_finish(started),
                )
                break
            obs.attempt_done(
                index, attempts - 1, span_start, False,
                profile_finish(started), error,
            )
            if attempts > max_retries:
                raise FragmentFailedError(
                    index,
                    attempts,
                    f"{error['type']}: {error['message']}",
                    dict(completed),
                    cause_type=error["type"],
                ) from cause
            obs.retry(index, attempts - 1, error)
    return completed


def _run_rep_strategy(
    jobs, query, schema, processes, max_retries, timeout, obs,
    deadline=None,
):
    """Dispatch both Rep rounds; returns per-bucket partial lists.

    Round 1 hash-partitions each fragment into ``len(jobs)`` disjoint
    key buckets (:class:`_RepPartitionPhase` — vectorized for columnar
    segments, per-row otherwise).  Round 2 aggregates each bucket's
    chunks in fragment order (:func:`_rep_bucket_phase`), so the final
    parent merge sees one partial per key and the result is
    bit-identical to the 2P strategies.  Both rounds reuse the shared
    worker pool; in-process when ``processes <= 1``.
    """
    num_buckets = len(jobs)
    part_fn = _RepPartitionPhase(num_buckets)

    def part_for(_attempt):
        return part_fn

    if processes <= 1:
        round1 = _run_jobs_in_process(
            part_for, jobs, max_retries, obs, run_deadline=deadline
        )
    else:
        segments: list = []

        def encode(index: int):
            rows, q, s = jobs[index]
            return _encode_fragment(rows, q, s, segments)

        try:
            descriptors = [encode(i) for i in range(len(jobs))]
            round1 = _run_jobs_in_pool(
                part_for, descriptors, processes, max_retries, timeout,
                obs, _get_shared_pool(), reencode=encode,
                run_deadline=deadline,
            )
        finally:
            for shm in segments:
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass

    proj = _projection_for(query, schema)
    rep_schema = proj[0] if proj is not None else schema
    bucket_jobs = []
    for b in range(num_buckets):
        chunks = []
        for f in range(len(jobs)):
            tag, parts = round1[f]
            payload = parts[b]
            if payload is None:
                continue
            chunks.append(
                ("block" if tag == "rep_blocks" else "rows", payload)
            )
        bucket_jobs.append((chunks, query, rep_schema))

    def bucket_for(_attempt):
        return _rep_bucket_phase

    if processes <= 1:
        return _run_jobs_in_process(
            bucket_for, bucket_jobs, max_retries, obs,
            run_deadline=deadline,
        )
    descriptors2 = [("inline", job) for job in bucket_jobs]
    return _run_jobs_in_pool(
        bucket_for, descriptors2, processes, max_retries, timeout, obs,
        _get_shared_pool(), run_deadline=deadline,
    )


_AUTO_SAMPLE_ROWS = 1024


def _auto_params(dist):
    """The cost-model parameters both auto decisions (pre-run and
    mid-run) are evaluated under."""
    from repro.costmodel.params import SystemParameters

    total = sum(len(f.relation) for f in dist.fragments)
    tuple_bytes = max(1, dist.schema.tuple_bytes)
    return SystemParameters.implementation().with_(
        num_nodes=max(1, len(dist.fragments)),
        num_tuples=max(1, total),
        tuple_bytes=tuple_bytes,
        page_bytes=max(4096, tuple_bytes),
    )


def _auto_sample(dist):
    """A stratified prefix sample: rows drawn from *every* fragment.

    Sampling only fragment 0 lets one skewed fragment (all tuples of
    one hot group, say) lock in the wrong strategy for the whole run;
    splitting the budget across fragments keeps the estimate honest
    under placement skew.  Block-born fragments decode only their
    sampled prefix.  Returns ``(sample_rows, fragments_sampled)``.
    """
    frags = dist.fragments
    if not frags:
        return [], 0
    per = max(1, _AUTO_SAMPLE_ROWS // len(frags))
    sample: list = []
    sampled = 0
    for frag in frags:
        head = frag.relation.head(per)
        if head:
            sampled += 1
        sample.extend(head)
    return sample, sampled


def _resolve_auto_strategy(dist, query, ledger):
    """Pick "pool" (2P) or "global" from the paper's cost terms.

    Estimates selectivity (groups per tuple) from a stratified prefix
    sample across all fragments, feeds it to
    :func:`repro.costmodel.globalhash.choose_mp_strategy`, and records
    the choice — with both modeled costs and the estimate — in
    ``ledger`` so the decision is auditable after the fact.  Returns
    ``(strategy, inputs, event)`` with the recorded ledger event (None
    without a ledger) so the run can attach a post-hoc verdict.
    """
    from repro.costmodel.globalhash import choose_mp_strategy

    total = sum(len(f.relation) for f in dist.fragments)
    sample, sampled_fragments = _auto_sample(dist)
    if sample and query.group_by:
        bq = query.bind(dist.schema)
        distinct = len({bq.key_of(row) for row in sample})
        selectivity = max(
            1.0 / max(total, 1), min(1.0, distinct / len(sample))
        )
    else:
        selectivity = 1.0 / max(total, 1)
    params = _auto_params(dist)
    strategy, inputs = choose_mp_strategy(params, selectivity)
    inputs["sampled_rows"] = len(sample)
    inputs["sampled_fragments"] = sampled_fragments
    event = None
    if ledger is not None:
        event = ledger.record(MP_STRATEGY_CHOICE, -1, 0.0, data=inputs)
    return strategy, inputs, event


# One mid-run re-estimate keeps the controller cheap and mirrors the
# paper's A-2P discipline (switch at most once, when the evidence is
# in); the default observation window is a quarter of the fragments.
_AUTO_VERDICT_MARGIN = 0.10


class _AutoStrategyController:
    """Mid-run re-sampling for ``strategy="auto"`` (the A-2P move).

    The pre-run choice comes from a prefix sample — cheap but blind to
    what execution actually sees.  The controller watches the first
    ``resample_after`` completed fragments, re-estimates the group
    cardinality from their *observed* per-fragment group counts (the
    max over fragments: under round-robin placement each fragment sees
    nearly every group, so the max is a tight lower bound on |G|),
    re-runs :func:`~repro.costmodel.globalhash.choose_mp_strategy`
    once, and — when the winner flips — switches the phase function
    handed to still-undispatched fragments: global ↔ pool, exactly the
    way A-2P abandons its first-phase plan when the table overflows.
    Both the pre-run choice and the re-decision are recorded in the
    ledger and judged post-hoc against the run's true group count.

    The parent merge accepts the resulting mix of packed and unpacked
    partials, so a switch in either direction stays bit-identical.
    """

    def __init__(self, initial, total_rows, params, ledger,
                 resample_after):
        self.current = initial
        self.total_rows = max(1, total_rows)
        self.params = params
        self.ledger = ledger
        self.resample_after = max(1, resample_after)
        self.observed: dict[int, int] = {}
        self.resampled = False
        self.switched_to = None
        self.initial_event = None
        self.event = None

    def phase_fn(self):
        return _global_phase if self.current == "global" else _local_phase

    def on_complete(self, index, payload) -> None:
        """Observe one fragment's first result; re-decide at the window."""
        if self.resampled or index in self.observed:
            return
        self.observed[index] = (
            payload[1] if _is_packed(payload) else len(payload)
        )
        if len(self.observed) < self.resample_after:
            return
        self.resampled = True
        from repro.costmodel.globalhash import choose_mp_strategy

        groups = max(self.observed.values())
        selectivity = max(
            1.0 / self.total_rows, min(1.0, groups / self.total_rows)
        )
        strategy, inputs = choose_mp_strategy(self.params, selectivity)
        inputs["observed_groups"] = groups
        inputs["observed_fragments"] = sorted(self.observed)
        inputs["previous"] = self.current
        inputs["switched"] = strategy != self.current
        if self.ledger is not None:
            self.event = self.ledger.record(
                MP_STRATEGY_RESAMPLE, -1, 0.0, data=inputs
            )
        if strategy != self.current:
            self.switched_to = strategy
            self.current = strategy

    def annotate(self, true_groups: int) -> None:
        """Judge both auto decisions against the run's real group count.

        Mirrors :func:`repro.obs.decisions.annotate_ground_truth`'s
        verdict scheme: ``correct`` when the decision matches what the
        model picks at the true selectivity, otherwise
        ``wrong_but_cheap``/``wrong_and_costly`` split on whether the
        chosen branch's modeled regret stays within 10%.
        """
        from repro.costmodel.globalhash import choose_mp_strategy

        selectivity = max(
            1.0 / self.total_rows,
            min(1.0, max(true_groups, 1) / self.total_rows),
        )
        best, inputs = choose_mp_strategy(self.params, selectivity)
        cost = {
            "pool": inputs["cost_two_phase_seconds"],
            "global": inputs["cost_global_seconds"],
        }
        for event in (self.initial_event, self.event):
            if event is None:
                continue
            chosen = event.data.get("chosen")
            truth = {
                "true_groups": true_groups,
                "truth_choice": best,
                "decision_correct": chosen == best,
                "cost_chosen_seconds": cost.get(chosen),
                "cost_best_seconds": cost[best],
            }
            if chosen == best:
                truth["verdict"] = VERDICT_CORRECT
            else:
                regret = (
                    (cost[chosen] - cost[best]) / cost[best]
                    if chosen in cost and cost[best] > 0 else 0.0
                )
                truth["regret"] = regret
                truth["verdict"] = (
                    VERDICT_WRONG_CHEAP
                    if regret <= _AUTO_VERDICT_MARGIN
                    else VERDICT_WRONG_COSTLY
                )
            event.truth = truth


def multiprocessing_aggregate(
    dist: DistributedRelation,
    query: AggregateQuery,
    processes: int = 0,
    *,
    max_retries: int = 2,
    timeout: float | None = None,
    phase_fn=None,
    memory_budget_bytes: int | None = None,
    tracer=None,
    metrics=None,
    profiles: list | None = None,
    strategy: str = "pool",
    faults=None,
    faults_log: list | None = None,
    speculate: bool = False,
    speculation_multiplier: float = 3.0,
    speculation_min_seconds: float = 0.05,
    heartbeat_interval: float | None = 0.5,
    heartbeat_timeout: float | None = None,
    poison_threshold: int = 3,
    ledger=None,
    deadline: float | None = None,
    auto_resample_after: int | None = None,
) -> list[tuple]:
    """Two Phase over real processes; returns sorted result rows.

    ``timeout`` bounds each worker attempt in wall-clock seconds
    (process dispatch only — the in-process fallback cannot preempt
    itself); ``max_retries`` bounds re-dispatches per fragment;
    ``phase_fn`` substitutes the phase-1 worker function (picklable —
    used by the fault-injection tests).

    ``deadline`` bounds the *whole run* with an absolute
    ``time.monotonic()`` value: when it passes, in-flight attempts are
    cancelled (workers discarded, segments unlinked) and
    :class:`DeadlineExceededError` is raised.  Unlike ``timeout`` it is
    not retried around — it is the caller's latency budget, threaded
    down from the query service's per-query deadline or the CLI's
    ``--timeout``.  A deadline miss does not count toward the circuit
    breaker.

    ``strategy`` picks the aggregation discipline and dispatch
    mechanism:

    * ``"pool"`` (the default): partitioned two-phase on the module's
      persistent worker pool, fragments shipped as shared-memory
      columnar blocks (pickled inline when empty or when the block
      codec rejects a value).
    * ``"global"``: the shared global-hash-table discipline — workers
      return *packed* columnar partials (raw per-group arrays) and the
      parent folds them all into one table vectorized, instead of
      re-materializing per-key states.  Cheapest at high selectivity,
      where 2P's per-fragment partials approach fragment size.
    * ``"rep"``: the paper's Repartitioning — round 1 hash-partitions
      every fragment into ``len(fragments)`` disjoint key buckets,
      round 2 aggregates each bucket on one worker, so no group is
      touched by two workers and the parent merge is a concatenation.
    * ``"auto"``: takes a stratified prefix sample across all
      fragments, estimates selectivity, and picks ``"pool"`` or
      ``"global"`` from the cost model
      (:func:`repro.costmodel.globalhash.choose_mp_strategy`); the
      choice and both modeled costs are recorded in ``ledger``.  The
      choice is then *re-sampled mid-run* (the paper's A-2P move):
      after the first ``auto_resample_after`` fragments complete
      (default: a quarter of the fragments, at least one), the cost
      model re-runs on their observed group cardinality and a flipped
      winner switches global ↔ pool for the fragments not yet
      dispatched.  The re-decision lands in ``ledger`` as an
      ``mp_strategy_resample`` event; both auto events get post-hoc
      verdicts against the true group count once the run finishes.
      ``auto_resample_after=0`` disables the mid-run re-estimate
      (pre-run choice only); substituted ``phase_fn`` and
      ``memory_budget_bytes`` also disable it.

    Results are bit-identical across all strategies.  ``phase_fn`` is
    pool-only; ``memory_budget_bytes`` excludes ``"rep"``; fault
    injection and speculation require ``"pool"`` or ``"global"``.

    ``memory_budget_bytes`` puts each fragment's phase-1 table under a
    byte budget: the first attempt aggregates in memory but raises
    :class:`~repro.resources.MemoryExceededError` on overrun, and each
    retry reruns the fragment out-of-core at *half* the previous budget
    (rung 4 of the degradation ladder) — so an over-budget fragment
    completes exactly, just slower, instead of failing the run.
    Mutually exclusive with ``phase_fn``; ``None`` leaves the executor
    byte-identical to ungoverned behavior.

    Observability (all optional, zero overhead when omitted):
    ``tracer`` (a :class:`repro.obs.Tracer`) records one wall-clock span
    per fragment attempt — including failed ones, with the error type in
    the span args — under a run-wide query span; ``metrics`` (a
    :class:`repro.obs.MetricsRegistry`) collects attempt/retry counters,
    per-error-type counters, and worker wall/CPU/RSS distributions from
    the workers' self-profiles; ``profiles`` (a list) is extended with
    one :class:`repro.obs.WorkerProfile` per attempt that reported back.

    Chaos / robustness (pool strategy only):

    ``faults`` (a :class:`~repro.sim.faults.FaultPlan`) injects the
    plan's deterministic fault schedule into the real workers — kills,
    limplock stalls, slowdowns, in-worker exceptions, shm-segment loss
    (see the module docstring for the mapping).  Requires real
    processes: a run that would fall back in-process is bumped to two
    workers.  ``faults_log`` (a list) receives the injected
    ``(kind, fragment, attempt)`` entries in firing order.
    ``speculate`` enables speculative re-execution: a fragment running
    longer than ``max(speculation_min_seconds, speculation_multiplier ×
    median attempt time)`` gets a backup attempt on a free worker;
    first result wins, the loser is killed, and each speculation is
    recorded in ``ledger`` (a :class:`~repro.obs.DecisionLedger`) with
    a post-hoc verdict.  ``heartbeat_interval`` makes workers emit
    liveness beats mid-job (``None`` disables); a worker silent for
    ``heartbeat_timeout`` seconds (default ``max(8×interval, 5)``) is
    declared lost without waiting out ``timeout``.  A fragment whose
    attempts kill ``poison_threshold`` workers is quarantined: it fails
    fast as a ``PoisonFragment`` instead of grinding the pool down.
    Runs that repeatedly fail with infrastructure causes trip a
    module-level circuit breaker (see :class:`PoolCircuitBreaker`):
    the pool is rebuilt once, then every run degrades to a private pool
    of fresh workers that is shut down when the run ends (fault
    injection is skipped while degraded).
    """
    if max_retries < 0:
        raise ValueError("max_retries must be non-negative")
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be positive")
    if deadline is not None and time.monotonic() >= deadline:
        # Already out of budget: fail before any work is dispatched.
        raise DeadlineExceededError(0.0, 0, len(dist.fragments))
    if memory_budget_bytes is not None:
        if phase_fn is not None:
            raise ValueError(
                "pass either phase_fn or memory_budget_bytes, not both"
            )
        if memory_budget_bytes < 1:
            raise ValueError("memory_budget_bytes must be positive")
    if strategy not in ("pool", "global", "rep", "auto"):
        raise ValueError(
            "strategy must be 'pool', 'global', 'rep' or 'auto', "
            f"got {strategy!r}"
        )
    if phase_fn is not None and strategy != "pool":
        raise ValueError("phase_fn substitution requires strategy='pool'")
    if memory_budget_bytes is not None and strategy == "rep":
        raise ValueError(
            "memory_budget_bytes is not supported with strategy='rep' "
            "(the budget ladder governs the two-phase local phase)"
        )
    faults_active = faults is not None and faults.active
    if strategy not in ("pool", "global"):
        if faults_active:
            raise ValueError(
                "fault injection requires strategy='pool' or 'global' "
                "(other paths have no injection shim)"
            )
        if speculate:
            raise ValueError(
                "speculative re-execution requires strategy='pool' or "
                "'global'"
            )
    if auto_resample_after is not None and auto_resample_after < 0:
        raise ValueError("auto_resample_after must be non-negative")
    strategy_inputs = None
    controller = None
    if strategy == "auto":
        strategy, strategy_inputs, auto_event = _resolve_auto_strategy(
            dist, query, ledger
        )
        resample_after = (
            max(1, len(dist.fragments) // 4)
            if auto_resample_after is None else auto_resample_after
        )
        if (
            resample_after
            and phase_fn is None
            and memory_budget_bytes is None
        ):
            controller = _AutoStrategyController(
                strategy,
                sum(len(f.relation) for f in dist.fragments),
                _auto_params(dist),
                ledger,
                resample_after,
            )
            controller.initial_event = auto_event
    if speculation_multiplier < 1.0:
        raise ValueError("speculation_multiplier must be >= 1")
    if speculation_min_seconds <= 0:
        raise ValueError("speculation_min_seconds must be positive")
    if heartbeat_interval is not None and heartbeat_interval <= 0:
        raise ValueError("heartbeat_interval must be positive (or None)")
    if heartbeat_timeout is not None and heartbeat_timeout <= 0:
        raise ValueError("heartbeat_timeout must be positive")
    if poison_threshold < 1:
        raise ValueError("poison_threshold must be positive")
    if phase_fn is not None:
        fn = phase_fn
    elif strategy == "global":
        fn = _global_phase
    else:
        fn = _local_phase

    def fn_for(attempt: int):
        if memory_budget_bytes is None:
            # Resolved at dispatch time, so the mid-run controller's
            # switch reaches fragments not yet handed to a worker.
            if controller is not None:
                return controller.phase_fn()
            return fn
        if attempt == 0:
            return _GovernedPhase(memory_budget_bytes, spill=False)
        return _GovernedPhase(
            max(1, memory_budget_bytes >> attempt), spill=True
        )

    # Block-born fragments stay columnar end to end: the job carries the
    # ColumnBlock itself and rows are never materialized on the default
    # phases (encode ships the block; the in-process kernel reads it
    # directly).  Substituted phase functions keep their row-list
    # contract — BlockRelation decodes lazily.
    jobs = [
        (
            frag.relation.block
            if phase_fn is None
            and getattr(frag.relation, "block", None) is not None
            else frag.relation.rows,
            query,
            dist.schema,
        )
        for frag in dist.fragments
    ]
    on_complete = controller.on_complete if controller is not None else None
    cpu_count = os.cpu_count() or 1
    if processes == 0:
        processes = min(len(jobs), cpu_count)
    if faults_active and processes == 1:
        # Injection needs real worker processes; the in-process fallback
        # has nothing to kill, stall, or starve.
        processes = 2
    obs = _ObsSink(tracer, metrics)
    run_span = None
    if tracer is not None:
        run_span = tracer.begin(
            "mp_aggregate", track=-1, t=0.0, cat="query",
            fragments=len(jobs), processes=processes,
        )
    breaker = _pool_breaker
    try:
        if strategy == "rep":
            completed = _run_rep_strategy(
                jobs, query, dist.schema, processes, max_retries,
                timeout, obs, deadline,
            )
        elif processes <= 1:
            completed = _run_jobs_in_process(
                fn_for, jobs, max_retries, obs, run_deadline=deadline,
                on_complete=on_complete,
            )
        else:
            degraded = breaker.degraded
            if degraded:
                # The breaker gave up on the shared pool: this run forks
                # a private one (fresh workers, still isolated from the
                # parent) and shuts it down on the way out; injection is
                # skipped.
                obs.pool_degraded()
                pool = WorkerPool()
            else:
                if breaker.take_rebuild():
                    shutdown_worker_pool()
                    obs.pool_rebuild()
                pool = _get_shared_pool()
            injector = None
            if faults_active and not degraded:
                injector = MpFaultInjector(faults, len(jobs),
                                           max_retries + 1)
            segments: list = []
            shm_owner: dict[int, shared_memory.SharedMemory] = {}

            def encode(index: int):
                rows, q, schema = jobs[index]
                desc = _encode_fragment(
                    rows, q, schema, segments, project=phase_fn is None
                )
                if desc[0] == "shm_col":
                    shm_owner[index] = segments[-1]
                return desc

            def lose_segment(index: int) -> bool:
                shm = shm_owner.get(index)
                if shm is None:
                    return False  # inline descriptor: nothing to lose
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover - lost twice
                    pass
                return True

            chaos = ChaosOptions(
                injector=injector,
                heartbeat_interval=heartbeat_interval,
                heartbeat_timeout=heartbeat_timeout,
                speculate=speculate,
                speculation_multiplier=speculation_multiplier,
                speculation_min_seconds=speculation_min_seconds,
                poison_threshold=poison_threshold,
                ledger=ledger,
                lose_segment=lose_segment,
            )
            try:
                descriptors = [encode(i) for i in range(len(jobs))]
                completed = _run_jobs_in_pool(
                    fn_for, descriptors, processes, max_retries, timeout,
                    obs, pool, chaos=chaos, reencode=encode,
                    run_deadline=deadline, on_complete=on_complete,
                )
            except FragmentFailedError as exc:
                breaker.record_failure(exc.cause_type)
                raise
            else:
                breaker.record_success()
            finally:
                if degraded:
                    pool.shutdown()
                obs.breaker_state(breaker.state_code())
                if injector is not None and faults_log is not None:
                    faults_log.extend(injector.injected)
                # The parent owns every segment: unlink on success,
                # worker error, timeout, death, and FragmentFailedError
                # alike, so /dev/shm never accumulates repro_mp_* files.
                for shm in segments:
                    shm.close()
                    try:
                        shm.unlink()
                    except FileNotFoundError:
                        pass
    except (FragmentFailedError, DeadlineExceededError):
        if tracer is not None:
            tracer.close_all(obs.now())
        if profiles is not None:
            profiles.extend(obs.profiles)
        raise
    if profiles is not None:
        profiles.extend(obs.profiles)
    if metrics is not None:
        metrics.counter("mp.fragments").inc(len(jobs))
        if strategy_inputs is not None:
            metrics.counter("mp.auto_strategy." + strategy).inc()
        if controller is not None and controller.resampled:
            metrics.counter("mp.auto_strategy.resampled").inc()
            if controller.switched_to is not None:
                metrics.counter(
                    "mp.auto_strategy.switched_to."
                    + controller.switched_to
                ).inc()

    merge_start = obs.now()
    bq = query.bind(dist.schema)
    # Merge into states owned by this function: never mutate (or shallow-
    # copy) the pooled partials, so re-running over the same inputs can
    # never see aliased state from an earlier merge.
    merged: dict[tuple, GroupState] | None = None
    if strategy == "global" or controller is not None:
        # A mid-run switch leaves a mix of packed (global) and unpacked
        # (pool) partials; all-packed folds vectorized, anything else
        # unpacks and takes the sequential merge.
        ordered = [completed[i] for i in range(len(jobs))]
        if all(_is_packed(p) for p in ordered):
            merged = _merge_packed(ordered, query)
        if merged is None:
            # Mixed or guard-failed payloads: unpack everything and use
            # the sequential merge below (same result, just slower).
            completed = {
                i: _unpack_packed(p, query) if _is_packed(p) else p
                for i, p in completed.items()
            }
    if merged is None:
        merged = {}
        for index in range(len(jobs)):
            for key, state in completed[index]:
                mine = merged.get(key)
                if mine is None:
                    mine = GroupState(query.aggregates)
                    merged[key] = mine
                mine.merge(state)
    if controller is not None:
        # The merged table's size is the run's true group count: judge
        # both auto decisions (pre-run sample, mid-run re-sample) now.
        controller.annotate(len(merged))
    rows = (bq.result_row(key, state) for key, state in merged.items())
    result = sorted(row for row in rows if bq.passes_having(row))
    if tracer is not None:
        tracer.complete(
            "merge", -1, merge_start, obs.now(), cat=_CAT_PHASE,
            groups=len(result),
        )
        tracer.end(run_span, obs.now())
    if metrics is not None:
        metrics.gauge("mp.elapsed_seconds", mode="max").set(obs.now())
        metrics.counter("mp.groups_output").inc(len(result))
        # Worker-vs-merge wall split, consumed by the drift layer
        # (repro.obs.drift.compare_model_to_mp).
        metrics.gauge("mp.phase_seconds.local", mode="max").set(merge_start)
        metrics.gauge("mp.phase_seconds.merge", mode="max").set(
            obs.now() - merge_start
        )
    return result
