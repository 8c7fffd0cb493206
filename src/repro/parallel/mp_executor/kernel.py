"""Phase 1: one fragment in, one partial out.

One implementation for every statement the SQL front end produces: the
columnar kernel (:func:`_columnar_local_phase`) takes WHERE as a column
mask (:mod:`~repro.parallel.mp_executor.mask`), scalar aggregation as
the one-group case and the memory budget as a group ceiling, and has one
exit: the packed payload of :mod:`~repro.parallel.mp_executor.merge`.
It is that module's merge applied to per-row singleton partials — *lift,
then fold*: the guards and the lifting of a column to its tag's arrays
live here, the grouping and the folds are the merge's own.
The per-row loop (:func:`_per_row_phase`), which returns
``(key, GroupState)`` partials, is the oracle the kernel must match bit
for bit, the fallback when a kernel guard declines a block, and —
through :class:`_GovernedPhase` — the over-budget spill retry.
Every time a fragment leaves the kernel the reason is recorded
(:func:`_decline`) and travels back with the attempt's profile.
"""

from __future__ import annotations

from repro.core.aggregates import GroupState
from repro.parallel.mp_executor.mask import (
    compiled_predicate,
    predicate_mask,
)
from repro.parallel.mp_executor.merge import (
    _EXACT_FLOAT_INT,
    _INT64_LIMIT,
    _distinct_pairs,
    _fold_str,
    _fold_tag,
    _group_codes,
    _int_magnitude,
    _note,
    _take_notes,
)
from repro.resources.governor import MemoryExceededError
from repro.storage.columnblock import ColumnBlock


# Accounting for the per-fragment memory budget: one resident group costs
# roughly its projected attributes plus running-state overhead.
_ENTRY_OVERHEAD_BYTES = 8
_MIN_SPILL_ENTRIES = 8


def _decline(reason: str) -> None:
    """Note one departure from the kernel (see ``merge._note``); returns
    the ``None`` the declining guard hands its caller."""
    _note("declined", reason)
    return None


def _take_declines() -> dict[str, int]:
    """This thread's recorded reasons, cleared with its other notes."""
    return _take_notes().get("declined", {})


# -- the per-row oracle -------------------------------------------------------


def _per_row_phase(rows, query, schema, admit=None):
    """The sequential loop over row tuples: (key, GroupState) partials
    in first-seen order.  ``admit(n)`` is asked before the table grows
    to ``n`` groups (the budget watchdog)."""
    bq = query.bind(schema)
    table: dict[tuple, GroupState] = {}
    for row in rows:
        if not bq.matches(row):
            continue
        key = bq.key_of(row)
        state = table.get(key)
        if state is None:
            if admit is not None:
                admit(len(table) + 1)
            state = GroupState(query.aggregates)
            table[key] = state
        state.update(bq.values_of(row))
    return list(table.items())


def _local_phase(job, admit=None):
    """Phase 1 for one fragment: (source, query, schema) -> partial —
    kernel first, per-row on a counted decline.

    ``source`` is a :class:`~repro.storage.ColumnBlock` — what a pool
    worker loads from its segment and what a fragment is in-process,
    row-born ones encoded as the wire encodes them — or a row list
    (rows the block codec rejects, or what a substituted phase passes
    on), which never enters the kernel; an empty one declines nothing.
    The partial is the kernel's packed payload, or the per-row loop's
    ``(key, GroupState)`` list; the parent merge and ``rep`` round 2
    take either.  ``admit`` is :func:`_columnar_local_phase`'s.
    """
    source, query, schema = job
    if isinstance(source, ColumnBlock):
        result = _columnar_local_phase(source, query, admit)
        if result is not None:
            return result
        source = source.to_rows()
    elif source:
        _decline("row_source")
    return _per_row_phase(source, query, schema, admit)


class _GovernedPhase:
    """Phase 1 under a byte budget
    (``multiprocessing_aggregate(memory_budget_bytes=)``).

    Picklable, so it crosses the worker-process boundary like any
    ``phase_fn``.  First attempt (``spill=False``): the ungoverned phase
    under a group ceiling of ``budget_bytes // entry_bytes`` — one more
    group raises :class:`~repro.resources.MemoryExceededError` carrying
    the high-water mark.  Retries (``spill=True``): per-row and
    out-of-core at the reduced budget, overflow groups spooled through a
    :class:`~repro.storage.spill.FileSpillStore`, which completes under
    any budget without losing tuples.
    """

    def __init__(self, budget_bytes: int, spill: bool) -> None:
        if budget_bytes < 1:
            raise ValueError("budget_bytes must be positive")
        self.budget_bytes = budget_bytes
        self.spill = spill

    def __call__(self, job):
        rows, query, schema = job
        bq = query.bind(schema)
        entry_bytes = max(1, bq.projected_bytes) + _ENTRY_OVERHEAD_BYTES
        if self.spill:
            _decline("spill_retry")
            if isinstance(rows, ColumnBlock):
                rows = rows.to_rows()
            return self._spill_phase(rows, query, bq, entry_bytes)
        ceiling = self.budget_bytes // entry_bytes

        def admit(n_groups: int) -> None:
            if n_groups > ceiling:
                raise MemoryExceededError(
                    "mp_local_phase",
                    self.budget_bytes,
                    high_water_bytes=ceiling * entry_bytes,
                    requested_bytes=entry_bytes,
                )

        return _local_phase(job, admit=admit)

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


# -- the columnar kernel ------------------------------------------------------
#
# Lift, then fold, directly on a ColumnBlock's buffers: WHERE is a
# boolean mask over them; each surviving row is *lifted* to a singleton
# partial — its key columns as they are (string columns as their int32
# dictionary codes; no key column at all is the one-group case), each
# aggregate's column as the arrays of its packed tag — and the partials
# are grouped and folded by the merge's ``_group_codes`` / ``_fold_tag``.
# Every guard below keeps the kernel *bit-identical* to the per-row
# phase, not merely close: when a shape could diverge the kernel
# declines, naming the reason, and the caller runs the per-row loop.  A
# guard is a statement about raw column values, which only this caller
# holds: it stays here.


def _filter_block(cblock, query):
    """The rows of ``cblock`` that pass ``query.where``, as a block
    sharing its dictionaries (``cblock`` itself when every row passes);
    None when the predicate has no exact mask."""
    if query.where is None:
        return cblock
    node = compiled_predicate(query.where)
    if node is None:
        return _decline("opaque_predicate")
    mask = predicate_mask(cblock, node)
    if mask is None:
        return _decline("predicate_type")
    keep = mask.nonzero()[0]
    if len(keep) == cblock.num_rows:
        return cblock
    return ColumnBlock(
        cblock.schema, len(keep),
        [arr[keep] for arr in cblock.columns], cblock.dictionaries,
    )


def _columnar_group_keys(cblock, query):
    """Filter a block by WHERE and group what passes by key: (filtered
    block, key payload, inv, n_groups).

    The key payload is the wire form, ``(kind, values)`` per key column
    with ``values[g]`` group ``g``'s value — an array for int and float
    columns, decoded strings for str — and ``inv[r]`` is row ``r``'s
    group.  Float keys follow the float rule as ``BoundQuery.key_of``
    does: the grouping already puts every NaN in one group and ``-0.0``
    with ``0.0``, and a zero group's key is reported as ``0.0``.
    Returns None when the predicate has no exact mask.
    """
    cblock = _filter_block(cblock, query)
    if cblock is None:
        return None
    bq = query.bind(cblock.schema)
    columns = cblock.schema.columns
    keys, inv, n_groups = _group_codes(
        [cblock.columns[i] for i in bq.key_indexes], cblock.num_rows
    )
    key_payload = []
    for i, values in zip(bq.key_indexes, keys):
        kind = columns[i].kind
        if kind == "str":
            decoded = cblock.dictionaries[i].values
            values = [decoded[c] for c in values.tolist()]
        elif kind == "float":
            values = values + 0.0  # -0.0 + 0.0 is 0.0
        key_payload.append((kind, values))
    return cblock, key_payload, inv, n_groups


def _lift(func, kind, values):
    """One int or float column as its aggregate's packed tag and the
    per-row arrays that tag folds: ``(tag, arrays)``, ``None`` standing
    for the one-per-row array whose fold is the group's row count.
    Int sums stay int64 under an overflow guard and become Python ints
    again; int VAR moments cast int64→float64 exactly as Python's
    float+int add does; float MIN/MAX follow the float rule in the fold
    (``merge._fold``).  Returns None, the reason recorded, when the
    fold's result could differ from the per-row loop's."""
    import numpy as np

    if func in ("min", "max"):
        return f"{func}_{kind}", (values,)
    if func in ("sum", "avg"):
        if (
            kind == "int"
            and _int_magnitude(values) * len(values) >= _INT64_LIMIT
        ):
            # per-row Python ints cannot overflow
            return _decline("int_sum_overflow")
        arrays = (values,) if func == "sum" else (values, None)
        return f"{func}_{kind}", arrays
    # var / stddev share VarianceState's three moments
    if kind == "int":
        if _int_magnitude(values) > _EXACT_FLOAT_INT:
            # float64(v)**2 != float64(v*v)
            return _decline("int_var_precision")
        values = values.astype(np.float64)
    return "var", (values, values * values, None)


def _columnar_local_phase(cblock, query, admit=None):
    """Phase 1 on a ColumnBlock: every statement shape — WHERE, any key
    type and arity including none (scalar), every aggregate.

    Returns a ``("packed", n_groups, key_columns, state_columns)``
    payload of raw arrays for the parent's vectorized merge
    (``key_columns`` is empty for a scalar query).  Every aggregate has
    a packed wire form — its tag, then the tag's folded arrays:
    count_distinct ships sorted-unique ``(group, value)`` pair arrays
    (codes + the block dictionary for str columns) and str MIN/MAX
    ships per-group winner *codes* plus the dictionary, so the parent
    merges via LUT unions instead of unpacking to per-group states.
    ``admit(n_groups)`` is the memory budget's group ceiling: called
    once the block's group count is known, it raises what the per-row
    watchdog raises on the same input.  Returns None, the reason
    recorded, when a guard declines (the section comment, :func:`_lift`).
    """
    import numpy as np

    grouped = _columnar_group_keys(cblock, query)
    if grouped is None:
        return None
    cblock, key_payload, inv, n_groups = grouped
    if admit is not None:
        admit(n_groups)
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
        kind = columns[col_idx].kind
        values = cblock.columns[col_idx]
        if func == "count_distinct":
            # The numbering counts every NaN once and -0.0 with 0.0,
            # as the per-row state does.
            pairs = _distinct_pairs(inv, values)
            if kind == "str":
                state_payload.append(
                    ("distinct_str", *pairs,
                     cblock.dictionaries[col_idx].values)
                )
            else:
                state_payload.append(("distinct_num", *pairs))
        elif kind == "str":
            if func not in ("min", "max"):
                return _decline("aggregate_type")
            # Ship the winners' *codes*: the parent re-ranks them
            # against the union dictionary without materializing
            # per-group strings.
            decoded = cblock.dictionaries[col_idx].values
            winners = _fold_str(func, decoded, values, inv, n_groups)
            state_payload.append((func + "_str_codes", winners, decoded))
        else:
            lifted = _lift(func, kind, values)
            if lifted is None:
                return None
            tag, arrays = lifted
            state_payload.append(
                (tag, *_fold_tag(tag, arrays, inv, n_groups, counts))
            )
    return ("packed", n_groups, key_payload, state_payload)
