"""Phase 1: one fragment in, one partial out.

One implementation for every statement the SQL front end produces: the
columnar kernel (:func:`_columnar_local_phase`) takes WHERE as a column
mask (:mod:`~repro.parallel.mp_executor.mask`), scalar aggregation as
the one-group case and the memory budget as a group ceiling, and has one
exit: the packed payload of :mod:`~repro.parallel.mp_executor.merge`.
The per-row loop (:func:`_per_row_phase`), which returns
``(key, GroupState)`` partials, is the oracle the kernel must match bit
for bit, the fallback when a kernel guard declines a block, and —
through :class:`_GovernedPhase` — the over-budget spill retry.
Every time a fragment leaves the kernel the reason is recorded
(:func:`_decline`) and travels back with the attempt's profile.
"""

from __future__ import annotations

import threading

from repro.core.aggregates import GroupState
from repro.parallel.mp_executor.mask import (
    compiled_predicate,
    predicate_mask,
)
from repro.parallel.mp_executor.merge import (
    _EXACT_FLOAT_INT,
    _INT64_LIMIT,
    _int_magnitude,
)
from repro.resources.governor import MemoryExceededError
from repro.storage.columnblock import ColumnBlock


# Accounting for the per-fragment memory budget: one resident group costs
# roughly its projected attributes plus running-state overhead.
_ENTRY_OVERHEAD_BYTES = 8
_MIN_SPILL_ENTRIES = 8


# -- declines -----------------------------------------------------------------
#
# Why the current fragment attempt left the kernel, as reason -> count.
# A phase function's contract is ``fn(job) -> partials`` (substituted
# phases rely on it), so the reasons travel beside the result: the
# runner clears them before the attempt and puts them in the attempt's
# profile after it.  Thread-local because the in-process runner serves
# concurrent service threads; a pool worker runs one job at a time.

_declined = threading.local()


def _decline(reason: str) -> None:
    """Record one departure from the kernel; returns the ``None`` the
    declining guard hands its caller."""
    counts = _declined.__dict__.setdefault("counts", {})
    counts[reason] = counts.get(reason, 0) + 1
    return None


def _take_declines() -> dict[str, int]:
    """This thread's recorded reasons, cleared."""
    return _declined.__dict__.pop("counts", {})


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
    worker loads from its segment and what a block-born fragment is
    in-process — or a row list, which never enters the kernel.  The
    partial is the kernel's packed payload, or the per-row loop's
    ``(key, GroupState)`` list; the parent merge and ``rep`` round 2
    take either.  ``admit`` is the kernel's (see
    :func:`_columnar_local_phase`); the dispatch loops call ``fn(job)``.
    """
    source, query, schema = job
    if isinstance(source, ColumnBlock):
        result = _columnar_local_phase(source, query, admit)
        if result is not None:
            return result
        source = source.to_rows()
    else:
        _decline("row_source")
    return _per_row_phase(source, query, schema, admit)


class _GovernedPhase:
    """Phase 1 under a byte budget — rung 4 of the degradation ladder.

    Picklable (a plain instance of a module-level class), so it crosses
    the worker-process boundary like any ``phase_fn``.  First attempt
    (``spill=False``): the same kernel (or, on a decline, the same
    per-row loop) as the ungoverned phase, under a group ceiling of
    ``budget_bytes // entry_bytes`` — one more group raises
    :class:`~repro.resources.MemoryExceededError` carrying the
    high-water mark.  Retry attempts (``spill=True``): rerun per-row and
    out-of-core at the reduced budget, spooling overflow groups through
    a :class:`~repro.storage.spill.FileSpillStore`, which completes
    under any budget without losing tuples.
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
# Works directly on a ColumnBlock's buffers: WHERE as a boolean mask
# over them, group keys of any type and arity via per-column
# ``np.unique`` codes (string columns group over their int32 dictionary
# codes; no key column at all is the one-group case), aggregates via
# ``bincount``/``ufunc.at`` folds.  Every guard below exists to keep the
# kernel *bit-identical* to the per-row phase, not merely close — when a
# shape could diverge (NaN keys, signed-zero ties, int sums past exact
# float range, a predicate Python would evaluate differently) the kernel
# declines, naming the reason, and the caller runs the per-row loop.


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


def _decode_unique(cblock, col_idx, kind, uniq):
    """Decoded Python values for one column's unique array."""
    if kind == "str":
        values = cblock.dictionaries[col_idx].values
        return [values[c] for c in uniq.tolist()]
    return uniq.tolist()


def _columnar_group_keys(cblock, query):
    """Group-key codes for a block: (decoded key columns, inv, n_groups).

    ``decoded[j][g]`` is key column ``j``'s Python value for group ``g``
    and ``inv[r]`` is row ``r``'s group index.  Scalar aggregation is
    the degenerate case: no key columns, every row in group 0 — and no
    group at all over zero rows, where the per-row loop emits no
    partial either.  Returns None when the per-row path's key semantics
    cannot be reproduced vectorized: NaN keys (Python dicts keep
    distinct NaN objects distinct, ``np.unique`` collapses them) and
    signed-zero float keys (the dict keeps the first-seen
    representative, the sort may not).
    """
    import numpy as np

    bq = query.bind(cblock.schema)
    if not bq.key_indexes:
        n = cblock.num_rows
        return [], np.zeros(n, dtype=np.intp), 1 if n else 0
    columns = cblock.schema.columns
    per_col = []
    for i in bq.key_indexes:
        col = cblock.columns[i]
        if columns[i].kind == "float" and len(col):
            if np.isnan(col).any():
                return _decline("nan_key")
            zeros = col == 0.0
            if zeros.any() and np.signbit(col[zeros]).any():
                return _decline("signed_zero_key")
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
        return _decline("nan_distinct")
    rec = np.empty(len(col), dtype=[("g", np.int64), ("v", col.dtype)])
    rec["g"] = inv
    rec["v"] = col
    pairs = np.unique(rec)
    return pairs["g"], pairs["v"]


def _str_extremes(cblock, col_idx, inv, n_groups, func):
    """Per-group MIN/MAX over a dictionary-encoded string column, as an
    int64 array of the winners' *dictionary codes*.

    Ranks the dictionary once (sort its values, invert the permutation)
    and folds the per-row ranks with ``minimum.at``/``maximum.at`` — the
    same total order Python's ``<`` gives, so results match the per-row
    fold exactly.  The parent merge re-ranks the codes against the union
    dictionary without ever materializing per-group strings.
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
    # Every group holds >= 1 row, so no sentinel rank survives.
    return np.asarray(order, dtype=np.int64)[acc]


def _columnar_local_phase(cblock, query, admit=None):
    """Phase 1 on a ColumnBlock: every statement shape — WHERE, any key
    type and arity including none (scalar), every aggregate.

    Returns a ``("packed", n_groups, key_columns, state_columns)``
    payload of raw arrays for the parent's vectorized merge
    (``key_columns`` is empty for a scalar query).  Every aggregate
    has a packed wire form: count_distinct ships sorted-unique
    ``(group, value)`` pair arrays (codes + the block dictionary for
    str columns) and str MIN/MAX ships per-group winner *codes* plus
    the dictionary, so the parent merges via LUT unions instead of
    unpacking to per-group states
    (:func:`~repro.parallel.mp_executor.merge._unpack_packed` does that
    for the callers that need them).  ``admit(n_groups)`` is the memory
    budget's group ceiling: called once the block's group count is
    known, it raises what the per-row watchdog raises on the same
    input.  Returns None when
    a guard detects a shape whose vectorized result could differ from
    the per-row loop's (see the section comment) — each such return
    records its reason through :func:`_decline`; the caller then
    decodes and runs per-row.

    Bit-parity notes: ``bincount`` accumulates weights in input order —
    the sequential loop's order — so float sums agree bit for bit; int
    sums use int64 with an overflow guard and become Python ints again;
    int VAR moments cast int64→float64 exactly as Python's float+int
    add does; MIN/MAX ties are only distinguishable for signed zeros,
    which are guarded.
    """
    import numpy as np

    cblock = _filter_block(cblock, query)
    if cblock is None:
        return None
    comp = _columnar_group_keys(cblock, query)
    if comp is None:
        return None
    decoded_cols, inv, n_groups = comp
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
        if func == "count_distinct":
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
                state_payload.append(("distinct_num", groups_arr, vals_arr))
            continue
        if func not in ("sum", "avg", "min", "max", "var", "stddev"):
            return _decline("aggregate_type")
        kind = columns[col_idx].kind
        values = cblock.columns[col_idx]
        if kind == "str":
            if func not in ("min", "max"):
                return _decline("aggregate_type")
            state_payload.append(
                (func + "_str_codes",
                 _str_extremes(cblock, col_idx, inv, n_groups, func),
                 cblock.dictionaries[col_idx].values)
            )
        elif kind == "float":
            if func in ("min", "max"):
                if len(values):
                    if np.isnan(values).any():
                        # per-row keeps first, np propagates
                        return _decline("nan_extreme")
                    zeros = values == 0.0
                    if zeros.any() and np.signbit(values[zeros]).any():
                        # -0.0/0.0 tie winner differs
                        return _decline("signed_zero_extreme")
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
                    # per-row Python ints cannot overflow
                    return _decline("int_sum_overflow")
                acc = np.zeros(n_groups, dtype=np.int64)
                np.add.at(acc, inv, values)
                if func == "sum":
                    state_payload.append(("sum_int", acc))
                else:
                    state_payload.append(("avg_int", acc, counts))
            else:  # var / stddev over ints
                if _int_magnitude(values) > _EXACT_FLOAT_INT:
                    # float64(v)**2 != float64(v*v)
                    return _decline("int_var_precision")
                vf = values.astype(np.float64)
                state_payload.append(
                    ("var",
                     np.bincount(inv, weights=vf, minlength=n_groups),
                     np.bincount(inv, weights=vf * vf, minlength=n_groups),
                     counts)
                )

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
