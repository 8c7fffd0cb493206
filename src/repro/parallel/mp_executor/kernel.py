"""Phase 1: one fragment in, partial aggregate states out.

The per-row loop (:func:`_local_phase` on a row list) is the oracle;
the columnar kernel must match it bit for bit or decline.
:class:`_GovernedPhase` is the same loop under a byte budget.
"""

from __future__ import annotations

from repro.core.aggregates import GroupState
from repro.parallel.mp_executor.merge import (
    _INT64_LIMIT,
    _int_magnitude,
    _states_from_payload,
)
from repro.resources.governor import MemoryExceededError
from repro.storage.columnblock import ColumnBlock


# Accounting for the per-fragment memory budget: one resident group costs
# roughly its projected attributes plus running-state overhead.
_ENTRY_OVERHEAD_BYTES = 8
_MIN_SPILL_ENTRIES = 8


def _local_phase(args) -> list[tuple[tuple, GroupState]]:
    """Phase 1 for one fragment: (source, query, schema) -> partials.

    ``source`` is a row list, or a :class:`~repro.storage.ColumnBlock`
    — what a pool worker loads from its segment and what a block-born
    fragment is in-process — which runs through the columnar kernel and
    only decodes to rows when the kernel declines the shape.
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
            # The budget ladder governs the per-row table; a block
            # source decodes first so accounting stays identical.
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


# -- the columnar kernel ------------------------------------------------------
#
# Works directly on a ColumnBlock's buffers: group keys of any type and
# arity via per-column ``np.unique`` codes (string columns group over
# their int32 dictionary codes), aggregates via ``bincount``/``ufunc.at``
# folds.  Every guard below exists to keep the kernel *bit-identical* to
# the per-row phase, not merely close — when a shape could diverge
# (NaN keys, signed-zero ties, int sums past exact float range) the
# kernel refuses and the caller runs the per-row loop instead.


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


# The VAR/STDDEV square kernel must refuse when a value's square could
# round differently than Python's exact int multiply.
_EXACT_FLOAT_INT = 2**53


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
