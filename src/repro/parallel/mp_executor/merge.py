"""One grouping, one fold: the arithmetic of both phases, and the
parent's merge over packed partials.

The paper's local phase and merge phase are one hash-aggregation
operator, applied to raw tuples and then to partial results.  Here it
exists once: *group* (:func:`_group_codes`), then *fold*
(:func:`_fold_tag`).  The phase-1 kernel lifts each row to a singleton
partial and folds those; :func:`_merge_packed` concatenates the
fragments' partials, folds those, and finishes each aggregate's merged
arrays straight into result rows, with no per-group state object in
between.  The numpy call behind each fold op is what keeps every path
bit-identical to the per-row loop.
:func:`_unpack_packed` turns a payload back into ``(key, GroupState)``
partials for :func:`_merge_sequential`, the per-key merge that takes
over whenever the vectorized one declines and runs round 2 of ``rep``.
"""

from __future__ import annotations

from itertools import accumulate

from repro.core.aggregates import (
    GroupState,
    finish_avg,
    finish_stddev,
    finish_variance,
)
from repro.storage.columnblock import StringDictionary


# SUM/AVG over int columns stay exact Python ints on the per-row path;
# an int64 fold must refuse when a sum could leave int64.
_INT64_LIMIT = 2**63
# Past this an int64 -> float64 cast rounds: int VAR's float square, and
# numpy's int-against-float comparison, stop being Python's exact ones.
_EXACT_FLOAT_INT = 2**53


def _aslist(data):
    """Python list from a numpy array or any sequence."""
    return data.tolist() if hasattr(data, "tolist") else list(data)


def _int_magnitude(values) -> int:
    """max(|v|) of an int64 array as a Python int (0 when empty)."""
    if not len(values):
        return 0
    return max(-int(values.min()), int(values.max()))


# -- group, then fold ---------------------------------------------------------


def _group_codes(columns, n_rows: int):
    """Number the distinct key tuples of ``n_rows`` inputs, one array
    per key column in ``columns``: ``(keys, inv, n_groups)`` with
    ``keys[j][g]`` column ``j``'s value for group ``g`` and ``inv[r]``
    input ``r``'s group.  Each column is numbered by its own
    ``np.unique``, several columns by an ``axis=0`` unique over those
    codes.  No key column is the scalar case: every input in group 0 —
    and no group over no input, where the per-row loop emits no partial
    either.  Callers rely only on ``inv``'s *partition* of the inputs:
    folds run in input order however the groups are numbered.
    """
    import numpy as np

    if not columns:
        return [], np.zeros(n_rows, dtype=np.intp), 1 if n_rows else 0
    uniques, codes = [], []
    for column in columns:
        uniq, inv = np.unique(column, return_inverse=True)
        uniques.append(uniq)
        codes.append(inv.reshape(-1))
    if len(columns) == 1:
        return uniques, codes[0], len(uniques[0])
    stacked = np.column_stack([np.asarray(c, dtype=np.int64) for c in codes])
    uniq_rows, inv = np.unique(stacked, axis=0, return_inverse=True)
    keys = [uniq[uniq_rows[:, j]] for j, uniq in enumerate(uniques)]
    return keys, inv.reshape(-1), len(uniq_rows)


def _distinct_pairs(groups, values):
    """The distinct ``(group, value)`` pairs as two arrays, sorted by
    (group, value) — COUNT(DISTINCT)'s wire form and its merge."""
    import numpy as np

    rec = np.empty(
        len(groups), dtype=[("g", np.int64), ("v", values.dtype)]
    )
    rec["g"] = groups
    rec["v"] = values
    pairs = np.unique(rec)
    return pairs["g"], pairs["v"]


def _rank_lut(dictionary_values):
    """``(order, rank_of)`` for a string dictionary: ``order[r]`` is the
    code of the ``r``-th smallest value, ``rank_of[code]`` its rank — in
    Python's ``<`` order, so a min/max over ranks picks the per-row
    fold's winner."""
    import numpy as np

    n = len(dictionary_values)
    order = np.asarray(
        sorted(range(n), key=dictionary_values.__getitem__), dtype=np.int64
    )
    rank_of = np.empty(n, dtype=np.int64)
    rank_of[order] = np.arange(n, dtype=np.int64)
    return order, rank_of


# tag -> the fold op of each array the tag carries, in wire order.  Two
# families are not per-array folds and are handled by name: ``*_str_codes``
# (ranks through ``_rank_lut``, then ``min``/``max``) and ``distinct_*``
# (``_distinct_pairs``).
_FOLD_OPS = {
    "count": ("add_int",),
    "sum_int": ("add_int",),
    "avg_int": ("add_int", "add_int"),
    "sum_float": ("add_float",),
    "avg_float": ("add_float", "add_int"),
    "var": ("add_float", "add_float", "add_int"),
    "min_int": ("min",),
    "max_int": ("max",),
    "min_float": ("min",),
    "max_float": ("max",),
}


def _fold(op, values, inv, n_groups):
    """``values`` reduced per group under one op.  ``add_float`` is
    ``bincount(weights=)``, which accumulates in input order — the
    sequential loop's — so float sums agree bit for bit; ``add_int`` is
    an int64 ``add.at`` (callers guard overflow); every group holds at
    least one input, so no ``min``/``max`` fill survives."""
    import numpy as np

    if op == "add_float":
        return np.bincount(inv, weights=values, minlength=n_groups)
    if op == "add_int":
        acc = np.zeros(n_groups, dtype=np.int64)
        np.add.at(acc, inv, values)
        return acc
    if values.dtype.kind == "f":
        acc = np.full(n_groups, np.inf if op == "min" else -np.inf)
    else:
        info = np.iinfo(np.int64)
        acc = np.full(
            n_groups, info.max if op == "min" else info.min, dtype=np.int64
        )
    (np.minimum if op == "min" else np.maximum).at(acc, inv, values)
    return acc


def _fold_tag(tag, arrays, inv, n_groups, counts=None):
    """One aggregate's per-group arrays, in the tag's wire order, from
    one input array per op of ``_FOLD_OPS[tag]``.  ``None`` stands for
    "one per input" — what the kernel lifts a row's count to — whose
    fold is ``counts``, the input count per group the caller holds."""
    return [
        counts if values is None else _fold(op, values, inv, n_groups)
        for op, values in zip(_FOLD_OPS[tag], arrays)
    ]


# -- packed payloads as per-group states --------------------------------------


def _key_tuples(key_payload, n_groups: int) -> list[tuple]:
    """Per-group key tuples from a payload's ``(kind, values)`` key
    columns; with no key column (scalar aggregation) every group's key
    is ``()``."""
    if not key_payload:
        return [()] * n_groups
    return list(zip(*(_aslist(data) for _kind, data in key_payload)))


def _states_from_payload(spec, tag, data, n_groups):
    """Materialize per-group aggregate states from a kernel payload."""
    states = [spec.new_state() for _ in range(n_groups)]
    if tag == "count":
        for state, c in zip(states, _aslist(data[0])):
            state.count = c
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
    else:  # min_int … max_float carry the per-group extremes directly
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
    keys = _key_tuples(key_payload, n_groups)
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


def _merge_sequential(partials, query) -> dict[tuple, GroupState]:
    """The per-key merge of ``partials`` (packed ones unpacked first),
    in the order given, into states built here and owned by the caller:
    the partials are never mutated (or shallow-copied), so re-running
    over the same inputs can never see aliased state from an earlier
    merge."""
    merged: dict[tuple, GroupState] = {}
    for partial in partials:
        if _is_packed(partial):
            partial = _unpack_packed(partial, query)
        for key, state in partial:
            mine = merged.get(key)
            if mine is None:
                mine = GroupState(query.aggregates)
                merged[key] = mine
            mine.merge(state)
    return merged


def _union_codes(code_arrays, dictionaries):
    """``(union dictionary's values, the fragments' code arrays remapped
    into it and concatenated)``: equal strings from different fragments
    unify without a per-group string being materialized."""
    import numpy as np

    union = StringDictionary()
    remapped = []
    for codes, values in zip(code_arrays, dictionaries):
        lut = np.asarray([union.code_of(v) for v in values], dtype=np.int64)
        remapped.append(lut[codes])
    return union.values, np.concatenate(remapped)


def _merge_packed(payloads, query):
    """Vectorized global merge of per-worker packed payloads.

    ``payloads`` must be every fragment's packed result in fragment
    order.  Groups the concatenated per-fragment group keys
    (:func:`_group_codes`; a scalar query's payloads carry no key
    columns: one group), then folds each aggregate's concatenated arrays
    (:func:`_fold_tag`) — in concatenation (= fragment) order, so float
    accumulation matches the sequential merge bit for bit.  Each
    aggregate's merged arrays are then *finished* into one list of plain
    Python values (``.tolist()``, and for AVG/VAR/STDDEV the very
    functions the states' ``result()`` calls, over Python numbers), and
    the key and result columns are zipped into rows.

    Returns ``(rows, None)`` — one unsorted result row per group, HAVING
    not yet applied, so ``len(rows)`` is the run's group count — or
    ``(None, reason)`` when exactness cannot be guaranteed
    (``int_sum_overflow``: the magnitudes could add past int64;
    ``tag_mismatch``: the payloads disagree on an aggregate's wire form),
    in which case the caller merges sequentially.
    """
    import numpy as np

    sizes = [p[1] for p in payloads]
    if not any(sizes):
        return [], None
    key_columns = []
    for parts in zip(*(p[2] for p in payloads)):
        kinds, values = zip(*parts)
        if kinds[0] == "str":  # object, not <U: trailing NULs must survive
            values = [np.asarray(v, dtype=object) for v in values]
        key_columns.append(np.concatenate(values))
    keys, inv, n_groups = _group_codes(key_columns, sum(sizes))

    columns = []
    for s_idx, spec in enumerate(query.aggregates):
        # Transposed: the fragments' tags, their first arrays, …
        tags, *fields = zip(*(p[3][s_idx] for p in payloads))
        tag = tags[0]
        if any(t != tag for t in tags):
            return None, "tag_mismatch"
        if tag in _FOLD_OPS:
            if tag in ("sum_int", "avg_int") and sum(
                map(_int_magnitude, fields[0])
            ) >= _INT64_LIMIT:
                # the Python merge keeps exact big ints
                return None, "int_sum_overflow"
            arrays = [np.concatenate(field) for field in fields]
            folded = [
                a.tolist() for a in _fold_tag(tag, arrays, inv, n_groups)
            ]
            if tag in ("avg_int", "avg_float"):
                # Python's int / int is correctly rounded; numpy's
                # int64 / int64 rounds both operands first past 2**53.
                column = list(map(finish_avg, *folded))
            elif tag == "var":
                total, total_sq, count = folded
                finish = (
                    finish_stddev if spec.func == "stddev" else finish_variance
                )
                column = list(map(finish, count, total, total_sq))
            else:
                column = folded[0]
        elif tag in ("min_str_codes", "max_str_codes"):
            # Remap the per-group winner codes through the union
            # dictionary, rank it once, fold ranks — ties are equal
            # strings, so any winner decodes to the value the
            # sequential merge keeps.
            union, codes = _union_codes(*fields)
            order, rank_of = _rank_lut(union)
            winners = _fold(tag[:3], rank_of[codes], inv, n_groups)
            column = [union[c] for c in order[winners].tolist()]
        elif tag in ("distinct_num", "distinct_str"):
            # Set fold over sorted-unique (group, value) pair arrays.
            # Fragment f's local group g sits at offsets[f] + g in the
            # concatenated key arrays, so inv[offsets[f] + g] is its
            # global group; str codes become union codes; one unique
            # dedups across fragments; a group counts its pairs.
            offsets = accumulate(sizes, initial=0)
            groups = np.concatenate(
                [inv[at + local] for at, local in zip(offsets, fields[0])]
            )
            if tag == "distinct_str":
                _union, values = _union_codes(*fields[1:])
            else:
                values = np.concatenate(fields[1])
            column = np.bincount(
                _distinct_pairs(groups, values)[0], minlength=n_groups
            ).tolist()
        else:  # a tag this merge does not know
            return None, "tag_mismatch"
        columns.append(column)

    return list(zip(*(k.tolist() for k in keys), *columns)), None
