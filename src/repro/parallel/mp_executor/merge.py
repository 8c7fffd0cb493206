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
:data:`_collector_paused` keeps the cyclic collector out of the
parent's finish, which allocates one tuple per group.
"""

from __future__ import annotations

import gc
import threading
from itertools import accumulate

from repro.core.aggregates import (
    GroupState,
    canonical,
    canonical_key,
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


# What this thread's current fragment attempt or merge reports beside its
# result, as family -> name -> count: why a fragment left the kernel
# (``declined``), how each key column and COUNT(DISTINCT) value column
# was numbered (``grouping``) — and,
# beside the counts, name -> seconds (a pool worker's ``load_seconds``).  A
# phase function's contract is ``fn(job) -> partials`` (substituted
# phases rely on it), so the runner clears the notes before an attempt
# and puts them in its profile after.  Thread-local: the in-process
# runner serves concurrent service threads.
_noted = threading.local()


def _note(family: str, name: str) -> None:
    counts = _noted.__dict__.setdefault(family, {})
    counts[name] = counts.get(name, 0) + 1


def _note_seconds(name: str, seconds: float) -> None:
    """A duration beside the counts: ``name`` -> seconds, summed."""
    _noted.__dict__[name] = _noted.__dict__.get(name, 0.0) + seconds


def _take_notes() -> dict:
    """This thread's notes, cleared."""
    notes = dict(_noted.__dict__)
    _noted.__dict__.clear()
    return notes


# A key column is numbered by direct addressing when its value span fits
# a table of this many slots per row, plus a floor for small inputs
# (docs/decisions.md has the measurement); by a sort past that.
_DENSE_SPAN_PER_ROW = 4
_DENSE_SPAN_FLOOR = 65_536


def _number(column):
    """``np.unique(column, return_inverse=True)``, without the sort when
    ``column`` is int and dense: a presence table over ``column - min``
    and a LUT from table slot to rank.  The span is a Python int, so an
    int64-wide column cannot wrap it."""
    import numpy as np

    dense = column.dtype.kind == "i" and len(column) > 0
    if dense:
        lo = int(column.min())
        span = int(column.max()) - lo + 1
        dense = span <= _DENSE_SPAN_PER_ROW * len(column) + _DENSE_SPAN_FLOOR
    _note("grouping", "dense" if dense else "sort")
    if not dense:
        return np.unique(column, return_inverse=True)
    slots = column - lo
    present = np.zeros(span, dtype=bool)
    present[slots] = True
    taken = present.nonzero()[0]
    rank = np.empty(span, dtype=np.intp)
    rank[taken] = np.arange(len(taken))
    return (taken + lo).astype(column.dtype), rank[slots]


def _group_codes(columns, n_rows: int):
    """Number the distinct key tuples of ``n_rows`` inputs, one array
    per key column in ``columns``: ``(keys, inv, n_groups)`` with
    ``keys[j][g]`` column ``j``'s value for group ``g`` and ``inv[r]``
    input ``r``'s group.  Each column is numbered by :func:`_number`;
    several combine by mixed radix, ``code * cardinality + next code``,
    renumbered after every column so the product stays within
    ``n_rows ** 2``, and a group's key is any of its inputs'.  No key
    column is the scalar case: every input in group 0 — and no group
    over no input, where the per-row loop emits no partial either.
    Groups are numbered in ascending key order, lexicographic over the
    columns (a str column's order is its codes'): ``_number`` ranks
    ascending and the mixed radix keeps the earlier column major.  Folds
    run in input order however the groups are numbered."""
    import numpy as np

    if not columns:
        return [], np.zeros(n_rows, dtype=np.intp), 1 if n_rows else 0
    uniq, inv = _number(columns[0])
    if len(columns) == 1:
        return [uniq], inv, len(uniq)
    for column in columns[1:]:
        values, codes = _number(column)
        uniq, inv = _number(inv * len(values) + codes)
    member = np.empty(len(uniq), dtype=np.intp)
    member[inv] = np.arange(n_rows)
    return [column[member] for column in columns], inv, len(uniq)


def _distinct_pairs(groups, values):
    """Distinct ``(group, value)`` pairs, sorted: :func:`_number`'s ranks,
    then ``np.sort`` of ``group * len(uniq) + rank``.  Groups are below the
    pair count ``n``, so codes stay below ``n ** 2`` (:func:`_group_codes`)."""
    import numpy as np

    uniq, rank = _number(values)
    codes = np.sort(groups * len(uniq) + rank)
    codes = codes[np.diff(codes, prepend=-1) != 0]
    groups, rank = np.divmod(codes, len(uniq))
    return groups, uniq[rank]


# tag -> the fold op of each array the tag carries, in wire order.  Two
# families are not per-array folds and are handled by name: ``*_str_codes``
# (``_fold_str``) and ``distinct_*`` (``_distinct_pairs``).
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
    least one input, so no ``min``/``max`` fill survives.  Float
    ``min``/``max`` follow the float rule (``core.aggregates``):
    ``maximum`` propagates NaN, ``min`` folds the non-NaN inputs and
    leaves NaN only to a group that holds nothing else, and a zero
    extreme is reported as ``0.0``."""
    import numpy as np

    if op == "add_float":
        return np.bincount(inv, weights=values, minlength=n_groups)
    if op == "add_int":
        acc = np.zeros(n_groups, dtype=np.int64)
        np.add.at(acc, inv, values)
        return acc
    if values.dtype.kind != "f":
        info = np.iinfo(np.int64)
        acc = np.full(
            n_groups, info.max if op == "min" else info.min, dtype=np.int64
        )
        (np.minimum if op == "min" else np.maximum).at(acc, inv, values)
        return acc
    if op == "max":
        acc = np.full(n_groups, -np.inf)
        with np.errstate(invalid="ignore"):  # a NaN is the answer
            np.maximum.at(acc, inv, values)
    else:
        acc = np.full(n_groups, np.inf)
        nan = np.isnan(values)
        if nan.any():
            numbers = ~nan
            inv, values = inv[numbers], values[numbers]
            acc[np.bincount(inv, minlength=n_groups) == 0] = np.nan
        np.minimum.at(acc, inv, values)
    acc += 0.0  # -0.0 + 0.0 is 0.0
    return acc


def _rank_lut(dictionary_values):
    """A dictionary ranked in Python's ``<`` order: ``(order, rank_of)``,
    ``order[r]`` the code of rank ``r`` and ``rank_of[c]`` the rank of
    code ``c`` — codes, once mapped through ``rank_of``, compare as
    their strings do."""
    import numpy as np

    n = len(dictionary_values)
    order = np.asarray(
        sorted(range(n), key=dictionary_values.__getitem__), dtype=np.int64
    )
    rank_of = np.empty(n, dtype=np.int64)
    rank_of[order] = np.arange(n, dtype=np.int64)
    return order, rank_of


def _fold_str(op, dictionary_values, codes, inv, n_groups):
    """Per-group ``min``/``max`` of dictionary-coded strings, as the
    winners' codes: the ranks (:func:`_rank_lut`) are folded, so the
    winner is the per-row fold's — ties are equal strings."""
    order, rank_of = _rank_lut(dictionary_values)
    return order[_fold(op, rank_of[codes], inv, n_groups)]


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
    columns, float values canonical — what ``BoundQuery.key_of`` gives
    the per-row loop, so the two meet in one dict entry; with no key
    column (scalar aggregation) every group's key is ``()``."""
    if not key_payload:
        return [()] * n_groups
    return list(zip(*(
        list(map(canonical, _aslist(data))) if kind == "float"
        else _aslist(data)
        for kind, data in key_payload
    )))


# tag -> the state attribute each of its arrays restores; the tags not
# listed (min_int … max_float) carry the per-group extreme, ``value``.
_STATE_ATTRS = {
    "count": ("count",), "sum_int": ("total",), "sum_float": ("total",),
    "avg_int": ("total", "count"), "avg_float": ("total", "count"),
    "var": ("total", "total_sq", "count"),
}


def _states_from_payload(spec, tag, data, n_groups):
    """Materialize per-group aggregate states from a kernel payload."""
    states = [spec.new_state() for _ in range(n_groups)]
    if tag in ("distinct_num", "distinct_str"):
        values = _aslist(data[1])
        if tag == "distinct_str":
            values = [data[2][c] for c in values]
        for g, v in zip(_aslist(data[0]), values):
            states[g].update(v)
    elif tag in ("min_str_codes", "max_str_codes"):
        for state, c in zip(states, _aslist(data[0])):
            state.value = data[1][c]
    else:
        for attr, column in zip(_STATE_ATTRS.get(tag, ("value",)), data):
            for state, v in zip(states, _aslist(column)):
                setattr(state, attr, v)
        if tag in ("sum_int", "sum_float"):
            for state in states:
                state.seen = True
    return states


def _is_packed(result) -> bool:
    tagged = isinstance(result, tuple) and len(result) == 4
    return tagged and result[0] == "packed"


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
    merge.  A per-row partial's keys are made canonical again: one that
    crossed a pipe or a spill file holds fresh NaN objects."""
    merged: dict[tuple, GroupState] = {}
    for partial in partials:
        if _is_packed(partial):
            partial = _unpack_packed(partial, query)
        else:
            partial = [(canonical_key(key), state) for key, state in partial]
        for key, state in partial:
            mine = merged.get(key)
            if mine is None:
                mine = GroupState(query.aggregates)
                merged[key] = mine
            mine.merge(state)
    return merged


def _union_codes(dictionaries, code_arrays=None):
    """``(union dictionary's values, the fragments' code arrays remapped
    into it and concatenated)``: equal strings from different fragments
    unify without a per-group string being materialized.  Without
    ``code_arrays`` every value of every dictionary is one input — a
    fragment's per-group str key column."""
    import numpy as np

    union = StringDictionary()
    luts = [
        np.asarray([union.code_of(v) for v in values], dtype=np.int64)
        for values in dictionaries
    ]
    if code_arrays is not None:
        luts = [lut[codes] for lut, codes in zip(luts, code_arrays)]
    return union.values, np.concatenate(luts)


# -- the parent's finish -----------------------------------------------------


class _CollectorPause:
    """The cyclic collector off for a ``with`` block, then back as it
    was; one instance, :data:`_collector_paused`, serves every thread.

    The finish allocates one result tuple per group and holds every one
    of them, so each pass the allocations trigger traverses rows and
    frees none of them.  Reference-counted under a lock: the first
    thread in records ``gc.isenabled()`` and disables; the last one out
    re-enables only if the collector was on when the first came in, so
    a host that turned it off keeps it off, and concurrent runs cannot
    turn it back on under each other.  Nothing is collected here: the
    collector's allocation count is left as the block left it, so the
    next automatic pass starts at the caller's first container
    allocation that no free list serves — one pass over whatever of the
    rows is still held, none if the caller dropped them first.
    ``gc.enable()`` is the last thing ``__exit__`` does, so that pass
    cannot start inside it (a generator-based context manager would
    allocate its ``StopIteration`` there)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._restore = False

    def __enter__(self) -> None:
        with self._lock:
            if not self._depth:
                self._restore = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._depth -= 1
            if not self._depth and self._restore:
                gc.enable()


_collector_paused = _CollectorPause()


def _merge_packed(payloads, query):
    """Vectorized global merge of per-worker packed payloads.

    ``payloads`` must be every fragment's packed result in fragment
    order.  Groups the concatenated per-fragment group keys
    (:func:`_group_codes`; str keys as their ranks in a union dictionary
    ranked in Python's ``<`` order, decoded once per group; a scalar
    query carries no key columns: one group), then folds each
    aggregate's concatenated arrays (:func:`_fold_tag`) in concatenation
    (= fragment) order, so float accumulation matches the sequential
    merge bit for bit.  The merged arrays are then *finished* into one
    list of plain Python values (``.tolist()``, and for AVG/VAR/STDDEV
    the very functions the states' ``result()`` calls), and key and
    result columns are zipped into rows.

    Returns ``(rows, None)`` — one result row per group, in key order
    (``rows == sorted(rows, key=sort_key)``: keys are unique, and
    ``np.unique`` puts NaN after every number as the float rule does),
    HAVING not yet applied, so ``len(rows)`` is the run's group count — or
    ``(None, reason)`` when exactness cannot be guaranteed
    (``int_sum_overflow``: the magnitudes could add past int64;
    ``tag_mismatch``: the payloads disagree on an aggregate's wire form),
    in which case the caller merges sequentially.
    """
    import numpy as np

    sizes = [p[1] for p in payloads]
    if not any(sizes):
        return [], None
    key_columns, unions = [], {}
    for j, parts in enumerate(zip(*(p[2] for p in payloads))):
        kinds, values = zip(*parts)
        if kinds[0] == "str":  # group union ranks, decode once per group
            union, codes = _union_codes(values)
            order, rank_of = _rank_lut(union)
            unions[j] = [union[c] for c in order.tolist()]
            column = rank_of[codes]
        else:
            column = np.concatenate(values)
        key_columns.append(column)
    keys, inv, n_groups = _group_codes(key_columns, sum(sizes))
    keys = [k.tolist() for k in keys]
    for j, union in unions.items():
        keys[j] = [union[c] for c in keys[j]]

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
            # The fragments' winner codes, remapped into the union
            # dictionary, folded again; decoded once per group.
            union, codes = _union_codes(fields[1], fields[0])
            winners = _fold_str(tag[:3], union, codes, inv, n_groups)
            column = [union[c] for c in winners.tolist()]
        elif tag in ("distinct_num", "distinct_str"):
            # Set fold over sorted-unique (group, value) pair arrays.
            # Fragment f's local group g sits at offsets[f] + g in the
            # concatenated key arrays, so inv[offsets[f] + g] is its
            # global group; str codes become union codes; one more
            # dedup across fragments; a group counts its pairs.
            offsets = accumulate(sizes, initial=0)
            groups = np.concatenate(
                [inv[at + local] for at, local in zip(offsets, fields[0])]
            )
            if tag == "distinct_str":
                values = _union_codes(fields[2], fields[1])[1]
            else:
                values = np.concatenate(fields[1])
            column = np.bincount(
                _distinct_pairs(groups, values)[0], minlength=n_groups
            ).tolist()
        else:  # a tag this merge does not know
            return None, "tag_mismatch"
        columns.append(column)

    return list(zip(*keys, *columns)), None
