"""Packed partials: the raw-array form in which every fragment leaves
the columnar kernel, and the parent's merge over them — a vectorized
fold, then each aggregate's merged arrays finished straight into result
rows, with no per-group state object in between.  :func:`_unpack_packed`
turns a payload back into ``(key, GroupState)`` partials for the two
callers that need them: the sequential merge, which takes over whenever
the vectorized one declines, and round 2 of ``rep``."""

from __future__ import annotations

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


def _key_tuples(decoded_cols, n_groups: int) -> list[tuple]:
    """Per-group key tuples from per-column value lists; with no key
    column (scalar aggregation) every group's key is ``()``."""
    if not decoded_cols:
        return [()] * n_groups
    return list(zip(*decoded_cols))


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
    keys = _key_tuples(
        [_aslist(data) for _kind, data in key_payload], n_groups
    )
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


def _distinct_counts(groups, values, n_groups) -> list[int]:
    """Per-group COUNT(DISTINCT) from ``(group, value)`` pair arrays that
    may repeat a pair: one structured unique dedups them, and a group's
    count is its number of surviving pairs."""
    import numpy as np

    rec = np.empty(
        len(groups), dtype=[("g", np.int64), ("v", values.dtype)]
    )
    rec["g"] = groups
    rec["v"] = values
    return np.bincount(np.unique(rec)["g"], minlength=n_groups).tolist()


def _merge_packed(payloads, query):
    """Vectorized global merge of per-worker packed payloads.

    ``payloads`` must be every fragment's packed result in fragment
    order.  Re-groups the concatenated per-fragment group keys with the
    same unique/codes machinery the kernel uses (a scalar query's
    payloads carry no key columns: one group), then folds each
    aggregate's arrays — in concatenation (= fragment) order, so float
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
    in which case the caller unpacks and merges sequentially.
    """
    import numpy as np

    if sum(p[1] for p in payloads) == 0:
        return [], None
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
    if not num_keys:
        # Scalar: every fragment's (at most one) group is the one group.
        inv = np.zeros(sum(p[1] for p in payloads), dtype=np.intp)
        n_groups = 1
        decoded = []
    elif num_keys == 1:
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
    # Fragment f's local group g sits at position offsets[f] + g in the
    # concatenated key arrays, so inv[offsets[f] + g] is its global
    # group — the LUT the pair-array and code-array merges fold through.
    offsets = []
    base = 0
    for p in payloads:
        offsets.append(base)
        base += p[1]

    columns = []
    for s_idx, spec in enumerate(query.aggregates):
        tag = payloads[0][3][s_idx][0]
        parts = [p[3][s_idx] for p in payloads]
        if any(part[0] != tag for part in parts):
            return None, "tag_mismatch"
        if tag == "count":
            full = np.concatenate([np.asarray(part[1]) for part in parts])
            acc = np.zeros(n_groups, dtype=np.int64)
            np.add.at(acc, inv, full)
            column = acc.tolist()
        elif tag in ("sum_int", "avg_int"):
            arrays = [np.asarray(part[1]) for part in parts]
            if sum(_int_magnitude(a) for a in arrays) >= _INT64_LIMIT:
                # the Python merge keeps exact big ints
                return None, "int_sum_overflow"
            acc = np.zeros(n_groups, dtype=np.int64)
            np.add.at(acc, inv, np.concatenate(arrays))
            if tag == "sum_int":
                column = acc.tolist()
            else:
                cacc = np.zeros(n_groups, dtype=np.int64)
                np.add.at(
                    cacc, inv,
                    np.concatenate([np.asarray(p[2]) for p in parts]),
                )
                # Python's int / int is correctly rounded; numpy's
                # int64 / int64 rounds both operands first past 2**53.
                column = list(map(finish_avg, acc.tolist(), cacc.tolist()))
        elif tag in ("sum_float", "avg_float"):
            totals = np.bincount(
                inv,
                weights=np.concatenate(
                    [np.asarray(part[1]) for part in parts]
                ),
                minlength=n_groups,
            )
            if tag == "sum_float":
                column = totals.tolist()
            else:
                cacc = np.zeros(n_groups, dtype=np.int64)
                np.add.at(
                    cacc, inv,
                    np.concatenate([np.asarray(p[2]) for p in parts]),
                )
                column = list(
                    map(finish_avg, totals.tolist(), cacc.tolist())
                )
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
            finish = (
                finish_stddev if spec.func == "stddev" else finish_variance
            )
            column = list(
                map(finish, cacc.tolist(), totals.tolist(), sq.tolist())
            )
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
            column = acc.tolist()
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
            column = [dvals[order[r]] for r in acc.tolist()]
        elif tag == "distinct_num":
            # Set fold over sorted-unique (group, value) pair arrays:
            # remap each fragment's local groups to global ones, then
            # one structured unique dedups across fragments.
            gparts, vparts = [], []
            for f, part in enumerate(parts):
                local = np.asarray(part[1], dtype=np.int64)
                gparts.append(inv[offsets[f] + local])
                vparts.append(np.asarray(part[2]))
            column = _distinct_counts(
                np.concatenate(gparts), np.concatenate(vparts), n_groups
            )
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
            column = _distinct_counts(
                np.concatenate(gparts), np.concatenate(cparts), n_groups
            )
        else:  # a tag this merge does not know
            return None, "tag_mismatch"
        columns.append(column)

    return list(zip(*decoded, *columns)), None
