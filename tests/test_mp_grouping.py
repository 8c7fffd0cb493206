"""The seam the phase-1 kernel and the parent merge share.

``merge._group_codes`` and ``merge._distinct_pairs`` are the only
grouping code in the mp executor, so an algorithm swapped into either
(direct addressing, mixed radix, ``lexsort``) is held here to what the
callers rely on: the *partition* of the inputs by Python key tuple, and
the sorted set of ``(group, value)`` pairs.  The completeness test walks
every aggregate over every column kind through the kernel, so a tag the
kernel learns to emit cannot reach the merge's ``tag_mismatch`` refusal
— or ``_states_from_payload``'s catch-all branch — silently.

No example budget of its own: tier-1 runs hypothesis's default, CI
reruns the properties under ``--hypothesis-profile=stress``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import AggregateSpec
from repro.core.query import AggregateQuery
from repro.parallel.mp_executor.kernel import (
    _columnar_local_phase,
    _per_row_phase,
    _take_declines,
)
from repro.parallel.mp_executor.merge import (
    _FOLD_OPS,
    _distinct_pairs,
    _group_codes,
    _merge_packed,
    _unpack_packed,
)
from repro.storage.columnblock import ColumnBlock
from repro.storage.schema import Column, Schema

from tests.conftest import assert_partials_equal

# Few distinct values per column, so tuples repeat within and across
# columns; 0.0 and -0.0 are one key to a dict and to a sort alike.
_COLUMN_KINDS = {
    "int64": (st.integers(-3, 3) | st.integers(-(2**63), 2**63 - 1),
              np.int64),
    "float64": (st.sampled_from([0.0, -0.0, 0.5, -1.5, 1e300, float("inf")]),
                np.float64),
    "codes": (st.integers(0, 4), np.int32),
    "str": (st.sampled_from(["", "a", "a\x00", "\x00a", "é", "😀", "ab"]),
            object),
}


@st.composite
def _key_columns(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_KINDS)),
                          min_size=1, max_size=3))
    n_rows = draw(st.integers(0, 30))
    columns = []
    for kind in kinds:
        values, dtype = _COLUMN_KINDS[kind]
        drawn = draw(st.lists(values, min_size=n_rows, max_size=n_rows))
        column = np.empty(n_rows, dtype=dtype)
        column[:] = drawn
        columns.append(column)
    return columns, n_rows


def _partition(labels):
    """The sets of input positions that share a label."""
    rows_of = {}
    for r, label in enumerate(labels):
        rows_of.setdefault(label, set()).add(r)
    return {frozenset(rows) for rows in rows_of.values()}


@settings(deadline=None)
@given(_key_columns())
def test_group_codes_partitions_rows_like_python_key_tuples(case):
    columns, n_rows = case
    tuples = list(zip(*(column.tolist() for column in columns)))
    keys, inv, n_groups = _group_codes(columns, n_rows)
    assert n_groups == len(set(tuples))
    assert _partition(inv.tolist()) == _partition(tuples)
    assert [len(k) for k in keys] == [n_groups] * len(columns)
    group_keys = list(zip(*(k.tolist() for k in keys)))
    assert [group_keys[g] for g in inv.tolist()] == tuples


@pytest.mark.parametrize("n_rows", [0, 1, 17])
def test_group_codes_without_key_columns_is_the_one_group_case(n_rows):
    keys, inv, n_groups = _group_codes([], n_rows)
    assert keys == [] and inv.tolist() == [0] * n_rows
    assert n_groups == (1 if n_rows else 0)


@settings(deadline=None)
@given(
    st.sampled_from(["int64", "float64", "codes"]).flatmap(
        lambda kind: st.tuples(
            st.just(_COLUMN_KINDS[kind][1]),
            st.lists(st.tuples(st.integers(0, 5), _COLUMN_KINDS[kind][0]),
                     max_size=40),
        )
    )
)
def test_distinct_pairs_is_the_sorted_set_of_pairs(case):
    dtype, pairs = case
    groups = np.asarray([g for g, _v in pairs], dtype=np.intp)
    values = np.asarray([v for _g, v in pairs], dtype=dtype)
    got_groups, got_values = _distinct_pairs(groups, values)
    assert list(zip(got_groups.tolist(), got_values.tolist())) == sorted(
        set(pairs)
    )


# -- every tag the kernel emits is a tag the merge and the oracle know --------

_SCHEMA = Schema([
    Column("k", "int"), Column("i", "int"), Column("f", "float"),
    Column("s", "str", 8),
])
_ROWS = [(r % 3, r - 4, r / 4 - 1.0, "ab"[r % 2] * (r % 3)) for r in range(12)]
_FUNCS = (
    "count", "count_distinct", "sum", "avg", "min", "max", "var", "stddev"
)
# What the per-row states cannot compute either: arithmetic on strings.
_NO_STR = {"sum", "avg", "var", "stddev"}
_SPECIAL_TAGS = {
    "min_str_codes", "max_str_codes", "distinct_num", "distinct_str"
}


@pytest.mark.parametrize("column", ["i", "f", "s"])
@pytest.mark.parametrize("func", _FUNCS)
def test_every_emitted_tag_is_known_to_the_fold_and_the_oracle(func, column):
    query = AggregateQuery(("k",), (AggregateSpec(func, column),))
    block = ColumnBlock.from_rows(_SCHEMA, _ROWS)
    _take_declines()
    payload = _columnar_local_phase(block, query)
    if column == "s" and func in _NO_STR:
        assert payload is None
        assert _take_declines() == {"aggregate_type": 1}
        return
    assert _take_declines() == {}
    ((tag, *_arrays),) = payload[3]
    assert tag in _SPECIAL_TAGS or tag in _FOLD_OPS
    # The merge folds it (one fragment, and the same fragment twice) …
    for payloads in ([payload], [payload, payload]):
        rows, reason = _merge_packed(payloads, query)
        assert reason is None and len(rows) == 3
    # … and _states_from_payload rebuilds the per-row loop's states.
    assert_partials_equal(
        _unpack_packed(payload, query),
        _per_row_phase(_ROWS, query, _SCHEMA),
    )
