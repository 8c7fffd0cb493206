"""The seam the phase-1 kernel and the parent merge share.

``merge._group_codes`` and ``merge._distinct_pairs`` are the only
grouping code in the mp executor, and both go through one numbering,
``merge._number`` (direct addressing, or one 1-D sort), combined by
mixed radix.  An algorithm swapped into either is held here to what the
callers rely on: the *partition* of the inputs by Python key tuple, and
the sorted set of ``(group, value)`` pairs, which is the keys
``_group_codes`` gives the pairs as two columns.  The completeness test
walks every aggregate over every column kind through the kernel, so a tag the
kernel learns to emit cannot reach the merge's ``tag_mismatch`` refusal
— or ``_states_from_payload``'s catch-all branch — silently.

The boundary cases below the properties force each path — direct
addressing or the sort — by their data, never by patching the threshold,
and read the path taken off the same notes a run reports as
``mp.kernel.grouping.*`` / ``mp.merge.grouping.*``.

No example budget of its own: tier-1 runs hypothesis's default, CI
reruns the properties under ``--hypothesis-profile=stress``.
"""

import pathlib
import re

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
    _DENSE_SPAN_FLOOR,
    _DENSE_SPAN_PER_ROW,
    _FOLD_OPS,
    _distinct_pairs,
    _group_codes,
    _merge_packed,
    _merge_sequential,
    _take_notes,
    _unpack_packed,
)
from repro.storage.columnblock import ColumnBlock
from repro.storage.schema import Column, Schema

from tests.conftest import assert_partials_equal, grouping_paths

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


def _grouped(columns):
    """``_group_codes`` held to the partition and the keys, returning
    what it returned and the path each numbering took."""
    n_rows = len(columns[0])
    tuples = list(zip(*(column.tolist() for column in columns)))
    _take_notes()
    keys, inv, n_groups = _group_codes(columns, n_rows)
    paths = _take_notes().get("grouping", {})
    assert n_groups == len(set(tuples))
    assert _partition(inv.tolist()) == _partition(tuples)
    assert [len(k) for k in keys] == [n_groups] * len(columns)
    group_keys = list(zip(*(k.tolist() for k in keys)))
    assert [group_keys[g] for g in inv.tolist()] == tuples
    assert [k.dtype for k in keys] == [c.dtype for c in columns]
    return keys, inv, paths


@settings(deadline=None)
@given(_key_columns())
def test_group_codes_partitions_rows_like_python_key_tuples(case):
    columns, _n_rows = case
    _grouped(columns)


@pytest.mark.parametrize("n_rows", [0, 1, 17])
def test_group_codes_without_key_columns_is_the_one_group_case(n_rows):
    keys, inv, n_groups = _group_codes([], n_rows)
    assert keys == [] and inv.tolist() == [0] * n_rows
    assert n_groups == (1 if n_rows else 0)


# COUNT(DISTINCT)'s value kinds, each with the path ``_number`` takes:
# int64 at its extremes beside a sparse spread (wider than any table:
# the sort), int32 dictionary codes (direct addressing), and floats with
# both zeros, both infinities and 1e300 (the sort).
_EXTREME_INTS = [-(2**63), 2**63 - 1]
_PAIR_VALUES = {
    "int64": (st.sampled_from(_EXTREME_INTS)
              | st.integers(-3, 3).map(lambda v: v * 2**40), np.int64, "sort"),
    "codes": (st.integers(0, 40), np.int32, "dense"),
    "float64": (st.sampled_from([0.0, -0.0, float("inf"), float("-inf"),
                                 1e300, -1e300, 0.5, -1.5]),
                np.float64, "sort"),
}


@settings(deadline=None)
@given(
    st.sampled_from(sorted(_PAIR_VALUES)).flatmap(
        lambda kind: st.tuples(
            st.just(kind),
            st.lists(st.tuples(st.integers(0, 300), _PAIR_VALUES[kind][0]),
                     min_size=1, max_size=60),
        )
    )
)
def test_distinct_pairs_is_the_sorted_set_of_pairs(case):
    """The pair dedup is the grouping: the sorted set of pairs, the keys
    ``_group_codes`` gives the pairs as two key columns, and one
    numbering of the values, on the path their kind demands."""
    kind, pairs = case
    _values, dtype, path = _PAIR_VALUES[kind]
    if kind == "int64":  # both extremes in every draw: always sparse
        pairs = pairs + [(0, v) for v in _EXTREME_INTS]
    groups = np.asarray([g for g, _v in pairs], dtype=np.intp)
    values = np.asarray([v for _g, v in pairs], dtype=dtype)
    _take_notes()
    got_groups, got_values = _distinct_pairs(groups, values)
    assert _take_notes() == {"grouping": {path: 1}}
    assert got_values.dtype == dtype
    assert list(zip(got_groups.tolist(), got_values.tolist())) == sorted(
        set(pairs)
    )
    keys, _inv, _n = _group_codes([groups, values], len(pairs))
    assert got_groups.tolist() == keys[0].tolist()
    assert got_values.tolist() == keys[1].tolist()


# -- boundaries, each path forced by the data ---------------------------------


def test_a_span_at_the_threshold_is_addressed_and_one_past_it_sorted():
    n_rows = 8
    widest = _DENSE_SPAN_PER_ROW * n_rows + _DENSE_SPAN_FLOOR
    for top, path in ((widest - 1, "dense"), (widest, "sort")):
        column = np.asarray([0, top, 5, 5, 0, 7, top, 3], dtype=np.int64)
        (uniq,), inv, paths = _grouped([column])
        assert paths == {path: 1}
        # Either way what np.unique returns: ascending, and its inverse.
        assert uniq.tolist() == [0, 3, 5, 7, top]
        assert inv.tolist() == [0, 4, 2, 2, 0, 3, 4, 1]


@pytest.mark.parametrize("values, path", [
    ([-5, -3, -5, -1, -3], "dense"),                  # a negative min
    ([-(2**63), -(2**63) + 2, -(2**63)], "dense"),    # min at int64's floor
    ([2**63 - 1, 2**63 - 3, 2**63 - 1], "dense"),     # max at its ceiling
    ([-(2**63), 2**63 - 1, 0, -(2**63)], "sort"),     # a span of 2**64
    ([7, 7, 7, 7], "dense"),                          # all equal
    ([-9], "dense"),                                  # one row
    ([0, 2**40, 1], "sort"),                          # sparse
])
def test_int_columns_at_the_edges_of_their_domain(values, path):
    column = np.asarray(values, dtype=np.int64)
    (uniq,), inv, paths = _grouped([column])
    assert paths == {path: 1}
    expected, expected_inv = np.unique(column, return_inverse=True)
    assert uniq.tolist() == expected.tolist()
    assert inv.tolist() == expected_inv.tolist()


def test_dictionary_codes_keep_their_dtype_alone_and_in_a_tuple():
    codes = np.asarray([3, 0, 3, 1, 0], dtype=np.int32)
    (uniq,), _inv, paths = _grouped([codes])
    assert uniq.dtype == np.int32 and paths == {"dense": 1}
    floats = np.asarray([0.5, 0.5, 0.5, -1.5, 0.5])
    keys, _inv, paths = _grouped([codes, floats])
    assert [k.dtype for k in keys] == [np.int32, np.float64]
    # codes and the combined code addressed, the float column sorted
    assert paths == {"dense": 2, "sort": 1}


def test_three_wide_columns_are_renumbered_after_each():
    """2 000 distinct values per column: the radix product, 8e9, is
    only ever formed two columns at a time over renumbered codes."""
    base = np.arange(3000)
    order = np.random.default_rng(22).permutation(6000) % 3000
    columns = [
        (base % 2000)[order] * 2**33 - 2**62,             # sparse int64
        ((base * 7 + base // 2000) % 2000)[order].astype(np.int32),  # codes
        ((base * 13) % 2000)[order] * 0.5,                # float64
    ]
    for column in columns:
        assert len(set(column.tolist())) == 2000
    _keys, inv, paths = _grouped(columns)
    assert inv.max() == 2999
    # addressed: the codes.  Sorted: the sparse ints, the floats, and
    # both combinations, whose 2 000 * 2 000 and 3 000 * 2 000 codes
    # outspan 6 000 rows.
    assert paths == {"dense": 1, "sort": 4}


def test_distinct_pairs_across_signed_zeros_and_group_boundaries():
    # Equal values on both sides of a group boundary are two pairs; a
    # repeat within a group, and 0.0 beside -0.0, are one.
    groups = np.asarray([2, 0, 1, 1, 0, 1, 2, 1, 0], dtype=np.intp)
    values = np.asarray([5.0, 0.0, 5.0, -0.0, -0.0, 5.0, 5.0, 0.0, 7.5])
    got_groups, got_values = _distinct_pairs(groups, values)
    assert list(zip(got_groups.tolist(), got_values.tolist())) == [
        (0, 0.0), (0, 7.5), (1, 0.0), (1, 5.0), (2, 5.0),
    ]
    for empty in (np.float64, np.int32):
        got = _distinct_pairs(np.zeros(0, np.intp), np.zeros(0, empty))
        assert [len(a) for a in got] == [0, 0] and got[1].dtype == empty


def test_distinct_pair_codes_past_int32():
    """50 000 groups x 50 000 sparse int values, every pair twice: the
    codes ``group * 50_000 + rank`` run to 2.5e9, past 2**31, so a code
    computed in int32 wraps and pairs merge or split."""
    n = 50_000
    rng = np.random.default_rng(27)
    groups = np.tile(rng.permutation(n), 2).astype(np.intp)
    values = np.tile(rng.permutation(n).astype(np.int64) * 2**33 - 2**62, 2)
    _take_notes()
    got_groups, got_values = _distinct_pairs(groups, values)
    assert _take_notes() == {"grouping": {"sort": 1}}
    assert int(got_groups.max()) * n > 2**31
    assert list(zip(got_groups.tolist(), got_values.tolist())) == sorted(
        set(zip(groups.tolist(), values.tolist()))
    )


_STR_KEY_SCHEMA = Schema([
    Column("s", "str", 8), Column("k", "int"), Column("v", "float"),
])


def test_str_keys_merge_through_the_union_dictionary():
    """Fragments whose str keys overlap, arrive in different orders and
    include the empty string, a trailing NUL and non-ASCII: the rows of
    the per-key merge, with the keys decoded once per group."""
    parts = [
        [("é", 1, 1.0), ("", 0, 2.0), ("a\x00", 1, 3.0), ("a", 0, 4.0)],
        [("a", 0, 0.5), ("😀", 1, 1.5), ("é", 1, 2.5), ("a\x00", 0, 3.5)],
        [("", 0, 8.0), ("", 1, 9.0), ("a", 0, 10.0)],
    ]
    query = AggregateQuery(
        ("s", "k"),
        (AggregateSpec("sum", "v"), AggregateSpec("count_distinct", "s"),
         AggregateSpec("min", "s")),
    )
    payloads = [
        _columnar_local_phase(
            ColumnBlock.from_rows(_STR_KEY_SCHEMA, part), query
        )
        for part in parts
    ]
    _take_notes()
    rows, reason = _merge_packed(payloads, query)
    # The union ranks, k, and their combination, each numbered by direct
    # addressing: strings are compared only to rank the union dictionary,
    # once per distinct string, never per row.  The fourth is the union
    # codes under COUNT(DISTINCT), numbered for the pair dedup.
    assert _take_notes() == {"grouping": {"dense": 4}}
    assert reason is None
    bq = query.bind(_STR_KEY_SCHEMA)
    merged = _merge_sequential(payloads, query)
    # In order: the ranks make group numbers follow Python's str order.
    assert rows == sorted(
        bq.result_row(key, state) for key, state in merged.items()
    )
    assert {row[0] for row in rows} == {"", "a", "a\x00", "é", "😀"}


@pytest.mark.parametrize("processes", [1, 2])
def test_a_run_counts_the_path_of_every_numbering(processes):
    """Worker-side counts ride the attempt profile, the parent's merge
    counts its own: one dense int key column per fragment, and one over
    the fragments' concatenated group keys."""
    from repro.obs import MetricsRegistry
    from repro.parallel import multiprocessing_aggregate
    from repro.workloads.generator import generate_uniform

    dist = generate_uniform(2000, 20, 4, seed=5)
    query = AggregateQuery(("gkey",), (AggregateSpec("sum", "val"),))
    registry = MetricsRegistry()
    multiprocessing_aggregate(dist, query, processes, metrics=registry)
    assert grouping_paths(registry) == {
        "mp.kernel.grouping.dense": 4, "mp.merge.grouping.dense": 1,
    }


def test_the_three_comparison_sorts_stay_out_of_the_executor():
    """CI's structural step runs this by name: one 1-D ``np.unique`` for
    the key domains that demand a sort, in ``merge.py`` and nowhere
    else; no row-wise unique, structured pair dtype, object-array key
    concatenation or ``lexsort`` anywhere in the package."""
    import repro.parallel.mp_executor as package

    for path in pathlib.Path(package.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert not re.search(r"axis=0|dtype=\[\(|dtype=object", text), path
        assert "lexsort" not in text, path
        allowed = 3 if path.name == "merge.py" else 0
        assert text.count("np.unique(") <= allowed, path


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
