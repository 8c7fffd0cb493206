"""One rule for NaN and signed zero, and every executor gives its answer.

The rule (``docs/decisions.md#one-rule-for-nan-and-signed-zero``): NaN
equals NaN and sorts after every number, ``-0.0`` equals ``0.0`` and is
reported as ``0.0``; every NaN key is one group; MAX is NaN if any input
is, MIN only if every input is; COUNT(DISTINCT) counts NaN once and ±0
once.  Each statement below runs through ``reference_aggregate`` over
both fragment orders, the mp executor at ``processes`` 0, 1 and 2, and
all eight simulated algorithms under both ``local_method``s with a large
and a one-entry hash table, and must give one answer, spelled bit for
bit (``row_bits``: NaN is ``'nan'`` however it was made, and ``-0.0``
and ``0.0`` differ).  The data's sums are exact in any order.
"""

import itertools
import math
import pickle

import pytest

from repro.core.aggregates import (
    NAN,
    AggregateSpec,
    CountDistinctState,
    MaxState,
    MinState,
    canonical,
    sort_key,
)
from repro.core.algorithms import ALGORITHM_BODIES, SimConfig
from repro.core.query import AggregateQuery
from repro.core.runner import default_parameters, run_algorithm
from repro.obs.metrics import MetricsRegistry
from repro.parallel import multiprocessing_aggregate, reference_aggregate
from repro.parallel.mp_executor import shutdown_worker_pool
from repro.parallel.mp_executor.kernel import _GovernedPhase
from repro.sql import parse_query
from repro.storage.relation import DistributedRelation
from repro.storage.schema import Column, Schema

from tests.conftest import kernel_declines, row_bits, rows_close


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_worker_pool()


_SHARED = float("nan")  # one NaN object held by several rows
_FRESH = float("inf") - float("inf")  # a NaN made by arithmetic
_GV = Schema([Column("gkey", "int"), Column("val", "float")])
# One group in four fragments: before the rule, a NaN seen first stuck
# and one seen later vanished, so the reference gave MIN 1.0 in
# fragment order and NaN reversed, and the mp executor 2.0.
_EXTREMES = [
    [(1, 2.0), (1, 9.0)],
    [(1, _SHARED), (1, 5.0)],
    [(1, 3.0), (1, float("nan"))],
    [(1, _FRESH), (1, 1.0)],
]
_FV = Schema([Column("f", "float"), Column("v", "float")])
# NaN keys as one shared object, as fresh ones and with the sign bit
# set; -0.0 and 0.0 keys and values, in every fragment.
_KEYS = [
    [(_SHARED, 1.0), (-0.0, 2.0), (1.5, -0.0), (_SHARED, 3.0), (2.5, 4.0)],
    [(float("nan"), -0.0), (0.0, _SHARED), (1.5, 0.0), (-0.0, -0.0)],
    [
        (-math.nan, 5.0), (0.0, 0.0), (2.5, _SHARED), (_FRESH, _SHARED),
        (-1.0, 6.0),
    ],
]
_CASES = {
    "extremes": (
        _GV, _EXTREMES,
        "SELECT gkey, MIN(val), MAX(val), COUNT(DISTINCT val) FROM r "
        "GROUP BY gkey",
    ),
    "float_keys": (
        _FV, _KEYS,
        "SELECT f, COUNT(*), MIN(v), MAX(v), COUNT(DISTINCT v), SUM(v) "
        "FROM r GROUP BY f",
    ),
    "float_scalar": (
        _FV, _KEYS,
        "SELECT COUNT(DISTINCT f), MIN(f), MAX(f), MIN(v), MAX(v) FROM r",
    ),
    "two_keys": (
        _FV, _KEYS,
        "SELECT v, f, COUNT(*) FROM r GROUP BY v, f",
    ),
}
_WANT = {
    "extremes": [(1, 1.0, math.nan, 6)],
    "float_keys": [
        (-1.0, 1, 6.0, 6.0, 1, 6.0),
        (0.0, 4, 0.0, math.nan, 3, math.nan),
        (1.5, 2, 0.0, 0.0, 1, 0.0),
        (2.5, 2, 4.0, math.nan, 2, math.nan),
        (math.nan, 5, 0.0, math.nan, 5, math.nan),
    ],
    "float_scalar": [(5, -1.0, math.nan, 0.0, math.nan)],
}


def _dist(schema, fragments):
    return DistributedRelation(schema, [list(part) for part in fragments])


def _answers(schema, fragments, query):
    """Every executor's rows, by name; no mp fragment leaves the kernel."""
    dist = _dist(schema, fragments)
    answers = {
        "reference": reference_aggregate(dist, query),
        "reference reversed": reference_aggregate(
            _dist(schema, fragments[::-1]), query
        ),
    }
    for processes in (0, 1, 2):
        registry = MetricsRegistry()
        answers[f"mp processes={processes}"] = multiprocessing_aggregate(
            dist, query, processes, metrics=registry
        )
        assert kernel_declines(registry) == {}
    for algorithm in sorted(ALGORITHM_BODIES):
        for method in ("hash", "sort"):
            for entries in (1000, 1):
                params = default_parameters(dist, hash_table_entries=entries)
                answers[f"{algorithm} {method} M={entries}"] = run_algorithm(
                    algorithm, dist, query, params,
                    SimConfig(local_method=method),
                ).rows
    return answers


@pytest.mark.parametrize("case", sorted(_CASES))
def test_every_executor_gives_one_answer(case):
    schema, fragments, sql = _CASES[case]
    _name, query = parse_query(sql)
    answers = {
        name: row_bits(rows)
        for name, rows in _answers(schema, fragments, query).items()
    }
    want = answers["reference"]
    differ = {name: got for name, got in answers.items() if got != want}
    assert differ == {}, f"reference: {want}"


@pytest.mark.parametrize("case", sorted(_WANT))
def test_the_answer_is_the_rules(case):
    schema, fragments, sql = _CASES[case]
    _name, query = parse_query(sql)
    got = reference_aggregate(_dist(schema, fragments), query)
    assert row_bits(got) == row_bits(_WANT[case])


def test_a_spilled_nan_group_stays_one_group():
    """The over-budget retry spills through a file, which hands its NaN
    keys back as fresh objects: they must still be one group, not one per
    row recursing past the spill depth."""
    query = AggregateQuery(("f",), (AggregateSpec("count", None),))
    rows = [(float(i), 1.0) for i in range(8)]
    rows += [(float("nan"), 1.0) for _ in range(300)]
    # 16 bytes an entry (the float key and the overhead): an 8-group
    # table, which the 8 numbers fill, so every NaN row spills.
    spill = _GovernedPhase(budget_bytes=16 * 8, spill=True)
    partials = spill((rows, query, _FV))
    nan_groups = [
        state.results() for key, state in partials if key[0] != key[0]
    ]
    assert nan_groups == [(300,)]
    assert len(partials) == 9


# -- the states and the order, one at a time ----------------------------------

_VALUES = [NAN, 3.0, -0.0, float("nan"), 0.0, -2.0, _FRESH]


def _fold(state_type, values):
    state = state_type()
    for v in values:
        state.update(v)
    return state


def test_min_max_and_distinct_do_not_depend_on_order():
    results = {
        (
            _fold(MinState, p).result(),
            _fold(MaxState, p).result(),
            _fold(CountDistinctState, p).result(),
        )
        for p in itertools.permutations(_VALUES)
    }
    assert len(results) == 1
    ((lo, hi, distinct),) = results
    assert lo == -2.0 and hi is NAN and distinct == 4


def test_merged_states_agree_with_folded_ones_over_any_split():
    for cut in range(len(_VALUES) + 1):
        for state_type in (MinState, MaxState, CountDistinctState):
            left = _fold(state_type, _VALUES[:cut])
            left.merge(_fold(state_type, _VALUES[cut:]))
            whole = _fold(state_type, _VALUES)
            assert repr(left.result()) == repr(whole.result())


def test_min_is_nan_only_when_every_input_is():
    assert _fold(MinState, [float("nan"), _FRESH]).result() is NAN
    assert _fold(MinState, [float("nan"), 7.0]).result() == 7.0
    assert _fold(MaxState, [7.0, float("nan")]).result() is NAN


def test_a_zero_extreme_is_reported_as_positive_zero():
    for state_type in (MinState, MaxState):
        for values in ([-0.0], [-0.0, 0.0], [0.0, -0.0]):
            got = _fold(state_type, values).result()
            assert got.hex() == (0.0).hex()
    # An int zero stays an int.
    assert type(_fold(MinState, [0, 3]).result()) is int


def test_a_pickled_distinct_state_still_counts_nan_once():
    a = _fold(CountDistinctState, [NAN, 1.0])
    b = pickle.loads(pickle.dumps(_fold(CountDistinctState, [NAN, -0.0])))
    a.merge(b)
    assert a.result() == 3


def test_canonical():
    assert canonical(float("nan")) is NAN
    assert canonical(-0.0).hex() == (0.0).hex()
    assert canonical(0) == 0 and type(canonical(0)) is int
    for value in (-1.5, "a", None, 7):
        assert canonical(value) is value


def test_sort_key_puts_nan_after_every_number():
    rows = [(NAN, 1), (math.inf, 2), (-math.inf, 3), (_FRESH, 0), (0.0, 4)]
    assert [r[1] for r in sorted(rows, key=sort_key)] == [3, 4, 2, 0, 1]
    assert sorted([NAN, 2, -1], key=sort_key)[:2] == [-1, 2]


def test_rows_close_matches_nan_only_with_nan():
    assert not rows_close([(1, NAN)], [(1, 5.0)])
    assert not rows_close([(1, 5.0)], [(1, NAN)])
    assert rows_close([(1, NAN)], [(1, _FRESH)])
