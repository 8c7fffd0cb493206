"""The phase-1 kernel against the per-row oracle, on the statements it
used to refuse: WHERE (as a column mask), scalar aggregation (as the
one-group case) and a memory budget (as a group ceiling).

A hypothesis harness generates predicate x grouping x aggregates x
HAVING x fragment split x budget x birth mode x strategy x processes
and demands rows bit-identical to ``phase_fn=_local_phase,
processes=1`` (the per-row loop over row lists, same split) and equal
to ``reference_aggregate``; a second one holds the three names of
two-phase (``pool``, ``global``, ``auto``) to the same rows and the same
non-timing metrics.  The cases
where a mask and Python could part ways are pinned by hand below it:
each must either produce the oracle's bits or decline with a named
reason and let the oracle's own code produce them — or its typed error.

Tier-1 runs the harness at hypothesis's default example budget; CI's
chaos-matrix and low-memory jobs rerun it under the ``stress`` profile
(``tests/conftest.py``).
"""

import glob
import multiprocessing

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.aggregates import AggregateSpec
from repro.core.query import AggregateQuery
from repro.obs.metrics import MetricsRegistry
from repro.parallel import multiprocessing_aggregate, reference_aggregate
from repro.parallel.mp_executor import (
    SHM_PREFIX,
    FragmentFailedError,
    release_resident_segments,
    shutdown_worker_pool,
)
from repro.parallel.mp_executor.kernel import (
    _columnar_local_phase,
    _local_phase,
    _per_row_phase,
    _take_declines,
)
from repro.parallel.mp_executor.mask import predicate_mask
from repro.parallel.mp_executor.merge import _unpack_packed
from repro.sql.parser import (
    _OPS,
    Between,
    BoolOp,
    ColumnRef,
    Comparison,
    CompiledPredicate,
    InList,
    Literal,
    NotOp,
    parse_query,
)
from repro.storage.columnblock import ColumnBlock
from repro.storage.relation import BlockRelation, DistributedRelation
from repro.storage.schema import Column, Schema

from tests.conftest import (
    assert_partials_equal,
    assert_rows_close,
    kernel_declines,
    row_bits as _bits,
)


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_worker_pool()
    assert glob.glob("/dev/shm/" + SHM_PREFIX + "*") == []
    assert multiprocessing.active_children() == []


_SCHEMA = Schema([
    Column("g", "int"), Column("h", "str", 8), Column("i", "int"),
    Column("f", "float"), Column("x", "float"), Column("s", "str", 8),
])
_STRS = ["", "a", "a\x00", "a\x00b", "b", "é", "zz", "\x00", "日本"]
_FRAGMENTS = 3


def _dist(rows, born, fragments=_FRAGMENTS, contiguous=False):
    """``rows`` dealt round-robin into ``fragments`` parts, or cut into
    that many contiguous runs — where short inputs leave fragments
    empty and neighbouring fragments hold disjoint key sets."""
    if contiguous:
        cuts = [len(rows) * n // fragments for n in range(fragments + 1)]
        parts = [rows[a:b] for a, b in zip(cuts, cuts[1:])]
    else:
        parts = [rows[n::fragments] for n in range(fragments)]
    if born == "block":
        parts = [
            BlockRelation(_SCHEMA, ColumnBlock.from_rows(_SCHEMA, part))
            for part in parts
        ]
    return DistributedRelation(_SCHEMA, parts)


def _oracle(rows, query, **split):
    return multiprocessing_aggregate(
        _dist(rows, "rows", **split), query, 1, phase_fn=_local_phase
    )


# -- the harness --------------------------------------------------------------

# ``f`` holds eighths, so its sums and squares are exact in any order
# and VAR/STDDEV agree with the reference to the bit; ``x`` is any
# finite float for the order-sensitive folds, or one of a few values
# the float rule is about — ±0.0, and NaN both as one object many rows
# hold and as a fresh object per row — drawn often enough to group on.
# Domains are small so that literals land *on* data values — the
# boundary where ``<`` and ``<=`` differ — and just past both ends.
_SHARED_NAN = float("nan")
_row = st.tuples(
    st.integers(0, 3),
    st.sampled_from(_STRS[:4]),
    st.integers(-6, 6),
    st.integers(-16, 16).map(lambda k: k / 8),
    st.one_of(
        st.floats(-100, 100, allow_nan=False),
        st.sampled_from([0.0, -0.0, 2.5, _SHARED_NAN]),
        st.builds(float, st.just("nan")),
    ),
    st.sampled_from(_STRS),
)
_num_literal = st.one_of(
    st.integers(-8, 8), st.integers(-32, 32).map(lambda k: k / 4),
)
_str_literal = st.sampled_from(_STRS + ["A", "zzz"])


@st.composite
def _leaf(draw):
    numeric = draw(st.booleans())
    columns, literal = (
        (["g", "i", "f", "x"], _num_literal) if numeric
        else (["h", "s"], _str_literal)
    )
    column = ColumnRef(draw(st.sampled_from(columns)))
    shape = draw(st.sampled_from(
        ["column_op_literal", "literal_op_column", "column_op_column",
         "in", "between"]
    ))
    if shape == "in":
        # ``in`` compares with ==, which never raises: any mix of types.
        values = draw(st.lists(
            st.one_of(_num_literal, _str_literal), min_size=1, max_size=4
        ))
        return InList(column, tuple(values))
    if shape == "between":
        return Between(column, Literal(draw(literal)), Literal(draw(literal)))
    op = draw(st.sampled_from(sorted(_OPS)))
    if shape == "column_op_column":
        return Comparison(op, column, ColumnRef(draw(st.sampled_from(columns))))
    other = Literal(draw(literal))
    if shape == "literal_op_column":
        return Comparison(op, other, column)
    return Comparison(op, column, other)


_predicate = st.recursive(
    _leaf(),
    lambda inner: st.one_of(
        st.builds(BoolOp, st.sampled_from(["and", "or"]), inner, inner),
        st.builds(NotOp, inner),
    ),
    max_leaves=4,
)

_SPECS = (
    [AggregateSpec("count", None), AggregateSpec("count", "s")]
    + [AggregateSpec(fn, col)
       for fn in ("sum", "avg", "min", "max") for col in ("i", "f", "x")]
    + [AggregateSpec(fn, col)
       for fn in ("var", "stddev") for col in ("i", "f")]
    + [AggregateSpec("count_distinct", col) for col in ("i", "f", "x", "s")]
    + [AggregateSpec(fn, "s") for fn in ("min", "max")]
)


_ALL_PASS = Comparison("=", Literal(1), Literal(1))
_NONE_PASS = Comparison("<", Literal(1), Literal(1))


@st.composite
def _having(draw, group_by, specs):
    """No HAVING, one every row passes, one none does, or one comparison
    over a key column or an aggregate's output name, against a literal
    of the output's type."""
    shape = draw(st.sampled_from(
        ["absent", "all_pass", "none_pass", "key", "aggregate"]
    ))
    if shape == "absent":
        return None
    if shape == "all_pass":
        return _ALL_PASS
    if shape == "none_pass":
        return _NONE_PASS
    ops = sorted(_OPS)
    # SUM/AVG over ``x`` depend on the order of addition: the reference,
    # which adds in another, could land across the literal.
    exact = [
        spec for spec in specs
        if not (spec.column == "x" and spec.func in ("sum", "avg"))
    ]
    if shape == "key" and group_by:
        name = draw(st.sampled_from(group_by))
        is_str = name in ("h", "s")
    elif not exact:
        return _ALL_PASS
    else:
        spec = draw(st.sampled_from(exact))
        name = spec.output_name
        is_str = spec.func in ("min", "max") and spec.column == "s"
        if spec.func in ("var", "stddev"):
            # A one-row group's VAR is None, which Python orders
            # against nothing.
            ops = ["=", "<>", "!="]
    literal = draw(_str_literal if is_str else _num_literal)
    return Comparison(
        draw(st.sampled_from(ops)), ColumnRef(name), Literal(literal)
    )


@st.composite
def _statement(draw):
    where = draw(st.none() | _predicate)
    group_by = draw(st.sampled_from(
        [(), ("g",), ("h",), ("g", "h"), ("s", "g"), ("x",), ("x", "h")]
    ))
    specs = draw(st.lists(st.sampled_from(_SPECS), min_size=1, max_size=3))
    having = draw(_having(group_by, specs))
    return AggregateQuery(
        group_by, specs,
        where=None if where is None else CompiledPredicate(where),
        having=None if having is None else CompiledPredicate(having),
    )


@settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    rows=st.lists(_row, max_size=48),
    query=_statement(),
    then=_statement(),
    fragments=st.integers(1, 4),
    contiguous=st.booleans(),
    budget=st.sampled_from([None, 10**9, 40, 1]),
    born=st.sampled_from(["block", "rows"]),
    strategy=st.sampled_from(["pool", "global", "rep", "auto"]),
    processes=st.sampled_from([1, 2]),
)
def test_every_path_returns_the_oracles_bits(
    rows, query, then, fragments, contiguous, budget, born, strategy,
    processes,
):
    """The repeat axis: the drawn statement runs twice over the one
    relation — pooled and block-born, the second run ships from the
    resident segments the first one wrote — and then a second drawn
    statement runs over it, which reads other columns more often than
    not and must be shipped under its own projection, not the first's."""
    split = dict(fragments=fragments, contiguous=contiguous)
    if strategy == "rep":
        budget = None  # the budget governs the two-phase local phase
    dist = _dist(rows, born, **split)

    def oracle(statement):
        want = _oracle(rows, statement, **split)
        assert_rows_close(
            want,
            reference_aggregate(_dist(rows, "rows", **split), statement),
        )
        return _bits(want)

    def run(statement):
        return _bits(multiprocessing_aggregate(
            dist, statement, processes, strategy=strategy,
            memory_budget_bytes=budget,
        ))

    want = oracle(query)
    assert run(query) == want
    assert run(query) == want
    assert run(then) == oracle(then)


def _untimed(registry) -> dict:
    """A run's ``metrics=`` snapshot without what a clock or the
    allocator measured (a heartbeat count measures how long it took),
    nor ``mp.return.inband``: a pool worker's first reply that carries
    arrays comes in-band and makes its return arena, so the count says
    which workers ran a fragment for the first time, which the pool's
    scheduling decides (``test_mp_arena.py`` holds the count to that
    rule).  ``mp.return_bytes`` stays: a reply is counted alike on
    either route."""
    return {
        name: metric for name, metric in registry.snapshot().items()
        if "seconds" not in name and "rss" not in name
        and not name.startswith("mp.heartbeat.")
        and name != "mp.return.inband"
    }


@settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    rows=st.lists(_row, max_size=48),
    query=_statement(),
    fragments=st.integers(1, 4),
    contiguous=st.booleans(),
    budget=st.sampled_from([None, 10**9, 40, 1]),
    born=st.sampled_from(["block", "rows"]),
    processes=st.sampled_from([1, 2]),
)
def test_pool_global_and_auto_are_one_path(
    rows, query, fragments, contiguous, budget, born, processes
):
    """Three names for two-phase: over one draw they return the same
    bits *and* count the same attempts, retries, declines, fallbacks
    and shipments — there is no second path for a name to select."""
    dist = _dist(rows, born, fragments=fragments, contiguous=contiguous)
    seen = []
    for strategy in ("pool", "global", "auto"):
        # Every run ships from an empty resident table, so hit/miss and
        # resident bytes do not depend on which name ran first.
        release_resident_segments()
        registry = MetricsRegistry()
        got = multiprocessing_aggregate(
            dist, query, processes, strategy=strategy,
            memory_budget_bytes=budget, metrics=registry,
        )
        seen.append((_bits(got), _untimed(registry)))
    assert seen[0] == seen[1] == seen[2]


# -- masks, leaf by leaf ------------------------------------------------------

_MASK_ROWS = [
    (g, _STRS[n % 4], n - 6, (n - 5) / 4, x, _STRS[n % len(_STRS)])
    for n, (g, x) in enumerate(
        [(0, 0.0), (1, -0.0), (2, 1.5), (3, -2.25), (0, 99.0), (1, 1e-9),
         (2, -7.0), (3, 3.0), (0, 0.5), (1, 12.0), (2, -0.5), (3, 2.0)]
    )
]


@pytest.mark.parametrize("where", [
    "i = 3", "i <> 3", "i != 3", "3 < i", "i <= 2.5", "2.5 >= i",
    "f >= 1", "f < 0.25", "x > -0.0", "x = 0", "i = g", "i < f", "x >= f",
    "s = 'a'", "s <> 'a'", "s < 'a\x00'", "'a\x00' > s", "s >= 'é'",
    "s <= '日本'", "'a' = 'a'", "1 > 2", "1 < 2.5",
    "h IN ('a', 'zz', 3)", "i IN (1, 2.0, 'a')", "f IN (0.25, 1)",
    "3 IN (1, 3)", "'q' IN ('a', 1)",
    "f BETWEEN -1 AND 1.5", "s BETWEEN 'a' AND 'b'", "i BETWEEN 2.5 AND 4",
    "i BETWEEN 4 AND 2",
    "NOT (i < 0 OR f > 2) AND s <> ''",
    "i > 5000", "i < 5000", "NOT i > 5000",
])
def test_mask_equals_the_predicate_row_for_row(where):
    _name, query = parse_query(f"SELECT COUNT(*) FROM r WHERE {where}")
    block = ColumnBlock.from_rows(_SCHEMA, _MASK_ROWS)
    mask = predicate_mask(block, query.where.node)
    names = _SCHEMA.names()
    assert mask.tolist() == [
        query.where(dict(zip(names, row))) for row in _MASK_ROWS
    ]


_BIG = Schema([Column("g", "int"), Column("big", "int"), Column("s", "str", 4)])
_BIG_ROWS = [(0, 2**53 + 1, "a"), (1, 2**53, "b"), (0, -(2**53) - 1, "a")]


@pytest.mark.parametrize("where, reason", [
    # numpy would compare 2**53 + 1 as the float 2**53; Python is exact.
    ("big > 9007199254740992.0", "predicate_type"),
    ("big IN (9007199254740992.0)", "predicate_type"),
    ("g < 1e300 AND big <= 0.5", "predicate_type"),
    # Python raises on these (ParseError, TypeError) row by row.
    ("nope = 1", "predicate_type"),
    ("s < 3", "predicate_type"),
    ("g = 's'", "predicate_type"),
    # Python short-circuits past the bad leaf; a mask cannot.
    ("g >= 0 OR s < 3", "predicate_type"),
    ("g < 0 AND nope = 1", "predicate_type"),
    ("g = 99999999999999999999", "predicate_type"),  # beyond int64
])
def test_a_leaf_python_would_treat_differently_declines(where, reason):
    _name, query = parse_query(
        f"SELECT g, COUNT(*) FROM r WHERE {where} GROUP BY g"
    )
    block = ColumnBlock.from_rows(_BIG, _BIG_ROWS)
    _take_declines()
    assert _columnar_local_phase(block, query) is None
    assert _take_declines() == {reason: 1}


def test_an_opaque_callable_declines():
    query = AggregateQuery(
        ("g",), (AggregateSpec("count", None),), where=lambda row: True
    )
    block = ColumnBlock.from_rows(_BIG, _BIG_ROWS)
    _take_declines()
    assert _columnar_local_phase(block, query) is None
    assert _take_declines() == {"opaque_predicate": 1}


def test_int64_beyond_2_53_is_compared_exactly_end_to_end():
    _name, query = parse_query(
        "SELECT g, COUNT(*) FROM r WHERE big > 9007199254740992.0 GROUP BY g"
    )
    dist = DistributedRelation(_BIG, [
        BlockRelation(_BIG, ColumnBlock.from_rows(_BIG, _BIG_ROWS))
    ])
    registry = MetricsRegistry()
    got = multiprocessing_aggregate(dist, query, 1, metrics=registry)
    assert got == [(0, 1)] == reference_aggregate(dist, query)
    assert kernel_declines(registry) == {"predicate_type": 1}


@pytest.mark.parametrize("processes", [1, 2])
@pytest.mark.parametrize("where, cause", [
    ("nope = 1", "ParseError"), ("s < 3", "TypeError"),
])
def test_the_per_row_paths_typed_error_surfaces(where, cause, processes):
    _name, query = parse_query(
        f"SELECT g, COUNT(*) FROM r WHERE {where} GROUP BY g"
    )
    rows = [(n % 3, n, "ab"[n % 2]) for n in range(12)]
    dist = DistributedRelation(_BIG, [
        BlockRelation(_BIG, ColumnBlock.from_rows(_BIG, rows[n::2]))
        for n in range(2)
    ])
    with pytest.raises(FragmentFailedError) as oracle:
        multiprocessing_aggregate(
            dist, query, 1, phase_fn=_local_phase, max_retries=0
        )
    with pytest.raises(FragmentFailedError) as info:
        multiprocessing_aggregate(dist, query, processes, max_retries=0)
    assert info.value.cause_type == oracle.value.cause_type == cause
    assert info.value.cause == oracle.value.cause


@pytest.mark.parametrize("processes", [1, 2])
def test_short_circuit_past_a_raising_leaf(processes):
    """``g >= 0`` is true for every row, so Python never evaluates
    ``s < 3``; the kernel declines and the per-row loop answers."""
    _name, query = parse_query(
        "SELECT g, COUNT(*) FROM r WHERE g >= 0 OR s < 3 GROUP BY g"
    )
    rows = [(n % 3, n, "ab"[n % 2]) for n in range(12)]
    dist = DistributedRelation(_BIG, [
        BlockRelation(_BIG, ColumnBlock.from_rows(_BIG, rows[n::2]))
        for n in range(2)
    ])
    registry = MetricsRegistry()
    got = multiprocessing_aggregate(dist, query, processes, metrics=registry)
    assert got == [(0, 4), (1, 4), (2, 4)]
    assert kernel_declines(registry) == {"predicate_type": 2}


# -- scalar as the one-group case ---------------------------------------------


@pytest.mark.parametrize("packed", [False, True])
def test_scalar_over_zero_surviving_rows_invents_no_group(packed):
    _name, query = parse_query(
        "SELECT SUM(f), COUNT(*), MIN(s) FROM r WHERE i > 5000"
    )
    block = ColumnBlock.from_rows(_SCHEMA, _MASK_ROWS)
    assert _per_row_phase(_MASK_ROWS, query, _SCHEMA) == []
    got = _columnar_local_phase(block, query)
    assert got[1] == 0 if packed else _unpack_packed(got, query) == []
    dist = _dist(_MASK_ROWS, "block")
    for strategy in ("pool", "global", "rep", "auto"):
        assert multiprocessing_aggregate(
            dist, query, 2, strategy=strategy
        ) == _oracle(_MASK_ROWS, query) == []


def test_scalar_float_sum_accumulates_in_row_order():
    """``np.sum`` is pairwise and lands a last-bit away from the
    sequential loop on these values; the kernel must not."""
    import numpy as np
    import random

    rng = random.Random(7)
    values = [rng.uniform(-1e6, 1e6) for _ in range(5000)]
    sequential = 0.0
    for v in values:
        sequential += v
    assert float(np.sum(np.asarray(values))) != sequential
    schema = Schema([Column("v", "float")])
    rows = [(v,) for v in values]
    query = AggregateQuery((), (
        AggregateSpec("sum", "v"), AggregateSpec("avg", "v"),
        AggregateSpec("var", "v"),
    ))
    kernel = _unpack_packed(
        _columnar_local_phase(ColumnBlock.from_rows(schema, rows), query),
        query,
    )
    assert_partials_equal(kernel, _per_row_phase(rows, query, schema))
    assert kernel[0][1].states[0].total == sequential
