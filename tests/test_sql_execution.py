"""End-to-end SQL execution: a plain relation as one fragment through the
executor's kernel, and a distributed one on the cluster."""

import pathlib
import re

import pytest

from repro.parallel import reference_aggregate
from repro.sql import parse_query, run_sql
from repro.storage.relation import DistributedRelation, Relation
from repro.storage.schema import Column, Schema
from repro.workloads.generator import generate_uniform
from repro.workloads.tpcd import (
    generate_lineitem,
    q1_pricing_summary,
    q_distinct_orders,
)

from tests.conftest import assert_rows_close


_SCHEMA = Schema(
    [Column("k", "int"), Column("v", "float"), Column("tag", "str")]
)
_ROWS = [
    (1, 10.0, "a"),
    (2, 20.0, "b"),
    (1, 30.0, "a"),
    (2, 5.0, "b"),
    (3, 7.0, "c"),
]


@pytest.fixture
def relation():
    return Relation(_SCHEMA, _ROWS)


class TestLocalExecution:
    def test_group_by_sum(self, relation):
        result = run_sql(
            "SELECT k, SUM(v) AS total FROM r GROUP BY k", relation
        )
        assert sorted(result.rows) == [
            (1, 40.0), (2, 25.0), (3, 7.0),
        ]

    def test_where_clause(self, relation):
        result = run_sql(
            "SELECT k, COUNT(*) AS n FROM r WHERE v >= 10 GROUP BY k",
            relation,
        )
        assert sorted(result.rows) == [(1, 2), (2, 1)]

    def test_having_clause(self, relation):
        result = run_sql(
            "SELECT k, COUNT(*) AS n FROM r GROUP BY k HAVING n >= 2",
            relation,
        )
        assert sorted(result.rows) == [(1, 2), (2, 2)]

    def test_string_predicate(self, relation):
        result = run_sql(
            "SELECT COUNT(*) FROM r WHERE tag = 'a'", relation
        )
        assert result.rows == [(2,)]

    def test_select_distinct(self, relation):
        result = run_sql("SELECT DISTINCT tag FROM r", relation)
        assert sorted(r[0] for r in result.rows) == ["a", "b", "c"]

    def test_output_schema_names(self, relation):
        result = run_sql(
            "SELECT k, AVG(v) AS mean FROM r GROUP BY k", relation
        )
        assert result.schema.names() == ["k", "mean"]

    def test_type_error_for_bad_data(self):
        with pytest.raises(TypeError):
            run_sql("SELECT COUNT(*) FROM r", [1, 2, 3])


class TestClusterExecution:
    def test_runs_on_simulated_cluster(self, sum_query):
        dist = generate_uniform(2000, 30, 4, seed=0)
        outcome = run_sql(
            "SELECT gkey, SUM(val) FROM r GROUP BY gkey",
            dist,
            algorithm="two_phase",
        )
        assert outcome.algorithm == "two_phase"
        assert_rows_close(
            outcome.rows, reference_aggregate(dist, sum_query)
        )

    def test_default_algorithm_is_adaptive(self):
        dist = generate_uniform(1000, 10, 2, seed=1)
        outcome = run_sql(
            "SELECT gkey, COUNT(*) FROM r GROUP BY gkey", dist
        )
        assert outcome.algorithm == "adaptive_two_phase"

    def test_kwargs_forwarded(self):
        dist = generate_uniform(1000, 10, 2, seed=2)
        outcome = run_sql(
            "SELECT gkey, COUNT(*) FROM r GROUP BY gkey",
            dist,
            pipeline=True,
        )
        assert outcome.metrics.node(0).tagged_seconds.get(
            "scan_io", 0.0
        ) == 0


class TestStatisticalAggregates:
    def test_var_and_stddev_via_sql(self):
        dist = generate_uniform(2000, 20, 4, seed=5)
        outcome = run_sql(
            "SELECT gkey, VAR(val) AS v, STDDEV(val) AS s "
            "FROM r GROUP BY gkey",
            dist,
        )
        _t, query = parse_query(
            "SELECT gkey, VAR(val) AS v, STDDEV(val) AS s "
            "FROM r GROUP BY gkey"
        )
        assert_rows_close(
            outcome.rows, reference_aggregate(dist, query), tol=1e-6
        )
        for row in outcome.rows:
            assert row[2] == pytest.approx(row[1] ** 0.5)

    def test_count_distinct_via_sql(self):
        dist = generate_uniform(1000, 10, 2, seed=6)
        outcome = run_sql(
            "SELECT gkey, COUNT(DISTINCT val) FROM r GROUP BY gkey",
            dist,
        )
        assert outcome.num_groups == 10


class TestTpcdEquivalence:
    """The canned TPC-D queries expressed as SQL give identical plans."""

    def test_q1_pricing_summary(self):
        dist = generate_lineitem(1500, 4, seed=0)
        sql = (
            "SELECT returnflag, linestatus, "
            "SUM(quantity) AS sum_qty, "
            "SUM(extendedprice) AS sum_base_price, "
            "AVG(quantity) AS avg_qty, "
            "AVG(extendedprice) AS avg_price, "
            "AVG(discount) AS avg_disc, "
            "COUNT(*) AS count_order "
            "FROM lineitem GROUP BY returnflag, linestatus"
        )
        _t, query = parse_query(sql)
        assert_rows_close(
            reference_aggregate(dist, query),
            reference_aggregate(dist, q1_pricing_summary()),
        )

    def test_distinct_orders(self):
        dist = generate_lineitem(1500, 4, seed=0)
        _t, query = parse_query(
            "SELECT orderkey, COUNT(*) AS lines FROM lineitem "
            "GROUP BY orderkey"
        )
        assert_rows_close(
            reference_aggregate(dist, query),
            reference_aggregate(dist, q_distinct_orders()),
        )

    def test_q1_with_predicate_runs_everywhere(self):
        dist = generate_lineitem(1500, 4, seed=1)
        sql = (
            "SELECT returnflag, COUNT(*) AS n FROM lineitem "
            "WHERE quantity > 25 AND discount < 0.05 "
            "GROUP BY returnflag HAVING n > 10"
        )
        _t, query = parse_query(sql)
        expected = reference_aggregate(dist, query)
        outcome = run_sql(sql, dist, algorithm="repartitioning")
        assert_rows_close(outcome.rows, expected)


# -- a plain Relation: what the operator engine answered ----------------------

_EDGE_SCHEMA = Schema([
    Column("k", "int"), Column("f", "float"), Column("s", "str"),
    Column("v", "float"),
])
_BIG = 2**63  # past int64: the block codec rejects it
# Each NaN is its own object, as parsed or computed data holds them: the
# per-row reference groups rows sharing one NaN object as one key, and
# the block codec, which decodes fresh NaNs, does not.
_EDGE_ROWS = {
    "empty": [],
    "float_keys": [
        (1, float("nan"), "a", 1.0), (2, -0.0, "a", 2.0), (1, 0.0, "b", 3.0),
        (2, float("nan"), "b", 4.0), (3, 1.5, "a", 5.0), (3, -0.0, "c", 6.0),
    ],
    "big_int": [
        (_BIG, 1.0, "a", 1.0), (1, 2.0, "a", 2.0), (_BIG, 1.0, "b", 3.0),
        (-_BIG - 1, 2.0, "b", 4.0), (1, 1.0, "a", 5.0),
    ],
    "strings": [
        (1, 1.0, "a\x00", 1.0), (1, 1.0, "a", 2.0), (2, 2.0, "été", 3.0),
        (2, 2.0, "日本", 4.0), (1, 1.0, "", 5.0), (2, 2.0, "a\x00", 6.0),
    ],
    "mixed": [
        (_BIG, float("nan"), "a\x00", 1.5), (-3, -0.0, "é", -2.5),
        (-3, 0.0, "", 0.25), (7, float("nan"), "é", 1e300),
        (_BIG, 2.5, "a", -0.0), (7, 2.5, "a\x00", 3.0),
    ],
}
_EDGE_SQL = [
    "SELECT k, COUNT(*) AS n, SUM(v) AS total FROM t GROUP BY k",
    "SELECT f, COUNT(*) AS n, AVG(v) AS mean FROM t GROUP BY f",
    "SELECT s, MIN(v) AS lo, MAX(v) AS hi FROM t WHERE v > 0 GROUP BY s",
    "SELECT COUNT(*) AS n, SUM(v) AS total FROM t WHERE v > 1e301",
    "SELECT k, s, VAR(v) AS var FROM t GROUP BY k, s",
]
# examples/sql_frontend.py's statement.
_PRICING_SUMMARY = (
    "SELECT returnflag, linestatus, SUM(quantity) AS sum_qty, "
    "AVG(extendedprice) AS avg_price, COUNT(*) AS count_order "
    "FROM lineitem WHERE discount < 0.08 GROUP BY returnflag, linestatus "
    "HAVING count_order > 50"
)
_STATEMENTS = {
    "fixture": [
        "SELECT k, SUM(v) AS total FROM r GROUP BY k",
        "SELECT k, COUNT(*) AS n FROM r WHERE v >= 10 GROUP BY k",
        "SELECT k, COUNT(*) AS n FROM r GROUP BY k HAVING n >= 2",
        "SELECT COUNT(*) FROM r WHERE tag = 'a'",
        "SELECT DISTINCT tag FROM r",
        "SELECT k, AVG(v) AS mean FROM r GROUP BY k",
    ],
    "q1": [_PRICING_SUMMARY],
    **{name: _EDGE_SQL for name in _EDGE_ROWS},
}
# ``(repr(rows), schema.names())`` of ``run_sql(statement, relation)`` as
# the Volcano operator engine answered it, per dataset and statement, in
# order.  The one-fragment executor that replaced it answers the same.
_ENGINE_ANSWERS = {
    "fixture": [
        ("[(1, 40.0), (2, 25.0), (3, 7.0)]", ["k", "total"]),
        ("[(1, 2), (2, 1)]", ["k", "n"]),
        ("[(1, 2), (2, 2)]", ["k", "n"]),
        ("[(2,)]", ["count(*)"]),
        ("[('a', 2), ('b', 2), ('c', 1)]", ["tag", "_dup_count"]),
        ("[(1, 20.0), (2, 12.5), (3, 7.0)]", ["k", "mean"]),
    ],
    "q1": [
        (
            "[('A', 'F', 68083.61716899702, 53414.42817813299, 2662), "
            "('A', 'O', 67737.04702426327, 52193.700210230716, 2681), "
            "('N', 'F', 67975.96855876036, 52747.28554296119, 2670), "
            "('N', 'O', 68588.41658917487, 52899.16505198973, 2682), "
            "('R', 'F', 66334.51020548359, 52165.697547041054, 2584), "
            "('R', 'O', 69268.12684840038, 53414.08349064347, 2709)]",
            [
                "returnflag", "linestatus", "sum_qty", "avg_price",
                "count_order",
            ],
        ),
    ],
    "empty": [
        ("[]", ["k", "n", "total"]),
        ("[]", ["f", "n", "mean"]),
        ("[]", ["s", "lo", "hi"]),
        ("[]", ["n", "total"]),
        ("[]", ["k", "s", "var"]),
    ],
    "float_keys": [
        ("[(1, 2, 4.0), (2, 2, 6.0), (3, 2, 11.0)]", ["k", "n", "total"]),
        None,  # _RULE_ANSWERS
        (
            "[('a', 1.0, 5.0), ('b', 3.0, 4.0), ('c', 6.0, 6.0)]",
            ["s", "lo", "hi"],
        ),
        ("[]", ["n", "total"]),
        (
            "[(1, 'a', None), "
            "(1, 'b', None), "
            "(2, 'a', None), "
            "(2, 'b', None), "
            "(3, 'a', None), "
            "(3, 'c', None)]",
            ["k", "s", "var"],
        ),
    ],
    "big_int": [
        (
            "[(-9223372036854775809, 1, 4.0), "
            "(1, 2, 7.0), "
            "(9223372036854775808, 2, 4.0)]",
            ["k", "n", "total"],
        ),
        ("[(1.0, 3, 3.0), (2.0, 2, 3.0)]", ["f", "n", "mean"]),
        ("[('a', 1.0, 5.0), ('b', 3.0, 4.0)]", ["s", "lo", "hi"]),
        ("[]", ["n", "total"]),
        (
            "[(-9223372036854775809, 'b', None), "
            "(1, 'a', 4.5), "
            "(9223372036854775808, 'a', None), "
            "(9223372036854775808, 'b', None)]",
            ["k", "s", "var"],
        ),
    ],
    "strings": [
        ("[(1, 3, 8.0), (2, 3, 13.0)]", ["k", "n", "total"]),
        (
            "[(1.0, 3, 2.6666666666666665), (2.0, 3, 4.333333333333333)]",
            ["f", "n", "mean"],
        ),
        (
            "[('', 5.0, 5.0), "
            "('a', 2.0, 2.0), "
            "('a\\x00', 1.0, 6.0), "
            "('été', 3.0, 3.0), "
            "('日本', 4.0, 4.0)]",
            ["s", "lo", "hi"],
        ),
        ("[]", ["n", "total"]),
        (
            "[(1, '', None), "
            "(1, 'a', None), "
            "(1, 'a\\x00', None), "
            "(2, 'a\\x00', None), "
            "(2, 'été', None), "
            "(2, '日本', None)]",
            ["k", "s", "var"],
        ),
    ],
    "mixed": [
        (
            "[(-3, 2, -2.25), (7, 2, 1e+300), (9223372036854775808, 2, 1.5)]",
            ["k", "n", "total"],
        ),
        None,  # _RULE_ANSWERS
        (
            "[('', 0.25, 0.25), ('a\\x00', 1.5, 3.0), ('é', 1e+300, 1e+300)]",
            ["s", "lo", "hi"],
        ),
        ("[]", ["n", "total"]),
        (
            "[(-3, '', None), "
            "(-3, 'é', None), "
            "(7, 'a\\x00', None), "
            "(7, 'é', None), "
            "(9223372036854775808, 'a', None), "
            "(9223372036854775808, 'a\\x00', None)]",
            ["k", "s", "var"],
        ),
    ],
}
_CASES = [
    (dataset, index)
    for dataset, answers in _ENGINE_ANSWERS.items()
    for index, answer in enumerate(answers)
    if answer is not None
]
# Where the float rule (docs/decisions.md) changed the engine's answer:
# it made each NaN key its own group and reported the zero group's key
# as whichever zero came first, -0.0 here.  One NaN group and 0.0 now,
# with NaN sorted after every number.
_RULE_ANSWERS = {
    ("float_keys", 1): (
        "[(0.0, 3, 3.6666666666666665), (1.5, 1, 5.0), (nan, 2, 2.5)]",
        ["f", "n", "mean"],
    ),
    ("mixed", 1): (
        "[(0.0, 2, -1.125), (2.5, 2, 1.5), (nan, 2, 5e+299)]",
        ["f", "n", "mean"],
    ),
}


def _relation(dataset):
    if dataset == "fixture":
        return Relation(_SCHEMA, _ROWS)
    if dataset == "q1":
        return generate_lineitem(
            num_tuples=20_000, num_nodes=4, seed=9
        ).as_relation()
    return Relation(_EDGE_SCHEMA, _EDGE_ROWS[dataset])


@pytest.mark.parametrize(
    "dataset, index", _CASES, ids=[f"{d}-{i}" for d, i in _CASES]
)
def test_a_relation_answers_as_the_operator_engine_did(dataset, index):
    result = run_sql(_STATEMENTS[dataset][index], _relation(dataset))
    assert (repr(result.rows), result.schema.names()) == (
        _ENGINE_ANSWERS[dataset][index]
    )


@pytest.mark.parametrize(
    "dataset, index", sorted(_RULE_ANSWERS),
    ids=[f"{d}-{i}" for d, i in sorted(_RULE_ANSWERS)],
)
def test_float_keys_answer_by_the_one_rule(dataset, index):
    result = run_sql(_STATEMENTS[dataset][index], _relation(dataset))
    assert (repr(result.rows), result.schema.names()) == (
        _RULE_ANSWERS[dataset, index]
    )


def test_a_relation_runs_on_mp_whatever_the_substrate():
    """A plain relation is one fragment of the executor: ``substrate``
    picks between the cluster and the pool only for a distributed one,
    and ``run_kwargs`` reach the executor."""
    sql = _STATEMENTS["fixture"][0]
    relation = Relation(_SCHEMA, _ROWS)
    want = run_sql(sql, relation).rows
    assert run_sql(sql, relation, substrate="mp").rows == want
    assert run_sql(sql, relation, processes=2).rows == want
    assert want == run_sql(
        sql, DistributedRelation(_SCHEMA, [_ROWS]), substrate="mp"
    )


_ROOT = pathlib.Path(__file__).resolve().parent.parent
_RETIRED_ENGINE = re.compile(
    r"repro\.engine|run_query|HashJoinOp|build_aggregate_plan"
)


def test_three_executors_not_four():
    """The Volcano operator engine is gone: a real query runs on the
    sequential reference, the simulated cluster or the mp executor."""
    with pytest.raises(ModuleNotFoundError):
        import repro.engine  # noqa: F401
    this = pathlib.Path(__file__).resolve()
    found = []
    for top in ("src", "examples", "benchmarks", "tests"):
        for path in sorted((_ROOT / top).rglob("*")):
            if (
                not path.is_file()
                or "__pycache__" in path.parts
                or path.resolve() == this
            ):
                continue
            for n, line in enumerate(path.read_text().splitlines(), 1):
                if _RETIRED_ENGINE.search(line):
                    found.append(f"{path.relative_to(_ROOT)}:{n}: {line}")
    assert found == []
