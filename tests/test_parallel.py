"""Tests for the reference executor and the multiprocessing executor."""

import pathlib
import re

import pytest

from repro.core.aggregates import AggregateSpec
from repro.core.query import AggregateQuery
from repro.parallel import multiprocessing_aggregate, reference_aggregate
from repro.storage.relation import Relation
from repro.storage.schema import Column, Schema
from repro.workloads.generator import generate_uniform

from tests.conftest import assert_rows_close


class TestReferenceAggregate:
    def test_simple_groupby(self):
        schema = Schema([Column("k", "int"), Column("v", "float")])
        rel = Relation(
            schema, [(1, 1.0), (1, 2.0), (2, 5.0)]
        )
        query = AggregateQuery(
            group_by=["k"],
            aggregates=[
                AggregateSpec("sum", "v"),
                AggregateSpec("count", None),
            ],
        )
        assert reference_aggregate(rel, query) == [
            (1, 3.0, 2),
            (2, 5.0, 1),
        ]

    def test_accepts_distributed(self, small_dist, sum_query):
        rows = reference_aggregate(small_dist, sum_query)
        assert len(rows) == 16

    def test_where(self):
        schema = Schema([Column("k", "int"), Column("v", "float")])
        rel = Relation(schema, [(1, 1.0), (1, 100.0)])
        query = AggregateQuery(
            group_by=["k"],
            aggregates=[AggregateSpec("count", None)],
            where=lambda r: r["v"] < 10,
        )
        assert reference_aggregate(rel, query) == [(1, 1)]

    def test_rejects_other_types(self, sum_query):
        with pytest.raises(TypeError):
            reference_aggregate([(1, 2)], sum_query)

    def test_sorted_output(self, small_dist, sum_query):
        rows = reference_aggregate(small_dist, sum_query)
        assert rows == sorted(rows)

    def test_empty_relation(self):
        schema = Schema([Column("k", "int"), Column("v", "float")])
        query = AggregateQuery(
            group_by=["k"], aggregates=[AggregateSpec("sum", "v")]
        )
        assert reference_aggregate(Relation(schema, []), query) == []


class TestMultiprocessingAggregate:
    def test_matches_reference_inprocess(self, full_query):
        dist = generate_uniform(3000, 50, 4, seed=0)
        got = multiprocessing_aggregate(dist, full_query, processes=1)
        assert_rows_close(got, reference_aggregate(dist, full_query))

    def test_matches_reference_with_pool(self, sum_query):
        dist = generate_uniform(2000, 30, 4, seed=1)
        got = multiprocessing_aggregate(dist, sum_query, processes=2)
        assert_rows_close(got, reference_aggregate(dist, sum_query))

    def test_default_sizing_runs(self, sum_query, small_dist):
        got = multiprocessing_aggregate(small_dist, sum_query)
        assert len(got) == 16

    def test_states_pickle_across_processes(self, full_query):
        """All six aggregate states must survive the pool boundary."""
        dist = generate_uniform(800, 10, 2, seed=2)
        got = multiprocessing_aggregate(dist, full_query, processes=2)
        assert_rows_close(got, reference_aggregate(dist, full_query))


def test_one_runner_and_one_real_executor():
    """CI's structural step runs this by name.  Where a run's jobs
    execute is decided in one place: under ``mp_executor/`` the shared
    pool is fetched by one caller and ``processes`` is compared against
    the in-process threshold on one line.  And the file-backed executor
    stays gone with its row codec, as do speculation, the heartbeat
    and quarantine parameters, and the service's retry, ladder, breaker
    and budget-pool knobs: nothing shipped names them."""
    repo = pathlib.Path(__file__).parent.parent
    package = repo / "src" / "repro" / "parallel" / "mp_executor"
    source = "\n".join(p.read_text() for p in sorted(package.glob("*.py")))
    fetches = re.findall(r"(?<!def )_get_shared_pool\(", source)
    assert len(fetches) == 1, fetches
    decisions = re.findall(r"\bprocesses\s*(?:[<>]=?|[=!]=)\s*[12]\b", source)
    assert len(decisions) == 1, decisions

    retired = re.compile(
        r"repro\.storage\.serialization|repro\.storage\.pagefile"
        r"|repro\.parallel\.file_executor"
        r"|speculat|heartbeat_interval=|heartbeat_timeout="
        r"|poison_threshold=|ChaosOptions"
        r"|RetryPolicy|memory_slice_bytes|policy_template"
        r"|max_query_retries=|retry_backoff_seconds=|reduced_load="
        r"|cache_only_load=|rebuild_backoff_seconds=|backoff_jitter="
    )
    for top in ("src", "examples", "benchmarks"):
        for path in (repo / top).rglob("*.py"):
            assert not retired.search(path.read_text()), path


_NAN, _INF = float("nan"), float("inf")


class TestNumericArguments:
    """Every numeric argument is checked once, at the entry point: a NaN
    compares false against every bound and would silently disable it,
    inf overflows the dispatch loop's waits (or, as a retry budget,
    never runs out), a float budget breaks the spill retries' halving,
    and a bool is not a count of anything."""

    @pytest.mark.parametrize("name,value", [
        *(
            (name, value)
            for name in ("timeout", "deadline")
            for value in (_NAN, _INF, -_INF, True, 0, -1.0, "1")
        ),
        *(
            ("memory_budget_bytes", value)
            for value in (_NAN, _INF, 1.5, 64.0, True, 0, -64, "64")
        ),
        *(
            (name, value)
            for name in ("processes", "max_retries")
            for value in (_NAN, _INF, 2.5, 2.0, True, -2, "2")
        ),
    ])
    def test_rejects_the_argument_by_name(
        self, name, value, small_dist, sum_query
    ):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            multiprocessing_aggregate(
                small_dist, sum_query, **{"processes": 1, name: value}
            )

    def test_accepts_finite_reals_and_integral_budgets(
        self, small_dist, sum_query
    ):
        import time

        import numpy as np

        want = multiprocessing_aggregate(small_dist, sum_query, 1)
        assert multiprocessing_aggregate(
            small_dist, sum_query, np.int64(1), max_retries=np.int32(0),
            timeout=30, deadline=time.monotonic() + np.float64(30.0),
            memory_budget_bytes=np.int64(1 << 20),
        ) == want
