"""Spill equivalence: any byte budget yields the ungoverned answer.

The whole point of the degradation ladder is that memory pressure only
changes *how* an algorithm computes — stalls, spills, switches — never
*what* it computes.  These tests pin that property: every algorithm, run
under budgets from generous down to the minimum viable, produces the
same rows as the unbounded run (modulo float summation order, the same
tolerance the rest of the suite uses).
"""

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import assert_rows_close, rows_close

from repro.core.aggregates import AggregateSpec
from repro.core.query import AggregateQuery
from repro.core.runner import ALGORITHMS, run_algorithm
from repro.resources import MemoryPolicy
from repro.workloads.generator import generate_uniform, generate_zipf

NUM_NODES = 4
NUM_TUPLES = 2400
NUM_GROUPS = 300


@pytest.fixture(scope="module")
def dist():
    return generate_uniform(
        num_tuples=NUM_TUPLES, num_groups=NUM_GROUPS,
        num_nodes=NUM_NODES, seed=17,
    )


@pytest.fixture(scope="module")
def query():
    return AggregateQuery(
        group_by=["gkey"], aggregates=[AggregateSpec("sum", "val")]
    )


@pytest.fixture(scope="module")
def baseline(dist, query):
    return {
        alg: run_algorithm(alg, dist, query).rows for alg in ALGORITHMS
    }


def working_set_bytes(dist, query) -> int:
    """Rough per-node working set: every group resident as a partial."""
    bq = query.bind(dist.schema)
    return NUM_GROUPS * (bq.projected_bytes + 8)


class TestTenPercentBudget:
    """The acceptance bar: exact answers at 10% of the working set."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_exact_at_ten_percent(self, algorithm, dist, query, baseline):
        budget = max(1, working_set_bytes(dist, query) // 10)
        out = run_algorithm(
            algorithm, dist, query,
            memory=MemoryPolicy(node_budget_bytes=budget),
        )
        assert_rows_close(out.rows, baseline[algorithm])

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_exact_at_minimum_viable_budget(
        self, algorithm, dist, query, baseline
    ):
        """One byte of budget: everything runs on the ladder's floor."""
        out = run_algorithm(
            algorithm, dist, query,
            memory=MemoryPolicy(node_budget_bytes=1),
        )
        assert_rows_close(out.rows, baseline[algorithm])

    def test_pressure_was_real(self, dist, query):
        """The 10% runs must actually exercise the ladder, not skate by."""
        budget = max(1, working_set_bytes(dist, query) // 10)
        out = run_algorithm(
            "two_phase", dist, query,
            memory=MemoryPolicy(node_budget_bytes=budget),
        )
        assert out.metrics.mem_ladder_rungs
        assert out.metrics.max_mem_high_water_bytes > 0


class TestGovernorOff:
    def test_none_policy_is_bit_identical(self, dist, query, baseline):
        for algorithm in ALGORITHMS:
            out = run_algorithm(algorithm, dist, query, memory=None)
            assert out.rows == baseline[algorithm]

    def test_ungoverned_metrics_stay_zero(self, dist, query):
        out = run_algorithm("repartitioning", dist, query)
        m = out.metrics
        assert m.total_mem_spill_bytes == 0
        assert m.total_mem_stall_seconds == 0.0
        assert m.max_mem_high_water_bytes == 0
        assert m.mem_ladder_rungs == {}


class TestSkewedData:
    def test_zipf_exact_under_pressure(self, query):
        zipf = generate_zipf(
            num_tuples=2000, num_groups=250, num_nodes=NUM_NODES,
            alpha=1.1, seed=23,
        )
        expected = run_algorithm("streaming_pre_aggregation", zipf,
                                 query).rows
        out = run_algorithm(
            "streaming_pre_aggregation", zipf, query,
            memory=MemoryPolicy(node_budget_bytes=1200),
        )
        assert_rows_close(out.rows, expected)


class TestBackpressureIsCharged:
    def test_mailbox_pressure_stalls_producers(self, dist, query,
                                               baseline):
        """Rung 1 must cost simulated time, not just count events."""
        base = run_algorithm("repartitioning", dist, query)
        out = run_algorithm(
            "repartitioning", dist, query,
            memory=MemoryPolicy(
                node_budget_bytes=10**9, mailbox_budget_bytes=512
            ),
        )
        assert_rows_close(out.rows, baseline["repartitioning"])
        assert out.metrics.total_mem_stall_seconds > 0
        assert out.metrics.mem_ladder_rungs.get("backpressure", 0) > 0
        assert out.elapsed_seconds > base.elapsed_seconds


class TestBudgetProperty:
    @given(
        fraction=st.floats(min_value=0.02, max_value=1.0),
        algorithm=st.sampled_from(
            ["two_phase", "repartitioning", "adaptive_two_phase",
             "adaptive_repartitioning"]
        ),
    )
    @settings(max_examples=12, deadline=None)
    def test_any_budget_fraction_is_exact(
        self, fraction, algorithm, dist, query, baseline
    ):
        budget = max(1, int(working_set_bytes(dist, query) * fraction))
        out = run_algorithm(
            algorithm, dist, query,
            memory=MemoryPolicy(node_budget_bytes=budget),
        )
        assert rows_close(out.rows, baseline[algorithm])
