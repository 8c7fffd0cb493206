"""Behavioral tests for streaming pre-aggregation (the modern extension)."""

import pytest

from repro.core.aggregates import AggregateSpec, make_state_factory
from repro.core.algorithms.streaming_pre_aggregation import (
    LruAggregationTable,
)
from repro.core.runner import default_parameters, run_algorithm
from repro.parallel import reference_aggregate
from repro.workloads.generator import generate_uniform, generate_zipf

from tests.conftest import assert_rows_close

SPECS = [AggregateSpec("sum", "v"), AggregateSpec("count", None)]


def make_table(max_entries):
    return LruAggregationTable(max_entries, make_state_factory(SPECS))


class TestLruTable:
    def test_no_eviction_below_capacity(self):
        t = make_table(4)
        for i in range(4):
            assert t.add_values(i, (1.0, 1)) is None
        assert t.evictions == 0

    def test_evicts_least_recently_used(self):
        t = make_table(2)
        t.add_values("a", (1.0, 1))
        t.add_values("b", (1.0, 1))
        t.add_values("a", (1.0, 1))  # refresh a
        evicted = t.add_values("c", (1.0, 1))
        assert evicted[0] == "b"

    def test_evicted_state_carries_partial(self):
        t = make_table(1)
        t.add_values("a", (2.0, 1))
        t.add_values("a", (3.0, 1))
        evicted = t.add_values("b", (1.0, 1))
        assert evicted[0] == "a"
        assert evicted[1].results() == (5.0, 2)

    def test_hit_counting(self):
        t = make_table(2)
        t.add_values("a", (1.0, 1))
        t.add_values("a", (1.0, 1))
        t.add_values("a", (1.0, 1))
        assert t.hits == 2

    def test_drain(self):
        t = make_table(3)
        t.add_values("a", (1.0, 1))
        t.add_values("b", (1.0, 1))
        items = t.drain()
        assert sorted(k for k, _ in items) == ["a", "b"]
        assert len(t) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            make_table(0)


class TestStreamingAlgorithm:
    def test_no_evictions_when_memory_suffices(self, sum_query):
        dist = generate_uniform(4000, 16, 4, seed=0)
        params = default_parameters(dist, hash_table_entries=100)
        out = run_algorithm(
            "streaming_pre_aggregation", dist, sum_query, params=params
        )
        assert not out.ledger.events_of("evictions")

    def test_evictions_logged_under_pressure(self, sum_query):
        dist = generate_uniform(4000, 800, 4, seed=1)
        params = default_parameters(dist, hash_table_entries=50)
        out = run_algorithm(
            "streaming_pre_aggregation", dist, sum_query, params=params
        )
        events = out.ledger.events_of("evictions")
        assert len(events) == 4  # every node under pressure

    def test_correct_under_heavy_eviction(self, sum_query):
        dist = generate_uniform(4000, 1500, 4, seed=2)
        params = default_parameters(dist, hash_table_entries=8)
        out = run_algorithm(
            "streaming_pre_aggregation", dist, sum_query, params=params
        )
        assert_rows_close(out.rows, reference_aggregate(dist, sum_query))

    def test_memory_never_exceeds_allocation(self, sum_query):
        dist = generate_uniform(4000, 1500, 4, seed=3)
        m = 32
        params = default_parameters(dist, hash_table_entries=m)
        out = run_algorithm(
            "streaming_pre_aggregation", dist, sum_query, params=params
        )
        local_peaks = [n.peak_table_entries for n in out.metrics.nodes]
        # The merge phase may hold more (its own allocation); local
        # recording happens before drain, so peaks reflect the LRU cap.
        assert all(p <= max(m, 1500 // 4 * 2) for p in local_peaks)

    def test_zipf_hot_groups_absorb_locally(self, sum_query):
        """The modern engine's advantage: on Zipf data the hit rate
        stays high even when distinct >> M, so far fewer partials cross
        the network than tuples entered."""
        dist = generate_zipf(16_000, 4000, 4, alpha=1.4, seed=4)
        params = default_parameters(dist, hash_table_entries=64)
        out = run_algorithm(
            "streaming_pre_aggregation", dist, sum_query, params=params
        )
        assert_rows_close(out.rows, reference_aggregate(dist, sum_query))
        events = out.ledger.events_of("evictions")
        total_hits = sum(e.data["hits"] for e in events)
        # A meaningful fraction of tuples collapsed into resident groups.
        assert total_hits > 0.3 * len(dist)

    def test_beats_a2p_on_zipf_network_bytes(self, sum_query):
        """vs A-2P: after A-2P switches it forwards every remaining tuple
        raw; eviction keeps absorbing the heavy hitters."""
        dist = generate_zipf(16_000, 4000, 4, alpha=1.4, seed=5)
        params = default_parameters(dist, hash_table_entries=64)
        stream = run_algorithm(
            "streaming_pre_aggregation", dist, sum_query, params=params
        )
        a2p = run_algorithm(
            "adaptive_two_phase", dist, sum_query, params=params
        )
        assert (
            stream.metrics.total_bytes_sent < a2p.metrics.total_bytes_sent
        )
