"""MetricsRegistry semantics and the simulator adapter."""

from __future__ import annotations

import json

import pytest

from repro.core.runner import run_algorithm
from repro.obs import MetricsRegistry
from repro.obs.metrics import Counter, Gauge, Histogram


class TestHandles:
    def test_counter_monotonic(self):
        c = Counter("c")
        c.inc()
        c.inc(3)
        assert c.value == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    @pytest.mark.parametrize(
        "mode,observations,expected",
        [
            ("last", (3.0, 1.0), 1.0),
            ("max", (3.0, 1.0), 3.0),
            ("min", (3.0, 1.0), 1.0),
            ("sum", (3.0, 1.0), 4.0),
        ],
    )
    def test_gauge_modes(self, mode, observations, expected):
        g = Gauge("g", mode=mode)
        for value in observations:
            g.set(value)
        assert g.value == expected

    def test_histogram_buckets(self):
        h = Histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            h.observe(value)
        assert h.counts == [1, 1, 1]  # one per bucket + overflow
        assert h.count == 3
        assert h.min == 0.5 and h.max == 50.0
        assert h.mean == pytest.approx(55.5 / 3)

    def test_registry_get_or_create_and_type_safety(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        reg.gauge("g", mode="max")
        with pytest.raises(ValueError):
            reg.gauge("g", mode="min")
        reg.histogram("h")
        with pytest.raises(TypeError):
            reg.value("h")


class TestMerge:
    def _sample(self, retries, rss, wall):
        reg = MetricsRegistry()
        reg.counter("retries").inc(retries)
        reg.gauge("rss", mode="max").set(rss)
        reg.histogram("wall").observe(wall)
        return reg

    def test_merge_folds_by_kind(self):
        a = self._sample(2, 100.0, 0.2)
        b = self._sample(3, 50.0, 2.0)
        a.merge(b)
        assert a.value("retries") == 5
        assert a.value("rss") == 100.0
        h = a.histogram("wall")
        assert h.count == 2 and h.min == 0.2 and h.max == 2.0

    def test_merge_is_order_insensitive(self):
        left = self._sample(2, 100.0, 0.2)
        left.merge(self._sample(3, 50.0, 2.0))
        right = self._sample(3, 50.0, 2.0)
        right.merge(self._sample(2, 100.0, 0.2))
        # max-gauges, counters and histograms all commute.
        assert left.snapshot() == right.snapshot()

    def test_unset_gauge_does_not_clobber(self):
        a = MetricsRegistry()
        a.gauge("g", mode="last").set(7.0)
        b = MetricsRegistry()
        b.gauge("g", mode="last")  # registered, never set
        a.merge(b)
        assert a.value("g") == 7.0

    def test_snapshot_is_json_and_sorted(self):
        reg = self._sample(1, 10.0, 0.5)
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        json.dumps(snap)  # must be serializable as-is


class TestClusterAdapter:
    def test_from_cluster_metrics(self, small_dist, sum_query):
        outcome = run_algorithm("two_phase", small_dist, sum_query)
        reg = MetricsRegistry.from_cluster_metrics(outcome.metrics)
        assert reg.value("sim.makespan_seconds") == pytest.approx(
            outcome.metrics.makespan
        )
        assert reg.value("sim.messages_sent") == outcome.metrics.total_messages
        busy = reg.histogram("sim.node_busy_seconds")
        assert busy.count == small_dist.num_nodes

