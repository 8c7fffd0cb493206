"""Live serving telemetry: thread-safe metrics, quantiles, the query
log, the flight recorder, and Prometheus exposition.

The hammer tests pin the thread-safety contract the query service
relies on: concurrent ``inc``/``observe`` lose nothing, and every
``snapshot`` taken mid-storm is internally consistent (a histogram's
``count`` always equals ``sum(counts)``).
"""

import json
import threading

import pytest

from repro.obs.live import (
    FlightRecorder,
    QueryLog,
    fingerprint,
    query_record,
    to_prometheus,
    validate_prometheus,
)
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    quantile_from_buckets,
)
from repro.obs.schema import (
    CHROME_TRACE,
    QLOG_SCHEMA,
    validate,
    validate_file,
)
from repro.obs.tracer import Tracer


# -- quantile estimation ------------------------------------------------------


class TestQuantileFromBuckets:
    def test_empty_distribution_is_zero(self):
        assert quantile_from_buckets((0.1, 1.0), [0, 0, 0], 0.99) == 0.0

    def test_single_bucket(self):
        # Every observation landed in the first bucket: every quantile
        # reports that bucket's upper bound.
        assert quantile_from_buckets((0.1, 1.0), [7, 0, 0], 0.5) == 0.1
        assert quantile_from_buckets((0.1, 1.0), [7, 0, 0], 0.99) == 0.1

    def test_all_overflow(self):
        # Everything beyond the last bound: the observed max is the
        # only honest answer, falling back to the last finite bound.
        assert quantile_from_buckets(
            (0.1, 1.0), [0, 0, 9], 0.5, overflow_value=42.0
        ) == 42.0
        assert quantile_from_buckets((0.1, 1.0), [0, 0, 9], 0.5) == 1.0

    def test_typical_distribution(self):
        bounds = (0.01, 0.1, 1.0, 10.0)
        counts = [50, 30, 15, 4, 1]  # 100 observations, 1 overflow
        assert quantile_from_buckets(bounds, counts, 0.5) == 0.01
        assert quantile_from_buckets(bounds, counts, 0.8) == 0.1
        assert quantile_from_buckets(bounds, counts, 0.95) == 1.0
        assert quantile_from_buckets(bounds, counts, 0.99) == 10.0
        assert quantile_from_buckets(
            bounds, counts, 1.0, overflow_value=55.5
        ) == 55.5

    def test_q_zero_is_first_bucket_with_mass(self):
        assert quantile_from_buckets((1.0, 2.0), [0, 5, 0], 0.0) == 2.0

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            quantile_from_buckets((1.0,), [1, 0], 1.5)

    def test_histogram_quantile_uses_observed_max_for_overflow(self):
        h = Histogram("t", buckets=(1.0,))
        h.observe(500.0)
        assert h.quantile(0.99) == 500.0


# -- thread-safety hammers ----------------------------------------------------


def _hammer(target, threads=8):
    workers = [threading.Thread(target=target) for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()


class TestConcurrentMetrics:
    def test_counter_loses_no_increments(self):
        reg = MetricsRegistry()
        per_thread, threads = 5000, 8

        def work():
            counter = reg.counter("hits")
            for _ in range(per_thread):
                counter.inc()

        _hammer(work, threads)
        assert reg.value("hits") == per_thread * threads

    def test_histogram_consistent_under_concurrent_snapshots(self):
        reg = MetricsRegistry()
        per_thread, threads = 2000, 6
        stop = threading.Event()
        bad_snapshots = []

        def observe():
            h = reg.histogram("lat", buckets=(0.5, 1.5, 2.5))
            for i in range(per_thread):
                h.observe(i % 4)

        def snapshot_loop():
            while not stop.is_set():
                snap = reg.snapshot().get("lat")
                if snap is not None and snap["count"] != sum(snap["counts"]):
                    bad_snapshots.append(snap)

        watcher = threading.Thread(target=snapshot_loop)
        watcher.start()
        _hammer(observe, threads)
        stop.set()
        watcher.join()
        assert bad_snapshots == []
        final = reg.snapshot()["lat"]
        assert final["count"] == per_thread * threads
        assert sum(final["counts"]) == final["count"]
        assert final["total"] == sum(i % 4 for i in range(per_thread)) * threads

    def test_concurrent_merge_loses_nothing(self):
        target = MetricsRegistry()
        threads = 6

        def work():
            local = MetricsRegistry()
            local.counter("n").inc(100)
            h = local.histogram("d", buckets=(1.0, 2.0))
            for v in (0.5, 1.5, 9.0):
                h.observe(v)
            target.merge(local)

        _hammer(work, threads)
        assert target.value("n") == 100 * threads
        snap = target.snapshot()["d"]
        assert snap["count"] == 3 * threads
        assert snap["counts"] == [threads, threads, threads]
        assert snap["max"] == 9.0


# -- Prometheus exposition ----------------------------------------------------


class TestPrometheus:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("svc.admitted").inc(12)
        reg.gauge("svc.queue_depth").set(3)
        h = reg.histogram("svc.latency_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        return reg

    def test_round_trip_validates(self):
        text = to_prometheus(self._registry())
        assert validate_prometheus(text) == []

    def test_exposition_shape(self):
        lines = to_prometheus(self._registry()).splitlines()
        assert "# TYPE svc_admitted counter" in lines
        assert "svc_admitted 12" in lines
        assert "# TYPE svc_latency_seconds histogram" in lines
        # Cumulative buckets, then +Inf equal to the total count.
        assert 'svc_latency_seconds_bucket{le="0.1"} 1' in lines
        assert 'svc_latency_seconds_bucket{le="1"} 2' in lines
        assert 'svc_latency_seconds_bucket{le="+Inf"} 3' in lines
        assert "svc_latency_seconds_count 3" in lines

    def test_name_collision_gets_suffix(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc(1)
        reg.counter("a:b".replace(":", ".") + "_x")  # a.b_x, no clash
        reg.counter("a b").inc(2)  # sanitizes to a_b, colliding with a.b
        text = to_prometheus(reg)
        assert validate_prometheus(text) == []
        assert "# TYPE a_b counter" in text
        assert "# TYPE a_b_2 counter" in text

    def test_parser_rejects_duplicate_family(self):
        text = (
            "# TYPE x counter\nx 1\n"
            "# TYPE x counter\nx 2\n"
        )
        problems = validate_prometheus(text)
        assert any("duplicate" in p for p in problems)

    def test_parser_rejects_non_monotone_buckets(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 1\n'
            'h_bucket{le="0.5"} 2\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 2.0\nh_count 3\n"
        )
        problems = validate_prometheus(text)
        assert any("not strictly increasing" in p for p in problems)

    def test_parser_rejects_decreasing_cumulative_counts(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="2"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
            "h_sum 2.0\nh_count 5\n"
        )
        problems = validate_prometheus(text)
        assert any("decrease" in p for p in problems)

    def test_parser_rejects_inf_count_mismatch(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 1\n'
            'h_bucket{le="+Inf"} 2\n'
            "h_sum 2.0\nh_count 5\n"
        )
        problems = validate_prometheus(text)
        assert any("!= count" in p for p in problems)

    def test_parser_rejects_sample_without_type(self):
        problems = validate_prometheus("orphan 1\n")
        assert any("no preceding TYPE" in p for p in problems)


# -- query log ----------------------------------------------------------------


def _record(qid: int, **overrides) -> dict:
    record = query_record(
        query_id=qid,
        sql="SELECT gkey, SUM(val) FROM r GROUP BY gkey",
        outcome="served",
        queue_wait_seconds=0.001,
        elapsed_seconds=0.25,
        exec_seconds=0.2,
    )
    record.update(overrides)
    return record


class TestQueryLog:
    def test_records_reach_disk_and_validate(self, tmp_path):
        path = tmp_path / "qlog.jsonl"
        qlog = QueryLog(path)
        for i in range(5):
            assert qlog.record(_record(i))
        assert qlog.flush()
        qlog.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        for line in lines:
            assert validate(json.loads(line), QLOG_SCHEMA) == []
        # The CLI validator dispatches .jsonl lines on their schema key.
        assert validate_file(str(path)) == []

    def test_full_queue_drops_and_counts(self, tmp_path):
        qlog = QueryLog(tmp_path / "q.jsonl", capacity=2, autostart=False)
        assert qlog.record(_record(1))
        assert qlog.record(_record(2))
        assert not qlog.record(_record(3))
        assert not qlog.record(_record(4))
        assert qlog.dropped == 2
        qlog.close()  # drains the two queued records synchronously
        assert qlog.written == 2
        lines = (tmp_path / "q.jsonl").read_text().splitlines()
        assert [json.loads(l)["query_id"] for l in lines] == [1, 2]

    def test_closed_log_refuses_records(self, tmp_path):
        qlog = QueryLog(tmp_path / "q.jsonl")
        qlog.close()
        assert not qlog.record(_record(1))
        assert qlog.dropped == 1

    def test_concurrent_writers(self, tmp_path):
        path = tmp_path / "q.jsonl"
        qlog = QueryLog(path, capacity=10_000)
        per_thread, threads = 200, 8

        def work():
            for i in range(per_thread):
                qlog.record(_record(i))

        _hammer(work, threads)
        assert qlog.flush(timeout=10.0)
        qlog.close()
        lines = path.read_text().splitlines()
        assert len(lines) == per_thread * threads
        assert qlog.dropped == 0
        for line in lines:  # no torn/interleaved writes
            assert json.loads(line)["schema"] == QLOG_SCHEMA

    def test_rejects_bad_capacity(self, tmp_path):
        with pytest.raises(ValueError):
            QueryLog(tmp_path / "q.jsonl", capacity=0)


class TestQlogSchema:
    def test_valid_record(self):
        assert validate(_record(7), QLOG_SCHEMA) == []

    def test_shed_record_with_reason(self):
        record = _record(8, outcome="shed", exec_seconds=None,
                         reason="queue_full")
        assert validate(record, QLOG_SCHEMA) == []

    def test_rejects_bad_outcome_and_missing_fields(self):
        assert validate({"schema": QLOG_SCHEMA}, QLOG_SCHEMA)
        record = _record(9, outcome="exploded")
        assert any("outcome" in p for p in validate(record, QLOG_SCHEMA))
        record = _record(10, queue_wait_seconds=-1)
        assert any(
            "queue_wait" in p for p in validate(record, QLOG_SCHEMA)
        )
        assert validate([], QLOG_SCHEMA) == ["top level must be an object"]


# -- flight recorder ----------------------------------------------------------


def _traced():
    tracer = Tracer(operator_spans=False)
    span = tracer.begin("query", t=0.0, cat="service")
    tracer.end(span, 0.5)
    return tracer


class TestFlightRecorder:
    def test_ring_is_bounded_newest_first(self):
        recorder = FlightRecorder(entries=3)
        for i in range(6):
            recorder.note(_record(i))
        assert [r["query_id"] for r in recorder.queries()] == [5, 4, 3]
        assert [r["query_id"] for r in recorder.queries(limit=2)] == [5, 4]

    def test_slow_query_captures_valid_trace(self):
        recorder = FlightRecorder(slow_threshold_seconds=0.0)
        assert recorder.note(_record(1), tracer=_traced())
        trace = recorder.trace(1)
        assert trace is not None
        assert validate(trace, CHROME_TRACE) == []

    def test_fast_query_is_not_traced(self):
        recorder = FlightRecorder(slow_threshold_seconds=10.0)
        assert not recorder.note(_record(1), tracer=_traced())
        assert recorder.trace(1) is None

    def test_empty_tracer_is_not_captured(self):
        recorder = FlightRecorder(slow_threshold_seconds=0.0)
        assert not recorder.note(
            _record(1), tracer=Tracer(operator_spans=False)
        )

    def test_none_threshold_disables_capture(self):
        recorder = FlightRecorder(slow_threshold_seconds=None)
        assert not recorder.note(_record(1), tracer=_traced())

    def test_trace_map_is_bounded(self):
        recorder = FlightRecorder(trace_entries=2,
                                  slow_threshold_seconds=0.0)
        for i in range(4):
            recorder.note(_record(i), tracer=_traced())
        assert recorder.trace_ids() == [2, 3]
        assert recorder.trace(0) is None
        assert recorder.trace(3) is not None

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            FlightRecorder(entries=0)
        with pytest.raises(ValueError):
            FlightRecorder(trace_entries=-1)
        with pytest.raises(ValueError):
            FlightRecorder(slow_threshold_seconds=-0.5)


# -- fingerprint --------------------------------------------------------------


class TestFingerprint:
    def test_normalizes_case_and_whitespace(self):
        a = fingerprint("SELECT gkey, SUM(val)  FROM r\n GROUP BY gkey")
        b = fingerprint("select gkey, sum(val) from r group by gkey")
        assert a == b
        assert len(a) == 12

    def test_distinct_sql_distinct_fingerprint(self):
        assert fingerprint("SELECT a FROM r") != fingerprint(
            "SELECT b FROM r"
        )
