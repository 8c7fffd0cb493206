"""The query service: admission, ladder, retry, caches, drain, HTTP.

Unit halves exercise each service component in isolation (no worker
pool); the integration halves drive :class:`QueryService` and the HTTP
front end over the *real* persistent pool, including a concurrent storm
under an injected :class:`FaultPlan`, and pin the service's hygiene
contract: after drain there are zero child processes and zero
``/dev/shm/repro_mp_*`` segments.
"""

import http.client
import json
import multiprocessing
import os
import pickle
import random
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from tests.conftest import (
    assert_rows_close,
    resident_counts,
    shm_segments,
    table_at_rest,
    table_segments,
)

from repro.obs.decisions import (
    ADMISSION_SHED,
    CACHE_SERVE,
    DEADLINE_MISS,
    QUERY_RETRY,
    DecisionLedger,
)
from repro.obs.live import validate_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import CHROME_TRACE, QLOG_SCHEMA, validate
from repro.parallel import reference_aggregate
from repro.parallel.mp_executor import (
    FragmentFailedError,
    WorkerPool,
    reset_pool_breaker,
    shutdown_worker_pool,
)
from repro.parallel.mp_executor.faults import CrashFault, FaultPlan
from repro.parallel.mp_executor.wire import _ARENA_PREFIX
from repro.resources import MemoryBudgetPool
from repro.service import (
    AdmissionController,
    Deadline,
    DeadlineMissError,
    DrainingError,
    OverloadLadder,
    PlanCache,
    QueryFailedError,
    QueryService,
    ResultCache,
    ServiceConfig,
    ShedError,
    SVC_CACHE_ONLY,
    SVC_FULL,
    SVC_REDUCED,
    SVC_SHED,
)
from repro.service.http import create_server
from repro.sql.parser import parse_query
from repro.workloads.generator import generate_uniform


needs_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="POSIX shared memory not mounted"
)


# -- components in isolation (no pool) ----------------------------------------


class TestDeadline:
    def test_no_limit(self):
        d = Deadline(None)
        assert d.absolute() is None
        assert d.remaining() is None
        assert not d.expired()
        assert d.clamp_sleep(5.0) == 5.0

    def test_expiry_and_clamp(self):
        d = Deadline(0.01)
        assert d.remaining() <= 0.01
        time.sleep(0.02)
        assert d.expired()
        assert d.remaining() == 0.0
        assert d.clamp_sleep(1.0) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Deadline(0.0)

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"),
                                         float("-inf")])
    def test_rejects_non_finite(self, timeout):
        # NaN would never expire (every comparison is false) and report
        # 0.0 remaining; infinity is what None already means.
        with pytest.raises(ValueError):
            Deadline(timeout)


class TestAdmissionController:
    def _controller(self, **overrides):
        config = ServiceConfig(**{
            "max_concurrency": 1, "queue_depth": 0,
            "memory_pool_bytes": 1 << 20, **overrides,
        })
        return AdmissionController(
            config, MemoryBudgetPool(config.memory_pool_bytes)
        )

    def test_admit_and_release(self):
        ctrl = self._controller()
        slot = ctrl.admit(Deadline(None))
        assert ctrl.counts() == (1, 0)
        assert ctrl.load() == 1.0
        slot.release()
        assert ctrl.counts() == (0, 0)
        slot.release()  # idempotent

    def test_queue_full_sheds(self):
        ctrl = self._controller()
        with ctrl.admit(Deadline(None)):
            with pytest.raises(ShedError) as info:
                ctrl.admit(Deadline(None))
            assert info.value.reason == "queue_full"
            assert info.value.http_status == 429

    def test_queued_waiter_gets_slot_on_release(self):
        ctrl = self._controller(queue_depth=1)
        first = ctrl.admit(Deadline(None))
        got = []

        def waiter():
            with ctrl.admit(Deadline(5.0)):
                got.append(True)

        t = threading.Thread(target=waiter)
        t.start()
        while ctrl.counts()[1] == 0:  # wait until actually queued
            time.sleep(0.005)
        first.release()
        t.join(timeout=5)
        assert got == [True]

    def test_deadline_expires_while_queued(self):
        ctrl = self._controller(queue_depth=1)
        with ctrl.admit(Deadline(None)):
            with pytest.raises(DeadlineMissError):
                ctrl.admit(Deadline(0.05))

    def test_draining_refuses_immediately(self):
        ctrl = self._controller()
        ctrl.start_drain()
        with pytest.raises(DrainingError) as info:
            ctrl.admit(Deadline(None))
        assert info.value.http_status == 503

    def test_drain_wakes_queued_waiters(self):
        ctrl = self._controller(queue_depth=1)
        slot = ctrl.admit(Deadline(None))
        errors = []

        def waiter():
            try:
                ctrl.admit(Deadline(None))
            except DrainingError as exc:
                errors.append(exc)

        t = threading.Thread(target=waiter)
        t.start()
        while ctrl.counts()[1] == 0:
            time.sleep(0.005)
        ctrl.start_drain()
        t.join(timeout=5)
        assert len(errors) == 1
        slot.release()
        assert ctrl.wait_idle(1.0)

    def test_memory_exhaustion_sheds_and_frees_slot(self):
        config = ServiceConfig(
            max_concurrency=2, queue_depth=0,
            memory_pool_bytes=64 * 1024,
        )
        ctrl = AdmissionController(config, MemoryBudgetPool(64 * 1024))
        first = ctrl.admit(Deadline(None))  # leases the whole pool
        with pytest.raises(ShedError) as info:
            ctrl.admit(Deadline(None))
        assert info.value.reason == "memory_exhausted"
        assert ctrl.counts() == (1, 0), "failed admit must free its slot"
        first.release()
        with ctrl.admit(Deadline(None)):
            pass


class TestOverloadLadder:
    def test_rung_boundaries(self):
        ladder = OverloadLadder()
        assert ladder.rung_for(0.0) == SVC_FULL
        assert ladder.rung_for(0.49) == SVC_FULL
        assert ladder.rung_for(0.5) == SVC_REDUCED
        assert ladder.rung_for(0.85) == SVC_CACHE_ONLY
        assert ladder.rung_for(1.0) == SVC_SHED

    def test_observe_reports_transitions_only(self):
        ladder = OverloadLadder()
        assert ladder.observe(0.1) == (SVC_FULL, None)
        rung, previous = ladder.observe(0.6)
        assert (rung, previous) == (SVC_REDUCED, SVC_FULL)
        assert ladder.observe(0.6) == (SVC_REDUCED, None)
        assert ladder.transitions == 1
        assert ladder.code() == 1


def _failing_once(cause_type):
    """A ``run_sql`` stand-in whose first call fails with ``cause_type``."""
    calls = []

    def run(sql, relation, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise FragmentFailedError(0, 1, "x", {}, cause_type=cause_type)
        return [(0, 1.0, 2)]

    return run, calls


class TestRetryPolicy:
    """Which executor failures the service retries (the backoff formula
    is the breaker's, pinned in ``TestBreakerBackoffAndState``)."""

    @pytest.fixture(autouse=True)
    def no_backoff(self, monkeypatch):
        monkeypatch.setattr("repro.service.core.RETRY_BACKOFF_SECONDS", 0.0)

    def test_infra_causes_are_retryable(self, monkeypatch):
        for cause in ("WorkerDied", "HeartbeatLost", "PoisonFragment"):
            run, calls = _failing_once(cause)
            monkeypatch.setattr("repro.service.core.run_sql", run)
            assert _service().submit(SQL).retries == 1, cause
            assert len(calls) == 2

    def test_user_errors_are_not(self, monkeypatch):
        for cause in ("KeyError", "ParseError", None):
            run, calls = _failing_once(cause)
            monkeypatch.setattr("repro.service.core.run_sql", run)
            with pytest.raises(QueryFailedError) as info:
                _service().submit(SQL)
            assert info.value.retries == 0, cause
            assert len(calls) == 1


class TestCaches:
    def test_lru_evicts_oldest(self):
        cache = ResultCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)           # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.hits == 3 and cache.misses == 1

    def test_plan_cache_memoizes_parse(self):
        cache = PlanCache(8)
        sql = "SELECT gkey, SUM(val) FROM r GROUP BY gkey"
        table, query = cache.parse(sql)
        assert table == "r"
        assert cache.parse(sql) == (table, query)
        assert cache.hits == 1

    def test_result_key_includes_data_version(self):
        sql = "SELECT gkey, SUM(val) FROM r GROUP BY gkey"
        k1 = ResultCache.key("r", 1, sql)
        k2 = ResultCache.key("r", 2, sql)
        assert k1 != k2


class TestServiceConfig:
    def test_slice_bytes_default_divides_pool(self):
        config = ServiceConfig(max_concurrency=4,
                               memory_pool_bytes=4 << 20)
        assert config.slice_bytes == 1 << 20

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_concurrency=0)
        with pytest.raises(ValueError):
            ServiceConfig(strategy="turbo")
        with pytest.raises(ValueError, match="pool/global/rep/auto"):
            ServiceConfig(strategy="spawn")
        with pytest.raises(ValueError):
            ServiceConfig(slow_trace_threshold_seconds=-1.0)
        # NaN compares false against every bound and inf is what None
        # already means; a bool or a fraction is not a count.
        for name, value in [
            ("default_timeout_seconds", float("nan")),
            ("default_timeout_seconds", float("inf")),
            ("default_timeout_seconds", 0.0),
            ("slow_trace_threshold_seconds", float("nan")),
            ("slow_trace_threshold_seconds", float("inf")),
            ("max_concurrency", True),
            ("max_concurrency", 2.5),
            ("queue_depth", True),
            ("queue_depth", 2.5),
            ("processes", True),
            ("processes", 2.5),
            ("memory_pool_bytes", True),
            ("memory_pool_bytes", 2.5),
        ]:
            with pytest.raises(ValueError, match=name):
                ServiceConfig(**{name: value})
        # None is "no bound"; a zero threshold traces every query.
        ServiceConfig(default_timeout_seconds=None,
                      slow_trace_threshold_seconds=None)
        ServiceConfig(slow_trace_threshold_seconds=0)


# -- QueryService with the executor faked (fast, no pool) ---------------------


def _tiny_dist():
    return generate_uniform(num_tuples=240, num_groups=6,
                            num_nodes=2, seed=5)


SQL = "SELECT gkey, SUM(val), COUNT(*) FROM r GROUP BY gkey"


def _service(**overrides) -> QueryService:
    defaults = {"max_concurrency": 2, "queue_depth": 2, "processes": 2}
    defaults.update(overrides)
    service = QueryService(
        ServiceConfig(**defaults),
        metrics=MetricsRegistry(),
        ledger=DecisionLedger(),
    )
    service.register_table("r", _tiny_dist())
    return service


class TestQueryServiceFakedExecutor:
    """Retry/failure classification via a monkeypatched ``run_sql``."""

    def test_infra_failure_is_retried(self, monkeypatch):
        service = _service()
        calls = []

        def flaky(sql, relation, **kwargs):
            calls.append(kwargs)
            if len(calls) == 1:
                raise FragmentFailedError(
                    0, 1, "worker died", {}, cause_type="WorkerDied"
                )
            return [(0, 1.0, 2)]

        monkeypatch.setattr("repro.service.core.run_sql", flaky)
        outcome = service.submit(SQL)
        assert outcome.rows == [(0, 1.0, 2)]
        assert outcome.retries == 1
        assert len(calls) == 2
        assert service.metrics.counter("svc.retries").value == 1
        assert len(service.ledger.events_of(QUERY_RETRY)) == 1

    def test_retries_exhaust_into_query_failed(self, monkeypatch):
        monkeypatch.setattr("repro.service.core.MAX_QUERY_RETRIES", 1)
        monkeypatch.setattr("repro.service.core.RETRY_BACKOFF_SECONDS", 0.001)
        service = _service()

        def always_dies(sql, relation, **kwargs):
            raise FragmentFailedError(
                0, 1, "worker died", {}, cause_type="WorkerDied"
            )

        monkeypatch.setattr("repro.service.core.run_sql", always_dies)
        with pytest.raises(QueryFailedError) as info:
            service.submit(SQL)
        assert info.value.cause_type == "WorkerDied"
        assert info.value.retries == 1

    def test_user_error_is_never_retried(self, monkeypatch):
        service = _service()
        calls = []

        def bad_phase(sql, relation, **kwargs):
            calls.append(1)
            raise FragmentFailedError(
                0, 1, "KeyError: 'nope'", {}, cause_type="KeyError"
            )

        monkeypatch.setattr("repro.service.core.run_sql", bad_phase)
        with pytest.raises(QueryFailedError) as info:
            service.submit(SQL)
        assert len(calls) == 1
        assert info.value.retries == 0

    def test_parse_error_is_typed(self):
        service = _service()
        with pytest.raises(QueryFailedError) as info:
            service.submit("SELEKT nope")
        assert info.value.cause_type == "ParseError"
        assert service.metrics.counter("svc.failed").value == 1

    def test_lex_error_is_typed(self):
        # LexError is a sibling of ParseError, not a subclass; a query
        # with an unlexable character must still map to query_failed
        # instead of escaping the service as an unhandled exception.
        service = _service()
        with pytest.raises(QueryFailedError) as info:
            service.submit("SELECT gkey FROM r GROUP BY gkey -- nope")
        assert info.value.cause_type == "LexError"
        assert service.metrics.counter("svc.failed").value == 1

    def test_unknown_table_is_typed(self):
        service = _service()
        with pytest.raises(QueryFailedError) as info:
            service.submit("SELECT k, SUM(v) FROM missing GROUP BY k")
        assert info.value.cause_type == "UnknownTable"

    def test_cache_hit_skips_executor(self, monkeypatch):
        service = _service()
        calls = []

        def run_once(sql, relation, **kwargs):
            calls.append(1)
            return [(1, 2.0, 3)]

        monkeypatch.setattr("repro.service.core.run_sql", run_once)
        first = service.submit(SQL)
        second = service.submit(SQL)
        assert len(calls) == 1
        assert not first.cache_hit and second.cache_hit
        assert second.rows == first.rows
        assert len(service.ledger.events_of(CACHE_SERVE)) == 1

    def test_bump_table_invalidates_cached_results(self, monkeypatch):
        service = _service()
        calls = []

        def run(sql, relation, **kwargs):
            calls.append(1)
            return [(len(calls),)]

        monkeypatch.setattr("repro.service.core.run_sql", run)
        assert service.submit(SQL).rows == [(1,)]
        service.bump_table("r")
        outcome = service.submit(SQL)
        assert outcome.rows == [(2,)] and not outcome.cache_hit

    def test_cache_only_rung_sheds_misses_serves_hits(self, monkeypatch):
        service = _service()
        monkeypatch.setattr(
            "repro.service.core.run_sql",
            lambda *a, **k: [(9, 9.0, 9)],
        )
        service.submit(SQL)  # populate the cache at rung FULL
        # Force the ladder's view of load into the cache-only band.
        monkeypatch.setattr(service.admission, "load", lambda: 0.9)
        hit = service.submit(SQL)
        assert hit.cache_hit and hit.rung == SVC_CACHE_ONLY
        with pytest.raises(ShedError) as info:
            service.submit(
                "SELECT gkey, COUNT(*) FROM r GROUP BY gkey"
            )
        assert info.value.reason == "overload"
        assert len(service.ledger.events_of(ADMISSION_SHED)) == 1

    def test_shed_is_counted_and_ledgered(self, monkeypatch):
        service = _service(max_concurrency=1, queue_depth=0)
        monkeypatch.setattr(
            service.admission, "admit",
            lambda deadline: (_ for _ in ()).throw(ShedError("queue_full")),
        )
        with pytest.raises(ShedError):
            service.submit(SQL)
        assert service.metrics.counter("svc.shed").value == 1
        events = service.ledger.events_of(ADMISSION_SHED)
        assert events and events[0].data["reason"] == "queue_full"

    def test_deadline_miss_from_executor(self, monkeypatch):
        from repro.parallel.mp_executor import DeadlineExceededError
        service = _service()

        def too_slow(sql, relation, **kwargs):
            raise DeadlineExceededError(0.5, 1, 4)

        monkeypatch.setattr("repro.service.core.run_sql", too_slow)
        with pytest.raises(DeadlineMissError):
            service.submit(SQL, timeout_seconds=0.5)
        assert service.metrics.counter("svc.deadline_misses").value == 1
        assert len(service.ledger.events_of(DEADLINE_MISS)) == 1

    def test_status_shape(self):
        service = _service()
        status = service.status()
        assert status["status"] == "ok"
        assert status["tables"] == ["r"]
        assert status["breaker"] in ("closed", "half_open", "open")
        assert status["running"] == 0 and status["queued"] == 0

    def test_submit_after_drain_is_refused(self, monkeypatch):
        service = _service()
        monkeypatch.setattr(
            "repro.service.core.run_sql", lambda *a, **k: [(1,)]
        )
        assert service.drain(timeout_seconds=1.0)
        with pytest.raises(DrainingError):
            service.submit(SQL)
        assert service.status()["status"] == "draining"


# -- QueryService over the real pool ------------------------------------------


@pytest.fixture
def clean_pool():
    reset_pool_breaker()
    shutdown_worker_pool()
    assert shm_segments() == []
    yield
    shutdown_worker_pool()
    assert shm_segments() == [], "service leaked shared-memory segments"
    assert multiprocessing.active_children() == []


@needs_shm
class TestQueryServicePool:
    def test_submit_matches_reference(self, clean_pool):
        dist = generate_uniform(num_tuples=1200, num_groups=30,
                                num_nodes=4, seed=7)
        service = QueryService(ServiceConfig(processes=2))
        service.register_table("r", dist)
        try:
            outcome = service.submit(SQL, timeout_seconds=60.0)
            _table, query = parse_query(SQL)
            assert_rows_close(outcome.rows,
                              reference_aggregate(dist, query))
            assert service.metrics.counter("svc.admitted").value == 1
            again = service.submit(SQL, timeout_seconds=60.0)
            assert again.cache_hit
            assert_rows_close(again.rows, outcome.rows)
        finally:
            assert service.drain()

    def test_tiny_deadline_misses_cleanly(self, clean_pool):
        dist = generate_uniform(num_tuples=1200, num_groups=30,
                                num_nodes=4, seed=9)
        service = QueryService(ServiceConfig(processes=2))
        service.register_table("r", dist)
        try:
            with pytest.raises(DeadlineMissError) as info:
                service.submit(SQL, timeout_seconds=1e-4)
            assert info.value.http_status == 504
            assert service.metrics.counter(
                "svc.deadline_misses"
            ).value == 1
        finally:
            assert service.drain()

    def test_concurrent_storm_with_faults(self, clean_pool):
        """Many threads, injected worker kills: every success is
        correct, every refusal is typed, and drain leaves nothing."""
        dist = generate_uniform(num_tuples=1600, num_groups=40,
                                num_nodes=4, seed=13)
        plan = FaultPlan(seed=11, crashes=(CrashFault(1),))
        service = QueryService(ServiceConfig(
            max_concurrency=3, queue_depth=4, processes=2,
            default_timeout_seconds=120.0, faults=plan,
        ))
        service.register_table("r", dist)
        queries = [
            SQL,
            "SELECT gkey, COUNT(*) FROM r GROUP BY gkey",
            "SELECT gkey, AVG(val) FROM r GROUP BY gkey",
        ]
        expected = {
            sql: reference_aggregate(dist, parse_query(sql)[1])
            for sql in queries
        }
        outcomes: list = []
        failures: list = []

        def client(i: int) -> None:
            sql = queries[i % len(queries)]
            try:
                outcomes.append((sql, service.submit(sql)))
            except (ShedError, DeadlineMissError) as exc:
                outcomes.append((sql, exc))  # typed refusals are fine
            except Exception as exc:  # noqa: BLE001 - the test's point
                failures.append((sql, exc))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180)
        try:
            assert failures == []
            assert len(outcomes) == 6
            served = [
                (sql, o) for sql, o in outcomes
                if not isinstance(o, Exception)
            ]
            assert served, "storm served nothing at all"
            for sql, outcome in served:
                assert_rows_close(outcome.rows, expected[sql])
            assert service.metrics.counter(
                "svc.admitted"
            ).value >= len(served)
        finally:
            assert service.drain()


@needs_shm
class TestResidentSegments:
    """The service tells the executor when a table's data changes, and
    the executor's resident segments leave with it."""

    @staticmethod
    def _outcomes(service, outcome: str) -> int:
        return resident_counts(service.metrics).get(outcome, 0)

    def test_second_miss_hits_and_a_bump_releases(self, clean_pool):
        dist = generate_uniform(num_tuples=1200, num_groups=30,
                                num_nodes=4, seed=19)
        fragments = len(dist.fragments)
        service = QueryService(ServiceConfig(processes=2))
        service.register_table("r", dist)
        try:
            # Three statements the result cache tells apart and the
            # wire does not: all of them read (gkey, val).
            first = service.submit(SQL)
            assert not first.cache_hit
            assert self._outcomes(service, "miss") == fragments
            assert self._outcomes(service, "hit") == 0
            assert len(table_segments("resident", "run")) == fragments
            table_at_rest()

            second = service.submit(SQL + " HAVING COUNT(*) > 0")
            assert not second.cache_hit
            assert self._outcomes(service, "miss") == fragments
            assert self._outcomes(service, "hit") == fragments
            assert service.metrics.value("mp.shm.resident_bytes") > 0
            assert len(table_segments("resident", "run")) == fragments

            service.bump_table("r")
            assert table_segments("resident", "run") == []
            third = service.submit(SQL + " HAVING COUNT(*) > 1")
            assert not third.cache_hit
            assert self._outcomes(service, "miss") == 2 * fragments
            assert self._outcomes(service, "hit") == fragments
            table_at_rest()
            assert first.rows == second.rows == third.rows
        finally:
            assert service.drain()
        assert shm_segments() == []

    def test_replacing_a_table_releases_the_old_relation(self, clean_pool):
        old = generate_uniform(num_tuples=1200, num_groups=30,
                               num_nodes=4, seed=19)
        new = generate_uniform(num_tuples=900, num_groups=30,
                               num_nodes=3, seed=20)
        service = QueryService(ServiceConfig(processes=2))
        service.register_table("r", old)
        try:
            service.submit(SQL)
            inputs = table_segments("resident", "run")
            assert len(inputs) == len(old.fragments)
            service.register_table("r", new)
            # `old` is still referenced here.
            assert table_segments("resident", "run") == []
            outcome = service.submit(SQL)
            assert not outcome.cache_hit
            assert_rows_close(
                outcome.rows, reference_aggregate(new, parse_query(SQL)[1])
            )
            assert len(table_segments("resident", "run")) == len(new.fragments)
            table_at_rest()
        finally:
            assert service.drain()

    def test_sigterm_mid_miss_exits_clean(self, clean_pool):
        """A live ``repro serve`` told to stop while a miss is running
        drains, exits 0 and leaves no segment behind."""
        proc, port = _serve(tuples=200_000)
        try:
            status, warm, _ = _post(port, "/query", {"sql": SQL})
            assert status == 200 and not warm["cache_hit"]
            segments = shm_segments()
            arenas = [n for n in segments if n.startswith(_ARENA_PREFIX)]
            assert len(segments) - len(arenas) == 4  # the server's, resident
            assert len(arenas) == 2  # one return arena per server worker
            replies: list = []

            def send_miss() -> None:
                try:
                    replies.append(_post(
                        port, "/query",
                        {"sql": SQL + " HAVING COUNT(*) > 0"},
                    )[0])
                except OSError as exc:  # the listener closed first
                    replies.append(exc)

            miss = threading.Thread(target=send_miss)
            miss.start()
            time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            miss.join(timeout=60)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        assert proc.returncode == 0
        assert "drained clean" in out
        # Served before the drain or refused by it: never left hanging.
        assert not miss.is_alive()
        assert isinstance(replies[0], OSError) or replies[0] in (200, 503)
        assert shm_segments() == []


def _serve(tuples: int = 20_000, stderr=None):
    """A live ``repro serve`` on a free port with two pool workers over
    a small generated table: ``(process, port)``."""
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src",
    )
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--tuples", str(tuples), "--groups", "200", "--nodes", "4",
         "--seed", "3", "--processes", "2"],
        stdout=subprocess.PIPE, stderr=stderr, text=True, env=env,
    )
    port = int(re.search(
        r"http://[^:]+:(\d+)", proc.stdout.readline()
    ).group(1))
    return proc, port


def _children(pid: int) -> list[int]:
    """The pids process ``pid`` has forked and not yet reaped."""
    children = []
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children") as listing:
            children += [int(child) for child in listing.read().split()]
    return children


def _workers(pid: int) -> list[int]:
    """Server ``pid``'s pool workers: the children it forked without an
    exec (the resource tracker is one it exec'd)."""
    def cmdline(of: int) -> bytes:
        with open(f"/proc/{of}/cmdline", "rb") as line:
            return line.read()

    return [child for child in _children(pid) if cmdline(child) == cmdline(pid)]


def _alive(pids) -> list[int]:
    """Those of ``pids`` that still run: neither gone nor a zombie."""
    alive = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as stat:
                state = stat.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            continue
        if state not in ("Z", "X"):
            alive.append(pid)
    return alive


def _binds(port: int) -> bool:
    """Whether a new server could listen on ``port`` now."""
    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind(("127.0.0.1", port))
        except OSError:
            return False
    return True


class TestAServerThatDies:
    """A worker lives no longer than its parent: it holds no socket but
    its own pipe end, and none of the parent's signal handlers."""

    @needs_shm
    @pytest.mark.skipif(
        not os.path.exists(f"/proc/self/task/{os.getpid()}/children"),
        reason="needs /proc/<pid>/task/<tid>/children",
    )
    def test_a_killed_server_leaves_nothing(self, clean_pool):
        """SIGKILL gives the server no last word: its workers see their
        pipes close and exit, the resource tracker then sees its own
        close and unlinks what the server left, and the port is free."""
        proc, port = _serve(stderr=subprocess.DEVNULL)
        children: list = []
        made: list = []
        try:
            status, _body, _ = _post(port, "/query", {"sql": SQL})
            assert status == 200
            children = _children(proc.pid)
            assert len(children) >= 2  # the workers (and the tracker)
            made = shm_segments()
            assert made != []
            proc.kill()
            proc.wait(timeout=30)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and (
                _alive(children) or not _binds(port) or shm_segments()
            ):
                time.sleep(0.05)
            assert _alive(children) == []
            assert _binds(port)
            assert shm_segments() == []
        finally:
            # A failed run leaves no orphan, and no segment an orphaned
            # tracker would have unlinked.
            proc.kill()
            for pid in _alive(children):
                os.kill(pid, signal.SIGKILL)
            proc.communicate(timeout=30)
            for name in made:
                if os.path.exists("/dev/shm/" + name):
                    os.unlink("/dev/shm/" + name)

    @needs_shm
    @pytest.mark.skipif(
        not os.path.exists(f"/proc/self/task/{os.getpid()}/children"),
        reason="needs /proc/<pid>/task/<tid>/children",
    )
    def test_a_worker_keeps_the_servers_stderr(self, clean_pool):
        """Under systemd a server's stderr is a socket to the journal.
        A worker keeps it, as it keeps every descriptor below 3: what it
        writes there — a warning, its last traceback — reaches the
        socket, and never a segment opened under that number."""
        journal, stderr = socket.socketpair()
        proc, port = _serve(stderr=stderr)
        stderr.close()
        try:
            status, first, _ = _post(port, "/query", {"sql": SQL})
            assert status == 200
            workers = _workers(proc.pid)
            assert len(workers) == 2
            theirs = os.readlink(f"/proc/{proc.pid}/fd/2")
            assert theirs.startswith("socket:")
            for pid in workers:
                assert [
                    os.readlink(f"/proc/{pid}/fd/{fd}") for fd in (1, 2)
                ] == [os.readlink(f"/proc/{proc.pid}/fd/1"), theirs]
            # SIGINT raises KeyboardInterrupt in the idle worker's loop,
            # and its traceback goes to stderr as the worker exits.
            os.kill(workers[0], signal.SIGINT)
            journal.settimeout(30)
            heard = b""
            while b"KeyboardInterrupt" not in heard:
                chunk = journal.recv(1 << 16)
                assert chunk, heard
                heard += chunk
            # The surviving worker's arena and the resident inputs are
            # as they were: the same answer, read from both.
            status, second, _ = _post(
                port, "/query", {"sql": SQL + " HAVING COUNT(*) > 0"},
            )
            assert status == 200
            assert second["rows"] == first["rows"]
        finally:
            proc.kill()
            proc.communicate(timeout=30)
            journal.close()

    def test_discard_does_not_wait_out_an_inherited_handler(self):
        """A worker forked under a SIGTERM handler — ``repro serve``
        installs one — drops it, so ``discard``'s SIGTERM ends the worker
        at once instead of after the join grace."""
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        pool = WorkerPool()
        try:
            worker = pool.acquire()
        finally:
            signal.signal(signal.SIGTERM, previous)
        try:
            # One job's reply: the worker is past its start.
            worker.conn.send((len, ("inline", [1, 2]), {"heartbeat": 60.0}))
            assert worker.conn.poll(30)
            assert pickle.loads(worker.conn.recv_bytes())[:2] == ("ok", 2)
            started = time.perf_counter()
            pool.discard(worker)
            assert time.perf_counter() - started < 1.0
        finally:
            pool.shutdown()


# -- HTTP front end ------------------------------------------------------------


def _post(port: int, path: str, body: dict | bytes):
    data = body if isinstance(body, bytes) else json.dumps(body).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read()), response
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc


def _get(port: int, path: str):
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=30
        ) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@needs_shm
class TestHTTPFrontEnd:
    @pytest.fixture
    def served(self, clean_pool):
        dist = generate_uniform(num_tuples=1200, num_groups=30,
                                num_nodes=4, seed=17)
        service = QueryService(ServiceConfig(
            processes=2, default_timeout_seconds=120.0
        ))
        service.register_table("r", dist)
        server = create_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05})
        thread.start()
        try:
            yield service, server.server_port, dist
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            service.drain()

    def test_query_roundtrip_and_cache(self, served):
        service, port, dist = served
        status, body, _ = _post(port, "/query", {"sql": SQL})
        assert status == 200
        _table, query = parse_query(SQL)
        got = [tuple(row) for row in body["rows"]]
        assert_rows_close(got, reference_aggregate(dist, query))
        assert body["cache_hit"] is False
        status, body, _ = _post(port, "/query", {"sql": SQL})
        assert status == 200 and body["cache_hit"] is True

    def test_bad_requests(self, served):
        _service_, port, _dist = served
        status, body, _ = _post(port, "/query", b"{not json")
        assert (status, body["error"]) == (400, "bad_request")
        status, body, _ = _post(port, "/query", {"sql": ""})
        assert (status, body["error"]) == (400, "bad_request")
        status, body, _ = _post(port, "/query",
                                {"sql": SQL, "timeout_seconds": -1})
        assert (status, body["error"]) == (400, "bad_request")
        status, body, _ = _post(port, "/nope", {"sql": SQL})
        assert (status, body["error"]) == (404, "not_found")
        status, body = _get(port, "/nope")
        assert (status, body["error"]) == (404, "not_found")

    def test_query_failure_maps_to_400(self, served):
        _service_, port, _dist = served
        status, body, _ = _post(port, "/query", {"sql": "SELEKT x"})
        assert status == 400
        assert body["error"] == "query_failed"
        assert body["cause_type"] == "ParseError"

    @pytest.mark.parametrize("sql, cause", [
        ("SELECT nokey, COUNT(*) FROM r GROUP BY nokey", "KeyError"),
        ("SELECT gkey, COUNT(*) FROM r WHERE nope > 1 GROUP BY gkey",
         "ParseError"),
    ])
    def test_unknown_column_fails_before_any_attempt(self, served, sql,
                                                     cause):
        service, port, _dist = served
        status, body, _ = _post(port, "/query", {"sql": sql})
        assert (status, body["error"]) == (400, "query_failed")
        assert body["cause_type"] == cause
        assert service.metrics.counter("mp.attempts").value == 0
        assert service.metrics.counter("svc.retries").value == 0

    def test_shed_maps_to_429_with_retry_after(self, served,
                                               monkeypatch):
        service, port, _dist = served

        def refuse(deadline):
            raise ShedError("queue_full", retry_after_seconds=0.25)

        monkeypatch.setattr(service.admission, "admit", refuse)
        status, body, response = _post(port, "/query", {"sql": SQL})
        assert status == 429
        assert body["error"] == "shed"
        assert body["reason"] == "queue_full"
        assert float(response.headers["Retry-After"]) == 0.25

    def test_healthz_and_metrics(self, served):
        service, port, _dist = served
        status, body = _get(port, "/healthz")
        assert status == 200 and body["status"] == "ok"
        _post(port, "/query", {"sql": SQL})
        status, body = _get(port, "/metrics")
        assert status == 200
        assert body["svc.admitted"]["value"] >= 1

    def test_draining_healthz_is_503(self, served):
        service, port, _dist = served
        assert service.drain()
        status, body = _get(port, "/healthz")
        assert status == 503 and body["status"] == "draining"
        status, body, _ = _post(port, "/query", {"sql": SQL})
        assert (status, body["error"]) == (503, "draining")


# -- HTTP keep-alive discipline (no pool needed) ------------------------------


@contextmanager
def _light_http(**overrides):
    """A served QueryService whose queries never touch the pool."""
    service = _service(**overrides)
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield service, server.server_port
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def _recv_response(reader):
    """One HTTP response off a socket file: (status, headers, body)."""
    status_line = reader.readline()
    if not status_line:
        return None, {}, b""
    headers = {}
    while True:
        line = reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode().partition(":")
        headers[key.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    body = reader.read(length) if length > 0 else b""
    return int(status_line.split()[1]), headers, body


class TestKeepAliveDiscipline:
    """Regression: an early 400 must never leave unread body bytes to be
    misparsed as the next pipelined request on the same connection."""

    def _connect(self, port):
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        sock.settimeout(10)
        return sock

    def test_drained_bad_json_keeps_the_connection_usable(self):
        with _light_http() as (_service_, port):
            bad = b"{not json"
            request1 = (
                b"POST /query HTTP/1.1\r\nHost: t\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(bad)).encode() + b"\r\n\r\n"
                + bad
            )
            request2 = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
            with self._connect(port) as sock:
                sock.sendall(request1 + request2)  # pipelined
                reader = sock.makefile("rb")
                status1, _, body1 = _recv_response(reader)
                assert status1 == 400
                assert json.loads(body1)["error"] == "bad_request"
                # The desync failure mode: the unread `{not json` bytes
                # get parsed as request 2's request line and /healthz
                # never answers.
                status2, _, body2 = _recv_response(reader)
                assert status2 == 200
                assert json.loads(body2)["status"] == "ok"

    def test_oversize_body_closes_the_connection(self):
        with _light_http() as (_service_, port):
            request = (
                b"POST /query HTTP/1.1\r\nHost: t\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 2097152\r\n\r\n"
            )
            with self._connect(port) as sock:
                sock.sendall(request + b"xxxx")  # body starts trickling in
                reader = sock.makefile("rb")
                status, headers, body = _recv_response(reader)
                assert status == 400
                assert json.loads(body)["error"] == "bad_request"
                # The body was not (and will not be) drained, so the
                # server must refuse to reuse the connection.
                assert headers.get("connection") == "close"
                assert reader.readline() == b""  # EOF, not a misparse

    def test_missing_content_length_closes_the_connection(self):
        with _light_http() as (_service_, port):
            sneak = b'{"sql": "x"}'
            request = (
                b"POST /query HTTP/1.1\r\nHost: t\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 0\r\n\r\n" + sneak
            )
            with self._connect(port) as sock:
                sock.sendall(request)
                reader = sock.makefile("rb")
                status, headers, _body = _recv_response(reader)
                assert status == 400
                assert headers.get("connection") == "close"
                assert reader.readline() == b""

    def test_non_integer_content_length_closes_the_connection(self):
        with _light_http() as (_service_, port):
            for length in (b"abc", b"1.5"):
                request = (
                    b"POST /query HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: " + length + b"\r\n\r\n{}"
                )
                with self._connect(port) as sock:
                    sock.sendall(request)
                    reader = sock.makefile("rb")
                    status, headers, body = _recv_response(reader)
                    assert status == 400
                    assert json.loads(body)["error"] == "bad_request"
                    assert headers.get("connection") == "close"
                    assert reader.readline() == b""

    @pytest.mark.parametrize("timeout", [b"true", b"NaN", b"Infinity",
                                         b"-Infinity"])
    def test_non_numeric_or_non_finite_timeouts_are_400(self, timeout):
        with _light_http() as (_service_, port):
            body = (b'{"sql": "' + SQL.encode()
                    + b'", "timeout_seconds": ' + timeout + b"}")
            status, payload, _ = _post(port, "/query", body)
            assert (status, payload["error"]) == (400, "bad_request")


class TestSingleWriteReplies:
    """Every reply leaves in one send on a no-delay socket.  Headers and
    body sent apart make each keep-alive reply wait out the client's
    delayed ACK (≈40 ms on Linux); the answer stays right, so only a
    latency check catches the stall coming back."""

    def _median_ms(self, conn, method, path, body=None, n=20):
        samples = []
        for _ in range(n):
            start = time.perf_counter()
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = response.read()
            samples.append((time.perf_counter() - start) * 1e3)
            assert response.status == 200, payload
        return statistics.median(samples), payload

    @pytest.fixture
    def fast_sql(self, monkeypatch):
        monkeypatch.setattr("repro.service.core.run_sql",
                            lambda sql, relation, **kw: [("g", 1.0, 2)])

    def test_keep_alive_cache_hits_do_not_wait_out_a_delayed_ack(
        self, fast_sql,
    ):
        with _light_http() as (_service_, port):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                body = json.dumps({"sql": SQL}).encode()
                self._median_ms(conn, "POST", "/query", body, n=1)  # miss
                median, payload = self._median_ms(conn, "POST", "/query",
                                                  body)
            finally:
                conn.close()
        assert json.loads(payload)["cache_hit"] is True
        assert median < 15.0, f"keep-alive hit median {median:.1f} ms"

    def test_keep_alive_prom_scrapes_do_not_wait_out_a_delayed_ack(
        self, fast_sql,
    ):
        with _light_http() as (_service_, port):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                # A served query gives the exposition a body to send.
                body = json.dumps({"sql": SQL}).encode()
                self._median_ms(conn, "POST", "/query", body, n=1)
                median, payload = self._median_ms(
                    conn, "GET", "/metrics?format=prom",
                )
            finally:
                conn.close()
        assert payload and validate_prometheus(payload.decode()) == []
        assert median < 15.0, f"keep-alive scrape median {median:.1f} ms"

    def test_http09_request_gets_the_bare_body(self):
        with _light_http() as (_service_, port):
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=10) as sock:
                sock.sendall(b"GET /healthz\r\n\r\n")
                reply = sock.makefile("rb").read()
        assert not reply.startswith(b"HTTP/")
        assert json.loads(reply)["status"] == "ok"

    def test_http09_after_keep_alive_request_has_no_stray_crlf(self):
        with _light_http() as (_service_, port):
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=10) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                reader = sock.makefile("rb")
                status, _headers, body = _recv_response(reader)
                assert status == 200 and json.loads(body)["status"] == "ok"
                sock.sendall(b"GET /healthz\r\n\r\n")
                reply = reader.read()
        assert reply[:1] == b"{", reply[:20]
        assert json.loads(reply)["status"] == "ok"


class TestAccessLogToggle:
    def test_off_by_default(self, capfd):
        with _light_http() as (_service_, port):
            _get(port, "/healthz")
        assert '"GET /healthz' not in capfd.readouterr().err

    def test_opt_in_logs_requests(self, capfd):
        with _light_http(access_log=True) as (_service_, port):
            _get(port, "/healthz")
        assert '"GET /healthz' in capfd.readouterr().err


class TestDisabledObservabilityHTTP:
    def test_debug_endpoints_404_and_no_histograms(self):
        with _light_http(live_observability=False) as (service, port):
            status, body, _ = _post(port, "/query", {"sql": "SELEKT"})
            assert status == 400  # parse error; no pool involved
            status, body = _get(port, "/debug/queries")
            assert (status, body["error"]) == (404, "not_found")
            status, body = _get(port, "/debug/trace/1")
            assert (status, body["error"]) == (404, "not_found")
            # The disabled path records nothing: no latency histograms,
            # no query records — PR 7's metric families only.
            snapshot = service.metrics.snapshot()
            assert "svc.latency_seconds" not in snapshot
            assert "svc.queue_wait_seconds" not in snapshot
            assert service.flight_recorder is None
            assert service.query_log is None


# -- live observability over HTTP (prom, debug endpoints, storm) --------------


def _get_text(port: int, path: str):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=30
    ) as response:
        return (response.status, response.headers.get("Content-Type"),
                response.read().decode())


class TestLiveObservabilityFakedExecutor:
    """Prom exposition + flight recorder under a 50-thread query storm,
    with the executor faked so the storm is pure service-layer load."""

    def test_prom_scrapes_stay_valid_under_storm(self, monkeypatch):
        def fast(sql, relation, **kwargs):
            time.sleep(random.uniform(0.0, 0.002))
            return [("g", 1.0, 2)]

        monkeypatch.setattr("repro.service.core.run_sql", fast)
        with _light_http(max_concurrency=4, queue_depth=8) as (
            service, port,
        ):
            threads, per_thread = 50, 3
            outcomes = []
            outcomes_lock = threading.Lock()
            scrape_problems = []
            stop = threading.Event()

            variants = (
                "SELECT gkey, SUM(val) FROM r GROUP BY gkey",
                "SELECT gkey, COUNT(*) FROM r GROUP BY gkey",
                "SELECT gkey, MIN(val) FROM r GROUP BY gkey",
                "SELECT gkey, MAX(val) FROM r GROUP BY gkey",
            )

            def client(seed):
                rng = random.Random(seed)
                for i in range(per_thread):
                    sql = variants[rng.randrange(len(variants))]
                    status, body, _ = _post(port, "/query", {"sql": sql})
                    with outcomes_lock:
                        outcomes.append(status)

            def scraper():
                while not stop.is_set():
                    _status, ctype, text = _get_text(
                        port, "/metrics?format=prom"
                    )
                    assert ctype.startswith("text/plain; version=0.0.4")
                    problems = validate_prometheus(text)
                    if problems:
                        scrape_problems.extend(problems)
                        return
                    time.sleep(0.002)

            scrape_thread = threading.Thread(target=scraper)
            scrape_thread.start()
            clients = [
                threading.Thread(target=client, args=(i,))
                for i in range(threads)
            ]
            for t in clients:
                t.start()
            for t in clients:
                t.join()
            stop.set()
            scrape_thread.join()

            assert scrape_problems == []
            assert len(outcomes) == threads * per_thread
            assert set(outcomes) <= {200, 429}
            # One final scrape reflects the whole storm consistently.
            _status, _ctype, text = _get_text(
                port, "/metrics?format=prom"
            )
            assert validate_prometheus(text) == []
            snapshot = service.metrics.snapshot()
            latency = snapshot["svc.latency_seconds"]
            assert latency["count"] == threads * per_thread
            assert sum(latency["counts"]) == latency["count"]

    def test_debug_queries_carry_wait_and_rung(self, monkeypatch):
        monkeypatch.setattr(
            "repro.service.core.run_sql",
            lambda sql, relation, **kwargs: [("g", 1.0, 2)],
        )
        with _light_http() as (_service_, port):
            _post(port, "/query", {"sql": SQL})
            _post(port, "/query", {"sql": SQL})  # cache hit
            status, body = _get(port, "/debug/queries")
            assert status == 200
            records = body["queries"]
            assert len(records) == 2
            assert records[0]["cache_hit"] is True  # newest first
            for record in records:
                assert validate(record, QLOG_SCHEMA) == []
                assert record["queue_wait_seconds"] >= 0.0
                assert record["rung"] == "full"
            status, body = _get(port, "/debug/queries?n=1")
            assert len(body["queries"]) == 1
            status, body = _get(port, "/debug/queries?n=bogus")
            assert (status, body["error"]) == (400, "bad_request")
            status, body = _get(port, "/debug/trace/bogus")
            assert (status, body["error"]) == (400, "bad_request")


@needs_shm
class TestLiveObservabilityPool:
    """The acceptance path over the real pool: a slow query yields a
    valid Chrome trace, and the query log validates after drain."""

    @pytest.fixture
    def served_obs(self, clean_pool, tmp_path):
        dist = generate_uniform(num_tuples=1200, num_groups=30,
                                num_nodes=4, seed=17)
        qlog_path = tmp_path / "qlog.jsonl"
        service = QueryService(ServiceConfig(
            processes=2, default_timeout_seconds=120.0,
            slow_trace_threshold_seconds=0.0,  # every query is "slow"
            query_log_path=str(qlog_path),
        ))
        service.register_table("r", dist)
        server = create_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05})
        thread.start()
        try:
            yield service, server.server_port, qlog_path
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            service.drain()

    def test_trace_prom_and_qlog(self, served_obs):
        service, port, qlog_path = served_obs
        status, body, _ = _post(port, "/query", {"sql": SQL})
        assert status == 200
        qid = body["query_id"]

        status, trace = _get(port, f"/debug/trace/{qid}")
        assert status == 200
        assert validate(trace, CHROME_TRACE) == []

        status, missing = _get(port, "/debug/trace/99999")
        assert (status, missing["error"]) == (404, "not_found")

        _status, ctype, text = _get_text(port, "/metrics?format=prom")
        assert ctype.startswith("text/plain; version=0.0.4")
        assert validate_prometheus(text) == []
        assert "svc_latency_seconds_bucket" in text

        assert service.drain()
        lines = qlog_path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert validate(record, QLOG_SCHEMA) == []
        assert record["query_id"] == qid
        assert record["outcome"] == "served"
        assert record["exec_seconds"] > 0.0
