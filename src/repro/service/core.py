"""The query service: admission → ladder → execute-with-retry → cache.

:class:`QueryService` is transport-agnostic — :mod:`repro.service.http`
puts an HTTP front end on it, tests and the bench drive it directly.
``submit`` is safe to call from many threads at once: admission is the
only gate, and everything downstream (the worker pool, the breaker, the
budget pool, the caches, the observability sinks) is either lock-guarded
here or thread-safe itself.

The execution path is deliberately the *same* code one-shot CLI runs
use — ``repro.sql.run_sql(substrate="mp")`` over the shared persistent
pool — so every robustness feature the executor has (heartbeats,
poison quarantine, the circuit breaker, governed spill) is exercised
unchanged under concurrent load.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.obs.decisions import (
    ADMISSION_SHED,
    CACHE_SERVE,
    DEADLINE_MISS,
    LADDER_TRANSITION,
    QUERY_RETRY,
    DecisionLedger,
)
from repro.obs.live import FlightRecorder, QueryLog, query_record
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.parallel.mp_executor import (
    DeadlineExceededError,
    FragmentFailedError,
    pool_breaker_state,
    release_resident_segments,
)
from repro.parallel.mp_executor.resilience import _INFRA_CAUSES, backoff_delay
from repro.resources import MemoryBudgetPool
from repro.service.admission import AdmissionController
from repro.service.cache import PlanCache, ResultCache
from repro.service.config import ServiceConfig
from repro.service.deadline import Deadline
from repro.service.errors import (
    DeadlineMissError,
    QueryFailedError,
    ServiceError,
    ShedError,
)
from repro.service.ladder import SVC_CACHE_ONLY, SVC_FULL, OverloadLadder
from repro.sql.lexer import LexError
from repro.sql.parser import ParseError
from repro.sql.runner import run_sql
from repro.storage.relation import DistributedRelation

# Fanout at ladder rung 2 (reduced_fanout): the query runs in-process.
REDUCED_PROCESSES = 1
# Per-fragment attempt timeout handed to the executor.
EXECUTOR_TIMEOUT_SECONDS = 30.0
# How long drain() waits for in-flight queries by default.
DRAIN_TIMEOUT_SECONDS = 10.0

# Query-level retry, for infrastructure failures only (worker death,
# heartbeat loss, poison quarantine: the causes the pool circuit breaker
# watches).  User errors and deadline misses are never retried: a
# deterministic failure would only burn the latency budget again.  Each
# retry re-enters the executor, which consults the breaker, so a retry
# after a rebuild lands on the fresh pool; the backoff gives the pool
# time to rebuild instead of hammering it.
MAX_QUERY_RETRIES = 2
RETRY_BACKOFF_SECONDS = 0.05
RETRY_BACKOFF_CAP_SECONDS = 2.0
RETRY_JITTER = 0.5

# Sizes of the bounded in-memory structures.
RESULT_CACHE_ENTRIES = 256
PLAN_CACHE_ENTRIES = 256
QUERY_LOG_CAPACITY = 1024       # queued qlog records before drops
FLIGHT_RECORDER_ENTRIES = 128   # recent-query ring
FLIGHT_RECORDER_TRACES = 16     # slow-query traces kept


@dataclass
class QueryOutcome:
    """What a successful ``submit`` returns."""

    query_id: int
    table: str
    rows: list = field(repr=False)
    elapsed_seconds: float = 0.0
    rung: str = SVC_FULL
    retries: int = 0
    cache_hit: bool = False


class _Table:
    __slots__ = ("relation", "version")

    def __init__(self, relation: DistributedRelation, version: int) -> None:
        self.relation = relation
        self.version = version


class QueryService:
    """Admission-controlled concurrent SQL over the persistent pool."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        metrics: MetricsRegistry | None = None,
        ledger: DecisionLedger | None = None,
        tracer=None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.ledger = ledger if ledger is not None else DecisionLedger()
        self.tracer = tracer
        self.budget_pool = MemoryBudgetPool(
            self.config.memory_pool_bytes,
            min_slice_bytes=min(64 * 1024, self.config.slice_bytes),
        )
        self.admission = AdmissionController(self.config, self.budget_pool)
        self.ladder = OverloadLadder()
        self.result_cache = ResultCache(RESULT_CACHE_ENTRIES)
        self.plan_cache = PlanCache(PLAN_CACHE_ENTRIES)
        self._tables: dict[str, _Table] = {}
        self._tables_lock = threading.Lock()
        self._obs_lock = threading.Lock()
        self._next_id = 0
        self._t0 = time.monotonic()
        # Live serving telemetry (docs/observability.md).  Disabled
        # (live_observability=False) keeps the PR 7 execution path:
        # no query records, no per-query tracer, no latency histograms.
        self._live = self.config.live_observability
        self.query_log: QueryLog | None = None
        self.flight_recorder: FlightRecorder | None = None
        if self._live:
            if self.config.query_log_path:
                self.query_log = QueryLog(
                    self.config.query_log_path, capacity=QUERY_LOG_CAPACITY
                )
            self.flight_recorder = FlightRecorder(
                entries=FLIGHT_RECORDER_ENTRIES,
                trace_entries=FLIGHT_RECORDER_TRACES,
                slow_threshold_seconds=(
                    self.config.slow_trace_threshold_seconds
                ),
            )

    # -- tables ---------------------------------------------------------

    def register_table(self, name: str,
                       relation: DistributedRelation) -> None:
        """Register (or replace) a table; replacement bumps the version,
        implicitly invalidating every cached result for the old data,
        and releases the old relation's resident shm segments."""
        with self._tables_lock:
            existing = self._tables.get(name)
            version = 1 if existing is None else existing.version + 1
            self._tables[name] = _Table(relation, version)
        if existing is not None:
            release_resident_segments(existing.relation)

    def bump_table(self, name: str) -> int:
        """Mark ``name`` mutated: old cached results become unreachable,
        and the executor's resident copies of its fragments are released
        (the next miss ships the fragments afresh)."""
        with self._tables_lock:
            table = self._tables[name]
            table.version += 1
            version = table.version
        release_resident_segments(table.relation)
        return version

    def table_names(self) -> list[str]:
        with self._tables_lock:
            return sorted(self._tables)

    def _lookup(self, name: str) -> tuple[DistributedRelation, int]:
        with self._tables_lock:
            table = self._tables.get(name)
            if table is None:
                raise QueryFailedError(
                    "UnknownTable",
                    f"no table {name!r} registered "
                    f"(have: {', '.join(sorted(self._tables)) or 'none'})",
                )
            return table.relation, table.version

    # -- observability helpers (all under one lock) ---------------------

    def _clock(self) -> float:
        return time.monotonic() - self._t0

    def _count(self, name: str, n: int = 1) -> None:
        with self._obs_lock:
            self.metrics.counter(name).inc(n)

    def _gauges(self) -> None:
        running, queued = self.admission.counts()
        with self._obs_lock:
            self.metrics.gauge("svc.running").set(running)
            self.metrics.gauge("svc.queue_depth").set(queued)
            self.metrics.gauge("svc.ladder.rung").set(
                self.ladder.code()
            )
            self.metrics.gauge("mp.breaker.state").set(
                pool_breaker_state().state_code()
            )
            if self._live:
                # `repro top` derives QPS from counter deltas over the
                # uptime delta between two scrapes.
                self.metrics.gauge("svc.uptime_seconds").set(self._clock())

    def _decide(self, kind: str, **data) -> None:
        with self._obs_lock:
            self.ledger.record(kind, -1, self._clock(), data=data)

    def _span(self, qid: int, start: float, **args) -> None:
        if self.tracer is None:
            return
        with self._obs_lock:
            self.tracer.complete("query", qid, start, self._clock(), **args)

    # -- the submit pipeline --------------------------------------------

    def submit(self, sql: str,
               timeout_seconds: float | None = None) -> QueryOutcome:
        """Run one SQL query; returns rows or raises a typed ServiceError.

        Blocks the calling thread (the HTTP layer gives each request its
        own thread).  ``timeout_seconds`` overrides the config default;
        the deadline covers queueing, retries, and execution together.
        """
        with self._obs_lock:
            self._next_id += 1
            qid = self._next_id
        if timeout_seconds is None:
            timeout_seconds = self.config.default_timeout_seconds
        deadline = Deadline(timeout_seconds)
        start = self._clock()
        info = {
            "queue_wait": 0.0,
            "rung": self.ladder.current,
            "cache_hit": False,
            "retries": 0,
            "exec_seconds": None,
        }
        query_tracer = Tracer(operator_spans=False) if self._live else None
        try:
            outcome = self._submit_inner(qid, sql, deadline, info,
                                         query_tracer)
        except ServiceError as exc:
            self._span(qid, start, error=exc.code)
            self._finish_query(qid, sql, deadline, info, query_tracer,
                               error=exc)
            raise
        self._span(qid, start, rung=outcome.rung,
                   cache_hit=outcome.cache_hit, retries=outcome.retries)
        self._finish_query(qid, sql, deadline, info, query_tracer)
        return outcome

    def _finish_query(self, qid, sql, deadline, info, query_tracer,
                      error=None) -> None:
        """Record one admission outcome: histograms, qlog, flight ring."""
        if not self._live:
            return
        elapsed = deadline.elapsed()
        if error is None:
            outcome, cause, reason = "served", None, None
        else:
            outcome = {
                "shed": "shed",
                "draining": "draining",
                "deadline_miss": "deadline_miss",
            }.get(error.code, "failed")
            cause = getattr(error, "cause_type", None)
            reason = getattr(error, "reason", None)
            info["retries"] = getattr(error, "retries", info["retries"])
        record = query_record(
            query_id=qid,
            sql=sql,
            outcome=outcome,
            queue_wait_seconds=info["queue_wait"],
            elapsed_seconds=elapsed,
            exec_seconds=info["exec_seconds"],
            rung=info["rung"],
            strategy=self.config.strategy,
            cache_hit=info["cache_hit"],
            retries=info["retries"],
            error=cause,
            reason=reason,
        )
        with self._obs_lock:
            self.metrics.histogram("svc.latency_seconds").observe(elapsed)
            self.metrics.histogram("svc.queue_wait_seconds").observe(
                info["queue_wait"]
            )
        if self.flight_recorder is not None:
            self.flight_recorder.note(record, tracer=query_tracer)
        if self.query_log is not None and not self.query_log.record(record):
            self._count("svc.qlog.dropped")

    def _submit_inner(self, qid: int, sql: str, deadline: Deadline,
                      info: dict, query_tracer) -> QueryOutcome:
        try:
            table_name, _query = self.plan_cache.parse(sql)
        except (LexError, ParseError) as exc:
            self._count("svc.failed")
            raise QueryFailedError(type(exc).__name__, str(exc)) from exc
        relation, version = self._lookup(table_name)
        cache_key = ResultCache.key(table_name, version, sql)

        try:
            slot = self.admission.admit(deadline)
        except ShedError as exc:
            self._count("svc.shed")
            self._decide(ADMISSION_SHED, query_id=qid, reason=exc.reason)
            self._gauges()
            raise
        except DeadlineMissError:
            self._count("svc.deadline_misses")
            self._decide(DEADLINE_MISS, query_id=qid, where="queued")
            raise

        with slot:
            self._count("svc.admitted")
            info["queue_wait"] = slot.queue_wait_seconds
            rung, previous = self.ladder.observe(self.admission.load())
            info["rung"] = rung
            if previous is not None:
                self._decide(LADDER_TRANSITION, query_id=qid,
                             from_rung=previous, to_rung=rung)
            self._gauges()

            cached = self.result_cache.get(cache_key)
            if cached is not None:
                self._count("svc.cache.hits")
                info["cache_hit"] = True
                self._decide(CACHE_SERVE, query_id=qid, table=table_name,
                             version=version)
                return QueryOutcome(
                    qid, table_name, cached,
                    elapsed_seconds=deadline.elapsed(),
                    rung=rung, cache_hit=True,
                )
            self._count("svc.cache.misses")
            if rung == SVC_CACHE_ONLY:
                # Rung 3: only free work is served; a miss is shed with
                # backpressure rather than making overload worse.
                self._count("svc.shed")
                self._decide(ADMISSION_SHED, query_id=qid,
                             reason="overload", rung=rung)
                raise ShedError(
                    "overload",
                    detail="cache-only rung and the result is not cached",
                )

            processes = (
                self.config.processes if rung == SVC_FULL
                else REDUCED_PROCESSES
            )
            rows, retries = self._execute(
                qid, sql, relation, processes, slot.lease.bytes, deadline,
                info, query_tracer,
            )
            self.result_cache.put(cache_key, rows)
            return QueryOutcome(
                qid, table_name, rows,
                elapsed_seconds=deadline.elapsed(),
                rung=rung, retries=retries,
            )

    def _execute(self, qid, sql, relation, processes, budget_bytes,
                 deadline, info=None, query_tracer=None) -> tuple[list, int]:
        """run_sql over the pool, retrying infra failures with backoff."""
        attempt = 0
        while True:
            query_metrics = MetricsRegistry()
            exec_start = time.monotonic()
            try:
                rows = run_sql(
                    sql, relation,
                    substrate="mp",
                    processes=processes,
                    timeout=EXECUTOR_TIMEOUT_SECONDS,
                    deadline=deadline.absolute(),
                    memory_budget_bytes=budget_bytes,
                    metrics=query_metrics,
                    tracer=query_tracer,
                    strategy=self.config.strategy,
                    faults=self.config.faults,
                )
            except DeadlineExceededError as exc:
                self._count("svc.deadline_misses")
                self._decide(DEADLINE_MISS, query_id=qid,
                             where="executing", retries=attempt)
                raise DeadlineMissError(
                    deadline.timeout_seconds or 0.0, detail=str(exc)
                ) from exc
            except FragmentFailedError as exc:
                if (exc.cause_type in _INFRA_CAUSES
                        and attempt < MAX_QUERY_RETRIES
                        and not deadline.expired()):
                    delay = deadline.clamp_sleep(backoff_delay(
                        RETRY_BACKOFF_SECONDS, attempt,
                        RETRY_BACKOFF_CAP_SECONDS, RETRY_JITTER,
                    ))
                    self._count("svc.retries")
                    self._decide(QUERY_RETRY, query_id=qid,
                                 attempt=attempt,
                                 cause=exc.cause_type,
                                 backoff_seconds=delay)
                    time.sleep(delay)
                    attempt += 1
                    continue
                self._count("svc.failed")
                raise QueryFailedError(
                    exc.cause_type or type(exc).__name__, str(exc),
                    retries=attempt,
                ) from exc
            except (ValueError, TypeError) as exc:
                self._count("svc.failed")
                raise QueryFailedError(
                    type(exc).__name__, str(exc), retries=attempt
                ) from exc
            finally:
                if info is not None:
                    # Accumulated across retry attempts, so the query
                    # log separates executor time from queue/backoff.
                    info["exec_seconds"] = (
                        (info["exec_seconds"] or 0.0)
                        + (time.monotonic() - exec_start)
                    )
                    info["retries"] = attempt
                with self._obs_lock:
                    self.metrics.merge(query_metrics)
            return rows, attempt

    # -- health + drain --------------------------------------------------

    def status(self) -> dict:
        """Machine-readable health (the /healthz body)."""
        running, queued = self.admission.counts()
        breaker = pool_breaker_state()
        return {
            "status": "draining" if self.admission.draining else "ok",
            "running": running,
            "queued": queued,
            "load": round(self.admission.load(), 4),
            "ladder_rung": self.ladder.current,
            "breaker": breaker.state,
            "tables": self.table_names(),
            "budget_available_bytes": self.budget_pool.available_bytes,
        }

    def drain(self, timeout_seconds: float | None = None) -> bool:
        """Stop admission, wait out in-flight queries, shut the pool down.

        Returns True when everything finished inside the drain budget.
        Safe to call more than once.  The worker pool is torn down and
        every resident segment unlinked unconditionally —
        deadline-missed queries already discarded their workers and
        unlinked their per-run segments, so after this returns there are
        zero service-owned child processes or shm segments (a query
        that outlived the drain budget unlinks what it still reads when
        it ends).
        """
        if timeout_seconds is None:
            timeout_seconds = DRAIN_TIMEOUT_SECONDS
        self.admission.start_drain()
        clean = self.admission.wait_idle(timeout_seconds)
        from repro.parallel.mp_executor import shutdown_worker_pool

        shutdown_worker_pool()
        self._gauges()
        if self.query_log is not None:
            self.query_log.close()
        return clean
