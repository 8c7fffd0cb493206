"""The entry point, :func:`multiprocessing_aggregate`, and the sink its
runner and dispatch loops report through."""

from __future__ import annotations

import math
import numbers
import time

from repro.core.aggregates import sort_key
from repro.core.query import AggregateQuery
from repro.obs.profile import WorkerProfile
from repro.obs.tracer import PHASE as _CAT_PHASE
from repro.parallel.mp_executor.kernel import _GovernedPhase, _local_phase
from repro.parallel.mp_executor.mask import predicate_columns
from repro.parallel.mp_executor.merge import (
    _collector_paused,
    _is_packed,
    _merge_packed,
    _merge_sequential,
    _take_notes,
)
from repro.parallel.mp_executor.pool import _Runner
from repro.parallel.mp_executor.resilience import (
    DeadlineExceededError,
    FragmentFailedError,
)
from repro.parallel.mp_executor.strategies import _run_rep_strategy
from repro.parallel.mp_executor.wire import _block_of
from repro.storage.relation import DistributedRelation


class _ObsSink:
    """Collects the executor's observability: spans, counters, profiles.

    Wraps an optional tracer and metrics registry behind unconditional
    method calls, so the dispatch loops stay readable; with neither
    attached only the ``profiles`` list is maintained.  Times are wall
    seconds relative to the sink's creation (the run start), keeping the
    exported trace starting at zero like a simulated one.
    """

    def __init__(self, tracer=None, metrics=None) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.t0 = time.perf_counter()
        self.profiles: list[WorkerProfile] = []
        self.return_seconds = 0.0

    def now(self) -> float:
        return time.perf_counter() - self.t0

    def attempt_done(
        self,
        index: int,
        attempt: int,
        start: float,
        ok: bool,
        profile: dict | None,
        error: dict | None = None,
    ) -> None:
        """One fragment attempt finished (either way) at ``self.now()``."""
        end = self.now()
        if profile:
            self.profiles.append(
                WorkerProfile.from_dict(index, attempt, profile, ok=ok)
            )
        if self.metrics is not None:
            m = self.metrics
            m.counter("mp.attempts").inc()
            if not ok:
                m.counter("mp.failed_attempts").inc()
            if profile:
                m.histogram("mp.worker_wall_seconds").observe(
                    profile.get("wall_seconds", 0.0)
                )
                m.histogram("mp.worker_cpu_seconds").observe(
                    profile.get("cpu_seconds", 0.0)
                )
                m.gauge("mp.worker_max_rss_bytes", mode="max").set(
                    profile.get("max_rss_bytes", 0)
                )
                if "load_seconds" in profile:
                    m.histogram("mp.worker_load_seconds").observe(
                        profile["load_seconds"]
                    )
                for family in ("declined", "grouping"):
                    for name, n in profile.get(family, {}).items():
                        m.counter(f"mp.kernel.{family}.{name}").inc(n)
        if self.tracer is not None:
            args = {"attempt": attempt, "ok": ok}
            if profile:
                args["cpu_seconds"] = profile.get("cpu_seconds", 0.0)
                args["max_rss_bytes"] = profile.get("max_rss_bytes", 0)
                if "load_seconds" in profile:
                    args["load_seconds"] = profile["load_seconds"]
            if error is not None:
                args["error_type"] = error.get("type")
                args["error"] = error.get("message")
            self.tracer.complete(
                f"fragment {index}", index, start, end,
                cat=_CAT_PHASE, **args,
            )

    def retry(self, index: int, attempt: int, error: dict) -> None:
        """A failed attempt is being re-dispatched — the exception the
        retry loop would otherwise discard goes on the record here."""
        if self.metrics is not None:
            self.metrics.counter("mp.retries").inc()
            self.metrics.counter(
                f"mp.errors.{error.get('type', 'Unknown')}"
            ).inc()
        if self.tracer is not None:
            self.tracer.instant(
                "fragment_retry", index, self.now(),
                attempt=attempt,
                error_type=error.get("type"),
                error=error.get("message"),
            )

    # -- chaos / robustness events -------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(n)

    def _instant(self, name: str, track: int, **args) -> None:
        if self.tracer is not None:
            self.tracer.instant(name, track, self.now(), **args)

    def beat(self) -> None:
        self._count("mp.heartbeat.beats")

    def heartbeat_lost(self, index: int, attempt: int) -> None:
        self._count("mp.heartbeat.lost")
        self._instant("heartbeat_lost", index, attempt=attempt)

    def idle_death(self) -> None:
        self._count("mp.pool.idle_deaths")
        self._instant("idle_worker_death", -1)

    def fault_injected(self, kind: str, index: int, attempt: int) -> None:
        self._count(f"mp.faults.injected.{kind}")
        self._instant("fault_injected", index, kind=kind, attempt=attempt)

    def worker_death(self, index: int) -> None:
        self._count("mp.quarantine.worker_deaths")

    def quarantined(self, index: int, death_count: int) -> None:
        self._count("mp.quarantine.poisoned")
        self._instant("quarantine", index, deaths=death_count)

    def reencoded(self, index: int) -> None:
        self._count("mp.shm.reencoded")

    def resident(self, outcome: str, n: int = 1) -> None:
        """A block-born shipment met the resident table: ``hit`` (a
        descriptor, no bytes), ``miss`` (encoded), ``vanished`` (its
        segment was gone: a miss besides) or ``evicted`` (``n`` older
        segments made room for it)."""
        if self.metrics is not None:
            self.metrics.counter(f"mp.shm.resident.{outcome}").inc(n)

    def shipped(self, resident_bytes: int) -> None:
        """Every fragment has its descriptor; dispatch starts now."""
        if self.metrics is not None:
            self.metrics.gauge("mp.phase_seconds.encode", mode="max").set(
                self.now()
            )
            self.metrics.gauge("mp.shm.resident_bytes").set(resident_bytes)

    def returned(self, nbytes: int, seconds: float, inband: bool) -> None:
        """A worker's final reply is in the parent's hands: ``nbytes``
        is its size (``wire._received``: the same whether it crossed in
        the return arena or down the pipe), and ``seconds`` went
        from "ready" to the partial in hand — serial in the parent,
        however many workers ran.  ``inband``: it did not fit what the
        worker's arena lent it and came down the pipe."""
        self.return_seconds += seconds
        if inband:
            self._count("mp.return.inband")
        if self.metrics is not None:
            self.metrics.counter("mp.return_bytes").inc(nbytes)
            self.metrics.gauge("mp.phase_seconds.return", mode="max").set(
                self.return_seconds
            )

    def pool_rebuild(self) -> None:
        self._count("mp.breaker.rebuilds")
        self._instant("pool_rebuild", -1)

    def pool_degraded(self) -> None:
        self._count("mp.breaker.degraded_runs")
        if self.metrics is not None:
            self.metrics.gauge("mp.breaker.degraded", mode="max").set(1)
        self._instant("pool_degraded", -1)

    def breaker_state(self, code: int) -> None:
        """The breaker's state after this run (0 closed, 1 half-open,
        2 open) — health endpoints read this gauge."""
        if self.metrics is not None:
            self.metrics.gauge("mp.breaker.state", mode="last").set(code)

    def merge_fallback(self, reason: str) -> None:
        """The parent left the vectorized packed merge for the
        sequential per-key one."""
        self._count(f"mp.merge.fallback.{reason}")
        self._instant("merge_fallback", -1, reason=reason)

    def merge_grouping(self, counts: dict) -> None:
        """How the parent's merge numbered its key columns."""
        for path, n in counts.items():
            self._count(f"mp.merge.grouping.{path}", n)

    def deadline_exceeded(self, completed: int, total: int) -> None:
        self._count("mp.deadline_exceeded")
        self._instant(
            "run_deadline_exceeded", -1, completed=completed, total=total
        )


def _check_int(name: str, value, least: int) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integral
    number, not a bool, and at least ``least``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < least
    ):
        bound = "positive" if least == 1 else "non-negative"
        raise ValueError(f"{name} must be a {bound} int; got {value!r}")


def _check_seconds(name: str, value, least: float | None = None) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a finite
    real, not a bool, and positive (or at least ``least``)."""
    ok = (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
        and (value > 0 if least is None else value >= least)
    )
    if not ok:
        bound = "positive" if least is None else f">= {least}"
        raise ValueError(
            f"{name} must be a finite number, {bound}; got {value!r}"
        )


def multiprocessing_aggregate(
    dist: DistributedRelation,
    query: AggregateQuery,
    processes: int = 0,
    *,
    max_retries: int = 2,
    timeout: float | None = None,
    phase_fn=None,
    memory_budget_bytes: int | None = None,
    tracer=None,
    metrics=None,
    profiles: list | None = None,
    strategy: str = "pool",
    faults=None,
    faults_log: list | None = None,
    ledger=None,
    deadline: float | None = None,
) -> list[tuple]:
    """Two Phase over real processes; returns sorted result rows.

    ``timeout`` bounds each worker attempt in wall-clock seconds
    (process dispatch only — the in-process fallback cannot preempt
    itself); ``max_retries`` bounds re-dispatches per fragment;
    ``phase_fn`` substitutes the phase-1 worker function (picklable —
    used by the fault-injection tests).  Every column the statement
    names is bound against ``dist.schema`` before anything ships: an
    unknown one raises :class:`FragmentFailedError` after 0 attempts,
    with the ``cause_type`` a worker would report (``KeyError`` for a
    GROUP BY or aggregate column, ``ParseError`` for a WHERE column).

    ``deadline`` bounds the *whole run* with an absolute
    ``time.monotonic()`` value: when it passes, in-flight attempts are
    cancelled (workers discarded, per-run segments unlinked) and
    :class:`DeadlineExceededError` is raised.  Unlike ``timeout`` it is
    not retried around — it is the caller's latency budget, threaded
    down from the query service's per-query deadline or the CLI's
    ``--timeout``.  A deadline miss does not count toward the circuit
    breaker.

    ``strategy`` picks the aggregation discipline — there are two:

    * ``"pool"`` (the default; ``"global"`` and ``"auto"`` are accepted
      as synonyms and run the identical path): two-phase on the module's
      persistent worker pool, each fragment shipped once as a
      shared-memory columnar block (inline when empty or codec-rejected;
      :mod:`~repro.parallel.mp_executor.wire` has the resident table).
      Every fragment leaves the columnar kernel as one *packed* partial
      (raw per-group arrays); the parent folds them all vectorized and
      finishes the merged arrays straight into result rows: no per-group
      state object, no ``{key: state}`` table.  When the fold cannot be exact
      (int sums that could leave int64) or a fragment left the kernel
      for the per-row phase beside fragments that did not (a counted
      ``mp.kernel.declined.<reason>``, a spill retry, an injected
      slowdown; an empty partial is neutral and is no mix), the parent
      unpacks and takes the sequential per-key merge instead, counted
      as ``mp.merge.fallback.<reason>``.
    * ``"rep"``: the paper's Repartitioning — round 1 hash-partitions
      every fragment into ``len(fragments)`` disjoint key buckets,
      round 2 aggregates each bucket on one worker, so no group is
      touched by two workers and the parent merge is a concatenation.

    Results are bit-identical across both, and retries, ``timeout``,
    ``deadline``, heartbeats, quarantine and the circuit breaker cover
    both rounds of ``rep`` as they cover two-phase.  ``phase_fn``,
    ``memory_budget_bytes`` and fault injection are two-phase only.  The
    packed merge hands its rows over in key order; only the sequential
    merge sorts them.  From the merge to the return the cyclic collector
    is paused, and then left as it was found.

    ``memory_budget_bytes`` puts each fragment's phase-1 table under a
    byte budget: the first attempt is the ordinary phase (the columnar
    kernel on a block) under a ceiling of ``budget // entry_bytes``
    groups and raises :class:`~repro.resources.MemoryExceededError` on
    overrun, and each retry reruns the fragment per-row and out-of-core
    at *half* the previous budget — so a fragment that fits costs what
    it costs ungoverned, and an over-budget one completes exactly, just
    slower, instead of failing the run.
    Mutually exclusive with ``phase_fn``; ``None`` leaves the executor
    byte-identical to ungoverned behavior.

    Observability (all optional, zero overhead when omitted):
    ``tracer`` (a :class:`repro.obs.Tracer`) records one wall-clock span
    per fragment attempt — including failed ones, with the error type in
    the span args — under a run-wide query span; ``metrics`` (a
    :class:`repro.obs.MetricsRegistry`) collects attempt/retry counters,
    per-error-type counters, worker wall/CPU/RSS distributions from
    the workers' self-profiles, ``mp.kernel.declined.<reason>`` for
    every fragment attempt that left the columnar kernel for the
    per-row phase, ``mp.merge.fallback.<reason>`` when the parent left
    the vectorized merge, ``mp.{kernel,merge}.grouping.{dense,sort}``
    for how each key column and COUNT(DISTINCT) value column was
    numbered, and
    ``mp.shm.resident.{hit,miss,evicted,vanished}`` /
    ``mp.shm.resident_bytes`` / ``mp.phase_seconds.encode`` for what
    shipping cost, ``mp.worker_load_seconds`` for what each pool worker
    spent getting at its fragment, and ``mp.return_bytes`` /
    ``mp.phase_seconds.return`` / ``mp.return.inband`` for what the
    partials cost on the way back (the replies' frames and buffers,
    whichever way they crossed, the parent's seconds from "ready" to
    partial in hand, and the replies too large for the arena they were
    lent);
    ``profiles`` (a list) is extended with one
    :class:`repro.obs.WorkerProfile` per attempt that reported back.
    ``ledger`` is accepted for callers that pass one to every executor;
    the pool records no decisions into it.

    Chaos / robustness (injection: two-phase only):

    ``faults`` (a :class:`~repro.parallel.mp_executor.faults.FaultPlan`)
    injects the plan's deterministic fault schedule into the real
    workers — kills, limplock stalls, slowdowns, in-worker exceptions,
    shm-segment loss (see the module docstring for the mapping).  Requires real
    processes: a run that would fall back in-process is bumped to two
    workers.  ``faults_log`` (a list) receives the injected
    ``(kind, fragment, attempt)`` entries in firing order.  A fragment
    has one attempt in flight at a time.  Workers beat every 0.5 s
    mid-job, and one silent for 5 s is declared lost without waiting out
    ``timeout``.  A fragment whose attempts kill three workers is
    quarantined: it fails fast as a ``PoisonFragment`` instead of
    grinding the pool down.
    Runs that repeatedly fail with infrastructure causes trip a
    module-level circuit breaker (see :class:`PoolCircuitBreaker`):
    the pool is rebuilt once, then every run degrades to a private pool
    of fresh workers that is shut down when the run ends (fault
    injection is skipped while degraded).
    """
    # Counts are ints: a NaN or infinite retry budget never runs out.
    _check_int("processes", processes, least=0)
    _check_int("max_retries", max_retries, least=0)
    # Seconds are finite and positive: NaN compares false against every
    # bound, and inf overflows the dispatch loop's waits.  None is the
    # only spelling of "no bound".
    for name, seconds in (("timeout", timeout), ("deadline", deadline)):
        if seconds is not None:
            _check_seconds(name, seconds)
    if deadline is not None and time.monotonic() >= deadline:
        # Already out of budget: fail before any work is dispatched.
        raise DeadlineExceededError(0.0, 0, len(dist.fragments))
    if memory_budget_bytes is not None:
        if phase_fn is not None:
            raise ValueError(
                "pass either phase_fn or memory_budget_bytes, not both"
            )
        _check_int("memory_budget_bytes", memory_budget_bytes, least=1)
    if strategy in ("global", "auto"):
        # Three names, one path: every fragment leaves the kernel packed.
        strategy = "pool"
    if strategy not in ("pool", "rep"):
        raise ValueError(
            "strategy must be 'pool', 'global', 'rep' or 'auto', "
            f"got {strategy!r}"
        )
    faults_active = faults is not None and faults.active
    if strategy == "rep":
        if phase_fn is not None:
            raise ValueError(
                "phase_fn substitution requires strategy='pool'"
            )
        if memory_budget_bytes is not None:
            raise ValueError(
                "memory_budget_bytes is not supported with strategy='rep' "
                "(the budget governs the two-phase local phase)"
            )
        if faults_active:
            raise ValueError(
                "fault injection requires strategy='pool' "
                "('rep' has no injection shim)"
            )
    # Bind every column the statement names before anything ships: an
    # unknown one would fail every fragment the same way, attempt after
    # attempt.  It fails here instead, with no attempt made, as the same
    # typed error a worker reports.
    try:
        bq = query.bind(dist.schema)  # KeyError: GROUP BY or aggregate
        if predicate_columns(query.where) is not None:
            query.where.check_columns(dist.schema.names())  # ParseError
    except (KeyError, ValueError) as exc:
        raise FragmentFailedError(
            0, 0, f"{type(exc).__name__}: {exc}", {},
            cause_type=type(exc).__name__,
        ) from exc
    fn = phase_fn if phase_fn is not None else _local_phase

    def fn_for(attempt: int):
        if memory_budget_bytes is None:
            return fn
        if attempt == 0:
            return _GovernedPhase(memory_budget_bytes, spill=False)
        return _GovernedPhase(
            max(1, memory_budget_bytes >> attempt), spill=True
        )

    obs = _ObsSink(tracer, metrics)
    runner = _Runner(
        len(dist.fragments), processes, max_retries, timeout, deadline, obs,
        faults if faults_active else None, faults_log,
    )
    # Block-born fragments stay columnar end to end: the job carries the
    # ColumnBlock itself and rows are never materialized on the default
    # phases (encode ships the block; the in-process kernel reads it
    # directly).  In-process, the two-phase built-in phase gets a
    # row-born fragment as a block too, encoded here as the pool's wire
    # encodes it; rows the codec rejects stay rows.  A substituted phase
    # function keeps its row-list contract: the pool ships the block as
    # it is and the worker decodes it (``as_rows``); only the in-process
    # runner decodes here.
    keep_blocks = phase_fn is None or not runner.in_process
    encode_rows = (
        phase_fn is None and runner.in_process and strategy == "pool"
    )

    def source(relation):
        block = getattr(relation, "block", None)
        if block is None and encode_rows:
            block = _block_of(dist.schema, relation.rows)
        return block if block is not None and keep_blocks else relation.rows

    jobs = [(source(frag.relation), query, dist.schema)
            for frag in dist.fragments]
    run_span = None
    if tracer is not None:
        run_span = tracer.begin(
            "mp_aggregate", track=-1, t=0.0, cat="query",
            fragments=len(jobs), processes=runner.processes,
        )
    try:
        try:
            with runner:
                if strategy == "rep":
                    completed = _run_rep_strategy(
                        runner.run, jobs, query, dist.schema
                    )
                else:
                    completed = runner.run(
                        fn_for, jobs, project=phase_fn is None
                    )
        except (FragmentFailedError, DeadlineExceededError):
            if tracer is not None:
                tracer.close_all(obs.now())
            if profiles is not None:
                profiles.extend(obs.profiles)
            raise
        if profiles is not None:
            profiles.extend(obs.profiles)
        if metrics is not None:
            metrics.counter("mp.fragments").inc(len(jobs))

        # From here to the return the parent allocates a tuple per group
        # and keeps them all; the collector waits until the caller has
        # the rows (the tracer and metrics bookkeeping included, or a
        # traced run pays the deferred pass inside its own span).
        with _collector_paused:
            merge_start = obs.now()
            rows = _merged_rows(
                [completed[i] for i in range(len(jobs))], query, bq, obs
            )
            if tracer is not None:
                tracer.complete(
                    "merge", -1, merge_start, obs.now(), cat=_CAT_PHASE,
                    groups=len(rows),
                )
                tracer.end(run_span, obs.now())
            if metrics is not None:
                metrics.gauge("mp.elapsed_seconds", mode="max").set(
                    obs.now()
                )
                metrics.counter("mp.groups_output").inc(len(rows))
                # Worker-vs-merge wall split, consumed by the drift layer
                # (repro.obs.drift.compare_model_to_mp).
                metrics.gauge("mp.phase_seconds.local", mode="max").set(
                    merge_start
                )
                metrics.gauge("mp.phase_seconds.merge", mode="max").set(
                    obs.now() - merge_start
                )
            runner.give_back()
            return rows
    finally:
        # The partials may be views over the workers' return arenas:
        # their regions go back once nothing reads them, however the
        # run ended.
        runner.give_back()


def _merged_rows(partials, query, bq, obs) -> list[tuple]:
    """The fragments' ``partials``, in fragment order, merged into
    result rows in key order, HAVING applied."""
    rows: list[tuple] | None = None
    # An empty partial is neutral to either merge.  An empty fragment
    # ships inline and comes back as [] from the per-row loop, which
    # must not make the run read as a packed/unpacked mix.
    ordered = [p for p in partials if _is_packed(p) or p]
    packed = [_is_packed(p) for p in ordered]
    if any(packed):
        # All-packed partials fold vectorized, straight to result rows.
        # A fragment that left the kernel (a decline, a spill retry, an
        # injected slowdown) leaves an unpacked partial among packed
        # ones, and a guard can refuse the fold: both are counted by
        # reason and take the sequential merge below (same result, just
        # slower).
        reason = "mixed_partials"
        if all(packed):
            _take_notes()  # an in-process kernel's are in its profile
            rows, reason = _merge_packed(ordered, query)
            obs.merge_grouping(_take_notes().get("grouping", {}))
        if rows is None:
            obs.merge_fallback(reason)
    if rows is None:
        merged = _merge_sequential(ordered, query)
        rows = [bq.result_row(key, state) for key, state in merged.items()]
        # the packed merge's rows are already in key order
        rows.sort(key=sort_key)
    if query.having is not None:
        rows = [row for row in rows if bq.passes_having(row)]
    return rows
