"""Failure vocabulary and the machinery that reacts to it: the typed
errors, the pool circuit breaker and the fault injector."""

from __future__ import annotations

import random
import threading
import time

from repro.parallel.mp_executor.faults import (
    INJECT_ERROR,
    INJECT_KILL,
    INJECT_SHM_LOSS,
    INJECT_SLOW,
    INJECT_STALL,
)


class FragmentFailedError(RuntimeError):
    """One fragment's phase-1 job failed after exhausting its retries.

    ``partial_results`` maps fragment index to the completed partial
    lists, so a caller can salvage finished work or re-dispatch only the
    failed fragment.  ``cause_type`` is the exception type name of the
    final failure (e.g. ``"MemoryExceededError"``, ``"WorkerDied"``,
    ``"Timeout"``) so callers can branch on *what* failed without
    parsing the message.
    """

    def __init__(
        self,
        fragment_index: int,
        attempts: int,
        cause: str,
        partial_results: dict[int, list],
        cause_type: str | None = None,
    ) -> None:
        super().__init__(
            f"fragment {fragment_index} failed after {attempts} "
            f"attempt(s): {cause}"
        )
        self.fragment_index = fragment_index
        self.attempts = attempts
        self.cause = cause
        self.cause_type = cause_type
        self.partial_results = partial_results


class DeadlineExceededError(RuntimeError):
    """The run's deadline expired before every fragment completed.

    Raised by :func:`multiprocessing_aggregate` when ``deadline=`` (an
    absolute ``time.monotonic()`` value) passes mid-run.  In-flight
    attempts are cancelled through the pool's discard path and the
    run's shared-memory segments are unlinked (the resident ones it
    read, released) before this propagates, so a deadline miss never
    leaks processes or segments.  Distinct from
    :class:`FragmentFailedError` on purpose: a deadline miss says the
    *caller's* latency budget ran out, not that the executor (or the
    user's phase function) is sick — retrying at the same budget is
    pointless and the circuit breaker ignores it.
    """

    def __init__(
        self,
        deadline_seconds: float,
        completed_fragments: int,
        total_fragments: int,
    ) -> None:
        super().__init__(
            f"run deadline exceeded after {deadline_seconds:.3f}s with "
            f"{completed_fragments}/{total_fragments} fragment(s) complete"
        )
        self.deadline_seconds = deadline_seconds
        self.completed_fragments = completed_fragments
        self.total_fragments = total_fragments


class InjectedFaultError(RuntimeError):
    """Raised inside a worker by the fault injector (``read_error_rate``)."""


class WorkerFailure(RuntimeError):
    """The reconstructed cause of a cross-process fragment failure.

    Worker exceptions arrive as ``{"type", "message"}`` dicts — the
    original object cannot cross the pipe — so the final
    :class:`FragmentFailedError` chains from one of these (``raise …
    from WorkerFailure(error)``), giving pool dispatch the same
    cause-chain shape the in-process path gets from the real exception.
    """

    def __init__(self, error: dict) -> None:
        super().__init__(
            f"{error.get('type', 'Unknown')}: {error.get('message', '')}"
        )
        self.error_type = error.get("type", "Unknown")


# Failure cause types that indicate executor infrastructure sickness
# rather than a user phase function's exception.
_INFRA_CAUSES = ("WorkerDied", "HeartbeatLost", "PoisonFragment")

# Worker-death cause types a fragment accumulates toward quarantine.
_INFRA_DEATHS = ("WorkerDied", "HeartbeatLost")


def backoff_delay(base: float, attempt: int, cap: float, jitter: float,
                  rng: random.Random | None = None) -> float:
    """Exponential backoff with jitter: ``base * 2**attempt``, capped at
    ``cap``, then stretched by up to ``jitter`` of itself.  The one
    backoff formula: the breaker's rebuild delay and the service's
    query retries both use it."""
    delay = min(base * (2 ** attempt), cap)
    draw = random.random() if rng is None else rng.random()
    return delay * (1.0 + jitter * draw)


# The breaker's policy: this many consecutive infrastructure failures
# open it; the rebuild then waits REBUILD_BACKOFF_SECONDS, doubled per
# rebuild up to REBUILD_BACKOFF_CAP_SECONDS, each delay stretched by up
# to BACKOFF_JITTER of itself.
BREAKER_THRESHOLD = 3
REBUILD_BACKOFF_SECONDS = 0.5
REBUILD_BACKOFF_CAP_SECONDS = 30.0
BACKOFF_JITTER = 0.5


# Breaker states, in classic circuit-breaker vocabulary.  ``closed``
# is healthy pooled dispatch; ``open`` means infrastructure failures
# reached the threshold (the rebuild is pending its backoff, or the
# breaker has degraded for good); ``half_open`` is probation —
# the pool was just rebuilt and the next run's outcome decides.
BREAKER_CLOSED = "closed"
BREAKER_HALF_OPEN = "half_open"
BREAKER_OPEN = "open"

_BREAKER_STATE_CODES = {
    BREAKER_CLOSED: 0,
    BREAKER_HALF_OPEN: 1,
    BREAKER_OPEN: 2,
}


class PoolCircuitBreaker:
    """Escalating response to repeated pool-infrastructure failures.

    :data:`BREAKER_THRESHOLD` consecutive runs failing with an
    infrastructure cause (:data:`_INFRA_CAUSES`) *open* the breaker: a
    rebuild of the shared pool is scheduled after an exponential backoff
    with jitter (:data:`REBUILD_BACKOFF_SECONDS`, doubled per scheduled
    rebuild, capped at :data:`REBUILD_BACKOFF_CAP_SECONDS`, each delay
    stretched by up to :data:`BACKOFF_JITTER` of itself) rather than
    immediately — a pool that is dying because the *host* is sick
    (OOM killer, cgroup pressure) would otherwise be reforked straight
    into the same grinder.  When the backoff elapses the next pooled
    run rebuilds and enters probation (``half_open``); if failures
    reach the threshold again the breaker *degrades* — every later
    pooled run stops trusting the shared pool and forks a private one
    for itself, shut down when the run ends (fresh processes, still
    isolated from the parent).  A successful run fully closes the
    breaker.  State is surfaced as :attr:`state` /
    :meth:`state_code` (gauge ``mp.breaker.state``: 0 closed,
    1 half-open, 2 open) so health endpoints can report it, and all
    transitions are thread-safe — concurrent service queries share this
    one module-level breaker.  The policy constants are read when used,
    so a test can patch them on the module for a live breaker; ``rng``
    seeds the jitter.
    """

    def __init__(self, rng: random.Random | None = None) -> None:
        self.consecutive_infra_failures = 0
        self.rebuilt = False
        self.degraded = False
        self.rebuilds = 0
        self.rebuild_not_before: float | None = None
        self._rng = rng
        self._lock = threading.Lock()

    def _next_backoff(self) -> float:
        return backoff_delay(
            REBUILD_BACKOFF_SECONDS, self.rebuilds,
            REBUILD_BACKOFF_CAP_SECONDS, BACKOFF_JITTER, self._rng,
        )

    def record_success(self) -> None:
        with self._lock:
            self.consecutive_infra_failures = 0
            self.rebuilt = False
            self.rebuild_not_before = None

    def record_failure(self, cause_type: str | None) -> None:
        with self._lock:
            if cause_type not in _INFRA_CAUSES:
                # A user exception says nothing about pool health.
                self.consecutive_infra_failures = 0
                return
            self.consecutive_infra_failures += 1
            if self.consecutive_infra_failures < BREAKER_THRESHOLD:
                return
            if self.rebuilt:
                self.degraded = True
            elif self.rebuild_not_before is None:
                # Threshold first reached: schedule the rebuild after
                # the backoff; further failures keep the schedule.
                self.rebuild_not_before = (
                    time.monotonic() + self._next_backoff()
                )

    def _rebuild_due(self) -> bool:
        return (
            not self.degraded
            and not self.rebuilt
            and self.consecutive_infra_failures >= BREAKER_THRESHOLD
            and (
                self.rebuild_not_before is None
                or time.monotonic() >= self.rebuild_not_before
            )
        )

    def should_rebuild(self) -> bool:
        with self._lock:
            return self._rebuild_due()

    def take_rebuild(self) -> bool:
        """Atomically claim the pending rebuild (one thread wins)."""
        with self._lock:
            if not self._rebuild_due():
                return False
            self._note_rebuild()
            return True

    def note_rebuild(self) -> None:
        with self._lock:
            self._note_rebuild()

    def _note_rebuild(self) -> None:
        self.rebuilds += 1
        self.rebuilt = True
        self.consecutive_infra_failures = 0
        self.rebuild_not_before = None

    @property
    def state(self) -> str:
        """``closed`` / ``half_open`` / ``open`` (see module constants)."""
        with self._lock:
            if self.degraded:
                return BREAKER_OPEN
            if self.rebuilt:
                return BREAKER_HALF_OPEN
            if self.consecutive_infra_failures >= BREAKER_THRESHOLD:
                return BREAKER_OPEN
            return BREAKER_CLOSED

    def state_code(self) -> int:
        """The state as a gauge value: 0 closed, 1 half-open, 2 open."""
        return _BREAKER_STATE_CODES[self.state]


_pool_breaker = PoolCircuitBreaker()


def pool_breaker_state() -> PoolCircuitBreaker:
    """The live module-level breaker (read-only for callers)."""
    return _pool_breaker


def reset_pool_breaker() -> None:
    """Install a fresh breaker (tests; also un-degrades the executor)."""
    global _pool_breaker
    _pool_breaker = PoolCircuitBreaker()


class MpFaultInjector:
    """Maps a :class:`~repro.parallel.mp_executor.faults.FaultPlan` onto
    pool workers.

    Consumes the plan's deterministic ``injection_schedule`` — fragment
    index stands in for node id, attempt number for ordinal — and hands
    the dispatcher two views per (fragment, attempt): the directive to
    ship *into* the worker (self-SIGKILL, self-SIGSTOP, injected
    exception, slowdown factor) and the actions the parent applies
    *around* it (unlinking the fragment's shm segment, scheduling the
    SIGCONT that ends a stall).  Kill and stall execute in the worker
    shim at job start rather than as parent-side signals: a parent
    signal sent after dispatch races the job itself — a fast fragment
    can reply (and the worker return to the idle list) before the
    signal lands, killing or freezing whichever fragment is dispatched
    there next and mis-charging the fault.  Each schedule entry fires
    exactly once; ``injected`` logs what actually fired, in firing
    order.
    """

    def __init__(self, plan, num_fragments: int, attempts: int) -> None:
        self.plan = plan
        self.schedule = plan.injection_schedule(
            range(num_fragments), attempts
        )
        self._pending = set(self.schedule)
        self._slow = {s.node_id: s.slowdown for s in plan.stragglers}
        self._stall = {s.node_id: s.seconds for s in plan.worker_stalls}
        self.injected: list[tuple[str, int, int]] = []

    def _take(self, kind: str, index: int, attempt: int) -> bool:
        key = (kind, index, attempt)
        if key not in self._pending:
            return False
        self._pending.discard(key)
        self.injected.append(key)
        return True

    def worker_inject(self, index: int, attempt: int) -> dict | None:
        """The in-worker directive (kill beats everything: a dead worker
        can't limp; error beats slow: the job dies before it crawls)."""
        inject: dict = {}
        if self._take(INJECT_KILL, index, attempt):
            # A dead worker fires nothing else this attempt.
            return {INJECT_KILL: True}
        if self._take(INJECT_STALL, index, attempt):
            inject[INJECT_STALL] = self._stall[index]
        if self._take(INJECT_ERROR, index, attempt):
            inject[INJECT_ERROR] = True
        elif self._take(INJECT_SLOW, index, attempt):
            inject[INJECT_SLOW] = self._slow[index]
        return inject or None

    def parent_actions(self, index: int, attempt: int) -> dict:
        """Parent-side actions around the dispatch."""
        actions: dict = {}
        if self._take(INJECT_SHM_LOSS, index, attempt):
            actions[INJECT_SHM_LOSS] = True
        return actions

