"""A real multiprocessing Two Phase executor, hardened against failures.

Each worker process aggregates one node's fragment (phase 1); the parent
merges the partial states (phase 2).  This demonstrates the library's
partial-aggregate states compose across *real* process boundaries — the
states are picklable by construction — and its wall-clock time is
tracked by the end-to-end benchmark (``BENCHMARK.json``); the paper's
32-node figures come from the simulator (see DESIGN.md).

Dispatch runs through a persistent worker pool: workers are forked once
and reused across fragments, retries and runs, and every non-empty
fragment travels as one serialized
:class:`~repro.storage.ColumnBlock` (dictionary-encoded columns) in a
``repro_mp_``-named ``multiprocessing.shared_memory`` segment — only a
small job descriptor (segment name, byte and row counts, query, schema)
is pickled over the pipe.  Unless the caller substituted a ``phase_fn``
(or passed an opaque callable as WHERE), the block is projected to the
columns the query reads first — group keys, aggregate inputs, the
columns a parsed WHERE names — so an evaluation-schema tuple ships 16 of
its 100 bytes.  Empty fragments, and rows the block codec rejects (an
int outside int64, a mistyped value), are pickled inline instead.

Each fragment is shipped once.  The segment written for a *block-born*
fragment (its relation holds an immutable ``ColumnBlock``) stays
**resident** after the run in a parent-owned table, and a repeat run
over the same block and projection sends descriptors, not bytes;
fragments shipped from row lists get per-run segments.  Partials come
back the same way: each pool worker writes its reply's arrays into its
*return arena*, a segment the parent creates once per worker and lends
a region of per job, and the parent merges views over it.  The parent
owns every segment and no *stray* one survives any exit path: between
runs only the resident segments of live blocks and the live workers'
arenas are left, and nothing after ``shutdown_worker_pool()``
(:mod:`~repro.parallel.mp_executor.wire`).

The parent detects a worker that raises, dies, or exceeds
``timeout`` seconds and retries that one fragment (in a fresh or
replacement worker) up to ``max_retries`` times.  A fragment that
still fails raises :class:`FragmentFailedError` carrying the partial
progress (every fragment that *did* complete) — the executor never hangs
on a dead or wedged worker.

``processes=0`` (the default) sizes the pool to the fragment count but
falls back to in-process execution when the host has a single CPU, so the
test suite stays fast everywhere.

The pool path is chaos-hardened end to end:

- **Fault injection** — a seedable
  :class:`~repro.parallel.mp_executor.faults.FaultPlan` drives
  real-process injection (``faults=plan``): a ``CrashFault``
  SIGKILLs the fragment's worker at job start (the worker shim delivers
  the signal to itself, so the crash always lands on the scheduled
  fragment), a ``Straggler`` limps it with an artificial per-row
  slowdown, a ``WorkerStall`` self-SIGSTOPs it until the parent's
  scheduled SIGCONT (the limplock scenario), ``read_error_rate`` raises
  :class:`InjectedFaultError` inside the worker, and ``message_loss``
  unlinks the fragment's shared-memory segment before dispatch (a
  resident one leaves the table with it; the retry's fresh segment
  takes its place).  Which faults fire where is the plan's
  deterministic ``injection_schedule``: a given seed fires the same
  (kind, fragment, attempt) tuples run after run.
- **Heartbeats** — a busy worker beats every 0.5 s; one silent for
  5 s is declared ``HeartbeatLost`` without waiting out the job
  timeout, and workers that died while *idle* are detected eagerly.
  A fragment has one attempt in flight at a time: on one host there is
  no healthier node for a backup copy to run on.
- **Quarantine + circuit breaker** — a fragment that kills three
  workers fails fast as a ``PoisonFragment`` with
  the full cause chain; repeated infrastructure-level run failures trip
  a module-level breaker that rebuilds the shared pool once and then
  gives every run a private pool of fresh workers (``mp.breaker.*``).
  Both rounds of ``strategy="rep"`` run where a two-phase run would and
  answer to the same breaker (``pool._Runner`` decides once per run).

The fault-free path is byte-identical to the pre-chaos executor; the
golden parity tests pin that.

The executor is also safe for **concurrent multi-threaded callers**
(the long-lived query service in :mod:`repro.service` is the first):
the shared pool hands out each worker to exactly one dispatcher at a
time under a pool lock, idle-pipe watching is restricted to a sole
dispatcher (concurrent runs detect idle deaths at acquire instead),
worker forks are serialized, and a pool that was shut down while
another run still held its workers discards them on release instead of
resurrecting them as orphans.  ``deadline=`` (an absolute
``time.monotonic()`` value) bounds a whole run: when it expires the
dispatcher cancels every in-flight attempt through the same
discard-on-timeout path, unlinks the run's own shared-memory segments
(releasing the resident ones it read), and raises
:class:`DeadlineExceededError` — cooperative cancellation for callers
that serve queries under latency budgets.
"""

from repro.parallel.mp_executor.api import multiprocessing_aggregate
from repro.parallel.mp_executor.pool import WorkerPool, shutdown_worker_pool
from repro.parallel.mp_executor.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    DeadlineExceededError,
    FragmentFailedError,
    InjectedFaultError,
    MpFaultInjector,
    PoolCircuitBreaker,
    WorkerFailure,
    pool_breaker_state,
    reset_pool_breaker,
)
from repro.parallel.mp_executor.wire import (
    SHM_PREFIX,
    release_resident_segments,
)

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "DeadlineExceededError",
    "FragmentFailedError",
    "InjectedFaultError",
    "MpFaultInjector",
    "PoolCircuitBreaker",
    "SHM_PREFIX",
    "WorkerFailure",
    "WorkerPool",
    "multiprocessing_aggregate",
    "pool_breaker_state",
    "release_resident_segments",
    "reset_pool_breaker",
    "shutdown_worker_pool",
]
