"""Where jobs run: the worker main loop, the persistent
:class:`WorkerPool`, the pooled dispatch loop and its in-process twin,
and the :class:`_Runner` that decides, once per run, which of them a
run's jobs go to and answers for the pool they ran on."""

from __future__ import annotations

import atexit
import copy
import gc
import multiprocessing
import os
import pickle
import signal
import stat
import threading
import time
from collections import deque
from multiprocessing import resource_tracker
from multiprocessing.connection import wait as _connection_wait

from repro.obs.profile import profile_finish, profile_start
from repro.parallel.mp_executor.faults import (
    INJECT_ERROR,
    INJECT_KILL,
    INJECT_SHM_LOSS,
    INJECT_SLOW,
    INJECT_STALL,
)
from repro.parallel.mp_executor.kernel import (
    _decline,
    _local_phase,
    _per_row_phase,
)
from repro.parallel.mp_executor.merge import _note_seconds, _take_notes
from repro.parallel.mp_executor.resilience import (
    _INFRA_DEATHS,
    DeadlineExceededError,
    FragmentFailedError,
    InjectedFaultError,
    MpFaultInjector,
    WorkerFailure,
    pool_breaker_state,
)
from repro.parallel.mp_executor.wire import (
    _load_job,
    _received,
    _Shipment,
    _table,
    _WorkerArena,
    release_resident_segments,
)
from repro.storage.columnblock import ColumnBlock


_JOIN_GRACE_SECONDS = 5.0

# Liveness: a busy worker beats every HEARTBEAT_INTERVAL seconds, and one
# silent for HEARTBEAT_TIMEOUT is declared lost.  The timeout is generous:
# a busy single-core box can starve the beat thread for a while without
# the worker being sick.
HEARTBEAT_INTERVAL = 0.5
HEARTBEAT_TIMEOUT = 5.0
# Worker deaths that quarantine the fragment that caused them.
POISON_THRESHOLD = 3


def _tracker_noop(*_args, **_kwargs) -> None:
    return None


def _disarm_resource_tracker() -> None:
    """Fork-safety: neuter the inherited resource tracker in a worker.

    Must run first thing in every forked child.  The parent's tracker
    lock may be *held by another thread* at fork time — concurrent
    dispatchers encode segments (creating one registers with the
    tracker) while ``WorkerPool.acquire`` forks — and a lock
    captured mid-hold never unlocks in the child, because its owner
    thread does not exist there.  On this Python, merely *attaching* a
    segment also registers with the tracker, so the worker's first shm
    attach would deadlock forever and hang its dispatcher.

    Workers never own segments — the parent creates and unlinks all of
    them — so the tracker has no business in a worker at all: make
    register/unregister no-ops instead of trying to repair the lock.
    """
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    for owner in (resource_tracker, tracker):
        for name in ("register", "unregister", "ensure_running"):
            if owner is not None:
                setattr(owner, name, _tracker_noop)


def _attempt(call, catch=Exception):
    """Run one attempt of a job, here: ``(reply, exc)``.

    ``reply`` is what a worker sends back — ``("ok", result, profile)``
    or ``("error", {"type", "message"}, profile)``, the type name being
    what failures are classified by — and ``exc`` the exception itself,
    for a caller in the same process to chain from.  ``profile`` is the
    attempt's self-measurement plus its notes (``declined``: why it left
    the kernel; ``grouping``: how its key columns were numbered).  A
    worker replies whatever was raised (``catch=BaseException``); the
    parent's own thread lets an interrupt through.
    """
    started = profile_start()
    _take_notes()  # not this attempt's: inherited at fork, or an earlier run's

    def profile() -> dict:
        return {**profile_finish(started), **_take_notes()}

    try:
        result = call()
    except catch as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        return ("error", error, profile()), exc
    return ("ok", result, profile()), None


_SLOW_CHUNK_ROWS = 128


class _Heartbeat(threading.Thread):
    """A worker's beat emitter, one for its life: one
    ``("beat", None, None)`` per interval while a job runs, none while
    it idles.  ``lock`` is the reply pipe's: the job's interval is set
    and cleared only under it (:meth:`busy`, :meth:`idle`), and a beat
    is sent only under it while a job is on, so beats never interleave
    with a reply and none can trail the final one."""

    def __init__(self, conn, lock) -> None:
        super().__init__(daemon=True)
        self.conn = conn
        self._cond = threading.Condition(lock)
        self._interval = None  # the running job's, None between jobs
        self._job = 0

    def busy(self, interval: float) -> None:
        """Lock held: a job starts, beating every ``interval`` s."""
        self._interval = interval
        self._job += 1
        self._cond.notify()

    def idle(self) -> None:
        """Lock held: the job's final reply goes out next."""
        self._interval = None
        self._cond.notify()

    def run(self) -> None:
        with self._cond:
            while True:
                if self._interval is None:
                    self._cond.wait()
                    continue
                job = self._job
                self._cond.wait(self._interval)
                if self._interval is None or self._job != job:
                    continue
                try:
                    self.conn.send(("beat", None, None))
                except Exception:  # pragma: no cover - parent went away
                    return


def _start_clean(conn) -> None:
    """Drop what the worker inherited that would outlive its parent.

    Every socket but stdio and ``conn`` closes — the parent's ends of
    the pipes (socket pairs), a server's listeners and clients — so the
    parent's death is an EOF on ``conn``; pipes stay, as
    ``Process.join`` waits on one.  Stdio stays even as a socket (the
    journal, under systemd): a segment would take its number.
    SIGTERM and SIGINT get their default handlers back:
    ``repro serve`` drains on them.  Not ``PR_SET_PDEATHSIG``: it fires
    when the forking *thread* exits, and the service forks from
    per-request threads."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        fds = {int(fd) for fd in os.listdir("/proc/self/fd")}
    except OSError:  # pragma: no cover - no /proc
        return
    for fd in fds - {0, 1, 2, conn.fileno()}:
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:  # the directory listing's own descriptor
            pass


def _run_as_batch_work() -> None:
    """Mark this process CPU-bound batch work (``SCHED_BATCH``).

    A worker woken by its dispatcher's ``send`` would otherwise preempt
    that dispatcher on a shared CPU and run its whole job before the
    ``send`` returns, so the next fragment goes out only after this one
    is done.  An unprivileged process may lower itself to it; where the
    call is missing or refused the worker runs as it was."""
    try:
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    except (AttributeError, OSError):
        pass


def _limping(rows, factor: float):
    """``rows``, one at a time; after every ``_SLOW_CHUNK_ROWS`` of them
    sleep off ``(factor - 1)`` of the time the consumer took over the
    chunk."""
    for start in range(0, len(rows), _SLOW_CHUNK_ROWS):
        t0 = time.perf_counter()
        yield from rows[start:start + _SLOW_CHUNK_ROWS]
        time.sleep((factor - 1.0) * (time.perf_counter() - t0))


def _slow_job(fn, job, factor: float):
    """Injected straggler: run the job ``factor`` times slower.

    For the built-in phase — every ungoverned run, whatever the
    strategy name — the rows run through the per-row loop in chunks
    (:func:`_limping`) — a limping-but-alive worker that keeps beating.
    The accumulation order is exactly the sequential loop's, so results
    stay bit-identical to the fault-free run.  Substituted and governed
    phase functions are opaque: they run whole, then sleep off the
    multiplier.
    """
    if fn is _local_phase:
        rows, query, schema = job
        _decline("injected_slow")
        if isinstance(rows, ColumnBlock):
            rows = rows.to_rows()
        return _per_row_phase(
            _limping(rows, factor), query, schema
        )
    t0 = time.perf_counter()
    result = fn(job)
    time.sleep((factor - 1.0) * (time.perf_counter() - t0))
    return result


def _run_worker_job(fn, descriptor, inject: dict, mapped: list):
    """Run one job under the (possibly empty) injection directive.

    Kill and stall are delivered *here*, by the worker to itself, so
    the fault lands on the fragment it was scheduled for — a parent
    signal sent after dispatch can race a fast job and hit whatever
    runs on this worker next instead.

    The job reads its segment in place (``mapped``,
    :func:`~repro.parallel.mp_executor.wire._load_job`); attach to
    block ready goes into the profile as ``load_seconds``.
    """
    if inject.get(INJECT_KILL):
        # A real crash: no exception, no reply, the parent sees EOF.
        os.kill(os.getpid(), signal.SIGKILL)
    if inject.get(INJECT_STALL) is not None:
        # Limplock: freeze (heartbeats included) until the parent's
        # scheduled SIGCONT — or its heartbeat-loss recovery — ends it.
        os.kill(os.getpid(), signal.SIGSTOP)
    if inject.get(INJECT_ERROR):
        raise InjectedFaultError(
            "injected worker fault (FaultPlan.read_error_rate)"
        )
    t0 = time.perf_counter()
    job = _load_job(descriptor, mapped)
    _note_seconds("load_seconds", time.perf_counter() - t0)
    slow = inject.get(INJECT_SLOW)
    if slow:
        return _slow_job(fn, job, slow)
    return fn(job)


def _pool_worker_main(conn) -> None:
    """Long-lived worker loop: recv (fn, descriptor, opts), one reply each.

    The final reply is ``(status, payload, profile)``: status "ok"
    carries the result, status "error" a ``{"type", "message"}`` dict
    preserving the exception's type so the parent can classify the
    failure, and ``profile`` is the worker's self-measurement (wall/CPU
    seconds, high-water RSS).  It crosses as
    :meth:`~repro.parallel.mp_executor.wire._WorkerArena.message` says:
    its large buffers written into ``opts["arena"]``, the extent of the
    worker's return arena the parent lent the job.
    ``("beat", None, None)`` messages precede it, one every
    ``opts["heartbeat"]`` seconds.  ``opts["inject"]`` carries the
    fault directive for this job (self-SIGKILL, self-SIGSTOP limplock,
    an injected exception, or a slowdown factor).  ``None`` is the
    shutdown sentinel; a closed pipe means the parent is gone.
    """
    _disarm_resource_tracker()
    _start_clean(conn)
    _run_as_batch_work()
    # Everything alive here was inherited at fork and lives as long as
    # the worker does.  Left in the oldest generation, each full
    # collection walks all of it (~10 ms for the imported modules alone)
    # in the middle of whichever fragment's allocations trip it.
    gc.freeze()
    lock = threading.Lock()
    beat = _Heartbeat(conn, lock)
    beat.start()
    arena = _WorkerArena()
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            return
        if request is None:
            conn.close()
            return
        fn, descriptor, opts = request
        with lock:
            beat.busy(opts["heartbeat"])
        mapped: list = []  # the segment the job's columns are views over
        # [0]: the exception goes at once — its traceback's frames hold
        # the job, whose columns are views the mapping cannot close under.
        reply = _attempt(
            lambda: _run_worker_job(
                fn, descriptor, opts.get("inject") or {}, mapped
            ),
            BaseException,
        )[0]
        # conn.send(reply) in its two halves, the input mapping closed
        # between them: a partial may hold views of the mapped columns
        # until it is written out, and what a worker does after its
        # reply has woken the parent competes with the parent for a CPU.
        data = arena.message(reply, opts.get("arena"))
        reply = None
        for shm in mapped:
            shm.close()
        try:
            with lock:
                beat.idle()
                conn.send_bytes(data)
        except Exception:  # pragma: no cover - parent went away
            return


class _PoolWorker:
    __slots__ = ("proc", "conn")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn


class WorkerPool:
    """A lazily grown pool of persistent, replaceable worker processes.

    Workers survive across fragments, retries, and whole
    :func:`multiprocessing_aggregate` calls (the module keeps one shared
    instance), which is where the pool's throughput comes from: the
    fork and module import are paid once per worker instead of once per
    fragment attempt.

    A worker that died or was terminated mid-job (timeout, crash) is
    *discarded* and a fresh one forked on demand — the pool never hands
    out a worker in an unknown state.

    The pool is thread-safe: the idle list, fork, and dispatcher
    bookkeeping are guarded by one re-entrant lock, so concurrent
    :func:`multiprocessing_aggregate` calls (the query service runs one
    per request thread) can share it.  Each worker is held by exactly
    one dispatcher between ``acquire`` and ``release``/``discard``, so
    two runs never read the same pipe; idle-pipe *watching* is the one
    single-dispatcher privilege (see :meth:`watch_idle`).
    """

    def __init__(self, ctx=None) -> None:
        self._ctx = ctx or multiprocessing.get_context()
        self._idle: list[_PoolWorker] = []
        self._lock = threading.RLock()
        self._dispatchers = 0
        self.closed = False
        self.spawned = 0

    def acquire(self) -> _PoolWorker:
        with self._lock:
            while self._idle:
                worker = self._idle.pop()
                if worker.proc.is_alive():
                    return worker
                self.discard(worker)  # died while idle: reap, fork fresh
            # Fork under the lock: forking from several threads at once
            # is where fork-safety bugs live, and the fork is cheap
            # relative to the fragment it will run.
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_pool_worker_main, args=(child_conn,), daemon=True
            )
            proc.start()
            child_conn.close()
            self.spawned += 1
            return _PoolWorker(proc, parent_conn)

    def release(self, worker: _PoolWorker) -> None:
        """Return a healthy worker for reuse.

        A pool that was shut down while this worker was busy (circuit-
        breaker rebuild, service drain) must not resurrect it as an
        orphan nobody will ever stop — discard it instead.
        """
        with self._lock:
            if self.closed:
                self.discard(worker)
                return
            self._idle.append(worker)

    def register_dispatcher(self) -> None:
        """A dispatch loop is starting to use this pool."""
        with self._lock:
            self._dispatchers += 1

    def unregister_dispatcher(self) -> None:
        with self._lock:
            self._dispatchers -= 1

    def idle_workers(self) -> list[_PoolWorker]:
        """A snapshot of the idle set."""
        with self._lock:
            return list(self._idle)

    def watch_idle(self) -> list[_PoolWorker]:
        """The idle workers this dispatcher may wait on for eager
        idle-death detection — only when it is the *sole* dispatcher.

        With concurrent dispatchers the privilege is withdrawn: two
        loops waiting on the same idle pipe would race to ``recv`` the
        message (or steal a freshly dispatched job's reply), so idle
        deaths are instead caught at the next ``acquire``.
        """
        with self._lock:
            if self._dispatchers > 1:
                return []
            return list(self._idle)

    def recv_idle(self, worker: _PoolWorker) -> str:
        """Consume a ready message from a watched idle worker, safely.

        Re-checks idle membership under the pool lock before reading:
        between the dispatcher's wait and this call another thread may
        have acquired the worker, in which case the ready data is *that
        run's* reply and must not be stolen — and may have read it and
        released the worker again, in which case there is nothing left
        to read and a ``recv`` would block, pool lock held, for good.
        Returns ``"acquired"`` (not ours, or taken meanwhile),
        ``"beat"`` (stale heartbeat from a finished job), or ``"dead"``
        (EOF — the worker was retired).
        """
        with self._lock:
            if worker not in self._idle or not worker.conn.poll():
                return "acquired"
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                message = None
            if (isinstance(message, tuple) and message
                    and message[0] == "beat"):
                return "beat"
            self._idle.remove(worker)
            self.discard(worker)
            return "dead"

    def remove_idle(self, worker: _PoolWorker) -> None:
        """Retire a specific idle worker (it died or sent nonsense)."""
        with self._lock:
            try:
                self._idle.remove(worker)
            except ValueError:  # pragma: no cover - already gone
                return
            self.discard(worker)

    def discard(self, worker: _PoolWorker, hard: bool = False) -> None:
        """Terminate and reap a worker that cannot be reused.

        ``hard`` skips SIGTERM and kills outright — required for
        SIGSTOPped (stalled) workers, which would never see the TERM
        and would eat the full join grace.
        """
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if hard:
            worker.proc.kill()
        else:
            worker.proc.terminate()
        worker.proc.join(_JOIN_GRACE_SECONDS)
        if worker.proc.is_alive():  # pragma: no cover - stuck after kill
            worker.proc.kill()
            worker.proc.join(_JOIN_GRACE_SECONDS)
        _table.retire(worker.proc.pid)

    def shutdown(self) -> None:
        """Stop every idle worker (busy ones are the dispatcher's to
        kill) and mark the pool closed so late releases discard."""
        with self._lock:
            self.closed = True
            idle, self._idle = self._idle, []
        for worker in idle:
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
            self.discard(worker)


_shared_pool: WorkerPool | None = None
_atexit_registered = False
# Guards the module pool slot against concurrent get/shutdown — the
# query service calls multiprocessing_aggregate from many threads.
_pool_mutex = threading.Lock()


def _get_shared_pool() -> WorkerPool:
    global _shared_pool, _atexit_registered
    with _pool_mutex:
        if _shared_pool is None:
            _shared_pool = WorkerPool()
            if not _atexit_registered:
                # One hook for the module, not one per pool instance: an
                # explicit shutdown followed by a fresh pool must not
                # leave stale atexit entries resurrecting dead pools.
                atexit.register(shutdown_worker_pool)
                _atexit_registered = True
        return _shared_pool


def shutdown_worker_pool() -> None:
    """Terminate the module's shared pool and unlink every resident
    segment; idempotent, safe anytime.

    Clears the module slot, so the next pooled run forks a fresh pool —
    this is also how the circuit breaker rebuilds a sick pool.  Runs
    still holding workers from the old pool finish normally; their
    workers are discarded on release (the pool is marked closed) rather
    than leaked as orphans, and the resident segments they still read
    are unlinked when they end.  After this returns with no run in
    flight the executor owns no process and no ``repro_mp_*`` segment.
    """
    global _shared_pool
    with _pool_mutex:
        pool, _shared_pool = _shared_pool, None
    if pool is not None:
        pool.shutdown()
    release_resident_segments()


class _PoolAttempt:
    """A fragment's one in-flight attempt on a pool worker."""

    __slots__ = (
        "index", "attempt", "worker", "deadline", "started", "last_beat",
        "stall_resume", "lent",
    )

    def __init__(self, index, attempt, worker, deadline, started) -> None:
        self.index = index
        self.attempt = attempt
        self.worker = worker
        self.deadline = deadline
        self.started = started
        self.last_beat = time.monotonic()
        self.stall_resume = None
        self.lent = _table.lend(worker.proc.pid)


def _run_jobs_in_pool(fn_for, descriptors: list, runner: "_Runner",
                      shipment=None) -> dict[int, list]:
    """Pool dispatch: jobs go to ``runner.pool``'s persistent workers as
    small descriptors; returns index -> result.

    ``fn_for(attempt)`` resolves the phase function for a given attempt
    number — how a memory budget swaps in a reduced-budget spill phase
    on retry.  A fragment has at most one attempt in flight.  A worker
    that raises, dies (closed pipe without a result), goes silent for
    ``HEARTBEAT_TIMEOUT`` or exceeds ``runner.timeout`` fails that
    attempt, and :meth:`_Runner.failed` says what follows.

    Timeout, heartbeat-loss and death handling must discard the worker
    (its loop may be wedged or gone); a clean "error" reply leaves it
    reusable.  ``runner.injector``, when set, injects the fault plan.
    ``shipment`` is the :class:`~repro.parallel.mp_executor.wire._Shipment`
    behind the descriptors, when there is one: it loses a fragment's
    segment on an injected shm loss and ships the fragment again once a
    worker found it gone.  Past the run deadline every in-flight worker
    is discarded.
    """
    processes, timeout, obs = runner.processes, runner.timeout, runner.obs
    pool, injector = runner.pool, runner.injector
    run_deadline, hb_timeout = runner.deadline, HEARTBEAT_TIMEOUT
    completed = runner.completed

    pending: deque[tuple[int, int]] = deque(
        (i, 0) for i in range(len(descriptors))
    )
    busy: dict[object, _PoolAttempt] = {}

    def dispatch(index: int, attempt: int) -> None:
        worker = pool.acquire()
        inject = None
        actions: dict = {}
        if injector is not None:
            inject = injector.worker_inject(index, attempt)
            actions = injector.parent_actions(index, attempt)
        if actions.get(INJECT_SHM_LOSS) and shipment is not None:
            if shipment.lose(index):
                obs.fault_injected(INJECT_SHM_LOSS, index, attempt)
        deadline = None if timeout is None else time.monotonic() + timeout
        record = _PoolAttempt(index, attempt, worker, deadline, obs.now())
        busy[worker.conn] = record
        lent = record.lent
        opts = {
            "inject": inject, "heartbeat": HEARTBEAT_INTERVAL,
            "arena": None if lent is None else (lent[0].name, *lent[1:]),
        }
        try:
            worker.conn.send((fn_for(attempt), descriptors[index], opts))
        except (OSError, ValueError):  # pragma: no cover - died pre-send
            del busy[worker.conn]
            pool.discard(worker)
            attempt_failed(record, {
                "type": "WorkerDied",
                "message": "worker pipe closed before dispatch",
            })
            return
        if inject:
            for kind in inject:
                obs.fault_injected(kind, index, attempt)
            if inject.get(INJECT_STALL) is not None:
                # The worker self-SIGSTOPs at job start; the parent
                # owns the SIGCONT that ends the limplock.
                record.stall_resume = (
                    time.monotonic() + inject[INJECT_STALL]
                )

    def attempt_failed(record: _PoolAttempt, error: dict,
                       profile=None) -> None:
        obs.attempt_done(record.index, record.attempt, record.started,
                         False, profile, error)
        runner.failed(record.index, record.attempt, error)
        if (
            shipment is not None
            and error.get("type") == "FileNotFoundError"
            and descriptors[record.index][0] == "shm_col"
        ):
            # The segment vanished (injected shm loss): re-encode the
            # fragment into a fresh one before the retry ships.
            descriptors[record.index] = shipment.reencode(record.index)
            obs.reencoded(record.index)
        pending.append((record.index, record.attempt + 1))

    def wake_if_stalled(record: _PoolAttempt) -> None:
        # A fast job can reply before the injected SIGSTOP lands; the
        # worker then sits stopped while its stall deadline dies with
        # the finished record.  Wake it before it rejoins the idle list
        # or the next fragment dispatched to it hangs until heartbeat
        # loss.
        if record.stall_resume is not None:
            try:
                os.kill(record.worker.proc.pid, signal.SIGCONT)
            except ProcessLookupError:  # pragma: no cover - already dead
                pass
            record.stall_resume = None

    pool.register_dispatcher()
    try:
        while busy or pending:
            runner.check_deadline(len(descriptors))
            while pending and len(busy) < processes:
                dispatch(*pending.popleft())
            now = time.monotonic()
            wait_until: list[float] = []
            if run_deadline is not None:
                wait_until.append(run_deadline)
            for record in busy.values():
                if record.deadline is not None:
                    wait_until.append(record.deadline)
                wait_until.append(record.last_beat + hb_timeout)
                if record.stall_resume is not None:
                    wait_until.append(record.stall_resume)
            wait_for = (
                None if not wait_until
                else max(0.0, min(wait_until) - now)
            )
            idle = {w.conn: w for w in pool.watch_idle()}
            ready = _connection_wait(
                list(busy) + list(idle), timeout=wait_for
            )
            for conn in ready:
                if conn in idle:
                    if pool.recv_idle(idle[conn]) == "dead":
                        obs.idle_death()
                    continue
                record = busy[conn]
                profile = None
                t0 = time.perf_counter()
                try:
                    # conn.recv(), in its two halves: the size is known
                    # only between them.
                    data = conn.recv_bytes()
                    message = pickle.loads(data)
                except (EOFError, OSError):
                    status, payload = "died", None
                else:
                    status = message[0]
                    if status != "beat":
                        reply, lease, reply_bytes, need = _received(
                            message, record.lent, len(data)
                        )
                        status, payload, profile = reply
                        if lease is not None:
                            runner.leases.append(lease)
                        if need:
                            _table.grow(record.worker.proc.pid, need)
                        obs.returned(reply_bytes,
                                     time.perf_counter() - t0, bool(need))
                if status == "beat":
                    record.last_beat = time.monotonic()
                    obs.beat()
                    continue
                del busy[conn]
                if status == "died":
                    error = {
                        "type": "WorkerDied",
                        "message": (
                            "worker died without a result "
                            f"(exitcode={record.worker.proc.exitcode})"
                        ),
                    }
                    pool.discard(record.worker)
                    attempt_failed(record, error, profile)
                    continue
                wake_if_stalled(record)
                pool.release(record.worker)
                if status == "ok":
                    completed[record.index] = payload
                    obs.attempt_done(record.index, record.attempt,
                                     record.started, True, profile)
                else:
                    attempt_failed(record, payload, profile)
            now = time.monotonic()
            for record in list(busy.values()):
                if (record.stall_resume is not None
                        and now >= record.stall_resume):
                    wake_if_stalled(record)  # the injected limplock ends
                    record.last_beat = now  # grace until beats resume
            for record in list(busy.values()):
                silence = now - record.last_beat
                if silence >= hb_timeout:
                    del busy[record.worker.conn]
                    # hard: a SIGSTOPped worker never sees SIGTERM.
                    pool.discard(record.worker, hard=True)
                    obs.heartbeat_lost(record.index, record.attempt)
                    attempt_failed(record, {
                        "type": "HeartbeatLost",
                        "message": (
                            f"no heartbeat for {silence:.2f}s "
                            "(worker stalled, starved, or wedged)"
                        ),
                    })
                elif record.deadline is not None and now >= record.deadline:
                    del busy[record.worker.conn]
                    pool.discard(
                        record.worker,
                        hard=record.stall_resume is not None,
                    )
                    attempt_failed(record, {
                        "type": "Timeout",
                        "message": f"timed out after {timeout:g}s",
                    })
    finally:
        for record in busy.values():
            pool.discard(
                record.worker, hard=record.stall_resume is not None
            )
        pool.unregister_dispatcher()
    return completed


def _run_jobs_in_process(fn_for, jobs: list,
                         runner: "_Runner") -> dict[int, list]:
    """The single-CPU path: the same outcome rules, no processes.

    Its own loop, because all it does is call the job here: failures
    are classified by exception type
    (:class:`~repro.resources.MemoryExceededError` is the budget's
    trigger: the retry reruns with spilling) and the final
    :class:`FragmentFailedError` chains from the exception itself.
    The run deadline is checked between fragments and between attempts
    (a running fragment cannot preempt itself without a process).
    """
    obs = runner.obs
    for index, job in enumerate(jobs):
        attempt = 0
        while True:
            runner.check_deadline(len(jobs))
            span_start = obs.now()
            (status, payload, profile), exc = _attempt(
                lambda: fn_for(attempt)(job)
            )
            if status == "ok":
                runner.completed[index] = payload
                obs.attempt_done(index, attempt, span_start, True, profile)
                break
            obs.attempt_done(index, attempt, span_start, False, profile,
                             payload)
            runner.failed(index, attempt, payload, exc)
            attempt += 1
    return runner.completed


class _Runner:
    """Where one run's jobs execute, who answers for the pool, and what
    a failed attempt means — the same for every round of the run.

    Decided once, when the run starts: in this process (one worker
    asked for), on the module's shared pool — rebuilt first when the
    circuit breaker says it is due — or, once the breaker has given up
    on the shared pool, on a private one forked for this run and shut
    down with it (fresh workers, still isolated from the parent; fault
    injection is skipped).  Leaving the ``with`` block settles the
    pool's account: the run's outcome feeds the breaker (a deadline
    miss does not count), the breaker's state is reported, and what the
    injector fired lands in ``faults_log``.  The arena regions the
    run's partials were read from are held past that, until the caller
    has merged them (:meth:`give_back`).
    """

    def __init__(self, fragments: int, processes: int, max_retries: int,
                 timeout: float | None, deadline: float | None, obs,
                 faults=None, faults_log: list | None = None) -> None:
        if processes == 0:
            processes = min(fragments, os.cpu_count() or 1)
        self.injector: MpFaultInjector | None = None
        if faults is not None:
            # Injection needs real worker processes; in-process there is
            # nothing to kill, stall, or starve.
            processes = max(processes, 2)
            self.injector = MpFaultInjector(
                faults, fragments, max_retries + 1
            )
        self.processes = processes
        self.in_process = processes <= 1
        self.max_retries = max_retries
        self.timeout = timeout
        self.deadline = deadline  # absolute monotonic, for the whole run
        self.obs = obs
        self.faults_log = faults_log
        self.pool: WorkerPool | None = None
        self._private = False
        self.completed: dict[int, list] = {}
        self.leases: list = []  # arena regions the partials are views over

    def __enter__(self) -> "_Runner":
        if self.in_process:
            return self
        self._breaker = breaker = pool_breaker_state()
        self._private = breaker.degraded
        if self._private:
            self.obs.pool_degraded()
            self.pool = WorkerPool()
            self.injector = None
        else:
            if breaker.take_rebuild():
                shutdown_worker_pool()
                self.obs.pool_rebuild()
            self.pool = _get_shared_pool()
        return self

    def __exit__(self, _exc_type, exc, _tb) -> None:
        if self.in_process:
            return
        if exc is None:
            self._breaker.record_success()
        elif isinstance(exc, FragmentFailedError):
            self._breaker.record_failure(exc.cause_type)
        if self._private:
            self.pool.shutdown()
        self.obs.breaker_state(self._breaker.state_code())
        if self.injector is not None and self.faults_log is not None:
            self.faults_log.extend(self.injector.injected)

    def run(self, fn_for, jobs: list, project: bool = True,
            inline: bool = False) -> dict[int, list]:
        """One round: ``jobs`` through ``fn_for(attempt)``; returns
        index -> result.  Fragments cross to a pool as one
        :class:`~repro.parallel.mp_executor.wire._Shipment`
        (``project`` as there); ``inline`` jobs are not fragments and
        are pickled over the pipe as they are."""
        self.completed: dict[int, list] = {}
        self._deaths: dict[int, list[str]] = {}  # fragment -> infra causes
        if self.in_process:
            return _run_jobs_in_process(fn_for, jobs, self)
        if inline:
            descriptors = [("inline", job) for job in jobs]
            return _run_jobs_in_pool(fn_for, descriptors, self)
        with _Shipment(jobs, self.obs, project) as shipment:
            return _run_jobs_in_pool(fn_for, shipment.ship(), self, shipment)

    def give_back(self) -> None:
        """The partials are merged, or the run failed: every arena
        region they were read from goes back, on every exit path."""
        self.completed.clear()
        if self.leases:
            _table.give_back(self.leases)
            self.leases.clear()

    def _salvaged(self) -> dict:
        """The completed partials, for a caller to keep: copied out of
        the arena regions, which go back when the run ends."""
        if self.leases:
            return copy.deepcopy(self.completed)
        return dict(self.completed)

    def check_deadline(self, total: int) -> None:
        """The run deadline cancels a round cooperatively."""
        if self.deadline is not None and time.monotonic() >= self.deadline:
            done = len(self.completed)
            self.obs.deadline_exceeded(done, total)
            raise DeadlineExceededError(self.obs.now(), done, total)

    def failed(self, index: int, attempt: int, error: dict,
               cause: BaseException | None = None) -> None:
        """Attempt ``attempt`` of fragment ``index`` failed with
        ``error`` (``{"type", "message"}``).  An infrastructure death
        is counted against the fragment, ``POISON_THRESHOLD`` of them
        quarantine it, and
        ``max_retries`` bounds everything else: returns if the fragment
        is to be retried — the error logged through the sink, never
        discarded — and raises :class:`FragmentFailedError` otherwise,
        chained from ``cause`` (the exception, when it was raised in
        this process) or the :class:`WorkerFailure` rebuilt from
        ``error``."""
        text = f"{error.get('type')}: {error.get('message')}"
        cause_type = error.get("type")
        if cause is None:
            cause = WorkerFailure(error)
        if cause_type in _INFRA_DEATHS:
            chain = self._deaths.setdefault(index, [])
            chain.append(text)
            self.obs.worker_death(index)
            if len(chain) >= POISON_THRESHOLD:
                # Quarantine: this fragment is grinding the pool down —
                # fail fast with the whole chain, retries be damned.
                self.obs.quarantined(index, len(chain))
                raise FragmentFailedError(
                    index,
                    attempt + 1,
                    f"poison fragment: killed {len(chain)} worker(s) "
                    "[" + " <- ".join(chain) + "]",
                    self._salvaged(),
                    cause_type="PoisonFragment",
                ) from cause
        if attempt + 1 > self.max_retries:
            raise FragmentFailedError(
                index, attempt + 1, text, self._salvaged(),
                cause_type=cause_type,
            ) from cause
        self.obs.retry(index, attempt, error)
