"""Shared-memory hygiene and parity of the pooled executor.

Every pooled dispatch ships its fragments in ``/dev/shm/repro_mp_*``
segments owned by the parent; the contract is that no *stray* segment
survives any exit path — clean runs, raising workers, hard worker
deaths, wedged-worker timeouts, and budgeted OOM-retry ladders: what is
left on the mount is a resident segment of a block that is still alive,
and nothing at all once the pool is shut down.  The chaos matrix here
drives each of those paths with real processes and audits the mount
after every one.

The parity half pins that the pooled path (columnar kernel off shm
blocks) and the shapes that leave the kernel for the per-row loop
(WHERE clauses, a substituted phase) produce results identical to the
in-process path.
"""

import functools
import gc
import os
import threading
import time

import pytest

from tests.conftest import (
    assert_rows_close,
    listed,
    mapped_segments,
    not_its_arena,
    shm_segments,
    stray_segments,
    table_at_rest,
)
from tests.test_mp_executor_faults import (
    _always_raise,
    _die_once_then_work,
    _wedge,
)

from repro.core.aggregates import AggregateSpec, GroupState
from repro.core.query import AggregateQuery
from repro.obs.metrics import MetricsRegistry
from repro.parallel import (
    FragmentFailedError,
    multiprocessing_aggregate,
    reference_aggregate,
)
from repro.parallel import mp_executor
from repro.parallel.mp_executor.faults import FaultPlan, Straggler
from repro.parallel.mp_executor.kernel import _local_phase
from repro.parallel.mp_executor.pool import _get_shared_pool
from repro.storage.columnblock import ColumnBlock
from repro.storage.schema import Column, Schema
from repro.storage.relation import DistributedRelation
from repro.workloads.generator import generate_uniform

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="POSIX shared memory not mounted"
)


@pytest.fixture(scope="module", autouse=True)
def nothing_after_shutdown():
    """Once the pool is shut down no segment is left, resident or not."""
    yield
    mp_executor.shutdown_worker_pool()
    assert shm_segments() == []


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test in this module starts without a stray segment, and
    must end with the table at rest: whatever is on the mount is a
    resident segment of a live block or a worker's arena, and no run
    left a segment or a pin behind."""
    assert stray_segments() == []
    yield
    table_at_rest()


@pytest.fixture
def dist():
    return generate_uniform(num_tuples=2400, num_groups=60, num_nodes=4, seed=21)


@pytest.fixture
def query():
    return AggregateQuery(
        group_by=["gkey"],
        aggregates=[AggregateSpec("sum", "val"), AggregateSpec("count")],
    )


def _gkey_at_least_ten(row):
    # WHERE predicates cross the process boundary, so module-level.
    return row["gkey"] >= 10


def _sleep_then_work(job):
    # Long enough for the test to kill an idle worker mid-run.
    time.sleep(0.6)
    return _local_phase(job)


def _frozen_count_as_key(job):
    # The worker's permanent-generation size, smuggled out as a group key.
    _rows, query, _schema = job
    return [((gc.get_freeze_count(),), GroupState(query.aggregates))]


def _str_keyed_dist():
    schema = Schema(
        [Column("dept", "str", 8), Column("n", "int"), Column("val", "float")]
    )
    rows = [(f"dept-{i % 7}", i, float(i) / 3.0) for i in range(900)]
    return DistributedRelation(schema, [rows[i::3] for i in range(3)])


class _Interrupted(BaseException):
    """Not an ``Exception``: nothing on the way out catches it."""


class TestChaosMatrixLeavesNoSegments:
    """Each executor exit path, checked for segment hygiene by the
    autouse fixture; assertions inside pin the path actually taken."""

    def test_clean_run(self, dist, query):
        got = multiprocessing_aggregate(dist, query, processes=2)
        assert_rows_close(got, reference_aggregate(dist, query))

    def test_raising_worker_exhausts_retries(self, dist, query):
        with pytest.raises(FragmentFailedError) as info:
            multiprocessing_aggregate(
                dist, query, processes=2, max_retries=1,
                phase_fn=_always_raise,
            )
        assert "injected failure" in info.value.cause

    def test_worker_death_then_recovery(self, dist, query, tmp_path):
        phase = functools.partial(
            _die_once_then_work, str(tmp_path / "died_once")
        )
        got = multiprocessing_aggregate(
            dist, query, processes=2, phase_fn=phase
        )
        assert_rows_close(got, reference_aggregate(dist, query))

    def test_wedged_worker_times_out(self, dist, query):
        with pytest.raises(FragmentFailedError):
            multiprocessing_aggregate(
                dist, query, processes=2, max_retries=0,
                timeout=0.5, phase_fn=_wedge,
            )

    def test_oom_retry_ladder(self, dist, query):
        got = multiprocessing_aggregate(
            dist, query, processes=2, memory_budget_bytes=1500
        )
        assert_rows_close(got, reference_aggregate(dist, query))

    def test_an_interrupted_encode(self, dist, query, monkeypatch):
        """A run segment is the run's from the moment it is made: an
        interrupt while a block is written into it (a Ctrl-C in a large
        copy) still releases it, and the segment leaves the mount."""
        write = ColumnBlock.to_bytes

        def cut_short(block, alloc=bytearray):
            write(block, alloc)
            raise _Interrupted

        monkeypatch.setattr(ColumnBlock, "to_bytes", cut_short)
        with pytest.raises(_Interrupted):
            multiprocessing_aggregate(dist, query, processes=2)

    def test_shutdown_after_runs(self, dist, query):
        multiprocessing_aggregate(dist, query, processes=2)
        mp_executor.shutdown_worker_pool()
        # Idempotent, and a later run transparently respawns workers.
        mp_executor.shutdown_worker_pool()
        got = multiprocessing_aggregate(dist, query, processes=2)
        assert_rows_close(got, reference_aggregate(dist, query))


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="needs /proc/<pid>/maps"
)
class TestWorkersReadInPlace:
    """A worker's columns are views over the mapped segment, so the
    mapping must stay open while the job runs — and be closed, with no
    ``BufferError`` killing the worker, by the time its reply is out,
    whichever way the attempt ended.  The one mapping a worker keeps is
    its return arena, and only the one the parent records for it."""

    def _no_worker_keeps_a_mapping(self, spawned: int):
        pool = _get_shared_pool()
        workers = pool.idle_workers()
        assert workers and pool.spawned == spawned  # nobody died closing
        for worker in workers:
            assert worker.proc.is_alive()
            assert not_its_arena(worker.proc.pid) == []
            assert len(mapped_segments(worker.proc.pid)) <= 1

    def test_a_worker_keeps_its_arena_and_nothing_else(self, query):
        # Thousands of groups a fragment: every partial goes to an arena.
        # One fragment per worker per run: both go out at once, to two
        # distinct workers, so no worker's arena (sized for two of its
        # replies) is ever asked for a third within one run.
        mp_executor.shutdown_worker_pool()
        dist = generate_uniform(
            num_tuples=40_000, num_groups=20_000, num_nodes=2, seed=21,
        )
        want = multiprocessing_aggregate(dist, query, processes=1)
        for _ in range(3):
            got = multiprocessing_aggregate(dist, query, processes=2)
        assert got == want
        pool = _get_shared_pool()
        workers = pool.idle_workers()
        assert workers
        for worker in workers:
            assert worker.proc.pid in {e.key for e in listed("arena")}
            assert not_its_arena(worker.proc.pid) == []
            assert len(mapped_segments(worker.proc.pid)) == 1

    @pytest.mark.parametrize("kwargs, took", [
        ({}, "mp.shm.resident.hit"),
        # The kernel raises MemoryExceededError over the mapped columns.
        ({"memory_budget_bytes": 200}, "mp.errors.MemoryExceededError"),
        ({"faults": FaultPlan(seed=11, stragglers=(Straggler(2, 4.0),))},
         "mp.faults.injected.slow"),
        ({"faults": FaultPlan(seed=11, read_error_rate=0.5)},
         "mp.faults.injected.error"),
        # A substituted phase: full-width segments, decoded to rows.
        ({"phase_fn": _local_phase}, "mp.shm.resident.miss"),
    ], ids=["ok", "governed", "injected_slow", "injected_error", "as_rows"])
    def test_the_mapping_is_closed_when_the_reply_is_out(
        self, query, kwargs, took
    ):
        dist = generate_uniform(
            num_tuples=2400, num_groups=60, num_nodes=4, seed=21,
            columnar=True,
        )
        want = multiprocessing_aggregate(dist, query, processes=1)
        multiprocessing_aggregate(dist, query, processes=2)  # fork both
        spawned = _get_shared_pool().spawned
        registry = MetricsRegistry()
        got = multiprocessing_aggregate(
            dist, query, processes=2, metrics=registry, **kwargs
        )
        assert got == want
        assert registry.value(took) > 0
        self._no_worker_keeps_a_mapping(spawned)

    def test_a_raising_phase_still_closes(self, dist, query):
        multiprocessing_aggregate(dist, query, processes=2)
        spawned = _get_shared_pool().spawned
        with pytest.raises(FragmentFailedError):
            multiprocessing_aggregate(
                dist, query, processes=2, max_retries=1,
                phase_fn=_always_raise,
            )
        self._no_worker_keeps_a_mapping(spawned)


class TestPoolBehaviour:
    def test_workers_are_reused_across_runs(self, dist, query):
        multiprocessing_aggregate(dist, query, processes=2)
        pool = _get_shared_pool()
        spawned_after_first = pool.spawned
        assert spawned_after_first >= 1
        for _ in range(3):
            multiprocessing_aggregate(dist, query, processes=2)
        assert pool.spawned == spawned_after_first

    def test_workers_freeze_the_heap_they_were_born_with(self, dist, query):
        """Left collectable, the modules a worker inherits are walked by
        every full collection (~10 ms), in the middle of a fragment."""
        got = multiprocessing_aggregate(
            dist, query, processes=2, phase_fn=_frozen_count_as_key
        )
        assert got and all(row[0] > 0 for row in got)
        assert gc.get_freeze_count() == 0  # the caller's heap is its own

    def test_strategy_is_validated(self, dist, query):
        with pytest.raises(ValueError, match="strategy"):
            multiprocessing_aggregate(
                dist, query, processes=2, strategy="threads"
            )
        with pytest.raises(
            ValueError, match="'pool', 'global', 'rep' or 'auto'"
        ):
            multiprocessing_aggregate(
                dist, query, processes=2, strategy="spawn"
            )

    def test_strategies_agree_exactly(self, dist, query):
        pool = multiprocessing_aggregate(
            dist, query, processes=2, strategy="pool"
        )
        # A substituted phase is shipped full rows and runs the per-row
        # loop in the worker.
        per_row = multiprocessing_aggregate(
            dist, query, processes=2, phase_fn=_local_phase
        )
        inproc = multiprocessing_aggregate(dist, query, processes=1)
        # Bit-identical, not merely close: the vectorized kernel must
        # accumulate in the same order as the per-row loop.
        assert pool == per_row == inproc


class TestPoolHealth:
    """Idle-death handling and shutdown/respawn lifecycle."""

    def test_acquire_discards_worker_that_died_while_idle(self, dist, query):
        multiprocessing_aggregate(dist, query, processes=2)
        pool = _get_shared_pool()
        idle = pool.idle_workers()
        assert len(idle) >= 2
        # acquire pops from the end, so the last idle worker is the one
        # it inspects first: kill it and make acquire skip the corpse.
        victim = idle[-1]
        victim.proc.kill()
        victim.proc.join()
        worker = pool.acquire()
        assert worker is not victim
        assert worker.proc.is_alive()
        assert victim not in pool.idle_workers()
        pool.release(worker)

    def test_idle_death_detected_eagerly_during_run(self, query):
        from repro.obs.metrics import MetricsRegistry

        # Warm the pool to three workers, so a two-process run leaves
        # one idle for the dispatcher to watch.
        warm = generate_uniform(num_tuples=900, num_groups=12, num_nodes=3,
                                seed=7)
        multiprocessing_aggregate(warm, query, processes=3)
        pool = _get_shared_pool()
        assert len(pool.idle_workers()) >= 3

        dist = generate_uniform(num_tuples=800, num_groups=12, num_nodes=2,
                                seed=8)
        # acquire pops from the end, so index 0 stays idle.
        bystander = pool.idle_workers()[0]
        killer = threading.Timer(0.15, bystander.proc.kill)
        metrics = MetricsRegistry()
        killer.start()
        try:
            got = multiprocessing_aggregate(
                dist, query, processes=2, phase_fn=_sleep_then_work,
                metrics=metrics,
            )
        finally:
            killer.cancel()
        assert_rows_close(got, reference_aggregate(dist, query))
        # The dispatcher noticed the idle corpse *during* the run — no
        # waiting for the next acquire to trip over it.
        assert metrics.value("mp.pool.idle_deaths") == 1
        assert bystander not in pool.idle_workers()

    def test_a_watched_pipe_someone_else_drained_is_not_read(
        self, dist, query
    ):
        """Between a dispatcher's wait and its ``recv_idle`` another run
        can acquire the worker, read its reply and release it again: the
        readiness was that run's, and a ``recv`` now would block forever
        with the pool lock held — every other dispatcher behind it."""
        multiprocessing_aggregate(dist, query, processes=2)
        pool = _get_shared_pool()
        worker = pool.idle_workers()[0]
        verdict: list = []
        reader = threading.Thread(
            target=lambda: verdict.append(pool.recv_idle(worker)),
            daemon=True,
        )
        reader.start()
        reader.join(timeout=5)
        try:
            assert verdict == ["acquired"]
            assert worker in pool.idle_workers()
        finally:
            if reader.is_alive():  # unblock it: EOF ends the recv
                worker.proc.kill()
                reader.join(timeout=5)

    def test_explicit_shutdown_forks_fresh_pool(self, dist, query):
        multiprocessing_aggregate(dist, query, processes=2)
        old_pool = _get_shared_pool()
        mp_executor.shutdown_worker_pool()
        got = multiprocessing_aggregate(dist, query, processes=2)
        assert_rows_close(got, reference_aggregate(dist, query))
        new_pool = _get_shared_pool()
        assert new_pool is not old_pool
        assert new_pool.spawned >= 1
        # A stale handle's shutdown is harmless to the fresh pool.
        old_pool.shutdown()
        assert len(new_pool.idle_workers()) >= 1


class TestPoolLifecycleUnderReuse:
    """N sequential + M concurrent runs must leak nothing: zero shm
    segments (autouse fixture), zero leaked parent-side threads
    (heartbeat senders live in the workers; the parent must return to
    its baseline thread count), zero child processes once the pool is
    shut down."""

    def _leak_counts(self, baseline_threads):
        import multiprocessing as mp

        return (
            len(shm_segments()),
            max(0, threading.active_count() - baseline_threads),
            len(mp.active_children()),
        )

    def test_sequential_runs_leak_nothing(self, dist, query):
        mp_executor.shutdown_worker_pool()
        baseline_threads = threading.active_count()
        expected = reference_aggregate(dist, query)
        for _ in range(5):
            got = multiprocessing_aggregate(dist, query, processes=2)
            assert_rows_close(got, expected)
            # Dispatch helpers are per-run: none may outlive a run.
            assert threading.active_count() <= baseline_threads
        mp_executor.shutdown_worker_pool()
        assert self._leak_counts(baseline_threads) == (0, 0, 0)

    def test_concurrent_runs_leak_nothing(self, query):
        mp_executor.shutdown_worker_pool()
        baseline_threads = threading.active_count()
        dists = [
            generate_uniform(num_tuples=1200, num_groups=30,
                             num_nodes=3, seed=100 + i)
            for i in range(4)
        ]
        expected = [reference_aggregate(d, query) for d in dists]
        results: list = [None] * len(dists)
        errors: list = []

        def run(i: int) -> None:
            try:
                results[i] = multiprocessing_aggregate(
                    dists[i], query, processes=2
                )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(i,))
            for i in range(len(dists))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        for got, want in zip(results, expected):
            assert_rows_close(got, want)
        mp_executor.shutdown_worker_pool()
        assert self._leak_counts(baseline_threads) == (0, 0, 0)

    def test_concurrent_callers_share_one_pool(self, query):
        """Concurrent dispatchers must reuse workers, not fork per
        caller — the thread-safety fix the service depends on."""
        mp_executor.shutdown_worker_pool()
        dist = generate_uniform(num_tuples=1200, num_groups=30,
                                num_nodes=3, seed=11)
        multiprocessing_aggregate(dist, query, processes=2)  # warm
        pool = _get_shared_pool()
        barrier = threading.Barrier(3)
        errors: list = []

        def run() -> None:
            try:
                barrier.wait(timeout=10)
                for _ in range(2):
                    multiprocessing_aggregate(dist, query, processes=2)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=run) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        assert _get_shared_pool() is pool
        # Every fork is serialized under the pool lock and every worker
        # is either reacquired or parked idle — never orphaned.
        assert pool.spawned <= 6  # 3 callers x 2 workers worst case
        assert len(pool.idle_workers()) == pool.spawned
        mp_executor.shutdown_worker_pool()

    def test_release_into_closed_pool_discards(self, dist, query):
        """A dispatcher finishing after shutdown must not resurrect
        workers into the dead pool (the atexit/shutdown interplay)."""
        import multiprocessing as mp

        multiprocessing_aggregate(dist, query, processes=2)
        pool = _get_shared_pool()
        worker = pool.acquire()
        mp_executor.shutdown_worker_pool()
        assert pool.closed
        pool.release(worker)
        assert not worker.proc.is_alive()
        assert pool.idle_workers() == []
        assert mp.active_children() == []


class TestVectorizedFallbackParity:
    """Every key and aggregate shape, kernel-covered or declined to the
    per-row loop, must match the in-process path exactly."""

    @staticmethod
    def _agree(dist, query):
        pool = multiprocessing_aggregate(
            dist, query, processes=2, strategy="pool"
        )
        inproc = multiprocessing_aggregate(dist, query, processes=1)
        assert pool == inproc
        assert_rows_close(pool, reference_aggregate(dist, query))

    def test_string_group_key(self):
        query = AggregateQuery(
            group_by=["dept"],
            aggregates=[AggregateSpec("sum", "val"), AggregateSpec("count")],
        )
        self._agree(_str_keyed_dist(), query)

    def test_multi_column_key(self):
        query = AggregateQuery(
            group_by=["dept", "n"],
            aggregates=[AggregateSpec("count")],
        )
        self._agree(_str_keyed_dist(), query)

    def test_where_clause(self, dist):
        query = AggregateQuery(
            group_by=["gkey"],
            aggregates=[AggregateSpec("sum", "val")],
            where=_gkey_at_least_ten,
        )
        self._agree(dist, query)

    def test_int_sum_stays_arbitrary_precision(self):
        query = AggregateQuery(
            group_by=["dept"], aggregates=[AggregateSpec("sum", "n")]
        )
        self._agree(_str_keyed_dist(), query)

    def test_rich_aggregate_mix(self, dist):
        query = AggregateQuery(
            group_by=["gkey"],
            aggregates=[
                AggregateSpec("sum", "val"),
                AggregateSpec("count"),
                AggregateSpec("min", "val"),
                AggregateSpec("max", "val"),
                AggregateSpec("avg", "val"),
                AggregateSpec("var", "val"),
                AggregateSpec("stddev", "val"),
            ],
        )
        self._agree(dist, query)

    def test_count_distinct_falls_back(self, dist):
        query = AggregateQuery(
            group_by=["gkey"],
            aggregates=[AggregateSpec("count_distinct", "val")],
        )
        self._agree(dist, query)
