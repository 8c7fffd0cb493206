"""Partials come back in place: each pool worker's return arena.

A worker writes its reply's arrays into a parent-owned segment, its
*return arena*, and sends only the pickle frame and the layout down the
pipe; the parent merges views over its own mapping of the arena
(:mod:`~repro.parallel.mp_executor.wire`).  What this file holds it to:

* **The same bits.**  Pooled rows equal in-process rows by ``repr`` on
  every statement shape the benchmark runs, under ``rep``, under a
  memory budget, and when a worker is killed after its arena holds an
  earlier fragment's partial.
* **The way back is the arena.**  After warm-up a reply's pipe bytes
  are its frame and layout, not its partial; a reply too large for its
  arena comes in-band, counted as ``mp.return.inband``, and the next
  one fits.
* **Workers that do not preempt their dispatcher**, and one heartbeat
  thread per worker that beats while a job runs and never after the
  reply.
"""

import os
from multiprocessing.connection import Connection

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.parallel import (
    FragmentFailedError,
    multiprocessing_aggregate,
    shutdown_worker_pool,
)
from repro.parallel.mp_executor import pool as pool_module
from repro.parallel.mp_executor.faults import CrashFault, FaultPlan, Straggler
from repro.sql import parse_query
from repro.workloads.generator import generate_uniform

from tests.conftest import (
    mapped_segments,
    not_its_arena,
    shm_segments,
    table_at_rest,
    table_segments,
)

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="POSIX shared memory not mounted"
)

# The statement shapes of the end-to-end benchmark's shape_cliffs and
# merge_highS workloads.
_STATEMENTS = {
    "where": "SELECT gkey, SUM(val), COUNT(*) FROM r "
             "WHERE val >= 50 GROUP BY gkey",
    "scalar": "SELECT SUM(val), COUNT(*), MIN(val), MAX(val) FROM r",
    "multikey": "SELECT gkey, pad, SUM(val), COUNT(*) FROM r "
                "GROUP BY gkey, pad",
    "distinct": "SELECT gkey, COUNT(DISTINCT val) FROM r GROUP BY gkey",
    "strkey": "SELECT gkey, MIN(val), MAX(val), AVG(val) FROM r "
              "GROUP BY gkey",
    "havingvar": "SELECT gkey, VAR(val), STDDEV(val), COUNT(*) FROM r "
                 "GROUP BY gkey HAVING COUNT(*) > 2",
    "merge": "SELECT gkey, SUM(val), COUNT(*), MIN(val) FROM r "
             "GROUP BY gkey",
}
_MERGE = parse_query(_STATEMENTS["merge"])[1]


def _relation(groups: int = 5_000, key_format=None, seed: int = 40,
              nodes: int = 4):
    return generate_uniform(
        num_tuples=20_000, num_groups=groups, num_nodes=nodes, seed=seed,
        key_format=key_format,
    )


@pytest.fixture(scope="module")
def dist():
    return _relation()


@pytest.fixture(autouse=True)
def fresh_pool():
    """Every test starts on a pool with no arena and leaves nothing the
    executor does not answer for; nothing at all once it is shut down."""
    shutdown_worker_pool()
    assert shm_segments() == []
    yield
    table_at_rest()
    shutdown_worker_pool()
    assert shm_segments() == []


def _inband(registry) -> int:
    return registry.value("mp.return.inband") if (
        "mp.return.inband" in registry
    ) else 0


def _pooled(dist, query, **kwargs):
    """One pooled run and its metrics.  As many workers as fragments:
    each worker runs one job a run, so which arena a reply meets does
    not hang on which worker came free first."""
    registry = MetricsRegistry()
    kwargs.setdefault("processes", len(dist.fragments))
    rows = multiprocessing_aggregate(dist, query, metrics=registry, **kwargs)
    return rows, registry


def _warm(dist, query=_MERGE):
    """The first run gives every worker with a large reply an arena
    twice that reply."""
    _pooled(dist, query)


class TestTheSameBits:
    @pytest.mark.parametrize("name", sorted(_STATEMENTS))
    def test_every_shape(self, name):
        dist = _relation(
            key_format="g{:08d}" if name == "strkey" else None
        )
        query = parse_query(_STATEMENTS[name])[1]
        want = repr(multiprocessing_aggregate(dist, query, processes=1))
        _warm(dist, query)
        rows, registry = _pooled(dist, query)
        assert repr(rows) == want
        assert len(table_segments("arena")) == 4
        assert _inband(registry) == 0

    def test_rep(self, dist):
        want = repr(multiprocessing_aggregate(dist, _MERGE, processes=1))
        _warm(dist)
        rows, _registry = _pooled(dist, _MERGE, strategy="rep")
        assert repr(rows) == want

    @pytest.mark.parametrize("budget", [1 << 30, 64 << 10])
    def test_a_memory_budget(self, dist, budget):
        want = repr(multiprocessing_aggregate(dist, _MERGE, processes=1))
        _warm(dist)
        rows, _registry = _pooled(dist, _MERGE, memory_budget_bytes=budget)
        assert repr(rows) == want

    def test_a_worker_killed_after_writing_its_arena(self, dist):
        """Fragments 0 and 1 go out first, one to each worker; fragment
        2's worker is killed as its second job starts.  Its arena is
        unlinked then, and the partial it wrote for the first job is
        still read where it lies."""
        want = repr(multiprocessing_aggregate(dist, _MERGE, processes=1))
        _warm(dist)
        arenas_before = table_segments("arena")
        rows, registry = _pooled(
            dist, _MERGE, processes=2,
            faults=FaultPlan(seed=3, crashes=(CrashFault(2),)),
        )
        assert repr(rows) == want
        assert registry.value("mp.faults.injected.kill") == 1
        assert table_segments("arena") != arenas_before  # the dead one's went
        assert shm_segments() == table_segments()
        for worker in pool_module._get_shared_pool().idle_workers():
            assert not_its_arena(worker.proc.pid) == []

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/maps"), reason="needs /proc/<pid>/maps"
    )
    def test_a_worker_forked_while_arenas_are_mapped_inherits_none(
        self, dist
    ):
        """A worker forked while the parent maps every arena (a respawn,
        a rebuilt pool) maps no segment until it is sent one."""
        _warm(dist)
        _warm(dist)  # the second run's replies are in the arenas
        pool = pool_module._get_shared_pool()
        held = [pool.acquire() for _ in range(5)]
        try:
            assert pool.spawned == 5
            for worker in held[:4]:
                assert len(mapped_segments(worker.proc.pid)) == 1
            assert mapped_segments(held[4].proc.pid) == []
        finally:
            for worker in held:
                pool.release(worker)
        rows, registry = _pooled(dist, _MERGE, processes=5)
        assert len(rows) > 4_900


class TestTheWayBack:
    def test_after_warm_up_a_reply_sends_its_frame_not_its_partial(
        self, dist, monkeypatch
    ):
        """20 000 tuples in 5 000 groups over 4 fragments: each partial
        is tens of kilobytes, what the pipe carries is under 4 KiB, and
        every worker runs as batch work.  Every answer would stay
        bit-identical with the partials pickled down the pipe again:
        this is what would see it."""
        _warm(dist)
        sizes: list = []
        recv_bytes = Connection.recv_bytes

        def spy(conn, *args):
            data = recv_bytes(conn, *args)
            sizes.append(len(data))
            return data

        monkeypatch.setattr(Connection, "recv_bytes", spy)
        rows, registry = _pooled(dist, _MERGE)
        monkeypatch.undo()
        assert len(sizes) >= 4 and max(sizes) < 4096
        assert _inband(registry) == 0
        assert registry.value("mp.return_bytes") > 4 * 3_000 * 8 * 4
        assert registry.value("mp.return_bytes") > sum(sizes)
        assert len(rows) > 4_900
        if hasattr(os, "sched_getscheduler"):
            workers = pool_module._get_shared_pool().idle_workers()
            assert len(workers) == 4
            for worker in workers:
                assert os.sched_getscheduler(worker.proc.pid) == (
                    os.SCHED_BATCH
                )

    def test_a_reply_larger_than_its_arena_comes_in_band_once(self):
        """Two fragments, two workers: each worker runs one job a run."""
        small = _relation(groups=1_000, nodes=2)
        large = _relation(groups=8_000, nodes=2)
        _rows, first = _pooled(small, _MERGE)
        assert _inband(first) == 2  # no arena before the first large reply
        _rows, warm = _pooled(small, _MERGE)
        assert _inband(warm) == 0
        sized = table_segments("arena")
        want = repr(multiprocessing_aggregate(large, _MERGE, processes=1))
        rows, grown = _pooled(large, _MERGE)
        assert repr(rows) == want
        assert _inband(grown) == 2
        assert set(table_segments("arena")).isdisjoint(sized)
        rows, fits = _pooled(large, _MERGE)
        assert repr(rows) == want
        assert _inband(fits) == 0

    def test_no_arena_past_the_shm_ceiling(self, dist, monkeypatch):
        """A mount with next to nothing free gets no arena: every reply
        comes in-band, counted, and once there is room the arenas come
        back."""
        statvfs = os.statvfs

        def nearly_full(path):
            stat = statvfs(path)
            return os.statvfs_result(
                (*stat[:4], 1, *stat[5:])  # f_bavail: one block
            )

        monkeypatch.setattr(os, "statvfs", nearly_full)
        want = repr(multiprocessing_aggregate(dist, _MERGE, processes=1))
        for _ in range(2):
            rows, registry = _pooled(dist, _MERGE)
            assert repr(rows) == want
            assert _inband(registry) == 4
            assert not table_segments("arena")
        monkeypatch.undo()
        _warm(dist)
        rows, registry = _pooled(dist, _MERGE)
        assert repr(rows) == want
        assert _inband(registry) == 0
        assert len(table_segments("arena")) == 4

    def test_a_failed_run_hands_back_partials_it_owns(self, dist):
        """What ``FragmentFailedError.partial_results`` salvages is
        copied out of the arena: later runs reuse the regions."""
        _warm(dist)
        with pytest.raises(FragmentFailedError) as info:
            multiprocessing_aggregate(
                dist, _MERGE, processes=2, max_retries=0,
                faults=FaultPlan(seed=3, crashes=(CrashFault(3),)),
            )
        salvaged = info.value.partial_results
        assert salvaged
        before = repr(salvaged)
        _warm(_relation(seed=41))
        assert repr(salvaged) == before
        for partial in salvaged.values():
            for _kind, column in partial[2]:
                assert column.flags.writeable  # owned, not a view


@pytest.mark.skipif(
    not hasattr(os, "sched_getscheduler"), reason="Linux scheduling API"
)
def test_every_worker_runs_as_batch_work(dist):
    _pooled(dist, _MERGE)
    workers = pool_module._get_shared_pool().idle_workers()
    assert workers
    for worker in workers:
        assert os.sched_getscheduler(worker.proc.pid) == os.SCHED_BATCH


def test_beats_while_a_job_runs_and_never_after_its_reply(
    dist, monkeypatch
):
    """The warm pool's heartbeat threads started long before; a 20 ms
    interval set now reaches them with the next job.  The straggler
    sleeps off 999 times its kernel's fraction of a millisecond: many
    intervals."""
    _warm(dist)
    monkeypatch.setattr(pool_module, "HEARTBEAT_INTERVAL", 0.02)
    want = repr(multiprocessing_aggregate(dist, _MERGE, processes=1))
    rows, registry = _pooled(
        dist, _MERGE,
        faults=FaultPlan(seed=5, stragglers=(Straggler(1, 1000.0),)),
    )
    assert repr(rows) == want
    assert registry.value("mp.heartbeat.beats") > 0
    for worker in pool_module._get_shared_pool().idle_workers():
        assert not worker.conn.poll(0.1)  # five intervals, no beat
