"""Resident segments: block-born fragments ship once.

The segment written for ``(a live ColumnBlock, a projection)`` stays in
shared memory as a resident entry of the parent's segment table, so a
repeat run sends descriptors, not bytes.  What this file holds it to:

* **Counts that repeat exactly.**  The second of two identical runs
  creates, serializes, projects and unlinks nothing and records one
  ``mp.shm.resident.hit`` per fragment, under every strategy; a first
  run creates exactly the segments a per-run executor would; a segment
  that vanished between runs is re-encoded on the spot, counted, at the
  cost of no retry.
* **Every way out of the table unlinks exactly once** — collection of
  the block, least-recently-shipped eviction under the ceiling,
  ``shutdown_worker_pool()`` / ``release_resident_segments()``, found
  gone, injected loss — deferred to the last release while a run still
  reads the segment, and never by a forked worker.
* **A stateful lifecycle audit.**  A hypothesis state machine interleaves
  runs (four strategies, three projections, a substituted phase, a
  partial that outgrows its worker's return arena), faults (injected
  shm loss, worker kills), segments unlinked behind the table's back,
  dropped relations, a moving ceiling, pool shutdowns and worker exits;
  after every step the shm mount holds exactly the segment table's
  segments — resident, per-run and arenas alike — nothing is pinned,
  the bytes add up under the ceiling, and every run returned the bits
  of ``processes=1``; after a shutdown the table is empty.
"""

import gc
import multiprocessing
import os
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.obs.metrics import MetricsRegistry
from repro.parallel import (
    FragmentFailedError,
    multiprocessing_aggregate,
    release_resident_segments,
    reset_pool_breaker,
    shutdown_worker_pool,
)
from repro.parallel.mp_executor import pool as pool_module
from repro.parallel.mp_executor import wire
from repro.parallel.mp_executor.faults import CrashFault, FaultPlan
from repro.parallel.mp_executor.kernel import _local_phase
from repro.parallel.mp_executor.wire import _ARENA_PREFIX, _table
from repro.sql import parse_query
from repro.storage.columnblock import ColumnBlock
from repro.storage.relation import BlockRelation, DistributedRelation
from repro.storage.schema import Column, Schema

from tests.conftest import (
    block_ids,
    listed,
    resident_counts as _counts,
    row_bits,
    shm_segments,
    stray_segments,
    table_at_rest,
    table_segments,
)

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="POSIX shared memory not mounted"
)

_SCHEMA = Schema([
    Column("g", "int"), Column("h", "str", 8), Column("i", "int"),
    Column("x", "float"), Column("pad", "str", 8),
])
_FRAGMENTS = 3
# Three projections of the one schema — (g, i), (h, x), (g, h, i) — and
# a COUNT(*) that reads no column and so ships full width.
_QUERIES = {
    "int_key": "SELECT g, SUM(i), COUNT(*) FROM r GROUP BY g",
    "str_key": "SELECT h, MIN(x), MAX(x), SUM(x) FROM r GROUP BY h",
    "where": "SELECT g, h, COUNT(*) FROM r WHERE i >= 3 GROUP BY g, h",
    "count": "SELECT COUNT(*) FROM r",
}
_QUERIES = {name: parse_query(sql)[1] for name, sql in _QUERIES.items()}
_STRATEGIES = ("pool", "global", "rep", "auto")
_KILL = FaultPlan(seed=11, crashes=(CrashFault(1),))


def _relation(salt: int = 0, rows: int = 90, fragments: int = _FRAGMENTS):
    """A fresh block-born relation: new blocks, so new table keys."""
    data = [
        ((n + salt) % 5, f"k{(n * 7 + salt) % 4}", n % 9 - 2,
         (n * 37 % 101) / 8 - salt, f"p{n % 3}")
        for n in range(rows)
    ]
    return DistributedRelation(_SCHEMA, [
        BlockRelation(
            _SCHEMA, ColumnBlock.from_rows(_SCHEMA, data[f::fragments])
        )
        for f in range(fragments)
    ])


def _an_arena(name) -> bool:
    return name is not None and name.startswith(_ARENA_PREFIX)


def _run(dist, query, registry=None, **kwargs):
    kwargs.setdefault("processes", 2)
    return multiprocessing_aggregate(dist, query, metrics=registry, **kwargs)


def _resident_blocks() -> set[int]:
    """``id`` of every block the table keeps a resident segment for."""
    return {entry.key[0] for entry in listed("resident")}


@pytest.fixture(autouse=True)
def clean_table():
    reset_pool_breaker()
    shutdown_worker_pool()
    assert shm_segments() == []
    yield
    table_at_rest()
    shutdown_worker_pool()
    assert shm_segments() == []
    assert multiprocessing.active_children() == []


@pytest.fixture
def calls(monkeypatch):
    """Parent-side counts of what a hit must skip."""
    from multiprocessing import shared_memory

    seen = {"create": 0, "unlink": 0, "project": 0, "to_bytes": 0}

    class Counting(shared_memory.SharedMemory):
        # Input segments only: the workers' return arenas are
        # tests/test_mp_arena.py's to count.
        def __init__(self, name=None, create=False, size=0):
            seen["create"] += bool(create) and not _an_arena(name)
            super().__init__(name=name, create=create, size=size)

        def unlink(self):
            seen["unlink"] += not _an_arena(self.name)
            super().unlink()

    def counted(name):
        plain = getattr(ColumnBlock, name)

        def wrapper(self, *args, **kwargs):
            seen[name] += 1
            return plain(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(shared_memory, "SharedMemory", Counting)
    monkeypatch.setattr(ColumnBlock, "project", counted("project"))
    monkeypatch.setattr(ColumnBlock, "to_bytes", counted("to_bytes"))
    return seen


# -- counts that repeat exactly -----------------------------------------------


class TestShipOnce:
    @pytest.mark.parametrize("strategy", _STRATEGIES)
    def test_a_repeat_run_sends_descriptors_not_bytes(self, calls, strategy):
        dist = _relation()
        query = _QUERIES["int_key"]
        want = _run(dist, query, processes=1, strategy=strategy)
        calls.update(dict.fromkeys(calls, 0))  # in-process rep serializes

        first = MetricsRegistry()
        assert _run(dist, query, first, strategy=strategy) == want
        assert _counts(first) == {"miss": _FRAGMENTS}
        # Exactly what a per-run executor creates: one segment a fragment.
        assert calls["create"] == calls["to_bytes"] == _FRAGMENTS
        assert calls["unlink"] == 0
        assert len(table_segments("resident", "run")) == _FRAGMENTS
        shipped = first.value("mp.shm.resident_bytes")
        assert shipped == _table.resident_bytes > 0
        assert first.value("mp.phase_seconds.encode") > 0

        calls.update(dict.fromkeys(calls, 0))
        second = MetricsRegistry()
        assert _run(dist, query, second, strategy=strategy) == want
        assert _counts(second) == {"hit": _FRAGMENTS}
        assert calls == {"create": 0, "unlink": 0, "project": 0,
                         "to_bytes": 0}
        assert "mp.retries" not in second

    def test_a_first_run_creates_one_segment_per_nonempty_fragment(
        self, calls
    ):
        full = _relation(rows=60, fragments=2)
        empty = BlockRelation(_SCHEMA, ColumnBlock.from_rows(_SCHEMA, []))
        dist = DistributedRelation(_SCHEMA, [
            full.fragments[0].relation, empty, full.fragments[1].relation,
        ])
        registry = MetricsRegistry()
        _run(dist, _QUERIES["int_key"], registry)
        assert calls["create"] == 2 and calls["unlink"] == 0
        assert _counts(registry) == {"miss": 2}  # the empty one is inline

    def test_projections_of_one_block_coexist(self, calls):
        dist = _relation()
        for name in ("int_key", "str_key", "where", "count"):
            _run(dist, _QUERIES[name])
        assert calls["create"] == 4 * _FRAGMENTS
        assert len({entry.key[1] for entry in listed("resident")}) == 4
        # A substituted phase reads full rows: COUNT(*)'s full-width
        # segments serve it, decoded in the worker.
        registry = MetricsRegistry()
        got = _run(dist, _QUERIES["int_key"], registry, phase_fn=_local_phase)
        assert _counts(registry) == {"hit": _FRAGMENTS}
        assert got == _run(dist, _QUERIES["int_key"], processes=1)
        assert calls["create"] == 4 * _FRAGMENTS

    def test_a_second_statement_gets_its_own_ship_schema(self):
        """Two statements over one block, same column *count*: each
        descriptor must carry the schema its own segment was cut to."""
        dist = _relation()
        for _ in range(2):
            for name in ("int_key", "str_key"):
                assert row_bits(_run(dist, _QUERIES[name])) == row_bits(
                    _run(dist, _QUERIES[name], processes=1)
                )

    def test_row_born_fragments_are_never_resident(self, calls):
        block_born = _relation()
        dist = DistributedRelation(
            _SCHEMA, [f.relation.rows for f in block_born.fragments]
        )
        for _ in range(2):
            registry = MetricsRegistry()
            _run(dist, _QUERIES["int_key"], registry)
            assert _counts(registry) == {}
            assert table_segments("resident", "run") == []
        assert calls["create"] == calls["unlink"] == 2 * _FRAGMENTS


# -- the ways out -------------------------------------------------------------


class TestWaysOut:
    def test_collecting_the_relation_unlinks_its_segments(self):
        keep, drop = _relation(), _relation(salt=1)
        for dist in (keep, drop):
            _run(dist, _QUERIES["int_key"])
            _run(dist, _QUERIES["str_key"])
        assert len(table_segments("resident", "run")) == 4 * _FRAGMENTS
        del drop, dist
        gc.collect()
        assert len(table_segments("resident", "run")) == 2 * _FRAGMENTS
        assert _resident_blocks() == block_ids(keep)
        assert stray_segments() == []

    def test_a_finalizer_that_meets_a_held_lock_defers(self):
        """A block can be collected while this very thread holds the
        table's lock; the finalizer must neither block nor be lost."""
        dist = _relation()
        _run(dist, _QUERIES["int_key"])
        with _table._lock:
            del dist
            gc.collect()
            assert len(_table._collected) == _FRAGMENTS
            assert len(
                [name for name in shm_segments() if not _an_arena(name)]
            ) == _FRAGMENTS
        assert _table.names("resident") == set()  # the next look at the table
        assert table_segments("resident", "run") == []

    def test_a_vanished_segment_is_reencoded_without_a_retry(self, calls):
        dist = _relation()
        query = _QUERIES["int_key"]
        want = _run(dist, query)
        gone = sorted(_table.names("resident"))[0]
        os.unlink("/dev/shm/" + gone)
        registry = MetricsRegistry()
        assert _run(dist, query, registry) == want
        assert _counts(registry) == {
            "vanished": 1, "miss": 1, "hit": _FRAGMENTS - 1,
        }
        assert "mp.retries" not in registry
        assert "mp.shm.reencoded" not in registry
        assert calls["create"] == _FRAGMENTS + 1
        assert gone not in _table.names("resident")
        assert table_segments("resident") == table_segments("resident", "run")

    def test_a_segment_lost_after_the_check_takes_the_retry(self):
        """Gone between the hit and the worker's attach: today's
        FileNotFoundError retry, and the fresh segment replaces the
        entry."""
        dist = _relation()
        query = _QUERIES["int_key"]
        want = _run(dist, query)
        before = _table.names("resident")
        registry = MetricsRegistry()
        plan = FaultPlan(seed=1, message_loss=0.4)
        log: list = []
        got = _run(dist, query, registry, faults=plan, faults_log=log,
                   max_retries=8)
        assert got == want
        lost = [entry for entry in log if entry[0] == "shm_loss"]
        assert lost, "the plan injected no loss: pick another seed"
        assert registry.value("mp.shm.reencoded") == len(lost)
        assert registry.value("mp.retries") == len(lost)
        assert _counts(registry) == {
            "hit": _FRAGMENTS, "miss": len(lost),
        }
        after = _table.names("resident")
        assert len(after) == _FRAGMENTS and after != before
        assert sorted(after) == table_segments("resident", "run")

    def test_a_segment_that_cannot_fit_ships_per_run(self, monkeypatch, calls):
        monkeypatch.setattr(wire, "_RESIDENT_CEILING_BYTES", 1)
        dist = _relation()
        for _ in range(2):
            registry = MetricsRegistry()
            _run(dist, _QUERIES["int_key"], registry)
            assert _counts(registry) == {"miss": _FRAGMENTS}
            assert shm_segments() == []
        assert calls["create"] == calls["unlink"] == 2 * _FRAGMENTS

    def test_eviction_takes_the_least_recently_shipped(self, monkeypatch):
        first, second, third = (_relation(salt=n) for n in range(3))
        query = _QUERIES["int_key"]
        _run(first, query)
        per_relation = _table.resident_bytes
        monkeypatch.setattr(
            wire, "_RESIDENT_CEILING_BYTES", 2 * per_relation
        )
        _run(second, query)
        _run(first, query)  # `second` is now the older of the two
        registry = MetricsRegistry()
        _run(third, query, registry)
        assert _counts(registry) == {
            "miss": _FRAGMENTS, "evicted": _FRAGMENTS,
        }
        assert _resident_blocks() == block_ids(
            first, third
        )
        assert _table.resident_bytes <= 2 * per_relation
        assert table_segments("resident") == table_segments("resident", "run")

    def test_what_a_run_has_pinned_is_not_evicted_under_it(
        self, monkeypatch
    ):
        """One relation larger than the ceiling: the fragments that fit
        stay, the rest ship per-run, and the next run hits the former
        instead of evicting them for the latter."""
        dist = _relation()
        query = _QUERIES["int_key"]
        _run(dist, query)
        one = _table.resident_bytes // _FRAGMENTS
        shutdown_worker_pool()
        monkeypatch.setattr(wire, "_RESIDENT_CEILING_BYTES", 2 * one + 8)
        for hits in (0, 2, 2):
            registry = MetricsRegistry()
            _run(dist, query, registry)
            assert _counts(registry).get("hit", 0) == hits
            assert _counts(registry)["miss"] == _FRAGMENTS - hits
            assert "evicted" not in _counts(registry)
            assert len(table_segments("resident", "run")) == 2

    def test_release_by_relation_leaves_the_others(self):
        one, other = _relation(), _relation(salt=1)
        _run(one, _QUERIES["int_key"])
        _run(other, _QUERIES["int_key"])
        release_resident_segments(one)
        assert _resident_blocks() == block_ids(other)
        assert table_segments("resident") == table_segments("resident", "run")
        release_resident_segments()
        assert table_segments("resident", "run") == []

    def test_shutdown_during_a_run_defers_to_its_release(self):
        """The table is cleared while a run still reads its segments:
        they survive until that run ends, and not a moment longer."""
        dist = _relation()
        query = _QUERIES["int_key"]
        want = _run(dist, query)
        seen: list = []

        def shut_down_mid_run():
            time.sleep(0.15)
            shutdown_worker_pool()
            seen.append((len(table_segments("resident", "run")),
                         stray_segments(), len(listed("resident"))))

        thread = threading.Thread(target=shut_down_mid_run)
        thread.start()
        got = _run(dist, query, phase_fn=_slow_local_phase)
        thread.join(timeout=30)
        assert got == want
        # Mid-run: unlisted, still on the mount, still answered for.
        assert seen == [(_FRAGMENTS, [], 0)]
        assert shm_segments() == []

    def test_a_workers_exit_removes_nothing(self):
        dist = _relation()
        query = _QUERIES["int_key"]
        want = _run(dist, query)
        names = _table.names("resident")
        pool = pool_module._get_shared_pool()
        by_sentinel, by_signal = pool.idle_workers()[:2]
        by_sentinel.conn.send(None)
        by_sentinel.proc.join(10)
        assert by_sentinel.proc.exitcode == 0
        pool.remove_idle(by_signal)
        assert not by_signal.proc.is_alive()
        assert sorted(names) == table_segments("resident", "run")
        registry = MetricsRegistry()
        assert _run(dist, query, registry) == want
        assert _counts(registry) == {"hit": _FRAGMENTS}

    def test_a_forked_child_unlinks_nothing(self):
        """A child inherits a copy of the table; clearing the copy, or
        collecting the copied blocks, must not touch the parent's
        segments — only the process that created one unlinks it."""
        dist = _relation()
        query = _QUERIES["int_key"]
        want = _run(dist, query)
        names = table_segments("resident", "run")
        child = multiprocessing.get_context("fork").Process(
            target=_clear_the_inherited_table
        )
        child.start()
        child.join(30)
        assert child.exitcode == 0
        assert table_segments("resident", "run") == names
        assert names == table_segments("resident")
        registry = MetricsRegistry()
        assert _run(dist, query, registry) == want
        assert _counts(registry) == {"hit": _FRAGMENTS}

    def test_exit_with_live_relations_leaves_no_segment(self):
        """The ``atexit`` path: a process that ends with relations alive
        and the pool up takes its segments with it."""
        import subprocess

        program = (
            "from tests.test_mp_resident import _relation, _run, _QUERIES\n"
            "from tests.conftest import table_segments\n"
            "dist = _relation()\n"
            "_run(dist, _QUERIES['int_key'])\n"
            "print(len(table_segments('resident', 'run')))\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(root, "src"), root]
        ))
        done = subprocess.run(
            [sys.executable, "-c", program], env=env, cwd=root,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [str(_FRAGMENTS)]
        assert done.stderr == ""  # no resource-tracker complaint either
        assert shm_segments() == []


def _clear_the_inherited_table():
    names = _table.names("resident")
    assert len(names) == _FRAGMENTS
    release_resident_segments()
    assert _table.names("resident") == set()
    # This copy of the table answers for them no more; the mount keeps them.
    assert set(stray_segments()) == names


def _slow_local_phase(job):
    time.sleep(0.25)
    return _local_phase(job)


class TestConcurrentRuns:
    def test_threads_sharing_relations_leak_nothing(self):
        """More dispatchers than cores over two shared relations, with
        the table cleared under them now and then: every run returns the
        in-process bits, and afterwards nothing is pinned, deferred or
        stray — a lost pin or a double unlink would show as either."""
        dists = [_relation(), _relation(salt=1)]
        names = ("int_key", "str_key", "where")
        want = {
            (d, name): _run(dists[d], _QUERIES[name], processes=1)
            for d in range(len(dists)) for name in names
        }
        errors: list = []
        stop = time.monotonic() + 3.0

        def client(seed: int) -> None:
            turn = seed
            try:
                while time.monotonic() < stop:
                    d, name = turn % len(dists), names[turn % len(names)]
                    got = _run(dists[d], _QUERIES[name])
                    assert got == want[(d, name)], (d, name)
                    turn += seed + 1
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def releaser() -> None:
            while time.monotonic() < stop:
                time.sleep(0.05)
                release_resident_segments(dists[0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(seed,))
                for seed in range(2 * (os.cpu_count() or 1) + 1)
            ] + [threading.Thread(target=releaser)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        table_at_rest()
        assert table_segments("resident") == table_segments("resident", "run")


# -- the stateful lifecycle audit ---------------------------------------------

_slots = st.sampled_from(["a", "b", "c"])
_statements = st.sampled_from(sorted(_QUERIES))


class ResidentLifecycle(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        reset_pool_breaker()
        shutdown_worker_pool()
        assert shm_segments() == []
        self.saved_ceiling = wire._RESIDENT_CEILING_BYTES
        self.generation = 0
        self.relations = {"a": _relation(0), "b": _relation(1), "c": None}
        self.expected: dict = {}
        # Unlinked behind the table's back and not yet noticed by it.
        self.vanished: set = set()
        # The bytes that were resident when the ceiling last shrank:
        # they may stay until the next segment asks to.
        self.grandfathered = 0

    def teardown(self) -> None:
        wire._RESIDENT_CEILING_BYTES = self.saved_ceiling
        self.relations.clear()
        self.expected.clear()
        gc.collect()
        assert _table.names("resident") == set()  # every block was collected
        shutdown_worker_pool()
        assert shm_segments() == []
        assert _table.names() == set()
        assert multiprocessing.active_children() == []

    def _live(self, slot):
        return self.relations[slot] is not None

    def _check_run(self, slot, name, **kwargs) -> None:
        dist = self.relations[slot]
        key = (slot, name)
        if key not in self.expected:
            self.expected[key] = row_bits(
                _run(dist, _QUERIES[name], processes=1)
            )
        before = _table.names("resident")
        registry = MetricsRegistry()
        got = _run(dist, _QUERIES[name], registry, **kwargs)
        assert row_bits(got) == self.expected[key]
        if "faults" not in kwargs:
            # Whatever went missing was noticed at the hit, not by a
            # worker: no fault, no retry.
            assert "mp.retries" not in registry
        if _table.names("resident") - before:
            # A segment asked to stay, and the ceiling answered.
            assert _table.resident_bytes <= wire._shm_ceiling()
            self.grandfathered = 0

    # -- rules ----------------------------------------------------------

    @rule(slot=_slots, name=_statements,
          strategy=st.sampled_from(_STRATEGIES))
    def run(self, slot, name, strategy):
        if self._live(slot):
            self._check_run(slot, name, strategy=strategy)

    @rule(slot=_slots, name=_statements)
    def run_a_substituted_phase(self, slot, name):
        if self._live(slot):
            self._check_run(slot, name, phase_fn=_local_phase)

    @rule(slot=_slots, name=_statements, seed=st.integers(0, 40),
          strategy=st.sampled_from(["pool", "global"]))
    def run_under_injected_shm_loss(self, slot, name, seed, strategy):
        if not self._live(slot):
            return
        plan = FaultPlan(seed=seed, message_loss=0.4)
        try:
            self._check_run(slot, name, strategy=strategy, faults=plan,
                            max_retries=6)
        except FragmentFailedError as exc:
            # One fragment lost on every attempt: a typed outcome, and
            # the invariants below hold it to leaving nothing behind.
            assert exc.cause_type == "FileNotFoundError"

    @rule(slot=_slots, name=_statements,
          strategy=st.sampled_from(["pool", "global"]))
    def run_under_a_kill(self, slot, name, strategy):
        if self._live(slot):
            self._check_run(slot, name, strategy=strategy, faults=_KILL)

    @rule(groups=st.sampled_from([200, 2000, 6000]))
    def run_a_partial_that_outgrows_its_arena(self, groups):
        """Row-born, so its segments are the run's own.  A partial of
        up to ``groups`` groups comes in-band past its worker's arena,
        and that worker's next reply goes to a grown one: the old arena
        leaves the table."""
        rows = [
            (n % groups, "k", n % 9 - 2, n / 8, "p")
            for n in range(2 * groups)
        ]
        dist = DistributedRelation(_SCHEMA, [
            rows[f::_FRAGMENTS] for f in range(_FRAGMENTS)
        ])
        query = _QUERIES["int_key"]
        want = row_bits(_run(dist, query, processes=1))
        before = _table.names("arena")
        registry = MetricsRegistry()
        assert row_bits(_run(dist, query, registry)) == want
        grown = "mp.return.inband" in registry
        if grown and wire._RESIDENT_CEILING_BYTES == 1 << 30:
            assert _table.names("arena") != before

    @rule(slot=_slots, keep=st.booleans())
    def drop_a_relation(self, slot, keep):
        self.generation += 1
        self.relations[slot] = (
            _relation(10 + self.generation) if keep else None
        )
        for key in [key for key in self.expected if key[0] == slot]:
            del self.expected[key]
        gc.collect()

    @rule(pick=st.integers(0, 99))
    def unlink_a_segment_behind_the_tables_back(self, pick):
        # Table order, not name order: names are random, and a replay
        # must unlink the same fragment's segment.
        names = [
            entry.name for entry in listed("resident")
            if entry.name not in self.vanished
        ]
        if names:
            name = names[pick % len(names)]
            os.unlink("/dev/shm/" + name)
            self.vanished.add(name)

    @rule(ceiling=st.sampled_from([1, 700, 2500, 1 << 30]))
    def move_the_ceiling(self, ceiling):
        wire._RESIDENT_CEILING_BYTES = ceiling
        self.grandfathered = _table.resident_bytes

    @rule()
    def shut_the_pool_down(self):
        shutdown_worker_pool()
        assert shm_segments() == []
        assert _table.names() == set()

    @rule(by_sentinel=st.booleans())
    def a_worker_exits(self, by_sentinel):
        # No precondition: how many workers idle is the pool's business
        # and need not repeat from one replay to the next.
        pool = pool_module._shared_pool
        alive = [] if pool is None else [
            w for w in pool.idle_workers() if w.proc.is_alive()
        ]
        if not alive:
            return
        if by_sentinel:
            alive[0].conn.send(None)
            alive[0].proc.join(10)
            assert alive[0].proc.exitcode == 0
        else:
            pool.remove_idle(alive[0])

    # -- invariants -----------------------------------------------------

    @invariant()
    def the_mount_holds_exactly_the_tables_segments(self):
        names = _table.names()
        self.vanished &= names
        assert set(shm_segments()) == names - self.vanished

    @invariant()
    def nothing_is_pinned_and_the_bytes_add_up(self):
        table_at_rest()
        assert _table.resident_bytes <= max(
            wire._shm_ceiling(), self.grandfathered
        )

    @invariant()
    def only_live_blocks_have_entries(self):
        live = block_ids(
            *(dist for dist in self.relations.values() if dist is not None)
        )
        assert _resident_blocks() <= live


# A stateful example is a dozen runs: a fifth of the profile's budget
# (tier-1: 20 examples; ``--hypothesis-profile=stress``: 300).
TestResidentLifecycle = ResidentLifecycle.TestCase
TestResidentLifecycle.settings = settings(
    max_examples=max(20, settings().max_examples // 5),
    stateful_step_count=14,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
