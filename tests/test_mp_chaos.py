"""Real-process chaos matrix for the persistent worker pool.

Every scenario here injects faults into *real* worker processes —
SIGKILL at dispatch, SIGSTOP/CONT limplock, per-row slowdown, injected
exceptions, shm-segment loss — driven by the same seedable
:class:`repro.parallel.mp_executor.faults.FaultPlan`.  The
contract under test is brutal and simple: whatever the plan throws at
the pool, the results must be *exactly equal* to the fault-free run and
no stray ``/dev/shm`` segment may survive (none at all once the pool is
shut down).

Also covers the health machinery the faults exercise: eager heartbeat
detection of wedged workers, poison-fragment quarantine, and the pool
circuit breaker's rebuild-then-degrade ladder.
"""

import functools
import multiprocessing as mp
import os
import random
import time

import pytest

from repro.core.aggregates import AggregateSpec
from repro.core.query import AggregateQuery
from repro.obs.metrics import MetricsRegistry
from repro.parallel import (
    DeadlineExceededError,
    FragmentFailedError,
    WorkerFailure,
    multiprocessing_aggregate,
    pool_breaker_state,
    reset_pool_breaker,
)
from repro.parallel import mp_executor
from repro.parallel.mp_executor import pool as mp_pool
from repro.parallel.mp_executor import resilience
from repro.parallel.mp_executor import strategies as mp_strategies
from repro.parallel.mp_executor.faults import (
    CrashFault,
    FaultPlan,
    Straggler,
    WorkerStall,
)
from repro.parallel.mp_executor.kernel import _local_phase
from repro.parallel.mp_executor.pool import _get_shared_pool
from repro.workloads.generator import generate_uniform

from tests.conftest import (
    block_ids,
    kernel_declines,
    listed,
    shm_segments,
    stray_segments,
    table_at_rest,
    table_segments,
)

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
    """Chaos or not, no exit path leaves a stray segment, a run segment
    or a pin: whatever is on the mount is a resident segment of a live
    block or a worker's arena, unpinned."""
    assert stray_segments() == []
    yield
    table_at_rest()


@pytest.fixture(autouse=True)
def fresh_breaker():
    """Breaker state is module-global; isolate every test."""
    reset_pool_breaker()
    yield
    reset_pool_breaker()


@pytest.fixture
def dist():
    return generate_uniform(num_tuples=2400, num_groups=60, num_nodes=4, seed=21)


@pytest.fixture
def query():
    return AggregateQuery(
        group_by=["gkey"],
        aggregates=[AggregateSpec("sum", "val"), AggregateSpec("count")],
    )


# Worker-side helpers must be module-level (picklable).

def _exit_on_marker_row(marker_row, job):
    rows, _query, _schema = job
    if rows and tuple(rows[0]) == tuple(marker_row):
        os._exit(23)  # hard death, every attempt: a poison fragment
    return _local_phase(job)


def _always_exit(job):
    os._exit(29)


_REAL_PARTITION = mp_strategies._RepPartitionPhase.__call__
_REAL_BUCKET = mp_strategies._rep_bucket_phase
_NAP_SECONDS = 0.6  # past the production 0.5 s interval


def _napping_partition(self, job):
    time.sleep(_NAP_SECONDS)
    return _REAL_PARTITION(self, job)


def _napping_bucket(job):
    time.sleep(_NAP_SECONDS)
    return _REAL_BUCKET(job)


# Each plan is pinned to a seed whose injection schedule was verified to
# recover within the default retry budget (some seeds legitimately
# exhaust retries — e.g. seed 8 of the "everything" plan lands error +
# shm-loss + kill on one fragment's every attempt; that is correct
# behaviour but not what this matrix pins).
PLANS = {
    "kill": FaultPlan(seed=11, crashes=(CrashFault(1),)),
    "limplock": FaultPlan(seed=11, worker_stalls=(WorkerStall(0, 0.8),)),
    "slow": FaultPlan(seed=11, stragglers=(Straggler(2, 8.0),)),
    "error": FaultPlan(seed=4, read_error_rate=0.5),
    "shm_loss": FaultPlan(seed=1, message_loss=0.4),
    "everything": FaultPlan(
        seed=1,
        crashes=(CrashFault(3),),
        stragglers=(Straggler(2, 6.0),),
        worker_stalls=(WorkerStall(0, 0.6),),
        read_error_rate=0.3,
        message_loss=0.3,
    ),
}


class TestChaosMatrix:
    """kill / limplock / slow / error / shm-loss, and all at once."""

    # "spec-off": the leg's name from when every plan also ran with a
    # speculative backup, kept so its history stays one test.
    @pytest.mark.parametrize("plan_name", sorted(PLANS),
                             ids=lambda name: f"{name}-spec-off")
    def test_results_equal_fault_free(self, dist, query, plan_name):
        baseline = multiprocessing_aggregate(dist, query, processes=2)
        log = []
        got = multiprocessing_aggregate(
            dist, query, processes=2, timeout=30,
            faults=PLANS[plan_name], faults_log=log,
        )
        assert got == baseline  # bit-identical, not merely close
        assert log, "plan injected nothing — the scenario tested nothing"

    def test_fault_log_is_deterministic(self, dist, query):
        runs = []
        for _ in range(2):
            log = []
            multiprocessing_aggregate(
                dist, query, processes=2, timeout=30,
                faults=PLANS["everything"], faults_log=log,
            )
            runs.append(log)
        assert runs[0] == runs[1]

    def test_faults_require_pool_strategy(self, dist, query):
        with pytest.raises(ValueError, match="strategy='pool'"):
            multiprocessing_aggregate(
                dist, query, processes=2, strategy="rep",
                faults=PLANS["kill"],
            )

    def test_shm_loss_reencodes_segment(self, dist, query):
        metrics = MetricsRegistry()
        got = multiprocessing_aggregate(
            dist, query, processes=2, timeout=30,
            faults=PLANS["shm_loss"], metrics=metrics,
        )
        assert got == multiprocessing_aggregate(dist, query, processes=2)
        # The unlinked segment surfaced as FileNotFoundError and the
        # retry shipped a fresh encoding — not a silent inline fallback.
        assert metrics.value("mp.shm.reencoded") >= 1
        assert metrics.value("mp.errors.FileNotFoundError") >= 1


class TestHeartbeats:
    def test_wedged_worker_detected_before_timeout(self, dist, query,
                                                   monkeypatch):
        """A 30 s limplock is cut short by heartbeat loss, not the 60 s
        job timeout: the run finishes in seconds with correct results."""
        monkeypatch.setattr(mp_pool, "HEARTBEAT_INTERVAL", 0.1)
        monkeypatch.setattr(mp_pool, "HEARTBEAT_TIMEOUT", 0.5)
        plan = FaultPlan(seed=11, worker_stalls=(WorkerStall(1, 30.0),))
        metrics = MetricsRegistry()
        start = time.monotonic()
        got = multiprocessing_aggregate(
            dist, query, processes=2, timeout=60, faults=plan,
            metrics=metrics,
        )
        assert time.monotonic() - start < 15
        assert got == multiprocessing_aggregate(dist, query, processes=2)
        assert metrics.value("mp.heartbeat.lost") == 1
        assert metrics.value("mp.errors.HeartbeatLost") == 1

    def test_slow_worker_emits_progress_beats(self, dist, query,
                                              monkeypatch):
        """A limping (but alive) worker keeps beating: the dispatcher
        sees it alive instead of declaring it dead."""
        monkeypatch.setattr(mp_pool, "HEARTBEAT_INTERVAL", 0.05)
        plan = FaultPlan(seed=11, stragglers=(Straggler(2, 50.0),))
        metrics = MetricsRegistry()
        got = multiprocessing_aggregate(
            dist, query, processes=2, timeout=60, faults=plan,
            metrics=metrics,
        )
        assert got == multiprocessing_aggregate(dist, query, processes=2)
        assert metrics.value("mp.heartbeat.beats") >= 1
        with pytest.raises(KeyError):
            metrics.value("mp.heartbeat.lost")

    @pytest.mark.parametrize("strategy", ["pool", "global", "auto"])
    def test_slow_fault_reports_progress_under_every_strategy_name(
        self, dist, query, strategy, monkeypatch
    ):
        """One built-in phase function, so the injected straggler takes
        the chunked per-row loop, and keeps beating while it limps,
        whatever the two-phase strategy is called."""
        monkeypatch.setattr(mp_pool, "HEARTBEAT_INTERVAL", 0.02)
        baseline = multiprocessing_aggregate(dist, query, processes=2)
        plan = FaultPlan(seed=11, stragglers=(Straggler(2, 200.0),))
        metrics = MetricsRegistry()
        got = multiprocessing_aggregate(
            dist, query, processes=2, timeout=60, faults=plan,
            metrics=metrics, strategy=strategy,
        )
        assert got == baseline  # bit-identical, not merely close
        assert kernel_declines(metrics) == {"injected_slow": 1}
        assert metrics.value("mp.heartbeat.beats") >= 1


class TestQuarantine:
    def test_poison_fragment_fails_fast_with_cause_chain(self, query):
        dist = generate_uniform(900, 12, 3, seed=4)
        marker_row = dist.fragments[2].relation.rows[0]
        fn = functools.partial(_exit_on_marker_row, marker_row)
        metrics = MetricsRegistry()
        with pytest.raises(FragmentFailedError) as info:
            multiprocessing_aggregate(
                dist, query, processes=2, phase_fn=fn,
                max_retries=10, metrics=metrics,
            )
        err = info.value
        assert err.fragment_index == 2
        assert err.cause_type == "PoisonFragment"
        assert "poison fragment: killed 3 worker(s)" in err.cause
        assert "died without a result" in err.cause  # the chain, inline
        assert isinstance(err.__cause__, WorkerFailure)
        assert err.__cause__.error_type == "WorkerDied"
        assert metrics.value("mp.quarantine.poisoned") == 1
        assert metrics.value("mp.quarantine.worker_deaths") == 3
        # Quarantine fired well before the 10-retry budget ran out.
        assert err.attempts <= 3

    def test_healthy_fragments_salvaged(self, query):
        dist = generate_uniform(900, 12, 3, seed=4)
        marker_row = dist.fragments[2].relation.rows[0]
        fn = functools.partial(_exit_on_marker_row, marker_row)
        with pytest.raises(FragmentFailedError) as info:
            multiprocessing_aggregate(
                dist, query, processes=2, phase_fn=fn,
                max_retries=10,
            )
        # partial_results carries the work that did complete.
        assert 2 not in info.value.partial_results


class TestCircuitBreaker:
    def test_rebuild_once_then_degrade_to_private_pool(self, dist, query,
                                                       monkeypatch):
        baseline = multiprocessing_aggregate(dist, query, processes=2)
        # Zero backoff: the third failing run may rebuild immediately,
        # preserving the original rebuild-once-then-degrade sequence.
        monkeypatch.setattr(resilience, "BREAKER_THRESHOLD", 2)
        monkeypatch.setattr(resilience, "REBUILD_BACKOFF_SECONDS", 0.0)

        def fail_once():
            with pytest.raises(FragmentFailedError):
                multiprocessing_aggregate(
                    dist, query, processes=2, max_retries=0,
                    phase_fn=_always_exit,
                )

        fail_once()
        assert pool_breaker_state().consecutive_infra_failures == 1
        fail_once()
        assert pool_breaker_state().consecutive_infra_failures == 2
        assert not pool_breaker_state().degraded

        # Third call trips the rebuild: the shared pool is torn down and
        # reforked before dispatch.
        old_pool = _get_shared_pool()
        metrics = MetricsRegistry()
        with pytest.raises(FragmentFailedError):
            multiprocessing_aggregate(
                dist, query, processes=2, max_retries=0,
                phase_fn=_always_exit, metrics=metrics,
            )
        assert _get_shared_pool() is not old_pool
        assert pool_breaker_state().rebuilds == 1
        assert metrics.value("mp.breaker.rebuilds") == 1

        # Still failing after the rebuild: degrade to a private pool.
        fail_once()
        assert pool_breaker_state().degraded

        # A degraded run leaves the shared pool alone (no forks there),
        # still produces correct results, and surfaces the state in
        # metrics.
        pool = _get_shared_pool()
        spawned_before = pool.spawned
        metrics = MetricsRegistry()
        got = multiprocessing_aggregate(
            dist, query, processes=2, metrics=metrics
        )
        assert got == baseline
        assert pool.spawned == spawned_before
        assert metrics.value("mp.breaker.degraded_runs") == 1
        assert metrics.value("mp.breaker.degraded") == 1

        # Only an operator reset restores pooled dispatch.
        reset_pool_breaker()
        assert not pool_breaker_state().degraded

    def test_success_resets_consecutive_failures(self, dist, query,
                                                 monkeypatch):
        monkeypatch.setattr(resilience, "BREAKER_THRESHOLD", 2)
        with pytest.raises(FragmentFailedError):
            multiprocessing_aggregate(
                dist, query, processes=2, max_retries=0,
                phase_fn=_always_exit,
            )
        assert pool_breaker_state().consecutive_infra_failures == 1
        multiprocessing_aggregate(dist, query, processes=2)
        assert pool_breaker_state().consecutive_infra_failures == 0

    def test_user_errors_do_not_trip_breaker(self, dist, query,
                                             monkeypatch):
        from tests.test_mp_executor_faults import _always_raise

        monkeypatch.setattr(resilience, "BREAKER_THRESHOLD", 2)
        for _ in range(3):
            with pytest.raises(FragmentFailedError):
                multiprocessing_aggregate(
                    dist, query, processes=2, max_retries=0,
                    phase_fn=_always_raise,
                )
        # RuntimeError is the user's bug, not pool sickness.
        assert pool_breaker_state().consecutive_infra_failures == 0
        assert not pool_breaker_state().degraded


def _only_resident_segments_of(dist):
    """Nothing stray, and what is resident is one segment per fragment
    of the one relation alive."""
    entries = listed("resident")
    assert stray_segments() == []
    assert {entry.key[0] for entry in entries} == block_ids(dist)
    assert table_segments() == sorted(entry.name for entry in entries)
    assert len(entries) == len(dist.fragments)


class TestDegradedMode:
    """Degraded = stop trusting the shared pool, keep process isolation:
    the run forks a private pool and takes it down on the way out."""

    @pytest.fixture(autouse=True)
    def degraded(self, monkeypatch):
        mp_executor.shutdown_worker_pool()
        monkeypatch.setattr(resilience, "BREAKER_THRESHOLD", 1)
        monkeypatch.setattr(resilience, "REBUILD_BACKOFF_SECONDS", 0.0)
        breaker = pool_breaker_state()
        breaker.record_failure("WorkerDied")
        assert breaker.take_rebuild()
        breaker.record_failure("WorkerDied")
        assert breaker.degraded

    def test_private_pool_leaves_nothing_behind(self, dist, query):
        shared = _get_shared_pool()
        metrics = MetricsRegistry()
        got = multiprocessing_aggregate(
            dist, query, processes=2, metrics=metrics,
            faults=PLANS["kill"],  # skipped while degraded
        )
        assert got == multiprocessing_aggregate(dist, query, processes=1)
        assert shared.spawned == 0
        assert metrics.value("mp.breaker.degraded_runs") == 1
        assert metrics.value("mp.breaker.state") == 2  # the one loop
        assert metrics.value("mp.attempts") == len(dist.fragments)
        assert mp.active_children() == []
        _only_resident_segments_of(dist)

    def test_rep_runs_on_the_private_pool_too(self, dist, query):
        metrics = MetricsRegistry()
        got = multiprocessing_aggregate(
            dist, query, processes=2, strategy="rep", metrics=metrics
        )
        assert got == multiprocessing_aggregate(dist, query, processes=1)
        # Neither round forked into the pool the breaker gave up on.
        assert mp_pool._shared_pool is None
        assert metrics.value("mp.breaker.degraded_runs") == 1
        assert metrics.value("mp.breaker.state") == 2
        assert mp.active_children() == []
        _only_resident_segments_of(dist)

    def test_rep_infra_failure_feeds_the_breaker(self, dist, query,
                                                 monkeypatch):
        monkeypatch.setattr(mp_strategies, "_rep_bucket_phase", _always_exit)
        before = pool_breaker_state().consecutive_infra_failures
        with pytest.raises(FragmentFailedError) as info:
            multiprocessing_aggregate(
                dist, query, processes=2, strategy="rep", max_retries=0
            )
        assert info.value.cause_type == "WorkerDied"
        assert pool_breaker_state().consecutive_infra_failures == before + 1
        assert mp_pool._shared_pool is None
        assert mp.active_children() == []
        _only_resident_segments_of(dist)

    @pytest.mark.parametrize("slow_round", [1, 2])
    def test_rep_heartbeats_are_the_callers_in_both_rounds(
        self, query, monkeypatch, slow_round
    ):
        """The private pool forks inside the run, so its workers nap
        through the patched round, and beat at the interval the parent
        runs with, not a worker-side default."""
        if slow_round == 1:
            monkeypatch.setattr(
                mp_strategies._RepPartitionPhase, "__call__",
                _napping_partition,
            )
        else:
            monkeypatch.setattr(
                mp_strategies, "_rep_bucket_phase", _napping_bucket
            )
        two = generate_uniform(
            num_tuples=600, num_groups=20, num_nodes=2, seed=5
        )
        monkeypatch.setattr(mp_pool, "HEARTBEAT_INTERVAL", 0.01)
        metrics = MetricsRegistry()
        multiprocessing_aggregate(
            two, query, processes=2, strategy="rep", metrics=metrics,
        )
        # Two at the production 0.5 s interval.
        assert metrics.counter("mp.heartbeat.beats").value > 10

    def test_run_deadline_holds_on_the_private_pool(self, dist, query):
        from tests.test_mp_executor_faults import _wedge

        start = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            multiprocessing_aggregate(
                dist, query, processes=2, phase_fn=_wedge,
                deadline=time.monotonic() + 0.3,
            )
        assert time.monotonic() - start < 15
        assert mp.active_children() == []
        _only_resident_segments_of(dist)


class TestBreakerBackoffAndState:
    """Unit coverage for the backoff schedule and the state gauge."""

    @pytest.fixture
    def policy(self, monkeypatch):
        """Set the breaker's policy constants for one test."""
        def set_constants(**constants):
            for name, value in constants.items():
                monkeypatch.setattr(resilience, name, value)
        return set_constants

    def _breaker(self, rng=None):
        return mp_executor.PoolCircuitBreaker(rng or random.Random(7))

    def test_rebuild_waits_for_backoff(self, policy):
        policy(BREAKER_THRESHOLD=1, REBUILD_BACKOFF_SECONDS=30.0)
        b = self._breaker()
        b.record_failure("WorkerDied")
        # Open, but the rebuild is scheduled in the future: not yet due.
        assert b.state == mp_executor.BREAKER_OPEN
        assert not b.should_rebuild()
        assert not b.take_rebuild()
        lo = resilience.REBUILD_BACKOFF_SECONDS
        hi = lo * (1 + resilience.BACKOFF_JITTER)
        delay = b.rebuild_not_before - time.monotonic()
        assert 0 < delay <= hi + 0.1
        assert delay >= lo * 0.5  # sanity: same order as configured

    def test_backoff_doubles_per_rebuild_and_caps(self, policy):
        # The one backoff formula: the service's query retries use it too.
        assert [
            resilience.backoff_delay(2.0, n, 5.0, 0.0) for n in range(4)
        ] == [2.0, 4.0, 5.0, 5.0]
        policy(BREAKER_THRESHOLD=1, REBUILD_BACKOFF_SECONDS=2.0,
               REBUILD_BACKOFF_CAP_SECONDS=5.0, BACKOFF_JITTER=0.0)
        b = self._breaker()
        assert b._next_backoff() == 2.0
        b.note_rebuild()
        assert b._next_backoff() == 4.0
        b.note_rebuild()
        assert b._next_backoff() == 5.0  # capped

    def test_jitter_is_seeded_and_bounded(self, policy):
        da = resilience.backoff_delay(1.0, 0, 30.0, 0.5, random.Random(99))
        db = resilience.backoff_delay(1.0, 0, 30.0, 0.5, random.Random(99))
        assert da == db  # same seed, same schedule
        assert 1.0 <= da <= 1.5
        # The breaker draws its jitter from the rng it was given.
        policy(REBUILD_BACKOFF_SECONDS=1.0, BACKOFF_JITTER=0.5)
        assert self._breaker(random.Random(99))._next_backoff() == da

    def test_take_rebuild_claims_once(self, policy):
        policy(BREAKER_THRESHOLD=1, REBUILD_BACKOFF_SECONDS=0.0)
        b = self._breaker()
        b.record_failure("HeartbeatLost")
        assert b.take_rebuild()
        assert not b.take_rebuild()  # already claimed
        assert b.rebuilds == 1
        assert b.state == mp_executor.BREAKER_HALF_OPEN

    def test_state_transitions_and_codes(self, policy):
        policy(BREAKER_THRESHOLD=2, REBUILD_BACKOFF_SECONDS=0.0)
        b = self._breaker()
        assert b.state == mp_executor.BREAKER_CLOSED
        assert b.state_code() == 0
        b.record_failure("WorkerDied")
        assert b.state == mp_executor.BREAKER_CLOSED
        b.record_failure("WorkerDied")
        assert b.state == mp_executor.BREAKER_OPEN
        assert b.state_code() == 2
        assert b.take_rebuild()
        assert b.state == mp_executor.BREAKER_HALF_OPEN
        assert b.state_code() == 1
        b.record_success()
        assert b.state == mp_executor.BREAKER_CLOSED
        # Degraded is terminal-open until an operator reset.
        b.record_failure("WorkerDied")
        b.record_failure("WorkerDied")
        assert b.take_rebuild()
        b.record_failure("WorkerDied")
        b.record_failure("WorkerDied")
        assert b.degraded
        assert b.state == mp_executor.BREAKER_OPEN

    def test_state_gauge_exported_from_pool_run(self, dist, query):
        reset_pool_breaker()
        metrics = MetricsRegistry()
        multiprocessing_aggregate(dist, query, processes=2, metrics=metrics)
        assert metrics.value("mp.breaker.state") == 0
