"""Unit tests of the fault-injection layer (plan validation + engine)."""

import dataclasses

import pytest

from repro.core.runner import run_algorithm
from repro.sim import faults, recovery
from repro.sim.faults import (
    ClusterLostError,
    CrashFault,
    FaultConfigError,
    FaultPlan,
    Straggler,
)

from tests.conftest import assert_rows_close


class TestFaultPlanValidation:
    def test_crash_needs_exactly_one_trigger(self):
        with pytest.raises(FaultConfigError):
            CrashFault(0)
        with pytest.raises(FaultConfigError):
            CrashFault(0, at_time=1.0, after_tuples=10)

    def test_crash_trigger_ranges(self):
        with pytest.raises(FaultConfigError):
            CrashFault(0, at_time=-0.1)
        with pytest.raises(FaultConfigError):
            CrashFault(0, after_tuples=0)

    def test_straggler_must_slow_down(self):
        with pytest.raises(FaultConfigError):
            Straggler(0, 0.5)

    def test_probabilities_in_range(self):
        for name in ("message_loss", "message_duplication",
                     "read_error_rate"):
            with pytest.raises(FaultConfigError):
                FaultPlan(**{name: 1.0})
            with pytest.raises(FaultConfigError):
                FaultPlan(**{name: -0.1})

    def test_transport_and_recovery_timings_are_constants(self):
        """What the ``--faults`` grammar can reach is the plan; the
        transport's and recovery's timings are module constants."""
        assert [f.name for f in dataclasses.fields(FaultPlan)] == [
            "seed", "crashes", "stragglers", "worker_stalls",
            "message_loss", "message_duplication", "read_error_rate",
        ]
        with pytest.raises(TypeError):
            FaultPlan(ack_timeout=0.01)
        assert (
            faults.ACK_TIMEOUT, faults.BACKOFF, faults.MAX_BACKOFF,
            faults.MAX_SEND_RETRIES, faults.DETECTION_TIMEOUT,
            faults.MAX_RECOVERY_ATTEMPTS,
        ) == (0.01, 2.0, 0.25, 12, 0.05, 8)

    def test_one_crash_per_node(self):
        with pytest.raises(FaultConfigError):
            FaultPlan(
                crashes=(
                    CrashFault(1, at_time=0.1),
                    CrashFault(1, after_tuples=5),
                )
            )

    def test_active_property(self):
        assert not FaultPlan().active
        assert FaultPlan(message_loss=0.1).active
        assert FaultPlan(stragglers=(Straggler(0, 2.0),)).active
        assert FaultPlan(crashes=(CrashFault(0, at_time=1.0),)).active


class TestInactivePlanIsFree:
    def test_inactive_plan_matches_fault_free_run(
        self, small_dist, sum_query
    ):
        """faults=FaultPlan() must reproduce the fault-free run exactly.

        Same rows, same elapsed time, same per-node finish times — the
        fault machinery must be zero-cost when nothing is injected.
        """
        clean = run_algorithm("two_phase", small_dist, sum_query)
        gated = run_algorithm(
            "two_phase", small_dist, sum_query, faults=FaultPlan()
        )
        assert gated.rows == clean.rows
        assert gated.elapsed_seconds == clean.elapsed_seconds
        assert [n.finish_time for n in gated.metrics.nodes] == [
            n.finish_time for n in clean.metrics.nodes
        ]
        assert gated.metrics.total_retries == 0
        assert gated.metrics.total_reexecuted_tuples == 0
        assert gated.metrics.degraded_makespan == 0.0

    def test_default_config_has_no_fault_metrics(
        self, small_dist, sum_query
    ):
        out = run_algorithm("repartitioning", small_dist, sum_query)
        assert out.metrics.total_retries == 0
        assert out.metrics.total_timeouts == 0
        assert out.metrics.crashed_nodes == []
        assert out.metrics.degraded_makespan == 0.0


class TestStragglers:
    def test_straggler_slows_the_run(self, small_dist, sum_query):
        clean = run_algorithm("two_phase", small_dist, sum_query)
        plan = FaultPlan(stragglers=(Straggler(2, 4.0),))
        slow = run_algorithm(
            "two_phase", small_dist, sum_query, faults=plan
        )
        assert_rows_close(slow.rows, clean.rows)
        assert slow.elapsed_seconds > 1.5 * clean.elapsed_seconds
        # The straggler holds everyone's merge phase back: each node
        # finishes later than the whole fault-free run took.
        assert all(
            n.finish_time > clean.elapsed_seconds
            for n in slow.metrics.nodes
        )
        assert slow.metrics.degraded_makespan == slow.elapsed_seconds


class TestUnreliableTransport:
    def test_message_loss_is_retried_not_lost(self, small_dist, sum_query):
        ref = run_algorithm("two_phase", small_dist, sum_query)
        plan = FaultPlan(seed=3, message_loss=0.3)
        out = run_algorithm(
            "two_phase", small_dist, sum_query, faults=plan
        )
        assert_rows_close(out.rows, ref.rows)
        assert out.metrics.total_retries > 0
        assert out.metrics.total_timeouts > 0
        assert out.elapsed_seconds > ref.elapsed_seconds

    def test_duplicates_are_suppressed(self, small_dist, sum_query):
        ref = run_algorithm("repartitioning", small_dist, sum_query)
        plan = FaultPlan(seed=5, message_duplication=0.4)
        out = run_algorithm(
            "repartitioning", small_dist, sum_query, faults=plan
        )
        assert_rows_close(out.rows, ref.rows)
        total_dups = sum(
            n.duplicates_dropped for n in out.metrics.nodes
        )
        assert total_dups > 0

    def test_read_errors_reissue_the_request(self, small_dist, sum_query):
        ref = run_algorithm("two_phase", small_dist, sum_query)
        plan = FaultPlan(seed=7, read_error_rate=0.3)
        out = run_algorithm(
            "two_phase", small_dist, sum_query, faults=plan
        )
        assert_rows_close(out.rows, ref.rows)
        assert out.metrics.total_retries > 0
        assert out.elapsed_seconds > ref.elapsed_seconds


class TestCrashRecovery:
    def test_crash_mid_scan_recovers(self, small_dist, sum_query):
        ref = run_algorithm("two_phase", small_dist, sum_query)
        plan = FaultPlan(crashes=(CrashFault(1, after_tuples=200),))
        out = run_algorithm(
            "two_phase", small_dist, sum_query, faults=plan
        )
        assert_rows_close(out.rows, ref.rows)
        assert out.metrics.crashed_nodes == [1]
        assert out.metrics.total_reexecuted_tuples == len(
            small_dist.fragments[1]
        )
        assert out.metrics.degraded_makespan > ref.elapsed_seconds
        assert len(out.events_named("node_crash")) == 1
        assert len(out.events_named("crash_detected")) == 1
        assert len(out.events_named("takeover")) == 1

    def test_crash_at_time_recovers(self, small_dist, sum_query):
        ref = run_algorithm("repartitioning", small_dist, sum_query)
        plan = FaultPlan(crashes=(CrashFault(3, at_time=0.01),))
        out = run_algorithm(
            "repartitioning", small_dist, sum_query, faults=plan
        )
        assert_rows_close(out.rows, ref.rows)
        assert out.metrics.crashed_nodes == [3]
        assert out.metrics.total_reexecuted_tuples > 0

    def test_crash_after_natural_finish_never_fires(
        self, small_dist, sum_query
    ):
        clean = run_algorithm("two_phase", small_dist, sum_query)
        plan = FaultPlan(
            crashes=(
                CrashFault(0, at_time=clean.elapsed_seconds * 100),
            )
        )
        out = run_algorithm(
            "two_phase", small_dist, sum_query, faults=plan
        )
        assert out.rows == clean.rows  # never fired: bit-identical run
        assert out.metrics.crashed_nodes == []

    def test_recovery_gives_up_after_its_attempts(
        self, small_dist, sum_query, monkeypatch
    ):
        monkeypatch.setattr(recovery, "MAX_RECOVERY_ATTEMPTS", 1)
        plan = FaultPlan(crashes=(CrashFault(1, after_tuples=200),))
        with pytest.raises(ClusterLostError, match="gave up after 1"):
            run_algorithm("two_phase", small_dist, sum_query, faults=plan)

    def test_two_crashes_both_recovered(self, small_dist, sum_query):
        ref = run_algorithm("two_phase", small_dist, sum_query)
        plan = FaultPlan(
            crashes=(
                CrashFault(1, after_tuples=150),
                CrashFault(3, after_tuples=350),
            )
        )
        out = run_algorithm(
            "two_phase", small_dist, sum_query, faults=plan
        )
        assert_rows_close(out.rows, ref.rows)
        assert out.metrics.crashed_nodes == [1, 3]
        assert out.metrics.total_reexecuted_tuples >= len(
            small_dist.fragments[1]
        ) + len(small_dist.fragments[3])
