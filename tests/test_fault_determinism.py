"""Determinism of the pool's fault plan: same seed, same schedule.

``FaultPlan.injection_schedule`` is a pure function of (plan, fragment
ids, attempts), and the pool fires exactly the scheduled faults — the
same ones, in the same order, run after run.
"""

import pytest

from repro.parallel import CrashFault, FaultPlan, Straggler, WorkerStall
from repro.parallel.mp_executor import MpFaultInjector


def _chaos_plan(seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        crashes=(CrashFault(3),),
        stragglers=(Straggler(2, 6.0),),
        worker_stalls=(WorkerStall(0, 0.6),),
        read_error_rate=0.3,
        message_loss=0.3,
    )


class TestInjectionScheduleParity:
    """One plan, one schedule: the injector fires what the plan says."""

    def test_injector_consumes_the_plan_schedule(self):
        plan = _chaos_plan(seed=7)
        direct = plan.injection_schedule(range(4), attempts=3)
        via_injector = MpFaultInjector(plan, num_fragments=4, attempts=3)
        assert direct == via_injector.schedule

    def test_same_seed_same_schedule(self):
        for seed in range(10):
            first = _chaos_plan(seed).injection_schedule(range(4), 3)
            second = _chaos_plan(seed).injection_schedule(range(4), 3)
            assert first == second

    def test_different_seeds_draw_differently(self):
        schedules = {
            seed: tuple(_chaos_plan(seed).injection_schedule(range(4), 3))
            for seed in range(10)
        }
        # The probabilistic kinds (error, shm loss) must vary by seed;
        # ten identical draws would mean the streams ignore it.
        assert len(set(schedules.values())) > 1

    def test_mp_fires_only_scheduled_faults(self, sum_query):
        import os

        from repro.parallel import multiprocessing_aggregate
        from repro.workloads.generator import generate_uniform

        if not os.path.isdir("/dev/shm"):
            pytest.skip("POSIX shared memory not mounted")
        plan = _chaos_plan(seed=1)
        dist = generate_uniform(2400, 60, 4, seed=21)
        scheduled = set(
            plan.injection_schedule(range(4), attempts=3)
        )
        log: list = []
        multiprocessing_aggregate(
            dist, sum_query, processes=2, timeout=30,
            faults=plan, faults_log=log,
        )
        assert log, "the chaos plan injected nothing"
        assert set(log) <= scheduled
        # And a second run fires the identical sequence.
        relog: list = []
        multiprocessing_aggregate(
            dist, sum_query, processes=2, timeout=30,
            faults=plan, faults_log=relog,
        )
        assert relog == log
