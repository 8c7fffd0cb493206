"""Validation of the pool's fault plan (what the injector may be given)."""

import pytest

from repro.parallel import (
    CrashFault,
    FaultConfigError,
    FaultPlan,
    Straggler,
    WorkerStall,
)


class TestFaultPlanValidation:
    def test_straggler_must_slow_down(self):
        with pytest.raises(FaultConfigError):
            Straggler(0, 0.5)

    def test_probabilities_in_range(self):
        for name in ("message_loss", "read_error_rate"):
            with pytest.raises(FaultConfigError):
                FaultPlan(**{name: 1.0})
            with pytest.raises(FaultConfigError):
                FaultPlan(**{name: -0.1})

    def test_one_crash_per_node(self):
        with pytest.raises(FaultConfigError, match="CrashFault"):
            FaultPlan(crashes=(CrashFault(1), CrashFault(1)))
        with pytest.raises(FaultConfigError, match="WorkerStall"):
            FaultPlan(
                worker_stalls=(WorkerStall(2, 0.1), WorkerStall(2, 0.2))
            )

    def test_negative_ids_rejected(self):
        """A negative id names no fragment: it would inject nothing."""
        for make in (
            lambda: CrashFault(-1),
            lambda: Straggler(-1, 2.0),
            lambda: WorkerStall(-1, 0.5),
        ):
            with pytest.raises(FaultConfigError, match="fragment index"):
                make()

    def test_active_property(self):
        assert not FaultPlan().active
        assert FaultPlan(message_loss=0.1).active
        assert FaultPlan(read_error_rate=0.1).active
        assert FaultPlan(stragglers=(Straggler(0, 2.0),)).active
        assert FaultPlan(crashes=(CrashFault(0),)).active
        assert FaultPlan(worker_stalls=(WorkerStall(0, 0.5),)).active
