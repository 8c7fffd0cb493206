"""The pool's fault-injection plan: what to break in which worker.

A :class:`FaultPlan` is pure data — seedable, immutable, reusable — and
``multiprocessing_aggregate(..., faults=plan)`` delivers it to the real
worker processes (``resilience.MpFaultInjector``):

- a :class:`CrashFault` SIGKILLs the fragment's worker at job start;
- a :class:`Straggler` limps it with an artificial per-row slowdown;
- a :class:`WorkerStall` SIGSTOPs it until the parent's scheduled
  SIGCONT (the limplock scenario);
- ``read_error_rate`` raises an injected exception inside the worker;
- ``message_loss`` unlinks the fragment's shared-memory segment before
  dispatch.

Node ids are fragment indices.  :meth:`FaultPlan.injection_schedule` is
the one deterministic derivation of which fault fires on which fragment
and attempt, so a given seed injects the same faults run after run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


class FaultConfigError(ValueError):
    """A FaultPlan field is out of range or self-contradictory."""


# Injection-schedule kinds.  ``FaultPlan.injection_schedule`` emits
# (kind, target, ordinal) tuples using exactly these names.
INJECT_KILL = "kill"
INJECT_STALL = "stall"
INJECT_SLOW = "slow"
INJECT_ERROR = "error"
INJECT_SHM_LOSS = "shm_loss"

# Stream salts of the probabilistic kinds: changing one changes the
# schedule every seed draws (the chaos tests pick their seeds by it).
_SALT_INJECT_ERROR = 3
_SALT_INJECT_LOSS = 4


def _check_node(node_id: int) -> None:
    if node_id < 0:
        raise FaultConfigError(
            f"node_id must be a fragment index >= 0, got {node_id}"
        )


@dataclass(frozen=True)
class CrashFault:
    """Kill ``node_id``'s worker when its fragment is first dispatched."""

    node_id: int

    def __post_init__(self) -> None:
        _check_node(self.node_id)


@dataclass(frozen=True)
class Straggler:
    """Run ``node_id``'s job ``slowdown`` times slower."""

    node_id: int
    slowdown: float

    def __post_init__(self) -> None:
        _check_node(self.node_id)
        if self.slowdown < 1.0:
            raise FaultConfigError(
                "slowdown must be >= 1 (it multiplies durations)"
            )


@dataclass(frozen=True)
class WorkerStall:
    """Freeze ``node_id``'s worker for ``seconds`` — the limplock scenario.

    The worker SIGSTOPs itself at job start and is SIGCONTed ``seconds``
    later; the heartbeat monitor sees the beats stop and can retire the
    worker before the job timeout.  Fires at most once per run.
    """

    node_id: int
    seconds: float

    def __post_init__(self) -> None:
        _check_node(self.node_id)
        if self.seconds <= 0:
            raise FaultConfigError("stall seconds must be positive")


@dataclass(frozen=True)
class FaultPlan:
    """Everything injected into one pool run (immutable, seedable).

    Attributes
    ----------
    seed:
        Seeds the probabilistic draws (injected errors, segment loss).
    crashes:
        :class:`CrashFault` entries, at most one per node; each fires once.
    stragglers:
        :class:`Straggler` entries; they limp on every attempt.
    worker_stalls:
        :class:`WorkerStall` entries, at most one per node; each fires once.
    read_error_rate:
        Per-attempt probability that the fragment's job raises an
        injected exception inside the worker.
    message_loss:
        Per-attempt probability that the fragment's shared-memory
        segment is lost before dispatch.
    """

    seed: int = 0
    crashes: tuple[CrashFault, ...] = ()
    stragglers: tuple[Straggler, ...] = ()
    worker_stalls: tuple[WorkerStall, ...] = ()
    read_error_rate: float = 0.0
    message_loss: float = 0.0

    def __post_init__(self) -> None:
        for name in ("read_error_rate", "message_loss"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise FaultConfigError(f"{name} must be in [0, 1)")
        for what, faults in (("CrashFault", self.crashes),
                             ("WorkerStall", self.worker_stalls)):
            nodes = [f.node_id for f in faults]
            for node in nodes:
                if nodes.count(node) > 1:
                    raise FaultConfigError(
                        f"node {node} has more than one {what}"
                    )

    @property
    def active(self) -> bool:
        """Whether the plan injects anything at all."""
        return bool(
            self.crashes
            or self.stragglers
            or self.worker_stalls
            or self.read_error_rate
            or self.message_loss
        )

    def injection_schedule(
        self, node_ids, attempts: int = 1
    ) -> list[tuple[str, int, int]]:
        """The deterministic injected-fault schedule.

        Returns ``(kind, target, ordinal)`` tuples — ``kind`` one of the
        ``INJECT_*`` constants, ``target`` the fragment index,
        ``ordinal`` the attempt number the fault fires on.  One-shot
        faults (kills, stalls) fire at ordinal 0; stragglers limp on
        every attempt; the probabilistic kinds draw per attempt from
        per-(seed, node, purpose) streams, so the schedule is a pure
        function of (plan, node_ids, attempts).
        """
        if attempts < 1:
            raise FaultConfigError("attempts must be at least 1")
        crash_nodes = {c.node_id for c in self.crashes}
        stall_nodes = {s.node_id for s in self.worker_stalls}
        slow_nodes = {s.node_id for s in self.stragglers}
        entries: list[tuple[str, int, int]] = []
        for node in node_ids:
            if node in crash_nodes:
                entries.append((INJECT_KILL, node, 0))
            if node in stall_nodes:
                entries.append((INJECT_STALL, node, 0))
            if node in slow_nodes:
                entries.extend(
                    (INJECT_SLOW, node, a) for a in range(attempts)
                )
            for kind, rate, salt in (
                (INJECT_ERROR, self.read_error_rate, _SALT_INJECT_ERROR),
                (INJECT_SHM_LOSS, self.message_loss, _SALT_INJECT_LOSS),
            ):
                if rate:
                    rng = _stream(self.seed, node, salt)
                    entries.extend(
                        (kind, node, a)
                        for a in range(attempts)
                        if rng.random() < rate
                    )
        return entries


def _stream(seed: int, node: int, salt: int) -> random.Random:
    # Distinct deterministic streams per (plan seed, node, purpose);
    # plain integer arithmetic so the seed is stable across processes.
    return random.Random(
        (seed * 2_654_435_761 + node * 40_503 + salt) % (2**63)
    )
