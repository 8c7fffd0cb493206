"""Deterministic fault injection for the cluster simulator.

A :class:`FaultPlan` describes everything that can go wrong during a
simulated run: node crashes (at a simulated time or after a number of
scanned tuples), stragglers (per-node CPU/disk slowdown multipliers),
message loss and duplication on the interconnect, and transient disk-read
errors.  The plan is pure data — seedable, immutable, reusable — and is
attached to a run via ``SimConfig(faults=plan)``; every algorithm runs
unchanged under it.

The engine never consults the plan directly.  ``plan.start()`` yields a
:class:`FaultSchedule` (the mutable per-query state: which crashes have
already fired across recovery attempts), and ``schedule.runtime(node_ids)``
yields the :class:`FaultRuntime` one simulation attempt uses.  The runtime
maps the attempt's dense node indices back to the original node ids, so a
straggler keeps straggling and a consumed crash stays consumed after the
cluster shrinks around a failure.

Determinism: every random draw comes from per-node ``random.Random``
streams seeded from ``(plan.seed, original node id, stream)``.  The engine
itself is deterministic, so the draws are consumed in a deterministic
order and a given (workload, parameters, plan) triple always produces the
same crashes, the same retransmissions, and byte-identical metrics.

The same plan also drives **real-process** injection: the multiprocessing
executor (``repro.parallel.mp_executor``) maps each fault class onto its
process-level counterpart — a :class:`CrashFault` becomes a SIGKILL of
the worker running that fragment, a :class:`Straggler` an artificial
per-row slowdown (a limping worker), a :class:`WorkerStall` a
SIGSTOP/SIGCONT pair, ``read_error_rate`` an injected worker exception,
and ``message_loss`` the loss of the fragment's shared-memory segment.
:meth:`FaultPlan.injection_schedule` is the single deterministic
derivation both substrates consume, so a given seed produces the same
injected-fault schedule (kind, target, ordinal) in the simulator and in
the real pool (``tests/test_fault_determinism.py`` pins this).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


class FaultConfigError(ValueError):
    """A FaultPlan field is out of range or self-contradictory."""


class NodeCrashedError(RuntimeError):
    """One or more nodes crashed; the attempt's partial state is attached.

    Raised by the engine once the event heap drains with crashed nodes
    present.  ``crashed`` maps the attempt's node index to the simulated
    crash time; ``metrics`` and ``trace`` carry the work the attempt
    performed up to that point so recovery can account for it.
    """

    def __init__(self, crashed: dict[int, float], metrics, trace) -> None:
        nodes = sorted(crashed)
        super().__init__(
            f"node(s) {nodes} crashed at "
            f"{[round(crashed[n], 6) for n in nodes]}"
        )
        self.crashed = dict(crashed)
        self.metrics = metrics
        self.trace = trace


class ClusterLostError(RuntimeError):
    """Recovery is impossible: every node crashed (or retries exhausted)."""


# Injection-schedule kinds, shared by the simulator and the real-process
# executor.  ``FaultPlan.injection_schedule`` emits (kind, target,
# ordinal) tuples using exactly these names.
INJECT_KILL = "kill"
INJECT_STALL = "stall"
INJECT_SLOW = "slow"
INJECT_ERROR = "error"
INJECT_SHM_LOSS = "shm_loss"

# The reliable transport and crash recovery.  A lost data message is
# retransmitted after ``ACK_TIMEOUT * BACKOFF**attempt`` seconds, capped
# at ``MAX_BACKOFF``, at most ``MAX_SEND_RETRIES`` times, so delivery is
# guaranteed within a bounded delay.  Survivors declare a crashed node
# dead ``DETECTION_TIMEOUT`` seconds after it crashed; recovery gives up
# with ClusterLostError after ``MAX_RECOVERY_ATTEMPTS`` attempts.
ACK_TIMEOUT = 0.01
BACKOFF = 2.0
MAX_BACKOFF = 0.25
MAX_SEND_RETRIES = 12
DETECTION_TIMEOUT = 0.05
MAX_RECOVERY_ATTEMPTS = 8

# Stream salts 1 and 2 belong to the simulator's transport and disk
# draws; 3 and 4 seed the substrate-independent injection schedule.
_SALT_INJECT_ERROR = 3
_SALT_INJECT_LOSS = 4


@dataclass(frozen=True)
class CrashFault:
    """Kill ``node_id`` at ``at_time`` or after ``after_tuples`` scanned.

    Exactly one trigger must be given.  ``after_tuples`` counts tuples the
    node scans off its fragment (the ``tuples_scanned`` metric), which
    pins the crash inside phase 1 regardless of timing details.  A crash
    scheduled after the node would naturally finish never fires.
    """

    node_id: int
    at_time: float | None = None
    after_tuples: int | None = None

    def __post_init__(self) -> None:
        if (self.at_time is None) == (self.after_tuples is None):
            raise FaultConfigError(
                "a CrashFault needs exactly one of at_time/after_tuples"
            )
        if self.at_time is not None and self.at_time < 0:
            raise FaultConfigError("at_time must be non-negative")
        if self.after_tuples is not None and self.after_tuples < 1:
            raise FaultConfigError("after_tuples must be at least 1")


@dataclass(frozen=True)
class Straggler:
    """Run ``node_id``'s CPU and disk ``slowdown`` times slower."""

    node_id: int
    slowdown: float

    def __post_init__(self) -> None:
        if self.slowdown < 1.0:
            raise FaultConfigError(
                "slowdown must be >= 1 (it multiplies durations)"
            )


@dataclass(frozen=True)
class WorkerStall:
    """Freeze ``node_id`` for ``seconds`` — the limplock scenario.

    On the real-process substrate the fragment's worker SIGSTOPs itself
    at job start and is SIGCONTed ``seconds`` later; the heartbeat
    monitor sees
    the beats stop and can retire the worker before the job timeout.
    The simulator has no process to stop, so a stall is a no-op there —
    it exists so one plan can describe a real-process limplock scenario
    alongside simulator faults.  Fires at most once per query.
    """

    node_id: int
    seconds: float

    def __post_init__(self) -> None:
        if self.seconds <= 0:
            raise FaultConfigError("stall seconds must be positive")


@dataclass(frozen=True)
class FaultPlan:
    """Everything injected into one simulated run (immutable, seedable).

    Attributes
    ----------
    seed:
        Seeds every probabilistic draw (message loss/duplication, disk
        errors).  Same plan + same workload = identical runs.
    crashes:
        :class:`CrashFault` entries; each fires at most once per query,
        even across recovery attempts.
    stragglers:
        :class:`Straggler` entries; persist across recovery attempts.
    worker_stalls:
        :class:`WorkerStall` entries — real-process limplock (SIGSTOP/
        SIGCONT); ignored by the simulator, one per node, fire once.
    message_loss:
        Per-transmission drop probability for data messages.  Lost blocks
        are retransmitted by the reliable transport (``ACK_TIMEOUT`` +
        bounded exponential backoff), so delivery is delayed, never
        abandoned; zero-byte control messages are piggy-backed and exempt.
    message_duplication:
        Probability a delivered data message arrives twice; the duplicate
        is suppressed by the transport's sequence numbers (counted in
        ``duplicates_dropped``) but still occupies the network.
    read_error_rate:
        Per-request probability a disk read fails transiently and is
        re-issued once (doubling that request's latency).

    The transport and recovery timings are module constants
    (``ACK_TIMEOUT`` … ``MAX_RECOVERY_ATTEMPTS``), not plan fields.
    """

    seed: int = 0
    crashes: tuple[CrashFault, ...] = ()
    stragglers: tuple[Straggler, ...] = ()
    worker_stalls: tuple[WorkerStall, ...] = ()
    message_loss: float = 0.0
    message_duplication: float = 0.0
    read_error_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("message_loss", "message_duplication",
                     "read_error_rate"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise FaultConfigError(f"{name} must be in [0, 1)")
        seen: set[int] = set()
        for crash in self.crashes:
            if crash.node_id in seen:
                raise FaultConfigError(
                    f"node {crash.node_id} has more than one CrashFault"
                )
            seen.add(crash.node_id)
        stalled: set[int] = set()
        for stall in self.worker_stalls:
            if stall.node_id in stalled:
                raise FaultConfigError(
                    f"node {stall.node_id} has more than one WorkerStall"
                )
            stalled.add(stall.node_id)

    @property
    def active(self) -> bool:
        """Whether the plan injects anything at all."""
        return bool(
            self.crashes
            or self.stragglers
            or self.worker_stalls
            or self.message_loss
            or self.message_duplication
            or self.read_error_rate
        )

    def start(self) -> "FaultSchedule":
        """The mutable per-query state (crash consumption across attempts)."""
        return FaultSchedule(self)

    def injection_schedule(
        self, node_ids, attempts: int = 1
    ) -> list[tuple[str, int, int]]:
        """The substrate-independent injected-fault schedule.

        Returns ``(kind, target, ordinal)`` tuples — ``kind`` one of the
        ``INJECT_*`` constants, ``target`` the original node id (equal to
        the fragment index on the mp substrate), ``ordinal`` the attempt
        number the fault fires on.  One-shot faults (kills, stalls) fire
        at ordinal 0; stragglers limp on every attempt; the probabilistic
        kinds (injected errors from ``read_error_rate``, shared-memory
        loss from ``message_loss``) draw per attempt from the same
        per-(seed, node, purpose) streams on every substrate, so the
        schedule is a pure function of (plan, node_ids, attempts).
        """
        if attempts < 1:
            raise FaultConfigError("attempts must be at least 1")
        crash_nodes = {c.node_id for c in self.crashes}
        stall_nodes = {s.node_id for s in self.worker_stalls}
        slow_nodes = {s.node_id for s in self.stragglers}
        entries: list[tuple[str, int, int]] = []
        for orig in node_ids:
            if orig in crash_nodes:
                entries.append((INJECT_KILL, orig, 0))
            if orig in stall_nodes:
                entries.append((INJECT_STALL, orig, 0))
            if orig in slow_nodes:
                entries.extend(
                    (INJECT_SLOW, orig, a) for a in range(attempts)
                )
            if self.read_error_rate:
                rng = _stream(self.seed, orig, _SALT_INJECT_ERROR)
                entries.extend(
                    (INJECT_ERROR, orig, a)
                    for a in range(attempts)
                    if rng.random() < self.read_error_rate
                )
            if self.message_loss:
                rng = _stream(self.seed, orig, _SALT_INJECT_LOSS)
                entries.extend(
                    (INJECT_SHM_LOSS, orig, a)
                    for a in range(attempts)
                    if rng.random() < self.message_loss
                )
        return entries


@dataclass
class FaultSchedule:
    """Tracks which one-shot faults already fired during one query."""

    plan: FaultPlan
    consumed_crashes: set[int] = field(default_factory=set)

    def runtime(self, node_ids: list[int]) -> "FaultRuntime":
        """The runtime for one attempt over the surviving ``node_ids``."""
        return FaultRuntime(self, node_ids)


def _stream(seed: int, orig_id: int, salt: int) -> random.Random:
    # Distinct deterministic streams per (plan seed, node, purpose);
    # plain integer arithmetic so the seed is stable across processes.
    return random.Random(
        (seed * 2_654_435_761 + orig_id * 40_503 + salt) % (2**63)
    )


class FaultRuntime:
    """What the engine consults during one attempt (index-mapped view)."""

    def __init__(self, schedule: FaultSchedule, node_ids: list[int]) -> None:
        self.schedule = schedule
        self.plan = schedule.plan
        self.node_ids = list(node_ids)
        plan = self.plan
        self._crash_by_orig = {c.node_id: c for c in plan.crashes}
        self._slowdown_by_orig = {
            s.node_id: s.slowdown for s in plan.stragglers
        }
        self._net_rng = [
            _stream(plan.seed, orig, 1) for orig in self.node_ids
        ]
        self._disk_rng = [
            _stream(plan.seed, orig, 2) for orig in self.node_ids
        ]

    # -- stragglers ---------------------------------------------------------

    def slowdown(self, index: int) -> float:
        return self._slowdown_by_orig.get(self.node_ids[index], 1.0)

    # -- crashes ------------------------------------------------------------

    def _crash_for(self, index: int) -> CrashFault | None:
        orig = self.node_ids[index]
        if orig in self.schedule.consumed_crashes:
            return None
        return self._crash_by_orig.get(orig)

    def crash_time(self, index: int) -> float | None:
        crash = self._crash_for(index)
        return None if crash is None else crash.at_time

    def crash_after_tuples(self, index: int) -> int | None:
        crash = self._crash_for(index)
        return None if crash is None else crash.after_tuples

    def note_crash(self, index: int) -> int:
        """Mark the node's crash as fired; returns the original node id."""
        orig = self.node_ids[index]
        self.schedule.consumed_crashes.add(orig)
        return orig

    # -- unreliable transport ----------------------------------------------

    def message_drops(self, index: int) -> int:
        """How many transmissions of this message are lost (bounded)."""
        if not self.plan.message_loss:
            return 0
        rng = self._net_rng[index]
        drops = 0
        while (
            drops < MAX_SEND_RETRIES
            and rng.random() < self.plan.message_loss
        ):
            drops += 1
        return drops

    def duplicate(self, index: int) -> bool:
        if not self.plan.message_duplication:
            return False
        return self._net_rng[index].random() < self.plan.message_duplication

    def retry_delay(self, attempt: int) -> float:
        """Backoff before retransmission number ``attempt`` (bounded)."""
        return min(ACK_TIMEOUT * (BACKOFF**attempt), MAX_BACKOFF)

    # -- disk ---------------------------------------------------------------

    def read_error(self, index: int) -> bool:
        if not self.plan.read_error_rate:
            return False
        return self._disk_rng[index].random() < self.plan.read_error_rate

    # -- substrate-independent injection view -------------------------------

    def injection_schedule(self, attempts: int = 1) -> list[tuple[str, int, int]]:
        """The plan's schedule restricted to this attempt's node ids."""
        return self.plan.injection_schedule(self.node_ids, attempts)
