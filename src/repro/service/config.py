"""Service configuration: one frozen dataclass, validated up front."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.parallel.mp_executor.api import _check_int, _check_seconds


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for :class:`~repro.service.QueryService`.

    The defaults are sized for the test/bench environment (small host,
    2-process pool); a real deployment would scale ``max_concurrency``
    and ``memory_pool_bytes`` to the box.  Everything else the service
    needs is a module constant where it is read (``repro.service.core``,
    ``repro.service.ladder``).
    """

    # Admission
    max_concurrency: int = 4       # queries evaluating at once
    queue_depth: int = 16          # bounded admission queue beyond that
    memory_pool_bytes: int = 64 * 1024 * 1024
    default_timeout_seconds: float | None = 10.0

    # Executor
    processes: int = 2             # pool workers per query dispatch
    strategy: str = "pool"         # pool (global, auto: synonyms) or rep

    # Live observability (see docs/observability.md, "Serving telemetry").
    # Disabled = PR 7 behavior: no query records, no per-query tracer,
    # no latency histograms.
    live_observability: bool = True
    query_log_path: str | None = None   # JSONL sink; None = no file log
    slow_trace_threshold_seconds: float | None = 1.0  # 0 = trace all; None = off
    access_log: bool = False            # HTTP access log to stderr

    # Fault injection (tests/bench): forwarded to the executor
    faults: object | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        # Counts are ints (not bools, not 2.5); seconds are finite, since
        # NaN compares false against every bound.  None is the only
        # spelling of "no bound".
        _check_int("max_concurrency", self.max_concurrency, least=1)
        _check_int("queue_depth", self.queue_depth, least=0)
        _check_int("memory_pool_bytes", self.memory_pool_bytes, least=1)
        _check_int("processes", self.processes, least=1)
        if self.default_timeout_seconds is not None:
            _check_seconds("default_timeout_seconds",
                           self.default_timeout_seconds)
        if self.slow_trace_threshold_seconds is not None:
            _check_seconds("slow_trace_threshold_seconds",
                           self.slow_trace_threshold_seconds, least=0)
        if self.strategy not in ("pool", "global", "rep", "auto"):
            raise ValueError(
                f"strategy must be pool/global/rep/auto, "
                f"got {self.strategy!r}"
            )

    @property
    def slice_bytes(self) -> int:
        """Each admitted query's budget lease: an equal share of the pool."""
        return max(1, self.memory_pool_bytes // self.max_concurrency)
