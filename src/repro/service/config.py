"""Service configuration: one frozen dataclass, validated up front."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for :class:`~repro.service.QueryService`.

    The defaults are sized for the test/bench environment (small host,
    2-process pool); a real deployment would scale ``max_concurrency``
    and ``memory_pool_bytes`` to the box.
    """

    # Admission
    max_concurrency: int = 4       # queries evaluating at once
    queue_depth: int = 16          # bounded admission queue beyond that
    memory_pool_bytes: int = 64 * 1024 * 1024
    memory_slice_bytes: int | None = None  # per-query; None = pool/concurrency
    default_timeout_seconds: float | None = 10.0

    # Executor
    processes: int = 2             # pool workers per query dispatch
    reduced_processes: int = 1     # fanout at ladder rung 2 (in-process)
    strategy: str = "pool"         # pool (global, auto: synonyms) or rep
    executor_timeout_seconds: float = 30.0  # per-fragment timeout

    # Retry (infra failures only)
    max_query_retries: int = 2
    retry_backoff_seconds: float = 0.05
    retry_backoff_cap_seconds: float = 2.0
    retry_jitter: float = 0.5

    # Degradation ladder load thresholds (fraction of total capacity
    # = running + queued over max_concurrency + queue_depth).
    reduced_load: float = 0.5      # above: reduced fanout
    cache_only_load: float = 0.85  # above: serve cache hits only

    # Caches
    result_cache_entries: int = 256
    plan_cache_entries: int = 256

    # Drain
    drain_timeout_seconds: float = 10.0

    # Live observability (see docs/observability.md, "Serving telemetry").
    # Disabled = PR 7 behavior: no query records, no per-query tracer,
    # no latency histograms.
    live_observability: bool = True
    query_log_path: str | None = None   # JSONL sink; None = no file log
    query_log_capacity: int = 1024      # in-memory queue before drops
    flight_recorder_entries: int = 128  # recent-query ring size
    flight_recorder_traces: int = 16    # bounded slow-query trace map
    slow_trace_threshold_seconds: float | None = 1.0  # 0 = trace all; None = off
    access_log: bool = False            # HTTP access log to stderr

    # Fault injection (tests/bench): forwarded to the executor
    faults: object | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be positive")
        if self.queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        if self.memory_pool_bytes < 1:
            raise ValueError("memory_pool_bytes must be positive")
        if (self.default_timeout_seconds is not None
                and self.default_timeout_seconds <= 0):
            raise ValueError("default_timeout_seconds must be positive")
        if self.processes < 1:
            raise ValueError("processes must be positive")
        if self.reduced_processes < 1:
            raise ValueError("reduced_processes must be positive")
        if self.max_query_retries < 0:
            raise ValueError("max_query_retries must be >= 0")
        if not 0.0 < self.reduced_load <= self.cache_only_load <= 1.0:
            raise ValueError(
                "need 0 < reduced_load <= cache_only_load <= 1"
            )
        if self.strategy not in ("pool", "global", "rep", "auto"):
            raise ValueError(
                f"strategy must be pool/global/rep/auto, "
                f"got {self.strategy!r}"
            )
        if self.query_log_capacity < 1:
            raise ValueError("query_log_capacity must be positive")
        if self.flight_recorder_entries < 1:
            raise ValueError("flight_recorder_entries must be positive")
        if self.flight_recorder_traces < 0:
            raise ValueError("flight_recorder_traces must be >= 0")
        if (self.slow_trace_threshold_seconds is not None
                and self.slow_trace_threshold_seconds < 0):
            raise ValueError(
                "slow_trace_threshold_seconds must be >= 0 or None"
            )

    @property
    def slice_bytes(self) -> int:
        if self.memory_slice_bytes is not None:
            return self.memory_slice_bytes
        return max(1, self.memory_pool_bytes // self.max_concurrency)
