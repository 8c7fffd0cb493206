"""Executors that run queries for real (outside the simulator).

``local`` is the sequential reference executor every test compares
against; ``mp_executor`` is a genuine multiprocessing two-phase executor
over a persistent shared-memory worker pool.  Its wall-clock time is
measured, not modelled: the end-to-end benchmark (``BENCHMARK.json``,
``benchmarks/e2e``) tracks it per workload, including the pool's speedup
over one process (``parallel.pool_speedup``, 0.89 on ``scan_lowS``).  The
paper's figures — timings of a 32-node shared-nothing machine — still
come from the simulator.
"""

from repro.parallel.local import reference_aggregate
from repro.parallel.mp_executor import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    DeadlineExceededError,
    FragmentFailedError,
    InjectedFaultError,
    PoolCircuitBreaker,
    WorkerFailure,
    multiprocessing_aggregate,
    pool_breaker_state,
    release_resident_segments,
    reset_pool_breaker,
    shutdown_worker_pool,
)
from repro.parallel.mp_executor.faults import (
    CrashFault,
    FaultConfigError,
    FaultPlan,
    Straggler,
    WorkerStall,
)

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CrashFault",
    "DeadlineExceededError",
    "FaultConfigError",
    "FaultPlan",
    "FragmentFailedError",
    "InjectedFaultError",
    "PoolCircuitBreaker",
    "Straggler",
    "WorkerFailure",
    "WorkerStall",
    "multiprocessing_aggregate",
    "pool_breaker_state",
    "reference_aggregate",
    "release_resident_segments",
    "reset_pool_breaker",
    "shutdown_worker_pool",
]
