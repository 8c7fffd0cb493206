"""The query service's observability-overhead contract.

A Zipf-skewed query storm (a few hot queries, a long tail of cold
ones) drives :class:`~repro.service.QueryService` directly from many
client threads, twice: with live observability off and with the whole
stack on.  The p99 of the two runs is gated against each other.  This
is a wall-clock check, so it writes nothing under ``results/``.
"""

import os
import random
import tempfile
import threading
import time

import pytest

from repro.bench.harness import FigureResult
from repro.obs.schema import validate_file as validate_qlog_file
from repro.parallel.mp_executor import (
    reset_pool_breaker,
    shutdown_worker_pool,
)
from repro.service import (
    DeadlineMissError,
    QueryService,
    ServiceConfig,
    ShedError,
)
from repro.workloads.generator import generate_zipf

# Mixed selectivity: hot full-table aggregates down to cold filtered
# slices.  Rank order *is* the Zipf popularity order.
QUERIES = [
    "SELECT gkey, SUM(val), COUNT(*) FROM r GROUP BY gkey",
    "SELECT gkey, COUNT(*) FROM r GROUP BY gkey",
    "SELECT gkey, AVG(val) FROM r GROUP BY gkey",
    "SELECT gkey, SUM(val) FROM r WHERE val >= 25.0 GROUP BY gkey",
    "SELECT gkey, MIN(val), MAX(val) FROM r GROUP BY gkey",
    "SELECT gkey, COUNT(*) FROM r WHERE val >= 75.0 GROUP BY gkey",
]
ZIPF_EXPONENT = 1.2
CLIENTS = 4
REQUESTS_PER_CLIENT = 8


def _dataset():
    return generate_zipf(num_tuples=2400, num_groups=48, num_nodes=4,
                         alpha=1.0, seed=31)


def _zipf_picks(rng: random.Random, count: int) -> list[str]:
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
               for rank in range(len(QUERIES))]
    return rng.choices(QUERIES, weights=weights, k=count)


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


# -- observability overhead gate ----------------------------------------------
#
# The same fault-free Zipf storm runs twice: once with live observability
# fully disabled, once with the whole stack on (per-query tracer, latency
# and queue-wait histograms, flight recorder, JSONL query log).  The gate
# is p99_on <= p99_off * 1.05 + 25ms — five percent plus an absolute
# floor, because with a small sample p99 is one scheduling hiccup away
# from the max and a pure ratio would flake on loaded CI machines.

OBS_COLUMNS = ["mode", "queries", "served", "shed", "qps",
               "p50_ms", "p99_ms", "qlog_records"]
OBS_P99_RATIO = 1.05
OBS_P99_FLOOR_MS = 25.0


def _overhead_storm(mode: str, dist, overrides: dict) -> dict:
    reset_pool_breaker()
    shutdown_worker_pool()
    service = QueryService(ServiceConfig(
        max_concurrency=3, queue_depth=4, processes=2,
        default_timeout_seconds=120.0, **overrides,
    ))
    service.register_table("r", dist)
    # Warm the pool and plan cache so neither mode's tail is pool
    # startup; the storm then measures the steady-state request path
    # (cache hits included — that is where per-query bookkeeping is the
    # largest relative cost).
    service.submit(QUERIES[0])

    latencies: list[float] = []
    shed = [0]
    lock = threading.Lock()

    def client(seed: int) -> None:
        rng = random.Random(seed)
        for sql in _zipf_picks(rng, REQUESTS_PER_CLIENT):
            started = time.monotonic()
            try:
                service.submit(sql)
            except (ShedError, DeadlineMissError):
                with lock:
                    shed[0] += 1
                continue
            elapsed = time.monotonic() - started
            with lock:
                latencies.append(elapsed)

    started = time.monotonic()
    threads = [threading.Thread(target=client, args=(131 + i,))
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - started
    assert service.drain(), f"{mode}: drain left work behind"

    qlog_records = 0
    qlog_path = overrides.get("query_log_path")
    if qlog_path is not None:
        problems = validate_qlog_file(qlog_path)
        assert problems == [], f"{mode}: invalid query log: {problems}"
        with open(qlog_path) as handle:
            qlog_records = sum(1 for line in handle if line.strip())
        assert qlog_records == len(latencies) + shed[0] + 1  # +1 warmup

    latencies.sort()
    return {
        "mode": mode,
        "queries": CLIENTS * REQUESTS_PER_CLIENT,
        "served": len(latencies),
        "shed": shed[0],
        "qps": len(latencies) / wall if wall > 0 else 0.0,
        "p50_ms": _percentile(latencies, 0.50) * 1e3,
        "p99_ms": _percentile(latencies, 0.99) * 1e3,
        "qlog_records": qlog_records,
    }


def observability_overhead_sweep() -> FigureResult:
    dist = _dataset()
    result = FigureResult(
        figure="service_obs",
        title="Live observability overhead: p99 on vs off",
        columns=OBS_COLUMNS,
        notes=(
            f"{CLIENTS} clients x {REQUESTS_PER_CLIENT} queries, same "
            "faultfree Zipf storm twice: live observability off, then "
            "on (tracer + histograms + flight recorder + JSONL query "
            f"log). Gate: p99_on <= p99_off * {OBS_P99_RATIO} + "
            f"{OBS_P99_FLOOR_MS}ms."
        ),
    )
    with tempfile.TemporaryDirectory(prefix="repro_obs_bench_") as tmp:
        rows = [
            _overhead_storm("obs_off", dist,
                            {"live_observability": False}),
            _overhead_storm("obs_on", dist, {
                "live_observability": True,
                "query_log_path": os.path.join(tmp, "qlog.jsonl"),
                "slow_trace_threshold_seconds": 0.0,
            }),
        ]
    for row in rows:
        result.add_row(*[row[name] for name in OBS_COLUMNS])
    p99 = {row["mode"]: row["p99_ms"] for row in rows}
    assert p99["obs_on"] <= (
        p99["obs_off"] * OBS_P99_RATIO + OBS_P99_FLOOR_MS
    ), (
        f"observability overhead gate: p99 on={p99['obs_on']:.3f}ms "
        f"off={p99['obs_off']:.3f}ms exceeds "
        f"{OBS_P99_RATIO}x + {OBS_P99_FLOOR_MS}ms"
    )
    return result


def test_observability_overhead():
    if not os.path.isdir("/dev/shm"):
        pytest.skip("POSIX shared memory not mounted")
    result = observability_overhead_sweep()
    served = result.column("served")
    assert all(count >= result.column("queries")[0] // 2
               for count in served)
    # The on-mode must actually have logged the whole storm.
    by_mode = dict(zip(result.column("mode"),
                       result.column("qlog_records")))
    assert by_mode["obs_off"] == 0
    assert by_mode["obs_on"] >= by_mode["obs_off"]
