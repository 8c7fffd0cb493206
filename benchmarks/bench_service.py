"""Service under storm: QPS, tail latency, and shed rate, with and
without injected faults.

A Zipf-skewed query storm (a few hot queries, a long tail of cold
ones — the popularity mix that makes the data-version-keyed result
cache earn its keep) drives :class:`~repro.service.QueryService`
directly from many client threads.  Two modes run the *same* storm:

* ``faultfree`` — the pool is healthy.
* ``faulted``  — a :class:`~repro.parallel.FaultPlan` kills a worker
  and injects transient read errors into every query, so the executor's
  retries, the service's query-level retry/backoff, and the circuit
  breaker all fire mid-storm.

Shape assertions: every query is accounted for (served + typed
refusals), every served row set matches the sequential reference, and
the faulted storm still serves a usable majority — degraded, not down.

Standalone use (the service acceptance path)::

    PYTHONPATH=src python benchmarks/bench_service.py

writes ``results/BENCH_service.json`` and appends a trajectory entry to
``results/baseline/TRAJECTORY.jsonl``.
"""

import os
import random
import tempfile
import threading
import time

import pytest

from conftest import report

from repro.bench.harness import FigureResult
from repro.obs.schema import validate_file as validate_qlog_file
from repro.parallel import CrashFault, FaultPlan, reference_aggregate
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
from repro.sql.parser import parse_query
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
MODES = ("faultfree", "faulted")

_FAULT_PLAN = FaultPlan(
    seed=23,
    crashes=(CrashFault(1),),
    read_error_rate=0.05,
)


def _dataset():
    return generate_zipf(num_tuples=2400, num_groups=48, num_nodes=4,
                         alpha=1.0, seed=31)


def _zipf_picks(rng: random.Random, count: int) -> list[str]:
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
               for rank in range(len(QUERIES))]
    return rng.choices(QUERIES, weights=weights, k=count)


def _rows_close(actual, expected, tol: float = 1e-9) -> bool:
    """Row-set equality with relative float tolerance (parallel sums
    accumulate in a different order than the sequential reference)."""
    if len(actual) != len(expected):
        return False
    for row_a, row_e in zip(actual, expected):
        if len(row_a) != len(row_e):
            return False
        for a, e in zip(row_a, row_e):
            if isinstance(a, float) or isinstance(e, float):
                if abs(a - e) > tol * max(1.0, abs(e)):
                    return False
            elif a != e:
                return False
    return True


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def _storm(mode: str, dist, expected: dict) -> dict:
    """One storm run; returns the figure row plus correctness evidence."""
    reset_pool_breaker()
    shutdown_worker_pool()
    service = QueryService(ServiceConfig(
        max_concurrency=3, queue_depth=4, processes=2,
        default_timeout_seconds=120.0,
        faults=_FAULT_PLAN if mode == "faulted" else None,
    ))
    service.register_table("r", dist)

    latencies: list[float] = []
    served: list[tuple[str, list]] = []
    refused = {"shed": 0, "deadline_miss": 0}
    wrong: list[str] = []
    lock = threading.Lock()

    def client(seed: int) -> None:
        rng = random.Random(seed)
        for sql in _zipf_picks(rng, REQUESTS_PER_CLIENT):
            started = time.monotonic()
            try:
                outcome = service.submit(sql)
            except ShedError:
                with lock:
                    refused["shed"] += 1
                continue
            except DeadlineMissError:
                with lock:
                    refused["deadline_miss"] += 1
                continue
            elapsed = time.monotonic() - started
            ok = _rows_close(outcome.rows, expected[sql])
            with lock:
                latencies.append(elapsed)
                served.append((sql, outcome.rows))
                if not ok:
                    wrong.append(sql)

    started = time.monotonic()
    threads = [threading.Thread(target=client, args=(97 + i,))
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - started
    drained_clean = service.drain()

    latencies.sort()
    counter = service.metrics.counter
    return {
        "mode": mode,
        "queries": CLIENTS * REQUESTS_PER_CLIENT,
        "served": len(served),
        "shed": refused["shed"],
        "deadline_misses": refused["deadline_miss"],
        "qps": len(served) / wall if wall > 0 else 0.0,
        "p50_ms": _percentile(latencies, 0.50) * 1e3,
        "p99_ms": _percentile(latencies, 0.99) * 1e3,
        "cache_hits": counter("svc.cache.hits").value,
        "retries": counter("svc.retries").value,
        "wrong_results": len(wrong),
        "drained_clean": drained_clean,
    }


COLUMNS = ["mode", "queries", "served", "shed", "deadline_misses",
           "qps", "p50_ms", "p99_ms", "cache_hits", "retries"]


def service_storm_sweep() -> FigureResult:
    dist = _dataset()
    expected = {
        sql: reference_aggregate(dist, parse_query(sql)[1])
        for sql in QUERIES
    }
    result = FigureResult(
        figure="service",
        title="Query service under Zipf storm: QPS / tail / shed rate",
        columns=COLUMNS,
        notes=(
            f"{CLIENTS} clients x {REQUESTS_PER_CLIENT} queries, "
            f"Zipf({ZIPF_EXPONENT}) over {len(QUERIES)} query shapes; "
            "faulted mode injects a worker kill + 5% read errors per "
            "query (seed 23). Every served row set is checked against "
            "the sequential reference; a wrong result fails the bench."
        ),
    )
    for mode in MODES:
        row = _storm(mode, dist, expected)
        assert row["wrong_results"] == 0, (
            f"{mode}: {row['wrong_results']} served queries returned "
            "wrong rows"
        )
        assert row["drained_clean"], f"{mode}: drain left work behind"
        assert row["served"] + row["shed"] + row["deadline_misses"] \
            == row["queries"]
        result.add_row(*[row[name] for name in COLUMNS])
    return result


# -- observability overhead gate ----------------------------------------------
#
# The same faultfree Zipf storm runs twice: once with live observability
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


def test_observability_overhead(benchmark):
    if not os.path.isdir("/dev/shm"):
        pytest.skip("POSIX shared memory not mounted")
    result = benchmark.pedantic(observability_overhead_sweep, rounds=1,
                                iterations=1)
    report(result)
    served = result.column("served")
    assert all(count >= result.column("queries")[0] // 2
               for count in served)
    # The on-mode must actually have logged the whole storm.
    by_mode = dict(zip(result.column("mode"),
                       result.column("qlog_records")))
    assert by_mode["obs_off"] == 0
    assert by_mode["obs_on"] >= by_mode["obs_off"]


def test_service_storm(benchmark):
    if not os.path.isdir("/dev/shm"):
        pytest.skip("POSIX shared memory not mounted")
    result = benchmark.pedantic(service_storm_sweep, rounds=1,
                                iterations=1)
    report(result)
    served = result.column("served")
    # Both modes must serve a usable majority: overload sheds are
    # allowed, a dead service is not.
    for mode, count in zip(result.column("mode"), served):
        assert count >= result.column("queries")[0] // 2, (
            f"{mode} served only {count}"
        )
    # The Zipf skew concentrates repeats on a few hot queries, so the
    # cache must actually serve some of the storm.
    assert all(hits >= 1 for hits in result.column("cache_hits"))


def _main(argv=None) -> int:
    import argparse
    import json
    import sys

    from repro.bench.harness import (
        format_table,
        write_bench_json,
        write_results,
    )
    from repro.bench.regression import append_trajectory, trajectory_entry

    parser = argparse.ArgumentParser(
        description="Run the service storm bench outside pytest."
    )
    parser.add_argument(
        "--label", default="service-storm",
        help="trajectory label for the artifact",
    )
    args = parser.parse_args(argv)

    if not os.path.isdir("/dev/shm"):
        print("service bench needs POSIX shared memory (/dev/shm)",
              file=sys.stderr)
        return 2

    results_dir = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "results")
    )
    baseline_dir = os.path.join(results_dir, "baseline")

    started = time.monotonic()
    figure = service_storm_sweep()
    storm_wall = time.monotonic() - started
    started = time.monotonic()
    obs_figure = observability_overhead_sweep()
    obs_wall = time.monotonic() - started
    wall = storm_wall + obs_wall
    write_results(figure, directory=results_dir)
    write_results(obs_figure, directory=results_dir)
    print(format_table(figure))
    print(format_table(obs_figure))

    tests = [{
        "nodeid": "benchmarks/bench_service.py::service_storm_sweep",
        "outcome": "passed",
        "wall_seconds": storm_wall,
    }, {
        "nodeid": ("benchmarks/bench_service.py::"
                   "observability_overhead_sweep"),
        "outcome": "passed",
        "wall_seconds": obs_wall,
    }]
    modes = figure.column("mode")
    metrics = {
        "tests": 2,
        "failed": 0,
        "wall_seconds_total": wall,
        "figures": 2,
    }
    for i, mode in enumerate(modes):
        metrics[f"{mode}_qps"] = figure.column("qps")[i]
        metrics[f"{mode}_p99_ms"] = figure.column("p99_ms")[i]
        metrics[f"{mode}_shed"] = figure.column("shed")[i]
    for i, mode in enumerate(obs_figure.column("mode")):
        metrics[f"{mode}_p99_ms"] = obs_figure.column("p99_ms")[i]
    path = write_bench_json(
        "service", tests, [figure, obs_figure], metrics,
        directory=results_dir
    )
    print(f"wrote {path}")
    if os.path.isdir(baseline_dir):
        with open(path) as handle:
            doc = json.load(handle)
        entry = trajectory_entry(args.label, {"service": doc})
        print(f"appended to {append_trajectory(baseline_dir, entry)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
