"""Degraded-mode sweeps: stragglers and mid-query crashes.

Shape assertions: a straggler stretches every algorithm monotonically
(and roughly linearly — adaptivity cannot rebalance hardware), and a
crash always costs more than the fault-free run, with later crashes
wasting more work than earlier ones.
"""

from conftest import report

from repro.bench.degraded import (
    CONTENDERS,
    CRASH_CONTENDERS,
    crash_sweep,
    straggler_sweep,
)


def test_straggler_sweep(benchmark):
    result = benchmark.pedantic(straggler_sweep, rounds=1, iterations=1)
    report(result)
    for name in CONTENDERS:
        series = result.column(name)
        # Monotone degradation with the slowdown factor...
        assert all(a < b for a, b in zip(series, series[1:]))
        # ...and the 8x straggler dominates the run: at least 3x overall
        # (network/merge time is not scaled, so the overall factor sits
        # below the raw CPU/disk slowdown).
        assert series[-1] > 3.0 * series[0]


def test_crash_sweep(benchmark):
    result = benchmark.pedantic(crash_sweep, rounds=1, iterations=1)
    report(result)
    for name in CRASH_CONTENDERS:
        series = result.column(name)
        baseline = series[0]
        # Every crash costs more than the fault-free run (detection +
        # restart), and a later crash wastes strictly more work.
        assert all(v > baseline for v in series[1:])
        assert all(a < b for a, b in zip(series[1:], series[2:]))

