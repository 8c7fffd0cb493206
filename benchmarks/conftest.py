"""Shared reporting for the figure benchmarks.

Each bench regenerates one paper table/figure, asserts its qualitative
shape, writes the series to ``results/<figure>.{csv,txt}``, and prints the
table straight to the terminal (bypassing pytest's capture) so a plain
``pytest benchmarks/ --benchmark-only`` run shows the regenerated series.

Every executed ``bench_<name>.py`` module additionally emits a
machine-readable ``results/BENCH_<name>.json`` (schema ``repro-bench/1``:
per-test wall timings, the regenerated figure series, and a metrics
snapshot), collected here via pytest hooks so individual bench files stay
unchanged.  ``python -m repro.obs.validate results/BENCH_*.json`` checks
the artifacts; CI's bench-smoke job runs exactly that.
"""

from __future__ import annotations

import os
import sys
import time

from repro.bench.harness import (
    FigureResult,
    format_table,
    write_bench_json,
    write_results,
)
from repro.parallel import mp_executor
from repro.workloads.generator import generate_uniform, selectivity_to_groups

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")

# The Figure-2 evaluation tuple bench_columnar.py sweeps: 100-byte
# tuples (group key, float value, padding), uniform groups, declustered
# round-robin.  ``STR_KEY_FORMAT`` turns the int key into the 16-byte
# dictionary-coded string key of the columnar experiments.
STR_KEY_FORMAT = "g{:08d}"


def fig2_workload(
    num_tuples: int,
    selectivity: float,
    num_nodes: int,
    seed: int = 42,
    key_format: str | None = None,
):
    """The Fig-2 workload (uniform, round-robin, exact groups), emitted
    as block-born fragments."""
    return generate_uniform(
        num_tuples=num_tuples,
        num_groups=selectivity_to_groups(selectivity, num_tuples),
        num_nodes=num_nodes,
        seed=seed,
        key_format=key_format,
    )


def best_run(dist, query, strategy, *, processes, repeats):
    """Best-of-``repeats`` wall seconds (and the result, for parity)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = mp_executor.multiprocessing_aggregate(
            dist, query, processes=processes, strategy=strategy
        )
        best = min(best, time.perf_counter() - t0)
    return best, result

# Per-bench-module collection for the BENCH_<name>.json artifacts:
# module stem (minus the "bench_" prefix) -> figures / test records.
_FIGURES: dict[str, list[FigureResult]] = {}
_TESTS: dict[str, list[dict]] = {}


def _stem(path: str) -> str | None:
    """"benchmarks/bench_fig2.py" -> "fig2" (None for non-bench files)."""
    base = os.path.basename(str(path))
    if not (base.startswith("bench_") and base.endswith(".py")):
        return None
    return base[len("bench_"):-len(".py")]


def report(result: FigureResult) -> FigureResult:
    write_results(result, directory=os.path.abspath(RESULTS_DIR))
    sys.__stdout__.write(f"\n{format_table(result)}\n")
    sys.__stdout__.flush()
    # Attribute the figure to the bench module that produced it, for
    # that module's BENCH_<name>.json.
    caller_file = sys._getframe(1).f_globals.get("__file__")
    stem = _stem(caller_file) if caller_file else None
    if stem is not None:
        _FIGURES.setdefault(stem, []).append(result)
    return result


def pytest_runtest_logreport(report):
    """Collect each bench test's outcome and wall time (call phase)."""
    if report.when != "call":
        return
    stem = _stem(report.nodeid.split("::")[0])
    if stem is None:
        return
    _TESTS.setdefault(stem, []).append(
        {
            "nodeid": report.nodeid,
            "outcome": report.outcome,
            "wall_seconds": float(report.duration),
        }
    )


def _write_bench_artifacts(directory: str) -> None:
    for stem in sorted(set(_TESTS) | set(_FIGURES)):
        tests = _TESTS.get(stem, [])
        metrics = {
            "tests": len(tests),
            "failed": sum(1 for t in tests if t["outcome"] != "passed"),
            "wall_seconds_total": sum(t["wall_seconds"] for t in tests),
            "figures": len(_FIGURES.get(stem, [])),
        }
        write_bench_json(
            stem, tests, _FIGURES.get(stem, []), metrics,
            directory=directory,
        )


def pytest_sessionfinish(session, exitstatus):
    """Write BENCH_*.json artifacts and regenerate results/SUMMARY.md."""
    directory = os.path.abspath(RESULTS_DIR)
    try:
        _write_bench_artifacts(directory)
    except Exception as exc:  # never fail the bench run over the report
        sys.__stdout__.write(f"(bench json generation skipped: {exc})\n")
    if not os.path.isdir(directory):
        return
    try:
        from repro.bench.summary import write_summary

        write_summary(directory)
    except Exception as exc:  # never fail the bench run over the report
        sys.__stdout__.write(f"(summary generation skipped: {exc})\n")
