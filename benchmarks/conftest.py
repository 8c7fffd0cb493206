"""Shared reporting for the figure benchmarks.

Each bench regenerates one paper table/figure, asserts its qualitative
shape, writes the series to ``results/<figure>.{csv,txt}``, and prints the
table straight to the terminal (bypassing pytest's capture) so a plain
``pytest benchmarks/bench_*.py`` run shows the regenerated series.  At the
end of the session ``results/SUMMARY.md`` is rebuilt from those files.

Every simulated and analytical second is deterministic, so a run must
leave ``results/`` byte-identical to what is committed; CI fails on any
``git status --porcelain -- results/`` output.
"""

from __future__ import annotations

import os
import sys

from repro.bench.harness import FigureResult, format_table, write_results

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")


def report(result: FigureResult) -> FigureResult:
    write_results(result, directory=os.path.abspath(RESULTS_DIR))
    sys.__stdout__.write(f"\n{format_table(result)}\n")
    sys.__stdout__.flush()
    return result


def pytest_sessionfinish(session, exitstatus):
    """Regenerate results/SUMMARY.md from the figure files."""
    directory = os.path.abspath(RESULTS_DIR)
    if not os.path.isdir(directory):
        return
    try:
        from repro.bench.summary import write_summary

        write_summary(directory)
    except Exception as exc:  # never fail the bench run over the report
        sys.__stdout__.write(f"(summary generation skipped: {exc})\n")
