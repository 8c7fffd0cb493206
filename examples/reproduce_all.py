#!/usr/bin/env python3
"""Regenerate every paper table and figure in one run.

Writes results/<figure>.{csv,txt} and prints each series with an ASCII
chart — the terminal equivalent of flipping through the paper's
evaluation section.  The pytest benchmarks do the same with shape
assertions; this script is the human-facing tour.

Run:  python examples/reproduce_all.py        (~2-4 minutes)
      python examples/reproduce_all.py --fast (analytical figures only)
"""

import sys
import time

from repro.bench import figures
from repro.bench.harness import format_table, write_results
from repro.bench.plotting import render_chart

ANALYTICAL = [
    ("table1", figures.table1),
    ("fig1", figures.figure1),
    ("fig2", figures.figure2),
    ("fig3", figures.figure3),
    ("fig4", figures.figure4),
    ("fig5", figures.figure5),
    ("fig6", figures.figure6),
    ("fig7", figures.figure7),
]
SIMULATED = [
    ("fig8", figures.figure8),
    ("fig9", figures.figure9),
    ("skew_input", figures.input_skew_study),
]


def main() -> None:
    fast = "--fast" in sys.argv
    targets = ANALYTICAL + ([] if fast else SIMULATED)
    for name, runner in targets:
        start = time.perf_counter()
        result = runner()
        elapsed = time.perf_counter() - start
        write_results(result, "results")
        print(format_table(result))
        if name != "table1":
            try:
                print(render_chart(result, log_y=name in ("fig1", "fig2")))
            except ValueError:
                pass  # non-numeric series (e.g. winner columns)
        print(f"[{name} regenerated in {elapsed:.1f}s -> "
              f"results/{name}.csv]\n")
    print(f"done: {len(targets)} tables/figures regenerated.")


if __name__ == "__main__":
    main()
