#!/usr/bin/env python3
"""Quickstart: run every aggregation algorithm on a simulated cluster.

Generates a uniform relation spread over 8 shared-nothing nodes, runs the
same GROUP BY query through all seven algorithms (three traditional, three
adaptive, plus Graefe's optimized Two Phase), verifies each against the
sequential reference executor, and prints simulated elapsed time, network
traffic, spill I/O, and the adaptive switching events.

Run:  python examples/quickstart.py
"""

from repro import (
    AggregateQuery,
    AggregateSpec,
    ALGORITHMS,
    generate_uniform,
    run_algorithm,
)
from repro.parallel import reference_aggregate


def main() -> None:
    # A relation of 40,000 100-byte tuples with 2,000 groups, dealt
    # round-robin over 8 nodes (the paper's placement).
    dist = generate_uniform(
        num_tuples=40_000, num_groups=2_000, num_nodes=8, seed=7
    )
    query = AggregateQuery(
        group_by=["gkey"],
        aggregates=[
            AggregateSpec("sum", "val", alias="total"),
            AggregateSpec("avg", "val", alias="mean"),
            AggregateSpec("count", None, alias="n"),
        ],
    )
    expected = reference_aggregate(dist, query)
    print(f"relation: {len(dist):,} tuples on {dist.num_nodes} nodes, "
          f"{len(expected):,} groups\n")
    print(f"{'algorithm':<26} {'sim time':>9} {'MB sent':>8} "
          f"{'spill pages':>11} {'switches':>8} {'correct':>7}")
    for name in sorted(ALGORITHMS):
        out = run_algorithm(name, dist, query)
        correct = len(out.rows) == len(expected) and all(
            a[0] == b[0] and abs(a[1] - b[1]) < 1e-6
            for a, b in zip(out.rows, expected)
        )
        switches = [
            e for e in out.ledger.events if e.kind.startswith("switch")
        ]
        print(
            f"{name:<26} {out.elapsed_seconds:8.3f}s "
            f"{out.metrics.total_bytes_sent / 1e6:8.2f} "
            f"{out.metrics.total_spill_pages:11.0f} "
            f"{len(switches):8d} {str(correct):>7}"
        )

    print("\nfirst three result rows:")
    for row in expected[:3]:
        print("  ", dict(zip(query.output_names(), row)))


if __name__ == "__main__":
    main()
