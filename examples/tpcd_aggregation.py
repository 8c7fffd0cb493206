#!/usr/bin/env python3
"""TPC-D-flavoured workload: the paper's motivating scenario.

The introduction notes that 15 of TPC-D's 17 queries aggregate, with
result sizes from 2 tuples to over a million — no single static algorithm
covers that range.  This example runs three lineitem queries spanning the
spectrum and shows each algorithm's simulated time, demonstrating that
the adaptive algorithms pick the right strategy per query with no
optimizer hint.

Run:  python examples/tpcd_aggregation.py
"""

from repro.core.runner import run_algorithm
from repro.parallel import reference_aggregate
from repro.workloads.tpcd import TPCD_QUERIES, generate_lineitem

ALGORITHMS = (
    "two_phase",
    "repartitioning",
    "sampling",
    "adaptive_two_phase",
    "adaptive_repartitioning",
)


def main() -> None:
    dist = generate_lineitem(num_tuples=40_000, num_nodes=8, seed=3)
    print(f"lineitem: {len(dist):,} tuples on {dist.num_nodes} nodes\n")

    for query_name, make_query in TPCD_QUERIES.items():
        query = make_query()
        groups = len(reference_aggregate(dist, query))
        selectivity = groups / len(dist)
        print(f"-- {query_name}: {groups:,} groups "
              f"(selectivity {selectivity:.2e})")
        times = {}
        for name in ALGORITHMS:
            out = run_algorithm(name, dist, query)
            times[name] = out.elapsed_seconds
            decision = ""
            sampled = out.ledger.events_of("sampling_decision")
            n_switch = sum(
                1 for e in out.ledger.events if e.kind.startswith("switch")
            )
            if sampled:
                decision = f"  [sampled -> {sampled[0].data['choice']}]"
            elif n_switch:
                decision = f"  [{n_switch} node switches]"
            print(f"   {name:<26} {out.elapsed_seconds:8.3f}s{decision}")
        winner = min(times, key=times.get)
        print(f"   => fastest: {winner}\n")


if __name__ == "__main__":
    main()
