#!/usr/bin/env python3
"""The SQL front-end: the paper's queries as actual SQL.

Parses the canonical GROUP BY query shape into the library's query
model and runs it three ways: a plain relation as one fragment through
the multiprocessing executor's kernel, in this process; the simulated
cluster; and the executor's worker pool over four fragments.  The
one-fragment answer equals the sequential reference exactly; the
four-fragment ones add floats in another order, so they are checked
within 1e-9 absolute plus 1e-9 relative.  Also demonstrates SELECT
DISTINCT (duplicate elimination, the paper's high-selectivity
motivation) and HAVING over aggregates.

Run:  python examples/sql_frontend.py
"""

from repro.parallel import reference_aggregate
from repro.sql import parse_query, run_sql
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


def close(rows, reference) -> bool:
    """Same keys and non-floats; floats within 1e-9 abs + 1e-9 rel."""
    return len(rows) == len(reference) and all(
        abs(a - b) <= 1e-9 + 1e-9 * abs(b) if isinstance(a, float) else a == b
        for row, want in zip(sorted(rows), reference)
        for a, b in zip(row, want)
    )


def main() -> None:
    dist = generate_lineitem(num_tuples=20_000, num_nodes=4, seed=9)
    relation = dist.as_relation()
    _table, query = parse_query(PRICING_SUMMARY)
    reference = reference_aggregate(relation, query)

    print("query:", " ".join(PRICING_SUMMARY.split()), "\n")

    # 1. A plain relation: one fragment, the columnar kernel in-process.
    local = run_sql(PRICING_SUMMARY, relation)
    print(f"one fragment: {len(local)} result rows")
    for row in local.rows:
        print("  ", row)
    print(f"equals the sequential reference exactly: "
          f"{local.rows == reference}")

    # 2. Simulated shared-nothing cluster.
    outcome = run_sql(PRICING_SUMMARY, dist, algorithm="two_phase")
    print(f"\ncluster (two_phase): {outcome.num_groups} rows in "
          f"{outcome.elapsed_seconds:.3f}s simulated; within 1e-9 of the "
          f"reference: {close(outcome.rows, reference)}")

    # 3. The multiprocessing executor (real worker processes).
    rows = run_sql(PRICING_SUMMARY, dist, substrate="mp")
    print(f"multiprocessing (4 fragments): {len(rows)} rows; within 1e-9 "
          f"of the reference: {close(rows, reference)}")

    # Duplicate elimination, the paper's other extreme.
    distinct = run_sql("SELECT DISTINCT orderkey FROM lineitem", dist,
                       algorithm="adaptive_repartitioning")
    print(f"\nSELECT DISTINCT orderkey: {distinct.num_groups} orders "
          f"(selectivity {distinct.num_groups / len(dist):.2f}) in "
          f"{distinct.elapsed_seconds:.3f}s — the A-Rep sweet spot")


if __name__ == "__main__":
    main()
