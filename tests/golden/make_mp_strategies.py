"""Add (never regenerate) the mp-strategy parity section of the goldens.

Run from the repo root at a known-good revision::

    PYTHONPATH=src python tests/golden/make_mp_strategies.py

Loads ``block_parity.json``, leaves every existing vector byte-for-byte
untouched, and adds/refreshes only the ``mp_strategies`` section: for
each workload shape, the exact result rows (sha256 over the same
canonical encoding the simulator goldens use, floats as hex) of
``multiprocessing_aggregate``.  One digest per workload — the whole
point is that every strategy (pool / global / rep) must reproduce it
bit for bit.  ``tests/test_mp_columnar.py`` asserts exactly that.

The workloads deliberately cover what the columnar kernel added: string
group keys (dictionary codes), multi-column keys, and AVG/VAR/STDDEV
whose merge discipline is pinned by digest, not tolerance.
"""

from __future__ import annotations

import importlib.util
import json
import os
import random

from repro.core.aggregates import AggregateSpec
from repro.core.query import AggregateQuery
from repro.storage.relation import DistributedRelation
from repro.storage.schema import Column, Schema

OUT = os.path.join(os.path.dirname(__file__), "block_parity.json")


def _load_block_parity_module():
    spec = importlib.util.spec_from_file_location(
        "make_block_parity",
        os.path.join(os.path.dirname(__file__), "make_block_parity.py"),
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_BP = _load_block_parity_module()
rows_digest = _BP.rows_digest


def fig2_mp_workload():
    """The simulator goldens' Fig-2 shape, on the real executor."""
    dist = _BP.fig2_workload()[0]
    query = AggregateQuery(("gkey",), (AggregateSpec("sum", "val"),))
    return dist, query


def strkey_workload():
    """String keys + the full aggregate menu, incl. AVG/VAR/STDDEV.

    Strings include non-ASCII and embedded NULs — representable only by
    the dictionary codec — so this digest pins the columnar string path
    and the moment-merge discipline at once.
    """
    rng = random.Random(1347)
    schema = Schema(
        [
            Column("city", "str", 16),
            Column("tier", "int"),
            Column("sales", "float"),
            Column("units", "int"),
        ]
    )
    cities = ["münchen", "oslo", "lyon", "quito", "ab\x00ba", "kyiv"]
    rows = [
        (
            rng.choice(cities),
            rng.randrange(3),
            rng.uniform(-500.0, 500.0),
            rng.randrange(-40, 160),
        )
        for _ in range(6000)
    ]
    parts = [rows[i::4] for i in range(4)]
    dist = DistributedRelation(schema, parts)
    query = AggregateQuery(
        ("city", "tier"),
        (
            AggregateSpec("count", None),
            AggregateSpec("sum", "sales"),
            AggregateSpec("sum", "units"),
            AggregateSpec("avg", "sales"),
            AggregateSpec("avg", "units"),
            AggregateSpec("min", "city"),
            AggregateSpec("max", "sales"),
            AggregateSpec("var", "sales"),
            AggregateSpec("stddev", "units"),
            AggregateSpec("count_distinct", "tier"),
        ),
    )
    return dist, query


WORKLOADS = {
    "fig2_mp": fig2_mp_workload,
    "strkey_mp": strkey_workload,
}

STRATEGIES = ("pool", "global", "rep")


def run_case(builder):
    from repro.parallel.mp_executor import (
        multiprocessing_aggregate,
        shutdown_worker_pool,
    )

    dist, query = builder()
    digests = set()
    reference = None
    try:
        for strategy in STRATEGIES:
            rows = multiprocessing_aggregate(
                dist, query, 4, strategy=strategy
            )
            reference = rows
            digests.add(rows_digest(rows))
    finally:
        shutdown_worker_pool()
    if len(digests) != 1:
        raise AssertionError(
            f"strategies disagree before pinning: {sorted(digests)}"
        )
    return {
        "num_rows": len(reference),
        "rows_sha256": digests.pop(),
    }


def main() -> None:
    with open(OUT) as handle:
        doc = json.load(handle)
    doc["mp_strategies"] = {
        name: run_case(builder) for name, builder in WORKLOADS.items()
    }
    with open(OUT, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote mp_strategies section of {OUT}")


if __name__ == "__main__":
    main()
