"""Regenerate the block-path parity golden vectors.

Run from the repo root at a known-good revision::

    PYTHONPATH=src python tests/golden/make_block_parity.py

The generated ``block_parity.json`` pins, for every algorithm, the exact
result rows and simulated elapsed seconds of Fig-2 / Table-1 style
workloads in two variants — plain and fully instrumented (tracer +
decision ledger).  The committed file also holds
``*/faults`` entries from a retired simulator fault model; nothing reads
them.  ``tests/test_block_parity.py``
asserts every later revision reproduces these bit-for-bit, so hot-path
rewrites (batched row blocks, memoized partitioning, chunked hashing)
cannot silently change an answer or a simulated timing.
"""

from __future__ import annotations

import json
import os

from repro.core.aggregates import AggregateSpec
from repro.core.query import AggregateQuery
from repro.core.runner import ALGORITHMS, run_algorithm
from repro.obs.decisions import DecisionLedger
from repro.obs.tracer import Tracer
from repro.storage.hashing import stable_hash
from repro.workloads.generator import generate_uniform, generate_zipf

OUT = os.path.join(os.path.dirname(__file__), "block_parity.json")


def fig2_workload():
    """A scaled-down Figure 2 shape: uniform groups, 4 nodes."""
    dist = generate_uniform(8000, 400, 4, seed=11)
    query = AggregateQuery(("gkey",), (AggregateSpec("sum", "val"),))
    return dist, query, {"pipeline": True}


def table1_workload():
    """A scaled-down Table 1 shape: skewed groups, richer aggregates."""
    dist = generate_zipf(6000, 300, 4, alpha=1.1, seed=7)
    query = AggregateQuery(
        ("gkey",),
        (
            AggregateSpec("sum", "val"),
            AggregateSpec("count", None),
            AggregateSpec("min", "val"),
        ),
    )
    return dist, query, {}


def rows_digest(rows) -> str:
    """A canonical sha256 over result rows, floats via exact hex."""
    import hashlib

    canon = []
    for row in rows:
        enc = []
        for value in row:
            if isinstance(value, float):
                enc.append(["f", value.hex()])
            else:
                enc.append(value)
        canon.append(enc)
    payload = json.dumps(canon, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def run_case(algorithm, dist, query, overrides, variant):
    kwargs = dict(overrides)
    tracer = ledger = None
    if variant == "instrumented":
        tracer = Tracer()
        ledger = DecisionLedger()
    outcome = run_algorithm(
        algorithm, dist, query, tracer=tracer, ledger=ledger, **kwargs
    )
    return {
        "num_rows": len(outcome.rows),
        "rows_sha256": rows_digest(outcome.rows),
        "elapsed_seconds": float(outcome.elapsed_seconds).hex(),
    }


def main() -> None:
    doc = {"hash_golden": {}, "algorithms": {}}
    for key, value in [
        ("int_0", 0),
        ("int_1", 1),
        ("int_neg", -12345),
        ("int_big", 2**77 + 3),
        ("str", "group-17"),
        ("tuple_int", (42,)),
        ("tuple_mixed", ("g", 7, 2.5)),
        ("nested", ((1, 2), "x")),
        ("none", None),
        ("bool", True),
        ("float", 3.141592653589793),
        ("bytes", b"\x00\xffpad"),
        ("empty_str", ""),
        ("long_str", "k" * 100),
    ]:
        doc["hash_golden"][key] = stable_hash(value)
    for algorithm in ALGORITHMS:
        per_alg = {}
        for wname, builder in [("fig2", fig2_workload), ("table1", table1_workload)]:
            dist, query, overrides = builder()
            for variant in ("plain", "instrumented"):
                per_alg[f"{wname}/{variant}"] = run_case(
                    algorithm, dist, query, overrides, variant
                )
        doc["algorithms"][algorithm] = per_alg
    with open(OUT, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
