"""Add (never regenerate) the packed-merge section of the goldens.

Run from the repo root at a known-good revision::

    PYTHONPATH=src python tests/golden/make_packed_merge.py

Loads ``block_parity.json``, leaves every existing section byte-for-byte
untouched, and adds/refreshes only the ``packed_merge`` section: exact
result-row digests for workloads that exercise the PR-10 packed wire
formats — string MIN/MAX as winner dictionary codes merged through a
union-dictionary LUT, and COUNT(DISTINCT) as sorted-unique
``(group, value)`` pair arrays.  Fragments are block-born, so the
in-process global path packs too.  ``tests/test_mp_packed.py`` asserts
every strategy reproduces these digests bit for bit.
"""

from __future__ import annotations

import importlib.util
import json
import os
import random

from repro.core.aggregates import AggregateSpec
from repro.core.query import AggregateQuery
from repro.storage.columnblock import ColumnBlock
from repro.storage.relation import BlockRelation, DistributedRelation
from repro.storage.schema import Column, Schema
from repro.workloads.generator import generate_zipf

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


def _block_dist(schema, parts):
    return DistributedRelation(
        schema,
        [
            BlockRelation(schema, ColumnBlock.from_rows(schema, part))
            for part in parts
        ],
    )


def packed_extremes_workload():
    """Str MIN/MAX + distinct over adversarial dictionary contents.

    Values include embedded and trailing NULs, non-ASCII (latin,
    astral), the empty string, and prefixes of each other — shapes
    where a rank fold over a mis-ordered union dictionary would drift.
    Fragment dictionaries are disjoint-ish (per-fragment value pools),
    so the union LUT remap is always exercised.
    """
    rng = random.Random(4151)
    schema = Schema(
        [
            Column("k", "str", 12),
            Column("s", "str", 12),
            Column("n", "int"),
            Column("x", "float"),
        ]
    )
    keys = ["", "kö", "k\x00", "😀", "aaa", "aab", "z"]
    pools = [
        ["", "b", "b\x00", "ba"],
        ["\x00", "ß", "ss", "s\x00s"],
        ["😀", "😀x", "zz", "z\x00"],
        ["aa", "ab", "a\x00b", "é"],
    ]
    parts = []
    for pool in pools:
        parts.append(
            [
                (
                    rng.choice(keys),
                    rng.choice(pool),
                    rng.randrange(-9, 9),
                    rng.uniform(-10.0, 10.0),
                )
                for _ in range(700)
            ]
        )
    query = AggregateQuery(
        ("k",),
        (
            AggregateSpec("min", "s"),
            AggregateSpec("max", "s"),
            AggregateSpec("count_distinct", "s"),
            AggregateSpec("count_distinct", "n"),
            AggregateSpec("sum", "x"),
            AggregateSpec("count", None),
        ),
    )
    return _block_dist(schema, parts), query


def packed_zipf_strkey_workload():
    """The generator's own block-born str-key Zipf shape, full menu."""
    dist = generate_zipf(
        6000, 120, 4, alpha=1.1, seed=77, placement="hash",
        key_format="g{:06d}",
    )
    query = AggregateQuery(
        ("gkey",),
        (
            AggregateSpec("sum", "val"),
            AggregateSpec("min", "gkey"),
            AggregateSpec("max", "gkey"),
            AggregateSpec("count_distinct", "val"),
            AggregateSpec("avg", "val"),
        ),
    )
    return dist, query


WORKLOADS = {
    "packed_extremes": packed_extremes_workload,
    "packed_zipf_strkey": packed_zipf_strkey_workload,
}

STRATEGIES = ("pool", "global", "rep", "auto")


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
            for processes in (1, 4):
                rows = multiprocessing_aggregate(
                    dist, query, processes, strategy=strategy
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
    doc["packed_merge"] = {
        name: run_case(builder) for name, builder in WORKLOADS.items()
    }
    with open(OUT, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote packed_merge section of {OUT}")


if __name__ == "__main__":
    main()
