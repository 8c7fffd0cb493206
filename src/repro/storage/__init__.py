"""Paged, shared-nothing storage substrate.

The paper assumes a Gamma-like shared-nothing machine: each node owns a
horizontal fragment of the relation on its local disk.  This subpackage
provides the schema/relation model, stable hashing (Python's builtin ``hash``
is salted per process and therefore unusable for repartitioning), the
round-robin and hash partitioners, and page-count arithmetic used for I/O
cost accounting.
"""

from repro.storage.columnblock import (
    ColumnBlock,
    StringDictionary,
    have_numpy,
)
from repro.storage.hashing import (
    bucket_of,
    hash_bytes,
    stable_hash,
)
from repro.storage.partition import (
    hash_partition,
    range_partition,
    round_robin_partition,
)
from repro.storage.relation import DistributedRelation, Fragment, Relation
from repro.storage.schema import Column, Schema
from repro.storage.spill import FileSpillStore, MemorySpillStore

__all__ = [
    "Column",
    "ColumnBlock",
    "DistributedRelation",
    "FileSpillStore",
    "Fragment",
    "MemorySpillStore",
    "Relation",
    "Schema",
    "StringDictionary",
    "bucket_of",
    "hash_bytes",
    "hash_partition",
    "have_numpy",
    "range_partition",
    "round_robin_partition",
    "stable_hash",
]
