"""Partitioning strategies for shared-nothing placement and repartitioning.

Round-robin is the paper's base-relation placement ("The 2 Million 100 byte
tuples were partitioned in a round-robin fashion").  Hash partitioning on
the GROUP BY attributes is what the Repartitioning algorithm and the merge
phase of the Two Phase algorithm use.  Range partitioning is included for
completeness (Gamma supported it); it is exercised by tests but not by the
paper's experiments.
"""

from __future__ import annotations

from repro.storage.hashing import bucket_of


def round_robin_partition(rows, num_parts: int) -> list[list]:
    """Deal rows to ``num_parts`` partitions in row order."""
    if num_parts <= 0:
        raise ValueError("num_parts must be positive")
    parts: list[list] = [[] for _ in range(num_parts)]
    for i, row in enumerate(rows):
        parts[i % num_parts].append(row)
    return parts


def hash_partition(rows, num_parts: int, key_func) -> list[list]:
    """Partition rows by a stable hash of ``key_func(row)``."""
    if num_parts <= 0:
        raise ValueError("num_parts must be positive")
    parts: list[list] = [[] for _ in range(num_parts)]
    for row in rows:
        parts[bucket_of(key_func(row), num_parts)].append(row)
    return parts


def range_partition(rows, boundaries, key_func) -> list[list]:
    """Partition rows into ``len(boundaries) + 1`` ordered ranges.

    ``boundaries`` must be sorted ascending; row r goes to the first
    partition i with ``key_func(r) <= boundaries[i]``, or the last one.
    """
    bounds = list(boundaries)
    if bounds != sorted(bounds):
        raise ValueError("range boundaries must be sorted ascending")
    parts: list[list] = [[] for _ in range(len(bounds) + 1)]
    for row in rows:
        key = key_func(row)
        dest = len(bounds)
        for i, bound in enumerate(bounds):
            if key <= bound:
                dest = i
                break
        parts[dest].append(row)
    return parts
