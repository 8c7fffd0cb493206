"""Relations and their shared-nothing fragments.

A :class:`Relation` is a schema plus rows (plain Python tuples).  A
:class:`DistributedRelation` is the shared-nothing view: one
:class:`Fragment` per node, each logically resident on that node's local
disk.  Page counts are derived from the schema's tuple width and a page
size, mirroring how the paper charges scan and store I/O.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.storage.schema import Schema


def pages_for(num_tuples: int, tuple_bytes: int, page_size: int) -> int:
    """Number of pages needed to hold ``num_tuples`` rows.

    Tuples never span pages (the paper's Gamma-style layout), so the
    per-page capacity is ``floor(page_size / tuple_bytes)``.
    """
    if num_tuples < 0:
        raise ValueError("num_tuples must be non-negative")
    if num_tuples == 0:
        return 0
    per_page = max(1, page_size // tuple_bytes)
    return math.ceil(num_tuples / per_page)


def tuples_per_page(tuple_bytes: int, page_size: int) -> int:
    """How many tuples fit on one page (at least 1)."""
    return max(1, page_size // tuple_bytes)


class Relation:
    """An in-memory relation: a schema and a list of row tuples."""

    def __init__(self, schema: Schema, rows) -> None:
        self.schema = schema
        self.rows = list(rows)
        width = len(schema)
        for row in self.rows:
            if len(row) != width:
                raise ValueError(
                    f"row arity {len(row)} does not match schema "
                    f"arity {width}: {row!r}"
                )

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self) -> str:
        return (
            f"Relation(columns={self.schema.names()}, rows={len(self.rows)})"
        )

    @property
    def size_bytes(self) -> int:
        return len(self.rows) * self.schema.tuple_bytes

    def num_pages(self, page_size: int) -> int:
        return pages_for(len(self.rows), self.schema.tuple_bytes, page_size)

    def pages(self, page_size: int):
        """Iterate rows page by page (lists of rows)."""
        per_page = tuples_per_page(self.schema.tuple_bytes, page_size)
        for start in range(0, len(self.rows), per_page):
            yield self.rows[start : start + per_page]

    def column_values(self, name: str):
        idx = self.schema.index_of(name)
        return [row[idx] for row in self.rows]


class BlockRelation(Relation):
    """A relation born columnar: a :class:`ColumnBlock`, rows on demand.

    ``rows`` is a *decoding view*: the first access materializes the
    block as Python tuples (cached thereafter), so every row consumer —
    the simulator substrate, golden parity tests, per-row fallbacks —
    sees exactly what a row-built :class:`Relation` would hold, while
    columnar consumers (``multiprocessing_aggregate``'s shipping path,
    block-native scans) read ``block`` directly and never pay the
    decode.
    """

    def __init__(self, schema: Schema, block) -> None:
        if block.columns and block.num_rows != len(block.columns[0]):
            raise ValueError("block row count disagrees with its columns")
        self.schema = schema
        self.block = block
        self._rows: list | None = None

    @property
    def rows(self) -> list:
        if self._rows is None:
            self._rows = self.block.to_rows()
        return self._rows

    def __len__(self) -> int:
        return self.block.num_rows

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self) -> str:
        return (
            f"BlockRelation(columns={self.schema.names()}, "
            f"rows={self.block.num_rows})"
        )

    @property
    def size_bytes(self) -> int:
        return self.block.num_rows * self.schema.tuple_bytes

    def num_pages(self, page_size: int) -> int:
        return pages_for(
            self.block.num_rows, self.schema.tuple_bytes, page_size
        )

    def column_values(self, name: str):
        return self.block.column(self.schema.index_of(name))


@dataclass
class Fragment:
    """The horizontal fragment of a relation resident on one node."""

    node_id: int
    relation: Relation

    def __len__(self) -> int:
        return len(self.relation)

    def num_pages(self, page_size: int) -> int:
        return self.relation.num_pages(page_size)


class DistributedRelation:
    """A relation horizontally partitioned across N shared-nothing nodes."""

    def __init__(self, schema: Schema, partitions) -> None:
        """``partitions`` holds one entry per node: either a list of row
        tuples (wrapped in a fresh :class:`Relation`) or an already-built
        :class:`Relation`/:class:`BlockRelation` — the columnar
        generators hand fragments over block-born, without a row detour.
        """
        self.schema = schema
        self.fragments = [
            Fragment(
                i,
                part if isinstance(part, Relation)
                else Relation(schema, part),
            )
            for i, part in enumerate(partitions)
        ]
        if not self.fragments:
            raise ValueError("a distributed relation needs at least one node")

    @property
    def num_nodes(self) -> int:
        return len(self.fragments)

    def __len__(self) -> int:
        return sum(len(f) for f in self.fragments)

    def __repr__(self) -> str:
        sizes = [len(f) for f in self.fragments]
        return (
            f"DistributedRelation(nodes={self.num_nodes}, "
            f"tuples={sum(sizes)}, per_node={sizes})"
        )

    def fragment(self, node_id: int) -> Fragment:
        return self.fragments[node_id]

    def all_rows(self) -> list:
        """Every row, concatenated in node order (for reference answers)."""
        rows = []
        for frag in self.fragments:
            rows.extend(frag.relation.rows)
        return rows

    def as_relation(self) -> Relation:
        return Relation(self.schema, self.all_rows())

    @property
    def size_bytes(self) -> int:
        return len(self) * self.schema.tuple_bytes

    def tuples_per_node(self) -> list[int]:
        return [len(f) for f in self.fragments]
