"""Iterator-model (Volcano-style) operators, batch-at-a-time.

Each operator exposes ``schema`` (its output schema) and ``rows()`` (a
generator of output tuples), and holds its children — a pull-based
pipeline exactly like the Gamma operator trees the paper assumes.  The
aggregate operators reuse the same bounded engines the parallel
algorithms run on (`HashAggregator` / `SortAggregator`), so memory
behaviour is identical inside and outside the simulator.

Hot operators additionally expose ``batches()`` — the same stream as
``rows()`` but in lists of ``BATCH_ROWS`` tuples, so per-row virtual
dispatch is paid once per batch (the Volcano-overhead fix the related
aggregation-performance studies all converge on).
"""

from __future__ import annotations

from repro.core.aggregates import make_state_factory
from repro.core.hashtable import HashAggregator
from repro.core.query import AggregateQuery
from repro.core.sortagg import SortAggregator
from repro.storage.relation import Relation
from repro.storage.schema import Column, Schema

BATCH_ROWS = 4096


class Operator:
    """Base operator: children, an output schema, and a row stream."""

    name = "operator"

    def __init__(self, *children: "Operator") -> None:
        self.children = list(children)

    @property
    def schema(self) -> Schema:
        raise NotImplementedError

    def rows(self):
        raise NotImplementedError

    def batches(self, batch_rows: int = BATCH_ROWS):
        """The output as lists of at most ``batch_rows`` tuples.

        The default chunks ``rows()``; operators with a cheaper native
        batch form (scan, select, project, aggregate) override this and
        derive ``rows()`` from it instead.
        """
        batch = []
        append = batch.append
        for row in self.rows():
            append(row)
            if len(batch) >= batch_rows:
                yield batch
                batch = []
                append = batch.append
        if batch:
            yield batch

    def describe(self) -> str:
        """One line for EXPLAIN output."""
        return self.name


class ScanOp(Operator):
    """Leaf: stream a relation's rows."""

    name = "scan"

    def __init__(self, relation: Relation) -> None:
        super().__init__()
        self.relation = relation

    @property
    def schema(self) -> Schema:
        return self.relation.schema

    def rows(self):
        yield from self.relation.rows

    def batches(self, batch_rows: int = BATCH_ROWS):
        rows = self.relation.rows
        for start in range(0, len(rows), batch_rows):
            yield rows[start : start + batch_rows]

    def describe(self) -> str:
        return f"scan({len(self.relation)} rows)"


class SelectOp(Operator):
    """Filter rows with a predicate over a column-name mapping."""

    name = "select"

    def __init__(self, child: Operator, predicate) -> None:
        super().__init__(child)
        self.predicate = predicate
        self._names = child.schema.names()

    @property
    def schema(self) -> Schema:
        return self.children[0].schema

    def rows(self):
        for batch in self.batches():
            yield from batch

    def batches(self, batch_rows: int = BATCH_ROWS):
        names = self._names
        predicate = self.predicate
        for batch in self.children[0].batches(batch_rows):
            kept = [
                row for row in batch if predicate(dict(zip(names, row)))
            ]
            if kept:
                yield kept


class ProjectOp(Operator):
    """Keep only the named columns, in the given order."""

    name = "project"

    def __init__(self, child: Operator, columns) -> None:
        super().__init__(child)
        self.columns = list(columns)
        self._schema = child.schema.project(self.columns)
        self._idx = child.schema.indexes_of(self.columns)

    @property
    def schema(self) -> Schema:
        return self._schema

    def rows(self):
        for batch in self.batches():
            yield from batch

    def batches(self, batch_rows: int = BATCH_ROWS):
        idx = self._idx
        for batch in self.children[0].batches(batch_rows):
            yield [tuple(row[i] for i in idx) for row in batch]

    def describe(self) -> str:
        return f"project({', '.join(self.columns)})"


def _aggregate_output_schema(query: AggregateQuery, child: Schema) -> Schema:
    columns = [child.column(name) for name in query.group_by]
    columns += [
        Column(spec.output_name, "float") for spec in query.aggregates
    ]
    return Schema(columns)


class _AggregateBase(Operator):
    """Shared plumbing of the two aggregate operators."""

    def __init__(
        self,
        child: Operator,
        query: AggregateQuery,
        max_entries: int = 2**62,
    ) -> None:
        super().__init__(child)
        self.query = query
        self.max_entries = max_entries
        self._bq = query.bind(child.schema)
        self._schema = _aggregate_output_schema(query, child.schema)
        self.spilled_items = 0

    @property
    def schema(self) -> Schema:
        return self._schema

    def _make_engine(self):
        raise NotImplementedError

    def rows(self):
        bq = self._bq
        engine = self._make_engine()
        # WHERE is the planner's select operator's job; the batch call
        # must not re-apply it here (the aggregate's input schema can
        # differ from the predicate's).
        for batch in self.children[0].batches():
            engine.add_rows(batch, bq, apply_where=False)
        for key, state in engine.finish():
            yield bq.result_row(key, state)
        self.spilled_items = engine.spilled_items

    def describe(self) -> str:
        keys = ", ".join(self.query.group_by) or "<scalar>"
        aggs = ", ".join(s.output_name for s in self.query.aggregates)
        return f"{self.name}(by [{keys}] compute [{aggs}], M={self.max_entries})"


class HashAggregateOp(_AggregateBase):
    """GROUP BY via the bounded hash engine (unordered output)."""

    name = "hash_aggregate"

    def _make_engine(self):
        return HashAggregator(
            make_state_factory(self.query.aggregates), self.max_entries
        )


class SortAggregateOp(_AggregateBase):
    """GROUP BY via the sort-run engine (output in key order)."""

    name = "sort_aggregate"

    def _make_engine(self):
        return SortAggregator(
            make_state_factory(self.query.aggregates), self.max_entries
        )


class HashJoinOp(Operator):
    """Equi-join: build on the right child, probe with the left.

    The paper's example operator tree is "two select operators followed
    by a join operator" feeding aggregation; this operator completes
    that pipeline.  Output rows are left columns followed by right
    columns (the right join key is kept — project it away if unwanted).
    Right-side column names that collide with left ones are suffixed
    ``_r`` in the output schema.
    """

    name = "hash_join"

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_key: str,
        right_key: str,
    ) -> None:
        super().__init__(left, right)
        self.left_key = left_key
        self.right_key = right_key
        self._left_idx = left.schema.index_of(left_key)
        self._right_idx = right.schema.index_of(right_key)
        left_names = set(left.schema.names())
        out_columns = list(left.schema.columns)
        for column in right.schema.columns:
            if column.name in left_names:
                out_columns.append(
                    Column(
                        column.name + "_r", column.kind, column.size_bytes
                    )
                )
            else:
                out_columns.append(column)
        self._schema = Schema(out_columns)

    @property
    def schema(self) -> Schema:
        return self._schema

    def rows(self):
        table: dict = {}
        for row in self.children[1].rows():
            table.setdefault(row[self._right_idx], []).append(row)
        for row in self.children[0].rows():
            for match in table.get(row[self._left_idx], ()):
                yield row + match

    def describe(self) -> str:
        return f"hash_join({self.left_key} = {self.right_key})"


class HavingOp(Operator):
    """Post-grouping filter over the aggregate output row."""

    name = "having"

    def __init__(self, child: Operator, predicate) -> None:
        super().__init__(child)
        self.predicate = predicate
        self._names = child.schema.names()

    @property
    def schema(self) -> Schema:
        return self.children[0].schema

    def rows(self):
        names = self._names
        for row in self.children[0].rows():
            if self.predicate(dict(zip(names, row))):
                yield row


class SortOp(Operator):
    """Full sort on named columns (materializing)."""

    name = "sort"

    def __init__(self, child: Operator, columns, descending=False) -> None:
        super().__init__(child)
        self.columns = list(columns)
        self.descending = descending
        self._idx = child.schema.indexes_of(self.columns)

    @property
    def schema(self) -> Schema:
        return self.children[0].schema

    def rows(self):
        idx = self._idx
        yield from sorted(
            self.children[0].rows(),
            key=lambda row: tuple(row[i] for i in idx),
            reverse=self.descending,
        )

    def describe(self) -> str:
        direction = "desc" if self.descending else "asc"
        return f"sort({', '.join(self.columns)} {direction})"


class LimitOp(Operator):
    """Emit at most n rows."""

    name = "limit"

    def __init__(self, child: Operator, n: int) -> None:
        if n < 0:
            raise ValueError("limit must be non-negative")
        super().__init__(child)
        self.n = n

    @property
    def schema(self) -> Schema:
        return self.children[0].schema

    def rows(self):
        for i, row in enumerate(self.children[0].rows()):
            if i >= self.n:
                return
            yield row

    def describe(self) -> str:
        return f"limit({self.n})"


def execute(plan: Operator) -> Relation:
    """Pull the plan to completion and materialize the result."""
    return Relation(plan.schema, plan.rows())
