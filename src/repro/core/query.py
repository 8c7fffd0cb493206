"""The GROUP BY aggregate query model.

Captures the paper's canonical query shape::

    SELECT   <group by attributes>, <aggregates>
    FROM     R
    [WHERE   <predicate>]
    GROUP BY <attributes>
    [HAVING  <predicate>]

The paper observes that a properly constructed HAVING clause (one that
cannot be pushed into WHERE) is evaluated *after* grouping and therefore
does not affect the algorithms' relative performance; we support it
exactly that way — applied to finished result rows at each merge site,
at no modelled extra cost.  Scalar aggregation is the special case of an
empty ``group_by`` (one group).

The query also knows its *projectivity* — the fraction of the tuple that is
relevant to the aggregation (group-by columns + aggregated columns) — which
is the ``p`` parameter of the cost model and decides how many bytes travel
over the network when tuples are repartitioned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from repro.core.aggregates import AggregateSpec, canonical, canonical_key
from repro.storage.schema import Schema

_SCALAR_KEY = ()


def _key_getter(key_idx: tuple[int, ...], floats: bool):
    """A specialized ``row -> key tuple`` closure for one index layout.

    Equivalent to ``tuple(row[i] for i in key_idx)`` but without building
    a generator per row — the single-column and multi-column shapes run
    at C speed (tuple display / itemgetter).  With ``floats`` (a key
    column is float) the key is canonical
    (:func:`~repro.core.aggregates.canonical_key`); without, the closures
    are the plain ones.
    """
    if not key_idx:
        return lambda row: _SCALAR_KEY
    if len(key_idx) == 1:
        k = key_idx[0]
        if floats:
            return lambda row: (canonical(row[k]),)
        return lambda row: (row[k],)
    get = itemgetter(*key_idx)
    if floats:
        return lambda row: canonical_key(get(row))
    return get


def _values_getter(agg_idx: tuple):
    """A specialized ``row -> aggregate inputs`` closure (None ⇒ COUNT(*)'s
    sentinel 1), same shapes as :func:`_key_getter`."""
    if any(i is None for i in agg_idx):
        if all(i is None for i in agg_idx):
            ones = (1,) * len(agg_idx)
            return lambda row: ones
        idx = tuple(agg_idx)
        return lambda row: tuple(1 if i is None else row[i] for i in idx)
    if len(agg_idx) == 1:
        a = agg_idx[0]
        return lambda row: (row[a],)
    return itemgetter(*agg_idx)


@dataclass(frozen=True)
class AggregateQuery:
    """A GROUP BY aggregate query.

    Parameters
    ----------
    group_by:
        Column names to group on.  Empty means scalar aggregation.
    aggregates:
        The aggregate specs in the SELECT list (at least one).
    where:
        Optional predicate ``row_dict -> bool`` applied during the scan.
        It receives a mapping of column name to value.
    having:
        Optional predicate over the *result* row, as a mapping of output
        name (group-by columns and aggregate aliases) to value.
    """

    group_by: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]
    where: object = None
    having: object = None

    def __init__(self, group_by, aggregates, where=None, having=None) -> None:
        object.__setattr__(self, "group_by", tuple(group_by))
        object.__setattr__(self, "aggregates", tuple(aggregates))
        object.__setattr__(self, "where", where)
        object.__setattr__(self, "having", having)
        if not self.aggregates:
            raise ValueError("a query needs at least one aggregate")

    @property
    def is_scalar(self) -> bool:
        return not self.group_by

    def output_names(self) -> list[str]:
        return list(self.group_by) + [
            spec.output_name for spec in self.aggregates
        ]

    def bind(self, schema: Schema) -> "BoundQuery":
        """Resolve column names against a schema for fast row access."""
        return BoundQuery(self, schema)


@dataclass
class BoundQuery:
    """A query with column positions resolved against one schema.

    This is what node programs actually execute: `key_of` extracts the
    grouping key, ``values_of`` the aggregate input values, and
    ``matches`` evaluates the WHERE predicate.  Float key values come out
    of ``key_of`` canonical (:func:`~repro.core.aggregates.canonical`),
    so every executor groups, hashes and routes one NaN group and one
    zero.
    """

    query: AggregateQuery
    schema: Schema
    _key_idx: tuple[int, ...] = field(init=False)
    _agg_idx: tuple[int | None, ...] = field(init=False)
    _names: list[str] = field(init=False)
    _output_names: list[str] = field(init=False)

    def __post_init__(self) -> None:
        self._key_idx = self.schema.indexes_of(self.query.group_by)
        self._agg_idx = tuple(
            self.schema.index_of(spec.column)
            if spec.column is not None
            else None
            for spec in self.query.aggregates
        )
        self._names = self.schema.names()
        self._output_names = self.query.output_names()
        columns = self.schema.columns
        floats = any(columns[i].kind == "float" for i in self._key_idx)
        # Shadow the methods below with shape-specialized closures: every
        # hot loop calling ``bq.key_of(row)`` gets the fast path without
        # changing a call site.
        self.key_of = _key_getter(self._key_idx, floats)
        self.values_of = _values_getter(self._agg_idx)

    @property
    def key_indexes(self) -> tuple[int, ...]:
        """Schema positions of the GROUP BY columns (for block key access)."""
        return self._key_idx

    @property
    def agg_indexes(self) -> tuple:
        """Schema positions of the aggregate inputs; None means COUNT(*)."""
        return self._agg_idx

    def key_of(self, row) -> tuple:
        """The grouping key of a row, float values canonical; ``()`` for
        scalar aggregation."""
        return canonical_key(tuple(row[i] for i in self._key_idx))

    def values_of(self, row) -> tuple:
        """The aggregate input values (COUNT(*) sees a sentinel 1)."""
        return tuple(
            1 if i is None else row[i] for i in self._agg_idx
        )

    def matches(self, row) -> bool:
        if self.query.where is None:
            return True
        return bool(self.query.where(dict(zip(self._names, row))))

    def projected_row(self, row) -> tuple:
        """The network representation of a raw tuple: key + agg values."""
        return self.key_of(row) + self.values_of(row)

    def split_projected(self, projected: tuple) -> tuple[tuple, tuple]:
        """Inverse of :meth:`projected_row`: (key, values)."""
        k = len(self._key_idx)
        return projected[:k], projected[k:]

    @property
    def projected_bytes(self) -> int:
        """Width in bytes of the projected tuple (group key + agg inputs)."""
        names = set(self.query.group_by)
        names.update(
            spec.column
            for spec in self.query.aggregates
            if spec.column is not None
        )
        if not names:
            return 8  # COUNT(*) alone still ships a counter
        return self.schema.projected_bytes(sorted(names))

    @property
    def projectivity(self) -> float:
        """The cost-model parameter p = projected width / tuple width."""
        return self.projected_bytes / self.schema.tuple_bytes

    def result_row(self, key: tuple, group_state) -> tuple:
        return tuple(key) + group_state.results()

    def passes_having(self, result_row: tuple) -> bool:
        """Evaluate the HAVING predicate on a finished result row."""
        if self.query.having is None:
            return True
        return bool(
            self.query.having(dict(zip(self._output_names, result_row)))
        )
