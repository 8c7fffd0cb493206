"""The sequential reference executor — ground truth for every test.

A plain dict-based GROUP BY over all rows, with none of the memory bounds,
spilling, partitioning or adaptivity of the real algorithms.  If a
parallel algorithm's result ever differs from this, the algorithm is
wrong.
"""

from __future__ import annotations

from repro.core.aggregates import GroupState, sort_key
from repro.core.query import AggregateQuery
from repro.storage.relation import DistributedRelation, Relation


def reference_aggregate(data, query: AggregateQuery) -> list[tuple]:
    """Aggregate ``data`` (a Relation or DistributedRelation) sequentially.

    Returns result rows (group key columns + aggregate values), sorted by
    group key (:func:`~repro.core.aggregates.sort_key`) for stable
    comparison.
    """
    if isinstance(data, DistributedRelation):
        relation = data.as_relation()
    elif isinstance(data, Relation):
        relation = data
    else:
        raise TypeError(
            "expected Relation or DistributedRelation, got "
            f"{type(data).__name__}"
        )
    bq = query.bind(relation.schema)
    table: dict[tuple, GroupState] = {}
    for row in relation:
        if not bq.matches(row):
            continue
        key = bq.key_of(row)
        state = table.get(key)
        if state is None:
            state = GroupState(query.aggregates)
            table[key] = state
        state.update(bq.values_of(row))
    rows = (bq.result_row(key, state) for key, state in table.items())
    return sorted(
        (row for row in rows if bq.passes_having(row)), key=sort_key
    )
