"""Execute parsed SQL against a relation or a simulated cluster."""

from __future__ import annotations

from repro.core.runner import AlgorithmOutcome, run_algorithm
from repro.parallel.mp_executor import multiprocessing_aggregate
from repro.sql.parser import parse_query
from repro.storage.relation import DistributedRelation, Relation
from repro.storage.schema import Column, Schema


def run_sql(
    sql: str,
    data,
    algorithm: str = "adaptive_two_phase",
    substrate: str = "sim",
    **run_kwargs,
):
    """Parse and execute ``sql`` over ``data``.

    * ``data`` a :class:`Relation` → one fragment through the
      multiprocessing executor, in this process (``run_kwargs``
      forwarded as below); returns a Relation of the key columns, then
      one ``"float"`` column per aggregate, rows in key order.
    * ``data`` a :class:`DistributedRelation`, ``substrate="sim"`` → the
      named algorithm runs on the simulated cluster (``run_kwargs``
      forwarded to ``run_algorithm``); returns the
      :class:`AlgorithmOutcome`.
    * ``data`` a :class:`DistributedRelation`, ``substrate="mp"`` → the
      real multiprocessing executor runs the query over the persistent
      worker pool (``run_kwargs`` forwarded to
      :func:`~repro.parallel.multiprocessing_aggregate` — notably
      ``processes=``, ``deadline=``, ``memory_budget_bytes=``,
      ``faults=``); returns the sorted result rows.

    The FROM name is informational (there is one input); it is validated
    only for non-emptiness by the parser.
    """
    if substrate not in ("sim", "mp"):
        raise ValueError(f"unknown substrate {substrate!r}; use 'sim' or 'mp'")
    _table, query = parse_query(sql)
    if isinstance(data, DistributedRelation):
        if substrate == "mp":
            return multiprocessing_aggregate(data, query, **run_kwargs)
        outcome: AlgorithmOutcome = run_algorithm(
            algorithm, data, query, **run_kwargs
        )
        return outcome
    if isinstance(data, Relation):
        rows = multiprocessing_aggregate(
            DistributedRelation(data.schema, [data]), query, **run_kwargs
        )
        columns = [data.schema.column(name) for name in query.group_by]
        columns += [
            Column(spec.output_name, "float") for spec in query.aggregates
        ]
        return Relation(Schema(columns), rows)
    raise TypeError(
        "expected Relation or DistributedRelation, got "
        f"{type(data).__name__}"
    )
