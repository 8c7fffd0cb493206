"""A SQL front-end for the paper's canonical query shape.

Supports exactly the grammar Section 2 studies::

    SELECT <group-by columns and aggregates>
    FROM <relation>
    [WHERE <predicate>]
    [GROUP BY <columns>]
    [HAVING <predicate>]

``parse_query`` turns the text into an :class:`AggregateQuery` (plus the
FROM name); predicates compile to plain Python closures over the row /
result-row dictionaries, so the output plugs straight into
``run_algorithm`` and the executors.
"""

from repro.sql.parser import ParseError, parse_query
from repro.sql.runner import run_sql

__all__ = ["ParseError", "parse_query", "run_sql"]
