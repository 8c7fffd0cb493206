"""Plan and result caches — the ladder's rung-3 free capacity.

Both are small thread-safe LRUs.  The plan cache memoizes
``parse_query`` (SQL text → (table, bound-form query)); the result
cache memoizes finished query results keyed by *data version* — every
table registered with the service carries a monotonically-bumped
version, so a cache hit is provably the same answer a fresh run would
produce, never a stale one.  Under overload the ladder serves hits for
free (rung 3) before shedding (rung 4).
"""

from __future__ import annotations

import threading
from collections import OrderedDict


class _LRU:
    """Minimal thread-safe LRU with hit/miss counters."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with self._lock:
            try:
                value = self._data.pop(key)
            except KeyError:
                self.misses += 1
                return None
            self._data[key] = value  # move to MRU end
            self.hits += 1
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self._data.pop(key, None)
            self._data[key] = value
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


class PlanCache(_LRU):
    """SQL text → parsed ``(table, query)`` (parsing is deterministic)."""

    def parse(self, sql: str):
        plan = self.get(sql)
        if plan is None:
            from repro.sql.parser import parse_query

            plan = parse_query(sql)
            self.put(sql, plan)
        return plan


class ResultCache(_LRU):
    """(table, data_version, sql) → result rows.

    The data version in the key is what makes hits safe: bumping a
    table's version on mutation implicitly invalidates every cached
    result for the old snapshot without any scanning.
    """

    @staticmethod
    def key(table: str, version: int, sql: str) -> tuple:
        return (table, version, sql)
