"""Aggregate functions with mergeable partial states.

The Adaptive Two Phase algorithm's merge phase receives *two kinds* of input
for the same hash table (Section 3.2): locally pre-aggregated partial states
and raw tuples that were repartitioned after a node switched strategies.
Every state here therefore supports both ``update(value)`` (absorb one raw
value) and ``merge(other)`` (absorb another partial state), and for SQL AVG
the partial carries (sum, count) so that merging is exact.

All merges are commutative and associative, which the property-based tests
verify — that invariant is what makes the per-node, unsynchronized switching
of the adaptive algorithms correct.

The formulas that turn moments into a final value (``finish_avg``,
``finish_variance``, ``finish_stddev``) are module-level functions with
one definition each: the states' ``result()`` call them, and so does the
mp executor's packed merge, which finishes whole merged arrays without
building a state per group — an edit to one cannot make the two disagree.

Floats follow one rule, whatever the order of the input (PostgreSQL's
total order; ``docs/decisions.md``): NaN equals NaN and sorts after
every number, ``-0.0`` equals ``0.0`` and is reported as ``0.0``.
:func:`canonical` is the rule's representative of a value and
:func:`sort_key` its order; :class:`MinState`, :class:`MaxState` and
:class:`CountDistinctState` apply it, and SUM, AVG and VAR keep IEEE
arithmetic, which is order-free for NaN already.
"""

from __future__ import annotations

from dataclasses import dataclass

# The one NaN the rule reports: every NaN key, MIN and MAX is this object,
# so a dict (which matches by identity first) holds one NaN group.
NAN = float("nan")


def canonical(value):
    """``value`` as the float rule reports it: any NaN is :data:`NAN`,
    ``-0.0`` is ``0.0``, and every other value is itself."""
    if value != value:
        return NAN
    if value == 0 and isinstance(value, float):
        return 0.0
    return value


def canonical_key(key):
    """A group key (a tuple, or a bare value) with every value
    :func:`canonical`."""
    if isinstance(key, tuple):
        return tuple(map(canonical, key))
    return canonical(key)


_NAN_LAST = (1, 0)


def _ordered(value):
    return _NAN_LAST if value != value else (0, value)


def sort_key(row):
    """The rule's order for result rows and group keys: column by
    column, NaN equal to NaN and after every number — the order
    ``np.unique`` gives.  A bare (non-tuple) key is one column."""
    if isinstance(row, tuple):
        return tuple(map(_ordered, row))
    return _ordered(row)


def finish_avg(total, count):
    """SQL AVG from its (sum, count) moments; None over no input."""
    if count == 0:
        return None
    return total / count


def finish_variance(count, total, total_sq):
    """SQL VAR_SAMP from its three moments; None below two inputs."""
    if count < 2:
        return None
    num = total_sq - total * total / count
    return max(0.0, num / (count - 1))


def finish_stddev(count, total, total_sq):
    """SQL STDDEV_SAMP: the square root of the sample variance."""
    variance = finish_variance(count, total, total_sq)
    if variance is None:
        return None
    return variance**0.5


class AggregateState:
    """Base class for one aggregate function's running state."""

    __slots__ = ()

    def update(self, value) -> None:
        """Absorb one raw column value."""
        raise NotImplementedError

    def merge(self, other: "AggregateState") -> None:
        """Absorb another partial state of the same type."""
        raise NotImplementedError

    def result(self):
        """The final SQL value of this aggregate."""
        raise NotImplementedError

    def copy(self) -> "AggregateState":
        raise NotImplementedError


class CountState(AggregateState):
    """SQL COUNT(*) / COUNT(col): number of (non-null) inputs."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def update(self, value) -> None:
        if value is not None:
            self.count += 1

    def merge(self, other: "CountState") -> None:
        self.count += other.count

    def result(self) -> int:
        return self.count

    def copy(self) -> "CountState":
        fresh = CountState()
        fresh.count = self.count
        return fresh


class SumState(AggregateState):
    """SQL SUM: None until the first non-null input, then the running sum."""

    __slots__ = ("total", "seen")

    def __init__(self) -> None:
        self.total = 0
        self.seen = False

    def update(self, value) -> None:
        if value is None:
            return
        self.total += value
        self.seen = True

    def merge(self, other: "SumState") -> None:
        if other.seen:
            self.total += other.total
            self.seen = True

    def result(self):
        return self.total if self.seen else None

    def copy(self) -> "SumState":
        fresh = SumState()
        fresh.total = self.total
        fresh.seen = self.seen
        return fresh


class MinState(AggregateState):
    """SQL MIN: NaN only when every input is NaN."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = None

    def update(self, value) -> None:
        if value is None:
            return
        current = self.value
        if current is None or value < current or current != current:
            self.value = canonical(value)

    def merge(self, other: "MinState") -> None:
        self.update(other.value)

    def result(self):
        return self.value

    def copy(self) -> "MinState":
        fresh = MinState()
        fresh.value = self.value
        return fresh


class MaxState(AggregateState):
    """SQL MAX: NaN when any input is NaN."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = None

    def update(self, value) -> None:
        if value is None:
            return
        current = self.value
        if current is None or value > current or value != value:
            self.value = canonical(value)

    def merge(self, other: "MaxState") -> None:
        self.update(other.value)

    def result(self):
        return self.value

    def copy(self) -> "MaxState":
        fresh = MaxState()
        fresh.value = self.value
        return fresh


class AvgState(AggregateState):
    """SQL AVG carried as (sum, count) so partials merge exactly.

    This is the paper's Section 3.2 example: "for SQL average, the sum and
    the count will have to be added to the currently accumulated value" when
    merging a partial, while a raw tuple adds to the sum and increments the
    count.
    """

    __slots__ = ("total", "count")

    def __init__(self) -> None:
        self.total = 0
        self.count = 0

    def update(self, value) -> None:
        if value is None:
            return
        self.total += value
        self.count += 1

    def merge(self, other: "AvgState") -> None:
        self.total += other.total
        self.count += other.count

    def result(self):
        return finish_avg(self.total, self.count)

    def copy(self) -> "AvgState":
        fresh = AvgState()
        fresh.total = self.total
        fresh.count = self.count
        return fresh


class VarianceState(AggregateState):
    """SQL VAR_SAMP / STDDEV base: (count, sum, sum of squares).

    Merging partials is exact because the three moments add; the final
    value uses the numerically standard n·Σx² − (Σx)² form, adequate for
    the value ranges the workloads generate.
    """

    __slots__ = ("count", "total", "total_sq")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0

    def update(self, value) -> None:
        if value is None:
            return
        self.count += 1
        self.total += value
        self.total_sq += value * value

    def merge(self, other: "VarianceState") -> None:
        self.count += other.count
        self.total += other.total
        self.total_sq += other.total_sq

    def result(self):
        return finish_variance(self.count, self.total, self.total_sq)

    def copy(self) -> "VarianceState":
        fresh = VarianceState()
        fresh.count = self.count
        fresh.total = self.total
        fresh.total_sq = self.total_sq
        return fresh


class StddevState(VarianceState):
    """SQL STDDEV_SAMP: the square root of the sample variance."""

    __slots__ = ()

    def result(self):
        return finish_stddev(self.count, self.total, self.total_sq)

    def copy(self) -> "StddevState":
        fresh = StddevState()
        fresh.count = self.count
        fresh.total = self.total
        fresh.total_sq = self.total_sq
        return fresh


class CountDistinctState(AggregateState):
    """SQL COUNT(DISTINCT col), kept as an exact value set.

    Exact distinct counting is what duplicate elimination needs; the set is
    bounded by the group's distinct values, which in the paper's duplicate
    elimination scenario is small per group.  NaN counts once and stays
    out of the set, as ``has_nan``: a set matches NaNs by identity, and a
    state that crossed a process boundary holds fresh NaN objects.  The
    set already counts ``-0.0`` and ``0.0`` once.
    """

    __slots__ = ("values", "has_nan")

    def __init__(self) -> None:
        self.values = set()
        self.has_nan = False

    def update(self, value) -> None:
        if value != value:
            self.has_nan = True
        elif value is not None:
            self.values.add(value)

    def merge(self, other: "CountDistinctState") -> None:
        self.values |= other.values
        self.has_nan = self.has_nan or other.has_nan

    def result(self) -> int:
        return len(self.values) + self.has_nan

    def copy(self) -> "CountDistinctState":
        fresh = CountDistinctState()
        fresh.values = set(self.values)
        fresh.has_nan = self.has_nan
        return fresh


_STATE_TYPES = {
    "count": CountState,
    "sum": SumState,
    "min": MinState,
    "max": MaxState,
    "avg": AvgState,
    "count_distinct": CountDistinctState,
    "var": VarianceState,
    "stddev": StddevState,
}

FUNCTIONS = frozenset(_STATE_TYPES)


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate in the SELECT list, e.g. ``AggregateSpec("avg", "val")``.

    ``column`` may be None only for ``count`` (COUNT(*)).
    """

    func: str
    column: str | None = None
    alias: str | None = None

    def __post_init__(self) -> None:
        if self.func not in _STATE_TYPES:
            raise ValueError(
                f"unknown aggregate {self.func!r}; expected one of "
                f"{sorted(_STATE_TYPES)}"
            )
        if self.column is None and self.func != "count":
            raise ValueError(f"{self.func} requires a column")

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        col = self.column if self.column is not None else "*"
        return f"{self.func}({col})"

    def new_state(self) -> AggregateState:
        return _STATE_TYPES[self.func]()


class GroupState:
    """All aggregate states for one group, updated together.

    This is the hash-table entry payload.  ``update`` takes the already
    projected value tuple (one value per spec, extracted by the query), and
    ``merge`` absorbs another GroupState — both paths land in the same entry
    exactly as the mixed hash table of Section 3.2 requires.
    """

    __slots__ = ("states",)

    def __init__(self, specs) -> None:
        self.states = [spec.new_state() for spec in specs]

    def update(self, values) -> None:
        for state, value in zip(self.states, values):
            state.update(value)

    def merge(self, other: "GroupState") -> None:
        for mine, theirs in zip(self.states, other.states):
            mine.merge(theirs)

    def results(self) -> tuple:
        return tuple(state.result() for state in self.states)

    def copy(self) -> "GroupState":
        fresh = GroupState.__new__(GroupState)
        fresh.states = [state.copy() for state in self.states]
        return fresh


def make_state_factory(specs):
    """A zero-argument callable producing fresh GroupStates for ``specs``."""
    spec_list = list(specs)
    if not spec_list:
        raise ValueError("at least one aggregate spec is required")

    def factory() -> GroupState:
        return GroupState(spec_list)

    return factory
