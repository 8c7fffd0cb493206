"""Shared fixtures and comparison helpers for the test suite."""

from __future__ import annotations

import glob
import os
import warnings

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.errors import NonInteractiveExampleWarning

from repro.core.aggregates import AggregateSpec, sort_key
from repro.core.query import AggregateQuery
from repro.parallel.mp_executor.wire import SHM_PREFIX, _table
from repro.workloads.generator import generate_uniform


# CI's chaos-matrix and low-memory jobs rerun the differential harness
# (tests/test_mp_kernel_differential.py), the packed merge's per-tag
# property test (tests/test_mp_packed.py), the grouping seam's two
# properties (tests/test_mp_grouping.py) and the resident-segment
# state machine (tests/test_mp_resident.py, a fifth of it: an example
# there is a dozen runs) under this example budget:
# ``--hypothesis-profile=stress``.  Tests that fix their own
# ``max_examples`` keep it.
settings.register_profile("stress", max_examples=1500, deadline=None)


@pytest.hookimpl(trylast=True)  # after hypothesis's own plugin set-up
def pytest_sessionstart(session):
    """Build hypothesis's Unicode tables before any test's health check
    runs.  Without a ``.hypothesis/`` cache (a fresh checkout) the first
    ``st.characters(codec="utf-8")`` draw takes seconds, and the test
    that makes it fails as ``too_slow``; after one draw here it takes
    milliseconds."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonInteractiveExampleWarning)
        st.characters(codec="utf-8").example()


def shm_segments() -> list[str]:
    """Names of every ``repro_mp_*`` segment on the shm mount."""
    return sorted(
        os.path.basename(path)
        for path in glob.glob("/dev/shm/" + SHM_PREFIX + "*")
    )


def table_segments(*kinds: str) -> list[str]:
    """The executor's segments, sorted, once the one invariant holds:
    the mount is exactly the segment table's names.  Every kind's, or
    only those of ``kinds`` (``"run"``, ``"resident"``, ``"arena"``)."""
    names = _table.names()
    assert sorted(names) == shm_segments()
    if not kinds:
        return sorted(names)
    return sorted(set().union(*(_table.names(kind) for kind in kinds)))


def listed(kind: str) -> list:
    """The table's listed entries of ``kind``: resident inputs, keyed
    ``(id(block), idx)``, or return arenas, keyed by worker pid."""
    with _table._lock:
        return [
            entry for entry in _table._live.values()
            if entry.listed and entry.kind == kind
        ]


def mapped_segments(pid: int) -> list[str]:
    """The ``/proc/<pid>/maps`` lines of process ``pid``'s mappings of
    ``repro_mp_*`` segments (an unlinked one ends in ``(deleted)``)."""
    with open(f"/proc/{pid}/maps") as maps:
        return [line for line in maps if SHM_PREFIX in line]


def not_its_arena(pid: int) -> list[str]:
    """What pool worker ``pid`` maps that is not the one return arena
    the table lists for it: empty for a worker between jobs."""
    arena = next((e for e in listed("arena") if e.key == pid), None)
    return [
        line for line in mapped_segments(pid)
        if arena is None or not line.rstrip().endswith("/" + arena.name)
    ]


def stray_segments() -> list[str]:
    """Segments on the mount that the executor's segment table does not
    answer for.  Must be empty at every instant; after
    ``shutdown_worker_pool()`` with no run in flight :func:`shm_segments`
    itself must be."""
    names = _table.names()
    return [name for name in shm_segments() if name not in names]


def table_at_rest() -> None:
    """What must hold whenever no run is in flight: nothing on the mount
    the table does not answer for, no run segment left, every entry
    listed and unpinned, and the resident bytes add up.  A run that
    keeps a pin or an input past its end, on any exit path, fails it."""
    assert stray_segments() == []
    with _table._lock:
        entries = list(_table._live.values())
    assert [
        (entry.kind, entry.name)
        for entry in entries
        if entry.kind == "run" or not entry.listed or entry.pins
    ] == []
    assert _table.resident_bytes == sum(
        entry.nbytes for entry in entries if entry.kind == "resident"
    )


def _close(a, e, tol: float) -> bool:
    """One value against its expectation: floats within ``tol``
    relative, a NaN only against a NaN (``abs(nan - e) > tol`` is False,
    so without that rule a NaN would match anything)."""
    if isinstance(a, float) or isinstance(e, float):
        if a != a or e != e:
            return a != a and e != e
        return abs(a - e) <= tol * max(1.0, abs(e))
    return a == e


def rows_close(actual, expected, tol: float = 1e-9) -> bool:
    """Row-set equality with relative float tolerance.

    Parallel algorithms sum floats in a different order than the
    sequential reference, so exact equality is too strict for SUM/AVG.
    """
    if len(actual) != len(expected):
        return False
    return all(
        len(row_a) == len(row_e)
        and all(_close(a, e, tol) for a, e in zip(row_a, row_e))
        for row_a, row_e in zip(actual, expected)
    )


def assert_rows_close(actual, expected, tol: float = 1e-9) -> None:
    assert len(actual) == len(expected), (
        f"row count {len(actual)} != {len(expected)}"
    )
    for i, (row_a, row_e) in enumerate(zip(actual, expected)):
        for a, e in zip(row_a, row_e):
            assert _close(a, e, tol), f"row {i}: {row_a} != {row_e}"


def row_bits(rows):
    """Rows with floats spelled exactly: 0.0 and -0.0 differ, and so do
    1 and 1.0."""
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in row)
        for row in rows
    ]


def assert_partials_equal(kernel, reference):
    """Bit-level comparison of (key, GroupState) partial lists."""
    def canon(partials):
        out = {}
        for key, group in partials:
            fields = []
            for state in group.states:
                slots = {
                    name: getattr(state, name)
                    for name in dir(state)
                    if name in (
                        "count", "total", "total_sq", "value", "seen",
                        "values", "has_nan",
                    )
                }
                fields.append(sorted(slots.items(), key=lambda kv: kv[0]))
            out[key] = fields
        return out

    got, want = canon(kernel), canon(reference)
    assert sorted(got, key=sort_key) == sorted(want, key=sort_key)
    for key in want:
        for f_got, f_want in zip(got[key], want[key]):
            for (name_g, v_got), (name_w, v_want) in zip(f_got, f_want):
                assert name_g == name_w
                if isinstance(v_want, float):
                    assert isinstance(v_got, float)
                    assert v_got.hex() == v_want.hex(), (key, name_w)
                else:
                    assert v_got == v_want, (key, name_w)
                    assert type(v_got) is type(v_want), (key, name_w)


def _counts_under(registry, prefix: str) -> dict:
    return {
        name[len(prefix):]: metric["value"]
        for name, metric in registry.snapshot().items()
        if name.startswith(prefix)
    }


def kernel_declines(registry) -> dict:
    """``reason -> count`` of a run's ``mp.kernel.declined.*`` counters."""
    return _counts_under(registry, "mp.kernel.declined.")


def merge_fallbacks(registry) -> dict:
    """``reason -> count`` of a run's ``mp.merge.fallback.*`` counters."""
    return _counts_under(registry, "mp.merge.fallback.")


def grouping_paths(registry) -> dict:
    """``counter name -> count`` of a run's ``mp.kernel.grouping.*`` and
    ``mp.merge.grouping.*`` counters."""
    return {
        name: metric["value"]
        for name, metric in registry.snapshot().items()
        if ".grouping." in name
    }


def resident_counts(registry) -> dict:
    """``outcome -> count`` of a run's ``mp.shm.resident.*`` counters
    (``hit`` / ``miss`` / ``evicted`` / ``vanished``)."""
    return _counts_under(registry, "mp.shm.resident.")


def block_ids(*dists) -> set[int]:
    """``id`` of every fragment's block: the resident table's keys'
    first halves for these (block-born) relations."""
    return {
        id(frag.relation.block) for dist in dists for frag in dist.fragments
    }


@pytest.fixture
def sum_query() -> AggregateQuery:
    return AggregateQuery(
        group_by=["gkey"], aggregates=[AggregateSpec("sum", "val")]
    )


@pytest.fixture
def full_query() -> AggregateQuery:
    """One of every aggregate function over the standard schema."""
    return AggregateQuery(
        group_by=["gkey"],
        aggregates=[
            AggregateSpec("sum", "val"),
            AggregateSpec("avg", "val"),
            AggregateSpec("min", "val"),
            AggregateSpec("max", "val"),
            AggregateSpec("count", None),
            AggregateSpec("count_distinct", "val"),
        ],
    )


@pytest.fixture
def small_dist():
    """4 nodes × 500 tuples, 16 groups: quick but non-trivial."""
    return generate_uniform(
        num_tuples=2000, num_groups=16, num_nodes=4, seed=11
    )
