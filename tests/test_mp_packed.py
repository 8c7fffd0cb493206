"""Packed columnar partials: the one form a fragment leaves the kernel in.

PR-10 completed the packed wire format: string MIN/MAX ships per-group
winner *dictionary codes* plus the fragment dictionary (merged through a
union-dictionary LUT) and COUNT(DISTINCT) ships sorted-unique
``(group, value)`` pair arrays (folded with one structured unique) — no
``_unpack_packed`` fallback remains on those shapes.  These tests pin
that path three ways:

* **Golden digests** — the additive ``packed_merge`` section of
  ``tests/golden/block_parity.json`` (written once by
  ``tests/golden/make_packed_merge.py``, never regenerated) pins the
  exact result rows every strategy must reproduce.

* **Hypothesis round-trips** — arbitrary strings (embedded NULs,
  non-ASCII, empty), empty fragments, groups missing from some
  fragments, and the single-fragment degenerate case: the packed global
  merge must equal the per-row reference bit for bit.

* **The finish, per tag** — ``_merge_packed`` goes from merged arrays
  to result rows with no per-group object in between; the rows must
  equal, floats by ``hex()``, what ``_unpack_packed`` + the sequential
  ``GroupState.merge`` loop + ``result_row`` give for the same payloads,
  every cell a plain Python value, and an all-packed run constructs no
  ``GroupState`` or aggregate state in the parent — under every
  two-phase strategy name, governed or not.  Leaving the vectorized
  merge is counted as ``mp.merge.fallback.<reason>``.

* **One pass to the rows** — the finish's rows leave in key order,
  which every merge path agrees on row for row, and nothing sorts them
  again; the cyclic collector is paused from merge start to the return
  and left as it was found.
"""

import json
import pathlib

import pytest

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the image
    HAVE_HYPOTHESIS = False

from repro.core.aggregates import AggregateSpec, GroupState
from repro.core.query import AggregateQuery
from repro.parallel.mp_executor import (
    multiprocessing_aggregate,
    shutdown_worker_pool,
)
from repro.obs.metrics import MetricsRegistry
from repro.parallel import reference_aggregate
from repro.parallel.mp_executor.kernel import (
    _columnar_local_phase,
    _local_phase,
)
from repro.parallel.mp_executor.merge import _merge_packed, _unpack_packed
from repro.storage.columnblock import ColumnBlock
from repro.storage.relation import BlockRelation, DistributedRelation
from repro.storage.schema import Column, Schema
from repro.workloads.generator import generate_uniform

from tests.conftest import (
    kernel_declines,
    merge_fallbacks,
    row_bits as _bits,
)

_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "block_parity.json")
    .read_text()
)


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_worker_pool()


def _per_row(dist, query):
    """The per-row oracle: a substituted ``phase_fn`` is handed decoded
    rows, so ``_local_phase`` runs its row loop, never the kernel."""
    return multiprocessing_aggregate(dist, query, 1, phase_fn=_local_phase)


def _block_dist(schema, parts):
    """Fragments born columnar, so the in-process global path packs."""
    return DistributedRelation(
        schema,
        [
            BlockRelation(schema, ColumnBlock.from_rows(schema, part))
            for part in parts
        ],
    )


# -- golden digests (additive, never regenerated) -----------------------------


def _load_packed_workload(name):
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "make_packed_merge",
        pathlib.Path(__file__).parent / "golden" / "make_packed_merge.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS[name]()


def _digest(rows):
    from tests.test_block_parity import _GEN

    return _GEN.rows_digest(rows)


class TestPackedMergeGolden:
    @pytest.mark.parametrize("strategy", ["pool", "global", "rep"])
    @pytest.mark.parametrize("workload", sorted(_GOLDEN["packed_merge"]))
    def test_strategy_matches_golden(self, workload, strategy):
        dist, query = _load_packed_workload(workload)
        want = _GOLDEN["packed_merge"][workload]
        rows = multiprocessing_aggregate(dist, query, 4, strategy=strategy)
        assert len(rows) == want["num_rows"]
        assert _digest(rows) == want["rows_sha256"]

    @pytest.mark.parametrize("workload", sorted(_GOLDEN["packed_merge"]))
    def test_in_process_matches_golden(self, workload):
        dist, query = _load_packed_workload(workload)
        want = _GOLDEN["packed_merge"][workload]
        for strategy in ("pool", "global", "rep", "auto"):
            rows = multiprocessing_aggregate(
                dist, query, 1, strategy=strategy
            )
            assert _digest(rows) == want["rows_sha256"]


# -- hypothesis round-trips for the packed payloads ---------------------------


_QUERY = AggregateQuery(
    ("k",),
    (
        AggregateSpec("min", "s"),
        AggregateSpec("max", "s"),
        AggregateSpec("count_distinct", "s"),
        AggregateSpec("count_distinct", "n"),
        AggregateSpec("count", None),
    ),
)
_SCHEMA = Schema(
    [Column("k", "str", 8), Column("s", "str", 8), Column("n", "int")]
)

# Small pools keyed to the failure modes: embedded/trailing NULs,
# non-ASCII (including astral plane), the empty string, and near-equal
# strings whose dictionary ranks must still order like Python's ``<``.
_KEYS = ["", "a", "a\x00", "\x00a", "é", "😀", "zz", "z"]
_VALS = ["", "b", "b\x00", "\x00", "ß", "😀x", "b\x00b", "aa", "ab"]

if HAVE_HYPOTHESIS:

    _row = st.tuples(
        st.sampled_from(_KEYS),
        st.sampled_from(_VALS),
        st.integers(min_value=-5, max_value=5),
    )

    class TestPackedRoundTripProperties:
        @settings(max_examples=40, deadline=None)
        @given(
            parts=st.lists(
                st.lists(_row, max_size=25), min_size=1, max_size=4
            )
        )
        def test_packed_global_equals_per_row(self, parts):
            """Arbitrary fragments — including empty ones and groups
            missing from some fragments — merge identically packed and
            per-row."""
            if not any(parts):
                return
            dist = _block_dist(_SCHEMA, parts)
            reference = _per_row(dist, _QUERY)
            packed = multiprocessing_aggregate(
                dist, _QUERY, 1, strategy="global"
            )
            assert packed == reference

        @settings(max_examples=25, deadline=None)
        @given(rows=st.lists(_row, min_size=1, max_size=40))
        def test_single_fragment_degenerate(self, rows):
            """One fragment: the merge folds exactly one packed payload."""
            dist = _block_dist(_SCHEMA, [rows])
            reference = _per_row(dist, _QUERY)
            packed = multiprocessing_aggregate(
                dist, _QUERY, 1, strategy="global"
            )
            assert packed == reference


class TestPackedEdgeShapes:
    def test_empty_fragments_between_populated_ones(self):
        parts = [
            [("a", "x", 1), ("b", "y\x00", 2)],
            [],
            [("a", "\x00", 3)],
            [],
        ]
        dist = _block_dist(_SCHEMA, parts)
        reference = _per_row(dist, _QUERY)
        assert (
            multiprocessing_aggregate(dist, _QUERY, 1, strategy="global")
            == reference
        )

    def test_disjoint_dictionaries_union_correctly(self):
        # No shared strings between fragments: every merged value goes
        # through the union-dictionary LUT remap.
        parts = [
            [("k", "aa", 1), ("k", "ab", 2)],
            [("k", "b\x00", 3), ("k", "é", 4)],
        ]
        dist = _block_dist(_SCHEMA, parts)
        rows = multiprocessing_aggregate(dist, _QUERY, 1, strategy="global")
        assert rows == _per_row(dist, _QUERY)
        (row,) = rows
        assert row[1] == "aa" and row[2] == "é" and row[3] == 4


# -- the packed finish against the sequential merge, per tag -----------------

_TAG_SCHEMA = Schema([
    Column("k", "int"), Column("t", "str", 8), Column("e", "float"),
    Column("i", "int"), Column("f", "float"), Column("s", "str", 8),
])
# One query holds every packed tag, so every example folds and finishes
# all of them (pinned by ``test_the_query_covers_every_packed_tag``).
_TAG_SPECS = (
    [AggregateSpec("count", None)]
    + [AggregateSpec(fn, col)
       for fn in ("sum", "avg", "min", "max", "var", "stddev",
                  "count_distinct")
       for col in ("i", "f")]
    + [AggregateSpec(fn, "s") for fn in ("min", "max", "count_distinct")]
)
_PACKED_TAGS = {
    "count", "sum_int", "sum_float", "avg_int", "avg_float", "var",
    "min_int", "max_int", "min_float", "max_float", "min_str_codes",
    "max_str_codes", "distinct_num", "distinct_str",
}
_TAG_GROUPINGS = [(), ("k",), ("t",), ("e",), ("k", "t"), ("t", "e", "k")]
# The generated tables' ``val`` column under every numeric aggregate.
_TAG_VAL_SPECS = [AggregateSpec("count", None)] + [
    AggregateSpec(fn, "val")
    for fn in ("sum", "avg", "min", "max", "var", "stddev", "count_distinct")
]


def _pin_row(k, i=0, f=0.0, s=""):
    """A ``_TAG_SCHEMA`` row with the columns a pin does not read fixed."""
    return (k, "", 0.0, i, f, s)


def _payloads(parts, query):
    """Each fragment's packed payload, straight from the kernel."""
    payloads = [
        _columnar_local_phase(ColumnBlock.from_rows(_TAG_SCHEMA, part), query)
        for part in parts
    ]
    assert None not in payloads, "the kernel declined a fragment"
    return payloads


def _sequential_rows(payloads, query):
    """The oracle: unpack to (key, GroupState) partials, merge them per
    key in fragment order, finish through ``result_row``."""
    bq = query.bind(_TAG_SCHEMA)
    merged = {}
    for payload in payloads:
        for key, state in _unpack_packed(payload, query):
            mine = merged.get(key)
            if mine is None:
                mine = merged[key] = GroupState(query.aggregates)
            mine.merge(state)
    return sorted(bq.result_row(key, state) for key, state in merged.items())


def _assert_finish_equals_sequential(parts, query):
    payloads = _payloads(parts, query)
    rows, reason = _merge_packed(payloads, query)
    assert reason is None
    for row in rows:
        for cell in row:
            # np.int64 would pass ``==`` and fail ``json.dumps``.
            assert type(cell) in (int, float, str, type(None)), row
    # In order: the grouping numbers groups in key order, so the rows
    # leave the merge sorted and nothing sorts them again.
    assert _bits(rows) == _bits(_sequential_rows(payloads, query))
    return rows


def test_the_query_covers_every_packed_tag():
    query = AggregateQuery(("k",), _TAG_SPECS)
    (payload,) = _payloads([[(1, "a", 0.5, 2, 1.5, "x")]], query)
    assert {state[0] for state in payload[3]} == _PACKED_TAGS


if HAVE_HYPOTHESIS:

    # Any finite float: both merges add in fragment order, so even
    # order-sensitive sums must agree to the bit.  ``+ 0.0`` turns -0.0
    # into 0.0, which the kernel would decline under MIN/MAX and as a
    # key; ints stay where int VAR squares exactly and sums fit int64.
    _finite = st.floats(-1e6, 1e6, allow_nan=False).map(lambda v: v + 0.0)
    _tag_row = st.tuples(
        st.integers(0, 4),
        st.sampled_from(_KEYS[:4]),
        st.integers(-4, 4).map(lambda n: n / 4 + 0.0),
        st.integers(-(2**50), 2**50) | st.integers(-3, 3),
        _finite | st.sampled_from([0.0, 1.0, 0.1]),
        st.sampled_from(_VALS),
    )

    class TestPackedFinishProperties:
        # No example budget of its own: tier-1 runs hypothesis's default,
        # CI reruns it under ``--hypothesis-profile=stress``.
        @settings(deadline=None)
        @given(
            parts=st.lists(
                st.lists(_tag_row, max_size=10), min_size=3, max_size=5
            ),
            group_by=st.sampled_from(_TAG_GROUPINGS),
        )
        @example(parts=[[], [], []], group_by=("k",))  # zero groups
        @example(parts=[[], [], []], group_by=())
        @example(  # an empty fragment between populated ones; scalar
            parts=[[(0, "", 0.0, 1, 0.1, "b")], [],
                   [(0, "", 0.0, 2, 0.2, "")]],
            group_by=(),
        )
        @example(  # disjoint per-fragment key sets
            parts=[[(0, "a", 0.5, 1, 1.0, "b")], [(1, "a", 0.5, 1, 1.0, "b")],
                   [(2, "a", 0.5, 1, 1.0, "b")]],
            group_by=("k",),
        )
        def test_finish_equals_unpack_and_sequential_merge(
            self, parts, group_by
        ):
            """>= 3 fragments, groups missing from some, empty fragments,
            scalar and zero groups: every tag's finished column equals
            the per-state ``result()`` of the sequential merge."""
            _assert_finish_equals_sequential(
                parts, AggregateQuery(group_by, _TAG_SPECS)
            )


class TestPackedFinishPins:
    def test_avg_of_int_sums_beyond_2_53_divides_like_python(self):
        import numpy as np

        big = 2**53 + 1
        query = AggregateQuery(("k",), (AggregateSpec("avg", "i"),))
        parts = [[_pin_row(0, i=big)]] * 3
        assert _assert_finish_equals_sequential(parts, query) == [
            (0, float(2**53))  # the exact mean, correctly rounded
        ]
        # What dividing the merged arrays in numpy would have returned.
        assert float(np.int64(3 * big) / np.int64(3)) == float(2**53 + 2)

    def test_stddev_of_one_row_is_none_and_of_equal_values_is_zero(self):
        query = AggregateQuery(
            ("k",), (AggregateSpec("var", "f"), AggregateSpec("stddev", "f"))
        )
        parts = [
            [_pin_row(1, f=7.5), _pin_row(2, f=0.1), _pin_row(3, f=0.1)],
            [_pin_row(2, f=0.1)],
            [_pin_row(2, f=0.1), _pin_row(3, f=0.1)],
        ]
        # Three 0.1s leave a numerator of -3.5e-18: only ``max(0.0, ...)``
        # keeps VAR at zero and STDDEV real.
        total = 0.1 + 0.1 + 0.1
        assert 3 * (0.1 * 0.1) - total * total / 3 < 0
        assert _bits(_assert_finish_equals_sequential(parts, query)) == _bits(
            [(1, None, None), (2, 0.0, 0.0), (3, 0.0, 0.0)]
        )

    def test_count_distinct_holds_signed_zeros_as_one_value(self):
        query = AggregateQuery(("k",), (AggregateSpec("count_distinct", "f"),))
        parts = [
            [_pin_row(0, f=0.0), _pin_row(0, f=-0.0), _pin_row(1, f=-0.0)],
            [_pin_row(0, f=-0.0), _pin_row(1, f=0.0), _pin_row(1, f=2.0)],
            [_pin_row(0, f=0.0)],
        ]
        assert _assert_finish_equals_sequential(parts, query) == [
            (0, 1), (1, 2)
        ]

    def test_str_extremes_over_disjoint_dictionaries(self):
        query = AggregateQuery(
            ("k",), (AggregateSpec("min", "s"), AggregateSpec("max", "s"))
        )
        parts = [
            [_pin_row(0, s="b\x00"), _pin_row(0, s="ab"), _pin_row(1, s="é")],
            [_pin_row(0, s="aa"), _pin_row(1, s="😀x")],
            [_pin_row(0, s="ß")],
        ]
        assert _assert_finish_equals_sequential(parts, query) == [
            (0, "aa", "ß"), (1, "é", "😀x")
        ]

    def test_having_that_rejects_every_row(self):
        """The packed finish returns 500 rows and HAVING keeps none."""
        dist = generate_uniform(
            num_tuples=2_000, num_groups=500, num_nodes=4, seed=2
        )
        query = AggregateQuery(
            ("gkey",), (AggregateSpec("count", None),),
            having=lambda row: row["count(*)"] < 0,
        )
        registry = MetricsRegistry()
        assert multiprocessing_aggregate(
            dist, query, 1, metrics=registry
        ) == [] == _per_row(dist, query)
        assert merge_fallbacks(registry) == {}

    def test_an_all_packed_run_builds_no_state_objects_in_the_parent(
        self, monkeypatch
    ):
        """``processes=1`` runs the kernel in this process too, so its
        exit is under the same count — whichever name the two-phase
        strategy goes by, and on the governed first attempt."""
        import sys

        from repro.service.config import ServiceConfig

        built = {"GroupState": 0, "new_state": 0}
        new_state = AggregateSpec.new_state

        # Assigning ``GroupState.__new__`` and removing it again leaves
        # CPython refusing ``GroupState(specs)`` for the rest of the
        # process, so the executor's modules get a counting subclass
        # under the name instead; ``new_state`` is wrapped on the class,
        # which also sees every ``GroupState.__init__`` anywhere.
        class Counted(GroupState):
            __slots__ = ()

            def __new__(cls, *args):
                built["GroupState"] += 1
                return super().__new__(cls)

        def counting_new_state(spec):
            built["new_state"] += 1
            return new_state(spec)

        dist = generate_uniform(
            num_tuples=20_000, num_groups=5_000, num_nodes=4, seed=4
        )
        query = AggregateQuery(("gkey",), _TAG_VAL_SPECS)
        want = _per_row(dist, query)
        patched = [
            module for name, module in sorted(sys.modules.items())
            if name.startswith("repro.parallel.mp_executor.")
            and getattr(module, "GroupState", None) is GroupState
        ]
        assert len(patched) >= 2  # kernel and merge build every state
        for module in patched:
            monkeypatch.setattr(module, "GroupState", Counted)
        monkeypatch.setattr(AggregateSpec, "new_state", counting_new_state)
        for strategy, budget in [
            ("pool", None), ("global", None), ("auto", None),
            ("pool", ServiceConfig().slice_bytes),
        ]:
            rows = multiprocessing_aggregate(
                dist, query, 1, strategy=strategy, memory_budget_bytes=budget
            )
            assert built == {"GroupState": 0, "new_state": 0}
            assert len(rows) == 5_000 and _bits(rows) == _bits(want)
        # The counters do count: ``rep`` round 2 unpacks each chunk to
        # per-group states and merges them per key.
        multiprocessing_aggregate(dist, query, 1, strategy="rep")
        assert built["GroupState"] > 5_000 < built["new_state"]


class TestMergeFallbackCounters:
    """Leaving the vectorized merge for ``_unpack_packed`` + the per-key
    loop is counted by reason, and still exact."""

    def test_an_overflowing_fragment_records_mixed_partials_once(self):
        """``mixed_partials`` means one thing: a fragment that left the
        kernel beside fragments that did not."""
        schema = Schema([Column("k", "int"), Column("v", "int")])
        clean = [(i % 5, i) for i in range(40)]
        dist = _block_dist(
            schema,
            # |v| * rows reaches 2**63: the kernel's int64 sum could wrap
            [clean[:20], [(1, 2**62), (6, 2**62)], clean[20:]],
        )
        query = AggregateQuery(("k",), (AggregateSpec("sum", "v"),))
        want = _per_row(dist, query)
        for processes in (1, 2):
            registry = MetricsRegistry()
            rows = multiprocessing_aggregate(
                dist, query, processes, metrics=registry
            )
            assert rows == want
            assert merge_fallbacks(registry) == {"mixed_partials": 1}
            assert kernel_declines(registry) == {"int_sum_overflow": 1}

    @pytest.mark.parametrize("processes", [1, 2])
    def test_the_merge_highS_statement_records_none(self, processes):
        """The benchmark's high-selectivity shape (S = 0.25), under the
        benchmark's strategy name: every partial is packed."""
        from repro.sql import parse_query

        _name, query = parse_query(
            "SELECT gkey, SUM(val), COUNT(*), MIN(val) FROM r GROUP BY gkey"
        )
        dist = generate_uniform(
            num_tuples=20_000, num_groups=5_000, num_nodes=4, seed=6
        )
        registry = MetricsRegistry()
        rows = multiprocessing_aggregate(
            dist, query, processes, strategy="auto", metrics=registry
        )
        assert len(rows) == 5_000
        assert merge_fallbacks(registry) == {}

    @pytest.mark.parametrize("processes", [1, 2])
    def test_an_empty_fragment_is_neutral_not_a_mix(self, processes):
        """Pooled, an empty fragment ships inline and comes back as an
        unpacked ``[]``: nothing to fold, so nothing to fall back for."""
        schema = Schema([Column("k", "int"), Column("v", "int"),
                         Column("x", "float")])
        # Halves and small ints: every float sum is exact in any order,
        # so the sequential reference's bits are the run's bits.
        part = [(i % 7, i, i / 2.0) for i in range(200)]
        dist = _block_dist(schema, [part[:120], [], part[120:]])
        query = AggregateQuery(
            ("k",),
            (AggregateSpec("sum", "v"), AggregateSpec("sum", "x"),
             AggregateSpec("avg", "x"), AggregateSpec("count", None)),
        )
        registry = MetricsRegistry()
        rows = multiprocessing_aggregate(
            dist, query, processes, strategy="global", metrics=registry
        )
        assert _bits(rows) == _bits(reference_aggregate(dist, query))
        assert merge_fallbacks(registry) == {}

    @pytest.mark.parametrize("processes", [1, 2])
    def test_an_all_empty_relation_returns_no_rows(self, processes):
        schema = Schema([Column("k", "int"), Column("v", "int")])
        dist = _block_dist(schema, [[], [], []])
        query = AggregateQuery(("k",), (AggregateSpec("sum", "v"),))
        registry = MetricsRegistry()
        rows = multiprocessing_aggregate(
            dist, query, processes, strategy="global", metrics=registry
        )
        assert rows == []
        assert merge_fallbacks(registry) == {}

    def test_int_sums_that_add_past_int64_fall_back_and_stay_exact(self):
        schema = Schema([Column("k", "int"), Column("v", "int")])
        # Each fragment's worst-case sum fits int64, so the kernel packs
        # all three; together they reach 2**63, which only Python ints
        # hold.
        dist = _block_dist(
            schema, [[(0, 2**62)], [(1, 5), (1, -7)], [(0, 2**62)]]
        )
        query = AggregateQuery(
            ("k",), (AggregateSpec("sum", "v"), AggregateSpec("avg", "v"))
        )
        registry = MetricsRegistry()
        rows = multiprocessing_aggregate(
            dist, query, 1, strategy="global", metrics=registry
        )
        assert rows == [(0, 2**63, float(2**62)), (1, -2, -1.0)]
        assert rows == reference_aggregate(dist, query)
        assert merge_fallbacks(registry) == {"int_sum_overflow": 1}
        assert kernel_declines(registry) == {}

    def test_payloads_that_disagree_on_a_tag_are_refused(self):
        query = AggregateQuery(("k",), (AggregateSpec("sum", "i"),))
        ints, floats = _payloads(
            [[_pin_row(0, i=1)], [_pin_row(0, i=2)]], query
        )
        floats[3][0] = ("sum_float",) + floats[3][0][1:]
        assert _merge_packed([ints, floats], query) == (None, "tag_mismatch")


def _mixed_dist(schema, parts):
    """``_block_dist`` with the middle fragment born as rows the block
    codec rejects: their last column, which no query reads, holds an int
    past int64.  That fragment leaves the kernel (``row_source``), so its
    partial is unpacked among packed ones and the parent takes the
    sequential merge (``mixed_partials``)."""
    first, middle, last = parts
    blocks = _block_dist(schema, [first, last]).fragments
    middle = [row[:-1] + (2**63,) for row in middle]
    return DistributedRelation(
        schema, [blocks[0].relation, middle, blocks[1].relation]
    )


class TestKeyOrder:
    """The packed merge hands its rows over in key order and nothing
    sorts them again; the sequential merge sorts.  Both must agree on
    the order, row for row, on the keys where numpy's order could stray
    from Python's: the int64 limits, negatives, ±inf, and str keys,
    whose union dictionary numbers strings in first-seen order."""

    _SCHEMA = Schema([
        Column("i", "int"), Column("f", "float"), Column("s", "str", 8),
        Column("n", "int"), Column("v", "int"), Column("x", "int"),
    ])

    def _parts(self):
        import random

        ints = [-(2**63), -(2**63) + 1, -7, -1, 0, 3, 2**63 - 2, 2**63 - 1]
        floats = [float("-inf"), -2.5, -1e-300, 0.0, 0.75, 1e300,
                  float("inf")]
        strs = ["😀", "b", "", "a\x00", "é", "a", "B"]
        rng = random.Random(26)
        rows = [
            (ints[r % 8], floats[r % 7], strs[r % 7], -(r % 5), r % 11, 0)
            for r in range(280)
        ]
        rng.shuffle(rows)
        return [rows[:100], rows[100:130], rows[130:]]

    @pytest.mark.parametrize("group_by", [("i",), ("f",), ("n", "s")])
    def test_every_merge_path_returns_rows_in_key_order(self, group_by):
        query = AggregateQuery(
            group_by,
            (AggregateSpec("sum", "v"), AggregateSpec("count", None),
             AggregateSpec("min", "s")),
        )
        parts = self._parts()
        dist = _block_dist(self._SCHEMA, parts)
        registry = MetricsRegistry()
        pooled = multiprocessing_aggregate(dist, query, 2, metrics=registry)
        assert merge_fallbacks(registry) == {}
        assert pooled == sorted(pooled)
        assert len({row[:len(group_by)] for row in pooled}) == len(pooled)
        assert _bits(pooled) == _bits(multiprocessing_aggregate(dist, query, 1))

        registry = MetricsRegistry()
        mixed = multiprocessing_aggregate(
            _mixed_dist(self._SCHEMA, parts), query, 1, metrics=registry
        )
        assert kernel_declines(registry) == {"row_source": 1}
        assert merge_fallbacks(registry) == {"mixed_partials": 1}
        assert _bits(mixed) == _bits(pooled)


class TestCollectorPause:
    """The parent's finish runs with the cyclic collector paused, and
    leaves it as it found it: on a host that turned it off, through an
    exception, and across service threads whose merges overlap."""

    @pytest.fixture(autouse=True)
    def _collector_on(self):
        import gc

        assert gc.isenabled()
        yield
        gc.enable()

    @staticmethod
    def _dist():
        return generate_uniform(
            num_tuples=2_000, num_groups=100, num_nodes=4, seed=26
        )

    _QUERY = AggregateQuery(("gkey",), (AggregateSpec("sum", "val"),))

    def _watch_merge(self, monkeypatch, inside=None):
        """Patch the packed merge to record the collector's state from
        inside it, after running ``inside`` first."""
        import gc

        from repro.parallel.mp_executor import api

        real, seen = api._merge_packed, []

        def merge(payloads, query):
            if inside is not None:
                inside()
            seen.append(gc.isenabled())
            return real(payloads, query)

        monkeypatch.setattr(api, "_merge_packed", merge)
        return seen

    def test_a_host_that_disabled_the_collector_keeps_it_disabled(
        self, monkeypatch
    ):
        import gc

        seen = self._watch_merge(monkeypatch)
        gc.disable()
        multiprocessing_aggregate(self._dist(), self._QUERY, 1)
        assert not gc.isenabled()
        assert seen == [False]

    def test_an_exception_inside_the_merge_leaves_it_enabled(
        self, monkeypatch
    ):
        import gc

        def boom():
            raise RuntimeError("merge failed")

        seen = self._watch_merge(monkeypatch, inside=boom)
        with pytest.raises(RuntimeError, match="merge failed"):
            multiprocessing_aggregate(self._dist(), self._QUERY, 1)
        assert gc.isenabled()
        assert seen == []

    def test_overlapping_merges_keep_it_paused_until_the_last_one_leaves(
        self, monkeypatch
    ):
        """Both threads enter the merge before either leaves; the second
        records the collector's state only after the first has returned
        its rows.  A save-and-restore per run would have the first
        re-enable it under the second, and the second disable it for
        good on the way out."""
        import gc
        import threading

        both_inside = threading.Barrier(2, timeout=30)
        first_done = threading.Event()

        def inside():
            both_inside.wait()
            if threading.current_thread().name == "second":
                assert first_done.wait(timeout=30)

        seen = self._watch_merge(monkeypatch, inside=inside)
        dist, results, errors = self._dist(), {}, []

        def run(name):
            try:
                results[name] = multiprocessing_aggregate(
                    dist, self._QUERY, 1
                )
            except BaseException as exc:  # surfaced below
                errors.append(exc)
                both_inside.abort()
            finally:
                if name == "first":
                    first_done.set()

        threads = [
            threading.Thread(target=run, args=(name,), name=name)
            for name in ("first", "second")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert seen == [False, False]
        assert results["first"] == results["second"]
        assert gc.isenabled()

    def test_no_automatic_collection_from_merge_start_to_the_return(
        self, monkeypatch
    ):
        """50 000 groups in-process, traced and metered, so the span and
        gauge bookkeeping after the rows are built is inside the window
        too: without the pause the finish alone triggers ~70 gen-0
        passes over its own rows."""
        import gc

        from repro.obs import Tracer

        window, passes = [False], []

        def probe(phase, info):
            if phase == "start" and window[0]:
                passes.append(info["generation"])

        def open_window():
            window[0] = True

        self._watch_merge(monkeypatch, inside=open_window)
        dist = generate_uniform(
            num_tuples=100_000, num_groups=50_000, num_nodes=4, seed=26
        )
        query = AggregateQuery(
            ("gkey",),
            (AggregateSpec("sum", "val"), AggregateSpec("count", None),
             AggregateSpec("min", "val")),
        )
        gc.callbacks.append(probe)
        try:
            rows = multiprocessing_aggregate(
                dist, query, 1, tracer=Tracer(), metrics=MetricsRegistry()
            )
            window[0] = False
        finally:
            gc.callbacks.remove(probe)
        assert len(rows) == 50_000
        assert passes == []


def test_one_row_sort_and_no_forced_collection():
    """The two properties the finish can lose without a wrong row: the
    executor sorts rows in one place (after the sequential merge; array
    sorts such as the pair dedup's ``np.sort`` are not row sorts), and
    nothing in the package forces a collection or switches the
    collector except where a process starts (a pool worker, ``repro
    serve``) and the merge's pause."""
    import re

    package = pathlib.Path(__file__).parent.parent / "src" / "repro"
    executor = "\n".join(
        path.read_text()
        for path in sorted((package / "parallel" / "mp_executor").glob("*.py"))
    )
    assert len(re.findall(r"\brows\.sort\(", executor)) == 1
    calls = {}
    for path in sorted(package.rglob("*.py")):
        for name in re.findall(r"\bgc\.(\w+)\(", path.read_text()):
            calls.setdefault(name, set()).add(
                path.relative_to(package).as_posix()
            )
    merge = "parallel/mp_executor/merge.py"
    assert calls == {
        "freeze": {"parallel/mp_executor/pool.py", "cli.py"},
        "collect": {"cli.py"},
        "isenabled": {merge}, "disable": {merge}, "enable": {merge},
    }
