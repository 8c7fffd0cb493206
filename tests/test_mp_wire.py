"""One wire format, one phase-1 entry.

Two contracts:

* **The wire** — ``_encode_fragment`` ships every non-empty fragment,
  whatever the statement shape and whoever runs it, as one serialized
  ``ColumnBlock`` in one shared-memory segment (``"shm_col"``); only
  empty fragments and rows the block codec rejects travel inline.
  A built-in phase is shipped only the columns its query reads — group
  keys, aggregate inputs and the columns a parsed WHERE names; an
  opaque callable WHERE may read anything and ships full width.

* **The shape matrix** — the six statement shapes of the benchmark's
  ``shape_cliffs`` workload return bit-identical rows under every
  strategy, in-process and pooled, governed or not, over block-born and
  row-born fragments: a pool worker runs the same phase function on the
  same source type as ``processes=1``, which encodes a row-born fragment
  as the wire does.  A fragment that travels inline
  (a row the block codec rejects) joins the same matrix.  None of those
  statements, nor the service benchmark's eight, leaves the columnar
  kernel or the vectorized merge: ``mp.kernel.declined.*`` and
  ``mp.merge.fallback.*`` stay empty with and without a memory budget.
"""

import glob
import pathlib

import pytest

from repro.core.aggregates import AggregateSpec
from repro.core.query import AggregateQuery
from repro.obs.metrics import MetricsRegistry
from repro.parallel import multiprocessing_aggregate, reference_aggregate
from repro.parallel.mp_executor import SHM_PREFIX, shutdown_worker_pool
from repro.parallel.mp_executor.kernel import _local_phase
from repro.parallel.mp_executor.strategies import _RepPartitionPhase
from repro.parallel.mp_executor.wire import (
    _encode_fragment,
    _load_job,
    _projection_for,
    _table,
)
from repro.service.config import ServiceConfig
from repro.sql import parse_query, run_sql
from repro.storage.columnblock import ColumnBlock
from repro.storage.relation import DistributedRelation
from repro.storage.schema import Column, Schema
from repro.workloads.generator import generate_uniform

from tests.conftest import (
    assert_rows_close,
    grouping_paths,
    kernel_declines,
    merge_fallbacks,
    row_bits,
)


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_worker_pool()


# -- the wire -----------------------------------------------------------------

_SCHEMA = Schema(
    [Column("gkey", "int"), Column("val", "float"), Column("pad", "str", 8)]
)
_ROWS = [(i % 5, float(i), f"p{i % 3}") for i in range(40)]


def _val_at_least_ten(row):
    return row["val"] >= 10.0


_GROUPED = AggregateQuery(("gkey",), (AggregateSpec("sum", "val"),))
_WHERE = AggregateQuery(
    ("gkey",), (AggregateSpec("sum", "val"),), where=_val_at_least_ten
)
_PARSED_WHERE = parse_query(
    "SELECT gkey, SUM(val) FROM r WHERE val >= 10 GROUP BY gkey"
)[1]
_WHERE_ON_PAD = parse_query(
    "SELECT gkey, COUNT(*) FROM r WHERE NOT pad IN ('p1') GROUP BY gkey"
)[1]
_WHERE_UNKNOWN = parse_query(
    "SELECT gkey, COUNT(*) FROM r WHERE nope = 1 GROUP BY gkey"
)[1]
_SCALAR = AggregateQuery((), (AggregateSpec("sum", "val"),))
_COUNT_STAR = AggregateQuery((), (AggregateSpec("count", None),))


@pytest.fixture
def segments():
    owned: list = []
    yield owned
    _table.release(owned)
    assert glob.glob("/dev/shm/" + SHM_PREFIX + "*") == []


class TestEncodeFragment:
    @pytest.mark.parametrize("born", ["rows", "block"])
    @pytest.mark.parametrize("query, project, shipped", [
        (_GROUPED, True, ("gkey", "val")),
        (_WHERE, True, ("gkey", "val", "pad")),
        (_SCALAR, True, ("val",)),
        (_COUNT_STAR, True, ("gkey", "val", "pad")),
        (_GROUPED, False, ("gkey", "val", "pad")),
        (_PARSED_WHERE, True, ("gkey", "val")),
        (_WHERE_ON_PAD, True, ("gkey", "pad")),
        # The per-row path must fail listing every column there is.
        (_WHERE_UNKNOWN, True, ("gkey", "val", "pad")),
    ], ids=["grouped", "where", "scalar", "count_star", "phase_fn",
            "parsed_where", "where_on_pad", "where_unknown_column"])
    def test_every_shape_ships_one_column_block(
        self, segments, born, query, project, shipped
    ):
        source = (
            _ROWS if born == "rows"
            else ColumnBlock.from_rows(_SCHEMA, _ROWS)
        )
        desc = _encode_fragment(
            source, query, _SCHEMA, segments.append, project=project
        )
        kind, name, nbytes, num_rows, _query, schema, as_rows = desc
        assert kind == "shm_col"
        assert [shm.name for shm in segments] == [name]
        assert num_rows == len(_ROWS)
        assert tuple(c.name for c in schema.columns) == shipped
        # A substituted phase_fn is handed rows, a built-in the block.
        assert as_rows is (not project)
        mapped: list = []
        loaded, _query, loaded_schema = _load_job(desc, mapped)
        assert loaded_schema is schema
        idx = _SCHEMA.indexes_of(shipped)
        want = [tuple(row[i] for i in idx) for row in _ROWS]
        if as_rows:
            assert loaded == want
        else:
            assert isinstance(loaded, ColumnBlock)
            assert loaded.to_rows() == want
            # The worker's columns are the segment itself: aligned for
            # numpy's fast paths, and not the worker's to write.
            for arr in loaded.columns:
                assert arr.flags.aligned and not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0
            del arr
        # The mapping closes once nothing reads the views — not before.
        (shm,) = mapped
        if not as_rows:
            with pytest.raises(BufferError):
                shm.close()
        del loaded
        shm.close()

    @pytest.mark.parametrize("born", ["rows", "block"])
    def test_rep_chunks_carry_the_where_columns(self, born):
        """Round 1 filters by WHERE and round 2 filters again, so every
        chunk — block slice or row list — keeps the predicate's columns
        in the one projected schema round 2 decodes."""
        source = (
            _ROWS if born == "rows"
            else ColumnBlock.from_rows(_SCHEMA, _ROWS)
        )
        schema, idx = _projection_for(_WHERE_ON_PAD, _SCHEMA)
        assert schema.names() == ["gkey", "pad"]
        tag, chunks = _RepPartitionPhase(2)((source, _WHERE_ON_PAD, _SCHEMA))
        assert tag == ("rep_rows" if born == "rows" else "rep_blocks")
        got = []
        for chunk in chunks:
            if tag == "rep_blocks" and chunk is not None:
                chunk = ColumnBlock.from_bytes(schema, chunk).to_rows()
            got.extend(chunk or [])
        assert sorted(got) == sorted(
            tuple(row[i] for i in idx) for row in _ROWS if row[2] != "p1"
        )

    @pytest.mark.parametrize("source", [
        [], ColumnBlock.from_rows(_SCHEMA, []),
    ], ids=["rows", "block"])
    def test_empty_fragment_is_inline(self, segments, source):
        desc = _encode_fragment(source, _GROUPED, _SCHEMA, segments.append)
        assert desc == ("inline", ([], _GROUPED, _SCHEMA))
        assert segments == []

    @pytest.mark.parametrize("bad_row", [
        (2**63, 1.0, "x"),     # int outside int64
        (1.5, 1.0, "x"),       # float in an int column
        (1, 1.0, 7),           # int in a str column
    ], ids=["int64_overflow", "float_as_int", "int_as_str"])
    def test_rejected_rows_are_inline_with_the_full_schema(
        self, segments, bad_row
    ):
        rows = _ROWS + [bad_row]
        query = AggregateQuery(
            ("gkey",), (AggregateSpec("count", None),
                        AggregateSpec("max", "pad"))
        )
        desc = _encode_fragment(rows, query, _SCHEMA, segments.append)
        assert desc == ("inline", (rows, query, _SCHEMA))
        assert segments == []


def test_workers_read_aligned_columns_in_place(segments):
    """CI's structural step runs this by name.  The worker must not go
    back to copying its segment (``bytes(shm.buf[...])`` anywhere in the
    package), and a column that crosses the wire — ints and floats
    behind int32 codes, an odd row count — must come out of
    ``from_bytes`` on an 8-byte boundary: 4 bytes off, ``np.minimum.at``
    and ``bincount(weights=)`` cost 25x."""
    import repro.parallel.mp_executor as package

    for path in pathlib.Path(package.__file__).parent.glob("*.py"):
        assert "bytes(shm.buf" not in path.read_text(), path
    schema = Schema(
        [Column("pad", "str", 8), Column("gkey", "int"), Column("val", "float")]
    )
    rows = [(pad, gkey, val) for gkey, val, pad in _ROWS[:39]]
    mapped: list = []
    block, _query, _schema = _load_job(
        _encode_fragment(rows, _COUNT_STAR, schema, segments.append), mapped
    )
    assert [arr.ctypes.data % 8 for arr in block.columns] == [0, 0, 0]
    assert all(arr.flags.aligned for arr in block.columns)
    del block
    mapped.pop().close()


# -- the shape matrix ---------------------------------------------------------

_SHAPES = {
    "where": ("int", "SELECT gkey, SUM(val), COUNT(*) FROM r "
                     "WHERE val >= 50 GROUP BY gkey"),
    "scalar": ("int", "SELECT SUM(val), COUNT(*), MIN(val), MAX(val) "
                      "FROM r"),
    "multikey": ("int", "SELECT gkey, pad, SUM(val), COUNT(*) FROM r "
                        "GROUP BY gkey, pad"),
    "distinct": ("int", "SELECT gkey, COUNT(DISTINCT val) FROM r "
                        "GROUP BY gkey"),
    "strkey": ("str", "SELECT gkey, MIN(val), MAX(val), AVG(val) FROM r "
                      "GROUP BY gkey"),
    "havingvar": ("int", "SELECT gkey, VAR(val), STDDEV(val), COUNT(*) "
                         "FROM r GROUP BY gkey HAVING COUNT(*) > 10"),
}


# The service benchmark's hit statements (benchmarks/e2e/workloads.py).
_SVC_STATEMENTS = [
    "SELECT gkey, SUM(val), COUNT(*) FROM r GROUP BY gkey",
    "SELECT gkey, COUNT(*) FROM r GROUP BY gkey",
    "SELECT gkey, AVG(val) FROM r GROUP BY gkey",
    "SELECT gkey, MIN(val), MAX(val) FROM r GROUP BY gkey",
    "SELECT gkey, SUM(val) FROM r WHERE val >= 25.0 GROUP BY gkey",
    "SELECT gkey, COUNT(*) FROM r WHERE val >= 75.0 GROUP BY gkey",
    "SELECT SUM(val), COUNT(*) FROM r",
    "SELECT gkey, VAR(val), COUNT(*) FROM r GROUP BY gkey "
    "HAVING COUNT(*) > 10",
]
# ``scan_lowS`` runs the first of those; this is ``merge_highS``'s.
_MERGE_HIGHS_STATEMENT = (
    "SELECT gkey, SUM(val), COUNT(*), MIN(val) FROM r GROUP BY gkey"
)


@pytest.fixture(scope="module")
def tables():
    size = dict(num_tuples=4000, num_groups=60, num_nodes=4, seed=17)
    return {
        (key, born): generate_uniform(
            key_format=key_format, columnar=born == "block", **size
        )
        for key, key_format in [("int", None), ("str", "g{:08d}")]
        for born in ("block", "rows")
    }


@pytest.fixture(scope="module")
def oracle(tables):
    """Per shape: the per-row loop's rows (a substituted ``phase_fn`` is
    handed decoded rows), checked once against the reference.  Block-
    and row-born tables hold the same tuples, so one oracle serves both.
    """
    out = {}
    for shape, (key, sql) in _SHAPES.items():
        _name, query = parse_query(sql)
        dist = tables[key, "block"]
        rows = multiprocessing_aggregate(dist, query, 1, phase_fn=_local_phase)
        assert_rows_close(rows, reference_aggregate(dist, query))
        out[shape] = (key, query, rows)
    return out


class TestShapeMatrixParity:
    @pytest.mark.parametrize("processes", [1, 2])
    @pytest.mark.parametrize("born", ["block", "rows"])
    @pytest.mark.parametrize("strategy", ["pool", "global", "rep", "auto"])
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_bit_identical_rows(
        self, tables, oracle, shape, strategy, born, processes
    ):
        key, query, want = oracle[shape]
        got = multiprocessing_aggregate(
            tables[key, born], query, processes, strategy=strategy
        )
        assert got == want

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_governed_leg(self, tables, oracle, shape):
        key, query, want = oracle[shape]
        got = multiprocessing_aggregate(
            tables[key, "block"], query, 2, memory_budget_bytes=600
        )
        assert got == want

    @pytest.mark.parametrize(
        "budget", [None, 10**7, ServiceConfig().slice_bytes]
    )
    @pytest.mark.parametrize("processes", [1, 2])
    @pytest.mark.parametrize(
        "key, sql",
        [_SHAPES[shape] for shape in sorted(_SHAPES)]
        + [("int", sql) for sql in _SVC_STATEMENTS]
        + [("int", _MERGE_HIGHS_STATEMENT)],
        ids=sorted(_SHAPES)
        + [f"svc{n}" for n in range(len(_SVC_STATEMENTS))]
        + ["merge_highS"],
    )
    def test_no_benchmark_statement_leaves_the_kernel(
        self, tables, key, sql, processes, budget
    ):
        """Nor the vectorized merge: under ``strategy="pool"`` — what a
        service miss runs, inside its budget slice — every partial
        comes back packed and is folded, never unpacked."""
        _name, query = parse_query(sql)
        dist = tables[key, "block"]
        registry = MetricsRegistry()
        got = multiprocessing_aggregate(
            dist, query, processes, strategy="pool", metrics=registry,
            memory_budget_bytes=budget,
        )
        assert_rows_close(got, reference_aggregate(dist, query))
        assert "mp.retries" not in registry.snapshot()
        assert kernel_declines(registry) == {}
        assert merge_fallbacks(registry) == {}
        # … and none of their key columns, in a fragment or in the
        # merge, is numbered by a sort.  What sorts is COUNT(DISTINCT)'s
        # float values: one numbering per fragment, one in the merge.
        sorts = {
            name: count for name, count in grouping_paths(registry).items()
            if name.endswith("sort")
        }
        fragments = registry.snapshot()["mp.fragments"]["value"]
        assert sorts == (
            {"mp.kernel.grouping.sort": fragments, "mp.merge.grouping.sort": 1}
            if "COUNT(DISTINCT" in sql else {}
        )

    @pytest.mark.parametrize("processes", [1, 2])
    @pytest.mark.parametrize("born", ["block", "rows"])
    def test_substituted_phase_sees_full_rows(self, tables, born, processes):
        """A substituted ``phase_fn`` gets decoded full-width tuples from
        either runner, whichever way the fragment was born."""
        dist = tables["str", born]
        query = AggregateQuery(("gkey",), (AggregateSpec("count", None),))
        got = multiprocessing_aggregate(
            dist, query, processes, phase_fn=_full_width_rows_phase
        )
        assert got == reference_aggregate(dist, query)

    def test_pool_ships_a_block_born_fragment_undecoded(self):
        """With a substituted phase the *worker* decodes: the parent
        never materializes a block-born fragment's row view."""
        dist = generate_uniform(
            num_tuples=400, num_groups=8, num_nodes=4, seed=3
        )
        query = AggregateQuery(("gkey",), (AggregateSpec("count", None),))
        got = multiprocessing_aggregate(
            dist, query, 2, phase_fn=_full_width_rows_phase
        )
        assert all(f.relation._rows is None for f in dist.fragments)
        assert got == reference_aggregate(dist, query)


def _full_width_rows_phase(job):
    rows, _query, schema = job
    assert isinstance(rows, list)
    assert all(len(row) == len(schema.columns) for row in rows)
    return _local_phase(job)


class TestInlineFragmentParity:
    """A fragment the block codec rejects travels inline with full-width
    rows; every strategy must still bind key and aggregate columns to
    the right positions (rep's round 2 decodes the *projected* schema)."""

    _SCHEMA = Schema(
        [Column("pad0", "int"), Column("gkey", "int"), Column("val", "int")]
    )

    @pytest.fixture(scope="class")
    def dist(self):
        rows = [(7 * i, i % 10, i) for i in range(400)]
        rows[123] = (0, 3, 2**70)  # outside int64, in a used column
        return DistributedRelation(
            self._SCHEMA, [rows[n::4] for n in range(4)]
        )

    @pytest.mark.parametrize("processes", [1, 2])
    @pytest.mark.parametrize("strategy", ["pool", "global", "rep", "auto"])
    def test_matches_reference(self, dist, strategy, processes):
        _name, query = parse_query(
            "SELECT gkey, SUM(val), COUNT(*) FROM r GROUP BY gkey"
        )
        got = multiprocessing_aggregate(
            dist, query, processes, strategy=strategy
        )
        assert got == reference_aggregate(dist, query)


class TestRowBornInProcess:
    """In-process, a row-born fragment meets the kernel on the pool's
    terms: encoded as the wire encodes it, and left as rows — a counted
    ``row_source`` decline — only when the block codec rejects them."""

    _SCHEMA = Schema([
        Column("k", "int"), Column("s", "str"), Column("v", "float"),
    ])
    _ROWS = [(i % 7, f"s{i % 3}", i / 4) for i in range(300)]

    def _run(self, parts, sql, processes):
        """(rows, kernel declines, reference rows)"""
        _name, query = parse_query(sql)
        dist = DistributedRelation(self._SCHEMA, parts)
        registry = MetricsRegistry()
        got = multiprocessing_aggregate(
            dist, query, processes, metrics=registry
        )
        return got, kernel_declines(registry), reference_aggregate(dist, query)

    def test_a_row_born_fragment_takes_the_kernel(self):
        sql = "SELECT k, s, SUM(v), MIN(v), COUNT(*) FROM r GROUP BY k, s"
        inproc, declines, _want = self._run([self._ROWS], sql, 1)
        pooled, _declines, _want = self._run([self._ROWS], sql, 2)
        assert declines == {}
        assert row_bits(inproc) == row_bits(pooled)

    @pytest.mark.parametrize("processes", [1, 2])
    def test_rows_the_codec_rejects_stay_rows(self, processes):
        rows = list(self._ROWS)
        rows[20] = (2**63, "x", 1.0)
        got, declines, want = self._run(
            [rows], "SELECT k, SUM(v), COUNT(*) FROM r GROUP BY k", processes
        )
        assert declines == {"row_source": 1}
        assert got == want

    @pytest.mark.parametrize("processes", [1, 2])
    @pytest.mark.parametrize("schema, rows, sql", [
        # An int in a float column was summed as a float.
        (Schema([Column("k", "int"), Column("v", "float")]),
         [(1, 2), (1, 3), (2, True)],
         "SELECT k, SUM(v) FROM r GROUP BY k"),
        # A bool key was read back as the int it equals.
        (Schema([Column("k", "int"), Column("v", "int")]),
         [(True, 1), (1, 2), (2, False)],
         "SELECT k, SUM(v), COUNT(*) FROM r GROUP BY k"),
    ], ids=["int_in_float", "bool_in_int"])
    def test_mistyped_values_stay_rows(self, schema, rows, sql, processes):
        """The codec takes a value only of its column's Python type: a
        bool is no int and an int no float, and the rows keep their
        values as the reference does, to the ``repr``."""
        dist = DistributedRelation(schema, [rows])
        _name, query = parse_query(sql)
        registry = MetricsRegistry()
        got = run_sql(
            sql, dist, substrate="mp", processes=processes, metrics=registry
        )
        assert repr(got) == repr(reference_aggregate(dist, query))
        assert kernel_declines(registry) == {"row_source": 1}

    @pytest.mark.parametrize("processes", [1, 2])
    def test_an_empty_fragment_declines_nothing(self, processes):
        """Nothing left the kernel: there was nothing to run."""
        got, declines, want = self._run(
            [self._ROWS, []], "SELECT k, SUM(v) FROM r GROUP BY k", processes
        )
        assert declines == {}
        assert got == want
