"""The columnar data path and the strategy family, pinned bit-for-bit.

Three layers of guarantees:

* **Golden parity** — the ``mp_strategies`` section of
  ``tests/golden/block_parity.json`` (written additively by
  ``tests/golden/make_mp_strategies.py``; the pre-existing simulator
  vectors are never regenerated) pins the executor's exact result rows.
  Every strategy — pool, global, rep — must reproduce the same digest
  whether the fragments are born columnar (``ColumnBlock``s, shipped
  as they are) or as row lists (columnarized at the wire).

* **Kernel parity** — ``_columnar_local_phase`` against the per-row
  reference on adversarial shapes: multi-column keys, dictionary
  strings with NULs, every aggregate, and the guard shapes (NaN,
  signed zeros, ints beyond exact-float range) where the kernel must
  *decline* rather than drift.

* **Regression pins** — the trailing-NUL corruption fix (the
  dictionary path, the only one the executor ships, round-trips what a
  NUL-padded field corrupted), and AVG/VAR/STDDEV
  merge results pinned as exact hex floats, not tolerances.
"""

import json
import math
import pathlib

import pytest

from repro.core.aggregates import AggregateSpec
from repro.core.query import AggregateQuery
from repro.parallel.mp_executor import (
    multiprocessing_aggregate,
    shutdown_worker_pool,
)
from repro.parallel.mp_executor.kernel import (
    _columnar_local_phase,
    _local_phase,
    _take_declines,
)
from repro.parallel.mp_executor.merge import _unpack_packed
from repro.storage.columnblock import ColumnBlock
from repro.storage.relation import BlockRelation, DistributedRelation
from repro.storage.schema import Column, Schema

from tests.conftest import assert_partials_equal, table_segments
from tests.test_block_parity import _GEN  # reuse digest + workloads

_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "block_parity.json")
    .read_text()
)

@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_worker_pool()


def _load_mp_workload(name):
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "make_mp_strategies",
        pathlib.Path(__file__).parent / "golden" / "make_mp_strategies.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS[name]()


def _born(dist, columnar):
    """``dist`` with every fragment born as a ``ColumnBlock``
    (``columnar=True``) or as a row list — the two sources the one wire
    format has to carry."""
    schema = dist.schema
    parts = [list(frag.relation.rows) for frag in dist.fragments]
    if columnar:
        parts = [
            BlockRelation(schema, ColumnBlock.from_rows(schema, part))
            for part in parts
        ]
    return DistributedRelation(schema, parts)


class TestGoldenStrategyParity:
    @pytest.mark.parametrize("columnar", [True, False])
    @pytest.mark.parametrize("strategy", ["pool", "global", "rep"])
    @pytest.mark.parametrize("workload", sorted(_GOLDEN["mp_strategies"]))
    def test_strategy_matches_golden(self, workload, strategy, columnar):
        dist, query = _load_mp_workload(workload)
        dist = _born(dist, columnar)
        want = _GOLDEN["mp_strategies"][workload]
        rows = multiprocessing_aggregate(dist, query, 4, strategy=strategy)
        assert len(rows) == want["num_rows"]
        assert _GEN.rows_digest(rows) == want["rows_sha256"]

    @pytest.mark.parametrize("workload", sorted(_GOLDEN["mp_strategies"]))
    def test_in_process_matches_golden(self, workload):
        dist, query = _load_mp_workload(workload)
        want = _GOLDEN["mp_strategies"][workload]
        for strategy in ("pool", "global", "rep"):
            rows = multiprocessing_aggregate(
                dist, query, 1, strategy=strategy
            )
            assert _GEN.rows_digest(rows) == want["rows_sha256"]


# -- kernel vs per-row parity -------------------------------------------------


def _kernel_case(schema, rows, query):
    """The kernel's packed payload, unpacked to (key, GroupState)
    partials, beside the per-row loop's."""
    block = ColumnBlock.from_rows(schema, rows)
    kernel = _columnar_local_phase(block, query)
    if kernel is not None:
        kernel = _unpack_packed(kernel, query)
    reference = _local_phase((rows, query, schema))
    return kernel, reference


class TestKernelParity:
    def test_full_aggregate_menu_multi_key(self):
        import random

        rng = random.Random(99)
        schema = Schema([
            Column("k", "str", 10), Column("g", "int"),
            Column("x", "float"), Column("n", "int"),
        ])
        rows = [
            (
                rng.choice(["aa", "b\x00b", "c" * 9, "é", "nul\x00"]),
                rng.randrange(6),
                rng.uniform(-100, 100),
                rng.randrange(-1000, 1000),
            )
            for _ in range(2500)
        ]
        query = AggregateQuery(("k", "g"), (
            AggregateSpec("count", None),
            AggregateSpec("sum", "x"),
            AggregateSpec("sum", "n"),
            AggregateSpec("avg", "x"),
            AggregateSpec("avg", "n"),
            AggregateSpec("min", "x"),
            AggregateSpec("max", "n"),
            AggregateSpec("min", "k"),
            AggregateSpec("max", "k"),
            AggregateSpec("var", "x"),
            AggregateSpec("var", "n"),
            AggregateSpec("stddev", "x"),
            AggregateSpec("count_distinct", "n"),
            AggregateSpec("count_distinct", "k"),
        ))
        kernel, reference = _kernel_case(schema, rows, query)
        assert kernel is not None
        assert_partials_equal(kernel, reference)

    def test_int_sums_stay_python_ints(self):
        schema = Schema([Column("g", "int"), Column("n", "int")])
        rows = [(0, 2**52), (0, 2**52 + 1), (1, -5)]
        query = AggregateQuery(("g",), (
            AggregateSpec("sum", "n"), AggregateSpec("avg", "n"),
        ))
        kernel, reference = _kernel_case(schema, rows, query)
        assert kernel is not None
        assert_partials_equal(kernel, reference)

    def test_empty_block(self):
        schema = Schema([Column("g", "int"), Column("x", "float")])
        query = AggregateQuery(("g",), (AggregateSpec("sum", "x"),))
        kernel, reference = _kernel_case(schema, [], query)
        assert kernel == [] and reference == []

    @pytest.mark.parametrize("case", ["sum_overflow", "var_beyond_exact"])
    def test_guards_decline(self, case):
        """Shapes whose vectorized result could drift must return None.
        NaN and -0.0 are not among them: the float rule holds in the
        fold (``test_float_rule.py``)."""
        schema = Schema([
            Column("f", "float"), Column("n", "int"), Column("x", "float"),
        ])
        rows = {
            "sum_overflow": [(1.0, 2**62, 1.0), (1.0, 2**62, 1.0)],
            "var_beyond_exact": [(1.0, 2**53 + 1, 1.0)],
        }[case]
        spec = {
            "sum_overflow": AggregateSpec("sum", "n"),
            "var_beyond_exact": AggregateSpec("var", "n"),
        }[case]
        query = AggregateQuery(("f",), (spec,))
        block = ColumnBlock.from_rows(schema, rows)
        assert _columnar_local_phase(block, query) is None

    @pytest.mark.parametrize("shape", [
        "nan_key", "negzero_key", "nan_minmax", "negzero_minmax",
        "nan_distinct",
    ])
    def test_nan_and_signed_zero_stay_in_the_kernel(self, shape):
        """The shapes the kernel used to decline: NaN and -0.0 in a key,
        under MIN/MAX and under COUNT(DISTINCT) fold in the kernel, with
        nothing declined, to the per-row loop's partials bit for bit."""
        schema = Schema([Column("f", "float"), Column("x", "float")])
        nan = float("nan")
        rows = {
            "nan_key": [(nan, 1.0), (2.0, 2.0), (float("nan"), 3.0)],
            "negzero_key": [(-0.0, 1.0), (0.0, 2.0), (-0.0, 3.0)],
            "nan_minmax": [(1.0, nan), (1.0, 2.0), (2.0, nan), (2.0, nan)],
            "negzero_minmax": [(1.0, -0.0), (1.0, 0.0), (2.0, -0.0)],
            "nan_distinct": [(1.0, nan), (1.0, float("nan")), (1.0, -0.0),
                             (1.0, 0.0), (2.0, nan)],
        }[shape]
        query = AggregateQuery(("f",), (
            AggregateSpec("count", None), AggregateSpec("min", "x"),
            AggregateSpec("max", "x"), AggregateSpec("count_distinct", "x"),
        ))
        _take_declines()
        packed = _columnar_local_phase(
            ColumnBlock.from_rows(schema, rows), query
        )
        assert _take_declines() == {}
        assert_partials_equal(
            _unpack_packed(packed, query), _local_phase((rows, query, schema))
        )

    def test_guarded_shapes_still_correct_end_to_end(self):
        """Guard shapes fall back per-row and still match everywhere."""
        schema = Schema([Column("g", "int"), Column("x", "float")])
        rows = [(i % 3, v) for i, v in enumerate(
            [-0.0, 0.0, 1.5, float("nan"), -2.5, 0.0, -0.0, 3.25]
        )]
        dist = DistributedRelation(schema, [rows[0::2], rows[1::2]])
        query = AggregateQuery(("g",), (
            AggregateSpec("min", "x"), AggregateSpec("sum", "x"),
        ))
        results = [
            multiprocessing_aggregate(dist, query, 2, strategy=s)
            for s in ("pool", "global", "rep")
        ]
        base = results[0]
        for rows_s in results[1:]:
            for r1, r2 in zip(rows_s, base):
                for a, b in zip(r1, r2):
                    if isinstance(a, float) and math.isnan(a):
                        assert math.isnan(b)
                    else:
                        assert a == b


# -- AVG / VAR / STDDEV merge parity: exact hex pins, not tolerances ----------


_MOMENT_GOLDEN = {
    "a": (
        "0x1.f0d2f1a9fbe77p+4", "0x1.a000000000000p+1",
        "0x1.da705c5ec9727p+11", "0x1.ecdc9cc7bc3fdp+5",
        "0x1.d955555555555p+4",
    ),
    "b": (
        "-0x1.a7ef9db22d0e6p+0", "0x1.c000000000000p+1",
        "0x1.7c948610976e8p+4", "0x1.3822ab3a871efp+2",
        "0x1.ad55555555555p+5",
    ),
}


class TestMomentMergeGolden:
    @pytest.mark.parametrize("strategy", ["pool", "global", "rep"])
    @pytest.mark.parametrize("columnar", [True, False])
    def test_avg_var_stddev_bits(self, strategy, columnar):
        schema = Schema([
            Column("k", "str", 8), Column("x", "float"), Column("n", "int"),
        ])
        rows = [
            ("a", 1.25, 3), ("b", -2.5, 7), ("a", 0.1, -4),
            ("b", 3.75, 11), ("a", -0.6, 5), ("b", 1e-3, 2),
            ("a", 123.456, 9), ("b", -7.875, -6),
        ]
        dist = _born(
            DistributedRelation(schema, [rows[0::2], rows[1::2]]), columnar
        )
        query = AggregateQuery(("k",), (
            AggregateSpec("avg", "x"), AggregateSpec("avg", "n"),
            AggregateSpec("var", "x"), AggregateSpec("stddev", "x"),
            AggregateSpec("var", "n"),
        ))
        result = multiprocessing_aggregate(
            dist, query, 2, strategy=strategy
        )
        got = {
            row[0]: tuple(v.hex() for v in row[1:]) for row in result
        }
        assert got == _MOMENT_GOLDEN


# -- trailing-NUL corruption: the dictionary is length-exact ------------------


class TestTrailingNulRegression:
    def test_dictionary_path_round_trips_trailing_nul(self):
        schema = Schema([Column("name", "str", 8)])
        rows = [("abc\x00",), ("x\x00\x00",), ("",), ("\x00",)]
        block = ColumnBlock.from_rows(schema, rows)
        back = ColumnBlock.from_bytes(schema, block.to_bytes())
        assert back.to_rows() == rows

    def test_mp_executor_handles_trailing_nul_keys(self):
        """Trailing-NUL keys flow through every strategy identically:
        the block dictionary carries them length-exact."""
        schema = Schema([Column("k", "str", 8), Column("v", "int")])
        rows = [
            ("a\x00", 1), ("a", 2), ("b\x00\x00", 3), ("a\x00", 4),
            ("b", 5), ("", 6),
        ] * 4
        dist = DistributedRelation(schema, [rows[0::2], rows[1::2]])
        query = AggregateQuery(("k",), (
            AggregateSpec("sum", "v"), AggregateSpec("count", None),
        ))
        results = {
            strategy: multiprocessing_aggregate(
                dist, query, 2, strategy=strategy
            )
            for strategy in ("pool", "global", "rep")
        }
        base = results["pool"]
        keys = [row[0] for row in base]
        assert "a\x00" in keys and "b\x00\x00" in keys and "" in keys
        for got in results.values():
            assert got == base


# -- hygiene ------------------------------------------------------------------


def test_no_leaked_shm_segments():
    """Columnar and rep dispatch must unlink every repro_mp_* segment
    they shipped row-born fragments in: what stays on the mount is the
    live pool workers' return arenas, and nothing else."""
    schema = Schema([Column("k", "str", 8), Column("v", "int")])
    rows = [(f"g{i % 13}", i) for i in range(1000)]
    dist = DistributedRelation(schema, [rows[0::2], rows[1::2]])
    query = AggregateQuery(("k",), (AggregateSpec("sum", "v"),))
    for strategy in ("pool", "global", "rep"):
        multiprocessing_aggregate(dist, query, 2, strategy=strategy)
    assert table_segments() == table_segments("arena")
