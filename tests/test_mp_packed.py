"""Packed columnar partials and the mid-run adaptive controller.

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

* **The adaptive controller** — ``strategy="auto"`` re-samples after
  the first K completed fragments, switches pool <-> global when the
  observed cardinality flips the cost model, and both decisions carry
  post-hoc verdicts; plus the stratified-sampling regression (a
  front-loaded table must not lock in the wrong strategy from
  fragment 0 alone).
"""

import json
import pathlib

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the image
    HAVE_HYPOTHESIS = False

from repro.core.aggregates import AggregateSpec
from repro.core.query import AggregateQuery
from repro.costmodel.globalhash import choose_mp_strategy
from repro.obs.decisions import (
    MP_STRATEGY_CHOICE,
    MP_STRATEGY_RESAMPLE,
    DecisionLedger,
    VERDICT_CORRECT,
)
from repro.parallel.mp_executor import (
    multiprocessing_aggregate,
    shutdown_worker_pool,
)
from repro.parallel.mp_executor.kernel import _local_phase
from repro.parallel.mp_executor.strategies import (
    _AUTO_SAMPLE_ROWS,
    _auto_params,
)
from repro.storage.columnblock import ColumnBlock
from repro.storage.relation import BlockRelation, DistributedRelation
from repro.storage.schema import Column, Schema
from repro.workloads.generator import generate_zipf

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


# -- the mid-run adaptive controller ------------------------------------------


def _front_loaded_dist(num_nodes=4, rows_per_node=2000):
    """Every fragment's sampled prefix is one hot group; the rest of
    each fragment is all-distinct — the shape that fools any prefix
    sample but not the mid-run observation."""
    per = max(1, _AUTO_SAMPLE_ROWS // num_nodes)
    parts = []
    for i in range(num_nodes):
        part = [(0, 1.0, "")] * per
        part += [
            (1 + i * rows_per_node + j, 1.0, "")
            for j in range(rows_per_node - per)
        ]
        parts.append(part)
    schema = Schema(
        [Column("gkey", "int"), Column("val", "float"),
         Column("pad", "str", 84)]
    )
    return _block_dist(schema, parts)


class TestMidRunResample:
    def test_switch_is_exercised_and_verdict_annotated(self):
        dist = _front_loaded_dist()
        query = AggregateQuery(
            ("gkey",), (AggregateSpec("sum", "val"),)
        )
        ledger = DecisionLedger()
        rows = multiprocessing_aggregate(
            dist, query, 1, strategy="auto", ledger=ledger,
            auto_resample_after=1,
        )
        assert rows == _per_row(dist, query)

        by_kind = {e.kind: e for e in ledger.events}
        choice = by_kind[MP_STRATEGY_CHOICE]
        resample = by_kind[MP_STRATEGY_RESAMPLE]

        # The prefix sample sees one group -> the model picks pool (2P);
        # the first completed fragment reveals the true cardinality and
        # the controller switches to global mid-run.
        assert choice.data["chosen"] == "pool"
        assert resample.data["previous"] == "pool"
        assert resample.data["chosen"] == "global"
        assert resample.data["switched"] is True
        assert resample.data["observed_fragments"] == [0]
        assert resample.data["observed_groups"] > 1000

        # Both decisions carry post-hoc verdicts against the true group
        # count: the pre-run choice was wrong, the re-decision correct.
        assert choice.truth["true_groups"] == len(rows)
        assert choice.truth["decision_correct"] is False
        assert choice.truth["verdict"] != VERDICT_CORRECT
        assert resample.truth["decision_correct"] is True
        assert resample.truth["verdict"] == VERDICT_CORRECT

    def test_no_switch_when_sample_was_right(self):
        dist = generate_zipf(4000, 10, 4, seed=3)
        query = AggregateQuery(
            ("gkey",), (AggregateSpec("sum", "val"),)
        )
        ledger = DecisionLedger()
        rows = multiprocessing_aggregate(
            dist, query, 1, strategy="auto", ledger=ledger,
            auto_resample_after=2,
        )
        assert rows == _per_row(dist, query)
        resample = next(
            e for e in ledger.events if e.kind == MP_STRATEGY_RESAMPLE
        )
        assert resample.data["switched"] is False
        assert resample.data["chosen"] == resample.data["previous"]
        assert resample.truth["verdict"] == VERDICT_CORRECT

    def test_resample_disabled_with_zero_window(self):
        dist = _front_loaded_dist()
        query = AggregateQuery(
            ("gkey",), (AggregateSpec("sum", "val"),)
        )
        ledger = DecisionLedger()
        multiprocessing_aggregate(
            dist, query, 1, strategy="auto", ledger=ledger,
            auto_resample_after=0,
        )
        kinds = [e.kind for e in ledger.events]
        assert MP_STRATEGY_CHOICE in kinds
        assert MP_STRATEGY_RESAMPLE not in kinds


class TestStratifiedSamplingRegression:
    def test_front_loaded_zipf_table_samples_every_fragment(self):
        """Sampling only fragment 0 locked in the wrong strategy when
        one fragment was all hot-group; the stratified sample must see
        every fragment and decide correctly."""
        base = generate_zipf(8000, 1500, 1, alpha=1.2, seed=5,
                             columnar=False)
        rows = base.all_rows()
        # Front-load: sort by group frequency so fragment 0 holds only
        # the hottest groups (few distinct keys), later fragments carry
        # the cardinality.
        freq: dict = {}
        for row in rows:
            freq[row[0]] = freq.get(row[0], 0) + 1
        rows.sort(key=lambda row: (-freq[row[0]], row[0]))
        num_nodes, n = 4, len(rows)
        parts = [
            rows[i * n // num_nodes:(i + 1) * n // num_nodes]
            for i in range(num_nodes)
        ]
        dist = _block_dist(base.schema, parts)
        query = AggregateQuery(
            ("gkey",), (AggregateSpec("sum", "val"),)
        )

        ledger = DecisionLedger()
        result = multiprocessing_aggregate(
            dist, query, 1, strategy="auto", ledger=ledger
        )
        choice = next(
            e for e in ledger.events if e.kind == MP_STRATEGY_CHOICE
        )
        assert choice.data["sampled_fragments"] == num_nodes
        assert choice.truth["decision_correct"] is True

        # The regression: a fragment-0-only prefix sample sees so few
        # groups the model picks the other branch.
        frag0 = parts[0][:_AUTO_SAMPLE_ROWS]
        biased = max(
            1.0 / len(rows),
            len({row[0] for row in frag0}) / len(frag0),
        )
        biased_choice, _ = choose_mp_strategy(_auto_params(dist), biased)
        assert biased_choice != choice.data["chosen"]
        assert len(result) == 1500
