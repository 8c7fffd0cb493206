"""Unit tests for the uniform and Zipf generators."""

import numpy as np
import pytest

from repro.workloads.generator import (
    generate_uniform,
    generate_zipf,
    selectivity_to_groups,
)


class TestSelectivityToGroups:
    def test_basic(self):
        assert selectivity_to_groups(0.5, 1000) == 500

    def test_minimum_one_group(self):
        assert selectivity_to_groups(1e-9, 1000) == 1

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            selectivity_to_groups(0.0, 10)
        with pytest.raises(ValueError):
            selectivity_to_groups(1.5, 10)


class TestGenerateUniform:
    def test_exact_group_count(self):
        dist = generate_uniform(1000, 37, 4, seed=0)
        keys = {row[0] for row in dist.all_rows()}
        assert len(keys) == 37
        assert keys == set(range(37))

    def test_total_tuples(self):
        dist = generate_uniform(1001, 10, 4, seed=0)
        assert len(dist) == 1001

    def test_round_robin_balance(self):
        dist = generate_uniform(1002, 10, 4, seed=0)
        sizes = dist.tuples_per_node()
        assert max(sizes) - min(sizes) <= 1

    def test_group_frequencies_near_uniform(self):
        dist = generate_uniform(1000, 10, 4, seed=0)
        counts = {}
        for row in dist.all_rows():
            counts[row[0]] = counts.get(row[0], 0) + 1
        assert set(counts.values()) == {100}

    def test_deterministic_by_seed(self):
        a = generate_uniform(500, 10, 2, seed=42)
        b = generate_uniform(500, 10, 2, seed=42)
        assert a.all_rows() == b.all_rows()

    def test_different_seeds_differ(self):
        a = generate_uniform(500, 10, 2, seed=1)
        b = generate_uniform(500, 10, 2, seed=2)
        assert a.all_rows() != b.all_rows()

    def test_no_shuffle_deals_round_robin(self):
        dist = generate_uniform(100, 10, 2, seed=0, shuffle=False)
        rows = dist.all_rows()
        # Without shuffling, key of tuple i is i % 10 before placement.
        frag0 = dist.fragment(0).relation.rows
        assert [r[0] for r in frag0[:5]] == [0, 2, 4, 6, 8]

    def test_hash_placement_colocates_groups(self):
        dist = generate_uniform(400, 8, 4, seed=0, placement="hash")
        for frag in dist.fragments:
            keys_here = {r[0] for r in frag.relation.rows}
            for other in dist.fragments:
                if other.node_id == frag.node_id:
                    continue
                assert not (
                    keys_here & {r[0] for r in other.relation.rows}
                )

    def test_random_placement_keeps_all_rows(self):
        dist = generate_uniform(300, 5, 3, seed=0, placement="random")
        assert len(dist) == 300

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError, match="unknown placement"):
            generate_uniform(10, 2, 2, placement="sorted")

    def test_more_groups_than_tuples_rejected(self):
        with pytest.raises(ValueError):
            generate_uniform(10, 11, 2)

    def test_tuple_width_is_100_bytes(self):
        dist = generate_uniform(10, 2, 2)
        assert dist.schema.tuple_bytes == 100

    def test_zero_groups_rejected(self):
        with pytest.raises(ValueError):
            generate_uniform(10, 0, 2)


class TestGenerateZipf:
    def test_exact_group_count(self):
        dist = generate_zipf(2000, 50, 4, alpha=1.5, seed=0)
        assert len({r[0] for r in dist.all_rows()}) == 50

    def test_skewed_frequencies(self):
        dist = generate_zipf(5000, 50, 4, alpha=1.5, seed=0)
        counts = np.zeros(50)
        for row in dist.all_rows():
            counts[row[0]] += 1
        # Rank 0 should dominate the tail under alpha=1.5.
        assert counts[0] > 5 * counts[25:].mean()

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            generate_zipf(100, 5, 2, alpha=0.0)

    def test_total_preserved(self):
        assert len(generate_zipf(777, 10, 3, seed=1)) == 777


class TestColumnarGeneration:
    """Block-born fragments must decode to exactly the legacy rows."""

    @pytest.mark.parametrize("placement", ["round_robin", "hash", "random"])
    @pytest.mark.parametrize("key_format", [None, "g{:06d}"])
    def test_uniform_blocks_decode_to_legacy_rows(
        self, placement, key_format
    ):
        kwargs = dict(seed=9, placement=placement, key_format=key_format)
        cols = generate_uniform(1500, 40, 4, **kwargs)
        rows = generate_uniform(1500, 40, 4, columnar=False, **kwargs)
        for cf, rf in zip(cols.fragments, rows.fragments):
            assert cf.relation.rows == rf.relation.rows

    @pytest.mark.parametrize("placement", ["round_robin", "hash", "random"])
    @pytest.mark.parametrize("key_format", [None, "g{:06d}"])
    def test_zipf_blocks_decode_to_legacy_rows(self, placement, key_format):
        kwargs = dict(
            alpha=1.3, seed=9, placement=placement, key_format=key_format
        )
        cols = generate_zipf(1500, 40, 4, **kwargs)
        rows = generate_zipf(1500, 40, 4, columnar=False, **kwargs)
        for cf, rf in zip(cols.fragments, rows.fragments):
            assert cf.relation.rows == rf.relation.rows

    def test_fragments_are_block_born(self):
        from repro.storage.relation import BlockRelation

        dist = generate_uniform(200, 10, 2, seed=0)
        for frag in dist.fragments:
            assert isinstance(frag.relation, BlockRelation)
            # The decoding view is lazy: nothing materialized yet.
            assert frag.relation._rows is None

    def test_str_keys_are_dictionary_coded(self):
        dist = generate_uniform(300, 25, 2, seed=0, key_format="g{:04d}")
        frag = dist.fragments[0].relation
        assert frag.block.schema.columns[0].kind == "str"
        # code == group id: the dictionary indexes groups directly.
        assert frag.block.dictionaries[0].values == [
            f"g{g:04d}" for g in range(25)
        ]
        assert frag.rows[0][0] == frag.block.dictionaries[0].values[
            int(frag.block.columns[0][0])
        ]

    def test_head_decodes_only_the_prefix(self):
        dist = generate_uniform(400, 10, 2, seed=3)
        frag = dist.fragments[0].relation
        head = frag.block.slice(0, 7).to_rows()
        assert frag._rows is None  # prefix decode, no full materialize
        assert head == frag.rows[:7]
