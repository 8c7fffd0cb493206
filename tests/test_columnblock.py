"""Property-based round-trips for the columnar block and its dictionary.

The dictionary codec is length-exact, so unlike a NUL-padded
fixed-width field its encodable string domain is *all* of ``str`` —
embedded NULs, trailing NULs, non-ASCII, astral plane.  The strategies
here generate exactly that hostile domain on purpose.
"""

import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.storage.columnblock import (
    ColumnBlock,
    StringDictionary,
    have_numpy,
)
from repro.storage.schema import Column, Schema

pytestmark = pytest.mark.skipif(
    not have_numpy(), reason="columnar blocks require numpy"
)

_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_FLOAT64 = st.floats(allow_nan=False)
# The whole point: any string at all, including "\x00" runs and
# non-ASCII, is representable.
_ANY_STR = st.text(alphabet=st.characters(codec="utf-8"), max_size=12)


@st.composite
def _schema_and_rows(draw):
    num_cols = draw(st.integers(min_value=1, max_value=4))
    columns = []
    value_strategies = []
    for i in range(num_cols):
        kind = draw(st.sampled_from(["int", "float", "str"]))
        if kind == "str":
            columns.append(Column(f"c{i}", "str", 12))
            value_strategies.append(_ANY_STR)
        else:
            columns.append(Column(f"c{i}", kind))
            value_strategies.append(_INT64 if kind == "int" else _FLOAT64)
    rows = draw(st.lists(st.tuples(*value_strategies), max_size=30))
    return Schema(columns), rows


@given(_schema_and_rows())
def test_from_rows_to_rows_round_trip(case):
    schema, rows = case
    block = ColumnBlock.from_rows(schema, rows)
    assert len(block) == len(rows)
    assert block.to_rows() == rows


_STR_INT_FLOAT = Schema(
    [Column("s", "str", 12), Column("i", "int"), Column("f", "float")]
)


@given(_schema_and_rows())
# int32 codes ahead of 8-byte columns, odd row counts: the unpadded
# layout left every later column 4 bytes off.
@example((_STR_INT_FLOAT, []))
@example((_STR_INT_FLOAT, [("a", 1, 0.5)]))
@example((_STR_INT_FLOAT, [("a", 1, 0.5), ("b", 2, 1.5), ("a", 3, 2.5)]))
def test_serialization_round_trip(case):
    """``from_bytes(to_bytes(b))`` is ``b``, and its columns — views
    over the buffer — each start on an 8-byte boundary of it, whatever
    the buffer is (numpy leaves its fast paths on unaligned operands)."""
    schema, rows = case
    block = ColumnBlock.from_rows(schema, rows)
    data = block.to_bytes()
    for buffer in (data, bytes(data), memoryview(b"\0" * 8 + data)[8:]):
        back = ColumnBlock.from_bytes(schema, buffer)
        assert back.to_rows() == rows
        for arr, original in zip(back.columns, block.columns):
            assert arr.dtype == original.dtype
            assert arr.flags.aligned and arr.ctypes.data % 8 == 0


@given(_schema_and_rows())
def test_column_extraction_matches_rows(case):
    schema, rows = case
    block = ColumnBlock.from_rows(schema, rows)
    for i in range(len(schema.columns)):
        assert block.column(i) == [row[i] for row in rows]


@given(st.lists(_ANY_STR))
def test_dictionary_codes_round_trip(values):
    dictionary = StringDictionary()
    codes = dictionary.encode_many(values)
    assert [dictionary.decode(c) for c in codes] == values
    # One code per distinct value, dealt in first-seen order.
    assert len(dictionary) == len(set(values))
    seen: dict[str, int] = {}
    for value, code in zip(values, codes):
        assert seen.setdefault(value, code) == code


def test_dictionary_merge_maps_codes():
    a = StringDictionary(["x", "y"])
    b = StringDictionary(["y", "z\x00"])
    mapping = b.merge(a)
    assert mapping == [b.code_of("x"), b.code_of("y")]
    assert b.values == ["y", "z\x00", "x"]


def test_dictionary_rejects_duplicates():
    with pytest.raises(ValueError):
        StringDictionary(["a", "a"])


def test_projection_during_extraction():
    schema = Schema([Column("k", "str", 8), Column("v", "int")])
    rows = [(1, "a\x00b", 7.5, 10), (2, "c", 8.5, 20)]
    block = ColumnBlock.from_rows(schema, rows, idx=[1, 3])
    assert block.to_rows() == [("a\x00b", 10), ("c", 20)]


class TestFromRowsErrors:
    def test_float_in_int_column_raises(self):
        schema = Schema([Column("n", "int")])
        with pytest.raises(ValueError):
            ColumnBlock.from_rows(schema, [(1,), (2.5,)])

    def test_out_of_range_int_raises(self):
        schema = Schema([Column("n", "int")])
        with pytest.raises(ValueError):
            ColumnBlock.from_rows(schema, [(2**63,)])


class TestFromBytesErrors:
    def _block_bytes(self):
        schema = Schema([Column("k", "str", 8), Column("n", "int")])
        return schema, ColumnBlock.from_rows(
            schema, [("a", 1), ("b\x00", 2)]
        ).to_bytes()

    def test_bad_magic(self):
        """A foreign buffer — or the unpadded ``RCB1`` layout, whose
        columns sit elsewhere — fails on its tag, not by misparsing."""
        schema, data = self._block_bytes()
        for magic in (b"XXXX", b"RCB1"):
            with pytest.raises(ValueError, match="magic"):
                ColumnBlock.from_bytes(schema, magic + data[4:])

    def test_column_count_mismatch(self):
        schema, data = self._block_bytes()
        narrower = Schema([Column("k", "str", 8)])
        with pytest.raises(ValueError, match="column count"):
            ColumnBlock.from_bytes(narrower, data)

    def test_code_out_of_dictionary_range(self):
        schema = Schema([Column("k", "str", 8)])
        block = ColumnBlock.from_rows(schema, [("a",), ("b",)])
        data = bytearray(block.to_bytes())
        # Corrupt a code past the dictionary: the first column starts at
        # 16 — the 12-byte header and its 4-byte length prefix end on an
        # 8-byte boundary, so no padding precedes it.
        struct.pack_into("<i", data, 16, 99)
        with pytest.raises(ValueError, match="dictionary range"):
            ColumnBlock.from_bytes(schema, bytes(data))
