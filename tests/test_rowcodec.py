"""Property-based round-trips for the fixed-width row codec.

The invariant the page file leans on: ``encode_many`` followed by
``decode_many`` is the identity for any encodable rows.

Strings are NUL-padded to their column width and decoding strips the
padding, so the encodable domain is: UTF-8 form fits the width and the
value does not itself end in NUL.  The strategies generate exactly that
domain; over-width values are covered separately by the truncation
error test.  Floats exclude NaN only because NaN != NaN would fail the
equality assertion, not because the codec mishandles it.
"""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage.schema import Column, Schema
from repro.storage.serialization import RowCodec

_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_FLOAT64 = st.floats(allow_nan=False)


def _str_values(width: int):
    return st.text(
        alphabet=st.characters(codec="utf-8"), max_size=width
    ).filter(
        lambda s: len(s.encode("utf-8")) <= width and not s.endswith("\x00")
    )


@st.composite
def _schema_and_rows(draw):
    num_cols = draw(st.integers(min_value=1, max_value=4))
    columns = []
    value_strategies = []
    for i in range(num_cols):
        kind = draw(st.sampled_from(["int", "float", "str"]))
        if kind == "str":
            width = draw(st.integers(min_value=1, max_value=12))
            columns.append(Column(f"c{i}", "str", width))
            value_strategies.append(_str_values(width))
        else:
            columns.append(Column(f"c{i}", kind))
            value_strategies.append(_INT64 if kind == "int" else _FLOAT64)
    rows = draw(st.lists(st.tuples(*value_strategies), max_size=30))
    return Schema(columns), rows


@given(_schema_and_rows())
def test_encode_decode_round_trip(case):
    schema, rows = case
    codec = RowCodec(schema)
    assert codec.decode_many(codec.encode_many(rows)) == rows
    for row in rows:
        assert codec.decode(codec.encode(row)) == row


class TestCodecErrors:
    def test_truncation_error_names_the_column(self):
        schema = Schema(
            [Column("gkey", "int"), Column("label", "str", 4)]
        )
        codec = RowCodec(schema)
        with pytest.raises(ValueError, match="'label'"):
            codec.encode((1, "too wide"))
        with pytest.raises(ValueError, match="'label'"):
            codec.encode_many([(1, "ok"), (2, "too wide")])
        # Multi-byte characters count in encoded bytes, not characters.
        with pytest.raises(ValueError, match="'label'"):
            codec.encode((1, "ééé"))

    def test_out_of_range_int_raises(self):
        codec = RowCodec(Schema([Column("k", "int")]))
        with pytest.raises(struct.error):
            codec.encode((2**63,))

    def test_trailing_nul_rejected_with_column_name(self):
        # The NUL-padded layout cannot distinguish "abc\x00" from "abc";
        # decode used to strip the NUL and return a different string.
        # Encode now fails fast instead of corrupting silently.
        schema = Schema([Column("gkey", "int"), Column("label", "str", 8)])
        codec = RowCodec(schema)
        with pytest.raises(ValueError, match="'label'.*trailing NUL"):
            codec.encode((1, "abc\x00"))
        with pytest.raises(ValueError, match="'label'.*trailing NUL"):
            codec.encode_many([(1, "ok"), (2, "\x00")])

    def test_embedded_nul_round_trips(self):
        # Only *trailing* NULs are unrepresentable; interior ones are
        # unambiguous because padding is stripped from the right only.
        codec = RowCodec(Schema([Column("label", "str", 8)]))
        rows = [("a\x00b",), ("\x00ab",), ("",)]
        assert codec.decode_many(codec.encode_many(rows)) == rows
