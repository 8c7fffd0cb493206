"""Binary tuple serialization for the on-disk page format.

Fixed-width encoding derived from the schema: int columns are 8-byte
signed little-endian, floats are IEEE-754 doubles, str columns occupy
exactly their declared ``size_bytes`` (UTF-8, NUL-padded; truncation and
trailing-NUL values rejected — the pad byte would make them decode to a
different string).  Fixed width keeps tuples-per-page arithmetic exact — the
same arithmetic the cost models charge I/O with — and makes N encoded
rows a contiguous, sliceable byte run: a page of
:class:`repro.storage.pagefile.PageFile`.
"""

from __future__ import annotations

import struct

from repro.storage.schema import Schema


class RowCodec:
    """Encode/decode rows of one schema to fixed-width bytes.

    All per-column work — the combined struct format and which columns
    need UTF-8 handling — is resolved once here, so the per-row
    ``encode``/``decode`` and the bulk ``encode_many``/``decode_many``
    never rebuild schema-derived state.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        parts = []
        # (position, width, name) for every string column; empty for
        # all-numeric schemas, which then take the pack-directly path.
        self._str_cols: tuple[tuple[int, int, str], ...] = tuple(
            (i, c.size_bytes, c.name)
            for i, c in enumerate(schema.columns)
            if c.kind == "str"
        )
        for column in schema.columns:
            if column.kind == "int":
                fmt = "q"
            elif column.kind == "float":
                fmt = "d"
            else:
                fmt = f"{column.size_bytes}s"
            parts.append(fmt)
        self._struct = struct.Struct("<" + "".join(parts))

    @property
    def row_bytes(self) -> int:
        return self._struct.size

    def _encode_strs(self, row: tuple) -> list:
        values = list(row)
        for i, width, name in self._str_cols:
            raw = values[i].encode("utf-8")
            if len(raw) > width:
                raise ValueError(
                    f"column {name!r}: string {values[i]!r} exceeds its "
                    f"column width ({len(raw)} > {width} bytes)"
                )
            if raw.endswith(b"\x00"):
                # NUL padding is the fixed-width fill byte, so a value
                # with trailing NULs cannot be told apart from its
                # stripped form on decode: it would round-trip to a
                # different string, and two distinct keys would collapse
                # into one group.  Fail fast like truncation does; the
                # dictionary-encoded columnar path (ColumnBlock) is
                # length-exact and accepts such values.
                raise ValueError(
                    f"column {name!r}: string {values[i]!r} has trailing "
                    f"NUL bytes, which the NUL-padded fixed-width codec "
                    f"cannot represent"
                )
            values[i] = raw
        return values

    def encode(self, row: tuple) -> bytes:
        if not self._str_cols:
            return self._struct.pack(*row)
        return self._struct.pack(*self._encode_strs(row))

    def encode_many(self, rows) -> bytes:
        """Concatenated fixed-width encodings of ``rows`` (one allocation)."""
        pack = self._struct.pack
        if not self._str_cols:
            return b"".join([pack(*row) for row in rows])
        encode_strs = self._encode_strs
        return b"".join([pack(*encode_strs(row)) for row in rows])

    def _decode_values(self, values: tuple) -> tuple:
        out = list(values)
        for i, _width, _name in self._str_cols:
            out[i] = out[i].rstrip(b"\x00").decode("utf-8")
        return tuple(out)

    def decode(self, data) -> tuple:
        values = self._struct.unpack(data)
        if not self._str_cols:
            return values
        return self._decode_values(values)

    def decode_many(self, data) -> list[tuple]:
        """All rows of a contiguous encoding (inverse of encode_many).

        ``data`` may be ``bytes`` or a ``memoryview``; its length must be
        a multiple of ``row_bytes``.  Decoding runs through
        ``struct.iter_unpack`` (one C-level pass), with the UTF-8 fixup
        only where the schema has string columns.
        """
        if not self._str_cols:
            return list(self._struct.iter_unpack(data))
        decode_values = self._decode_values
        return [
            decode_values(values)
            for values in self._struct.iter_unpack(data)
        ]
