"""Deterministic, process-stable hashing for partitioning.

Python's builtin ``hash`` is salted per interpreter process (PYTHONHASHSEED),
so it cannot be used to decide which node a group key is routed to: two nodes
in a real cluster — or a test re-run — would disagree.  We use a small
Fowler–Noll–Vo (FNV-1a) implementation over a canonical byte encoding of the
key, which is fast, stable, and has good avalanche behaviour for the integer
and string keys the workloads generate.

FNV-1a is serial per byte (each byte is xor-folded into the running product),
but mod 2**64 distributes over both the multiply and the low-byte xor, so the
64-bit mask does not have to be applied every iteration.  ``hash_bytes``
exploits that: it folds bytes in chunks and masks once per chunk (once total
for short keys), letting Python's bigint multiply absorb the chunk before the
truncation.  The values are bit-identical to the naive per-byte loop — pinned
by golden vectors in ``tests/golden/block_parity.json``.
"""

from __future__ import annotations

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Deferred-mask chunk width: the intermediate grows ~40 bits per byte
# (the prime is 2**40-ish), so 16-byte chunks stay well under one bigint
# digit allocation spike while amortizing the mask.
_CHUNK = 16


def _encode(value) -> bytes:
    if isinstance(value, bool):
        return b"b1" if value else b"b0"
    if isinstance(value, int):
        return b"i" + value.to_bytes(
            (value.bit_length() // 8) + 1, "little", signed=True
        )
    if isinstance(value, float):
        return b"f" + repr(value).encode("ascii")
    if isinstance(value, str):
        return b"s" + value.encode("utf-8")
    if isinstance(value, bytes):
        return b"y" + value
    if value is None:
        return b"n"
    if isinstance(value, tuple):
        parts = [b"t", len(value).to_bytes(4, "little")]
        for item in value:
            enc = _encode(item)
            parts.append(len(enc).to_bytes(4, "little"))
            parts.append(enc)
        return b"".join(parts)
    raise TypeError(f"unhashable partition key type: {type(value).__name__}")


def hash_bytes(data) -> int:
    """64-bit FNV-1a over raw bytes, identical across processes and runs.

    Bytes that are already a canonical encoding can be hashed directly,
    skipping the re-encoding that :func:`stable_hash` performs per value.
    """
    h = _FNV_OFFSET
    if len(data) <= 2 * _CHUNK:
        for byte in data:
            h = (h ^ byte) * _FNV_PRIME
        return h & _MASK64
    for base in range(0, len(data), _CHUNK):
        for byte in data[base : base + _CHUNK]:
            h = (h ^ byte) * _FNV_PRIME
        h &= _MASK64
    return h


def stable_hash(value) -> int:
    """A 64-bit FNV-1a hash, identical across processes and runs."""
    return hash_bytes(_encode(value))


def bucket_of(value, num_buckets: int) -> int:
    """Map ``value`` to one of ``num_buckets`` buckets."""
    if num_buckets <= 0:
        raise ValueError("num_buckets must be positive")
    return stable_hash(value) % num_buckets
