"""Unit tests for the stable partitioning hash."""

import os
import subprocess
import sys

import pytest

from repro.storage.hashing import bucket_of, stable_hash


class TestStableHash:
    def test_deterministic_within_process(self):
        assert stable_hash("abc") == stable_hash("abc")

    def test_types_do_not_collide_trivially(self):
        assert stable_hash(1) != stable_hash("1")
        assert stable_hash(1) != stable_hash(1.0)

    def test_ints(self):
        assert stable_hash(0) != stable_hash(1)
        assert stable_hash(-1) != stable_hash(1)

    def test_large_ints(self):
        assert stable_hash(2**80) != stable_hash(2**80 + 1)

    def test_tuples(self):
        assert stable_hash((1, "a")) == stable_hash((1, "a"))
        assert stable_hash((1, "a")) != stable_hash(("a", 1))

    def test_nested_tuples(self):
        assert stable_hash(((1, 2), 3)) != stable_hash((1, (2, 3)))

    def test_empty_tuple(self):
        assert isinstance(stable_hash(()), int)

    def test_none(self):
        assert isinstance(stable_hash(None), int)

    def test_bool_not_int(self):
        assert stable_hash(True) != stable_hash(1)

    def test_bytes(self):
        assert stable_hash(b"ab") != stable_hash("ab")

    def test_unhashable_type_rejected(self):
        with pytest.raises(TypeError, match="unhashable partition key"):
            stable_hash([1, 2])

    def test_64_bit_range(self):
        for value in (0, "x", (1, 2), None, 3.5):
            h = stable_hash(value)
            assert 0 <= h < 2**64

    def test_stable_across_processes(self):
        """Unlike builtin hash, stable_hash must survive PYTHONHASHSEED."""
        code = (
            "from repro.storage.hashing import stable_hash;"
            "print(stable_hash(('group', 42)))"
        )
        outs = set()
        for seed in ("1", "2"):
            try:
                proc = subprocess.run(
                    [sys.executable, "-c", code],
                    capture_output=True,
                    text=True,
                    env={
                        "PYTHONHASHSEED": seed,
                        "PATH": "/usr/bin:/bin",
                        # the child imports repro from where this one did
                        "PYTHONPATH": os.pathsep.join(sys.path),
                    },
                    check=False,
                )
            except OSError as exc:
                pytest.skip(f"subprocess unavailable: {exc}")
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout.strip())
        assert len(outs) == 1
        assert outs == {str(stable_hash(("group", 42)))}

    def test_distribution_roughly_uniform(self):
        counts = [0] * 8
        for i in range(8000):
            counts[bucket_of(i, 8)] += 1
        assert min(counts) > 800  # no bucket starved


class TestBucketOf:
    def test_in_range(self):
        for i in range(100):
            assert 0 <= bucket_of(i, 7) < 7

    def test_single_bucket(self):
        assert bucket_of("anything", 1) == 0

    def test_invalid_bucket_count(self):
        with pytest.raises(ValueError):
            bucket_of(1, 0)
