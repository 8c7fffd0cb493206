"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e -q``).

Outside tier-1's ``testpaths``: it starts real worker pools and a real
server and takes a few minutes.  It checks the *shape* of what
``run.py`` prints against ``BENCHMARK.json`` — names, units, exact-repeat
counts, and that a wrong expected row fails the run — never a timing.
"""

import functools
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int, *extra: str, attempt: int = 0):
    """One short run; ``attempt`` only tells repeated runs apart."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "2",
         "--trace", str(trace), *extra],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    return done.returncode, json.loads(done.stdout.splitlines()[-1])


def check_shape(result: dict, wanted: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for entry in wanted:
        assert NAME.fullmatch(entry["name"])
        body = result["metrics"][entry["name"]]
        assert set(body) == {"value", "unit"}
        assert body["unit"] == entry["unit"]
        assert isinstance(body["value"], (int, float))


def test_workload_names_match_the_spec():
    sys.path.insert(0, HERE)
    try:
        from workloads import WORKLOADS as defined
    finally:
        sys.path.remove(HERE)
    assert list(defined) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_window_prints_every_end_to_end_metric(workload):
    code, result = run(workload, 0)
    assert code == 0
    check_shape(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first_code, first = run(workload, 1)
    second_code, second = run(workload, 1, attempt=1)
    assert first_code == second_code == 0
    check_shape(first, SPEC["per_layer"])
    check_shape(second, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["parallel.retries"]["value"] == 0
    assert first["attempted"] == second["attempted"]


def test_a_wrong_expected_row_fails_the_run():
    code, result = run("shape_cliffs", 0, "--inject-wrong-row")
    assert code != 0
    assert result["correct"] is False
