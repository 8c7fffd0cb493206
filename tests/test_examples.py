"""The examples must at least import cleanly and expose main().

Full runs take minutes (they are demos, not tests); correctness of what
they demonstrate is covered by the algorithm and benchmark suites.  One
small example (quickstart, scaled down via its own API) is executed for
real.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def load_module(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_expected_examples_exist(self):
        names = {p.stem for p in EXAMPLES}
        assert {
            "quickstart",
            "tpcd_aggregation",
            "duplicate_elimination",
            "skew_study",
            "network_comparison",
            "sql_frontend",
            "out_of_core",
            "reproduce_all",
        } <= names

    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[p.stem for p in EXAMPLES]
    )
    def test_imports_and_has_main(self, path):
        module = load_module(path)
        assert callable(module.main)

    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[p.stem for p in EXAMPLES]
    )
    def test_has_module_docstring(self, path):
        module = load_module(path)
        assert module.__doc__ and len(module.__doc__) > 80
