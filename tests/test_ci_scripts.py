"""The inline Python scripts in the CI workflow still match the package.

Some of ``ci.yml``'s ``python - <<'EOF'`` heredocs run only after a job
has already failed (``if: failure()``), so a rename in the package
breaks them without any job going red.  This module reads every
heredoc, checks that it parses, and checks that every name it imports
from ``repro`` exists.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pathlib
import re
import textwrap

import pytest

_CI = pathlib.Path(__file__).parent.parent / ".github" / "workflows" / "ci.yml"
_START = re.compile(r"python[0-9.]* - <<'?(\w+)'?\s*$")
_STEP = re.compile(r"^\s*- name:\s*(.+?)\s*$")


def _heredocs() -> list[tuple[str, str]]:
    """(step name, dedented body) of each inline Python script."""
    lines = _CI.read_text().splitlines()
    scripts = []
    step = "?"
    index = 0
    while index < len(lines):
        named = _STEP.match(lines[index])
        if named:
            step = named.group(1)
        match = _START.search(lines[index])
        index += 1
        if not match:
            continue
        body = []
        while lines[index].strip() != match.group(1):
            body.append(lines[index])
            index += 1
        scripts.append((step, textwrap.dedent("\n".join(body))))
    return scripts


SCRIPTS = _heredocs()


def test_the_workflow_has_inline_scripts():
    # If the pattern stopped matching, every check below would pass on
    # nothing.
    assert len(SCRIPTS) >= 3


@pytest.mark.parametrize(
    "step, script", SCRIPTS, ids=[step for step, _ in SCRIPTS]
)
def test_inline_script_parses_and_imports_what_exists(step, script):
    tree = ast.parse(script, filename=step)
    missing, imported = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.module or ""
        ).split(".")[0] == "repro":
            for alias in node.names:
                try:
                    imported[alias.asname or alias.name] = _resolve(
                        node.module, alias.name
                    )
                except (ImportError, AttributeError):
                    missing.append(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "repro":
                    continue
                try:
                    importlib.import_module(alias.name)
                except ImportError:
                    missing.append(alias.name)
    assert missing == [], f"step {step!r} imports what does not exist"
    # A call to an imported name must fit its signature: a keyword the
    # callee lost fails only when the step runs.
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            target = imported.get(node.func.id)
            if target is None or not callable(target):
                continue
            keywords = {k.arg: None for k in node.keywords if k.arg}
            try:
                inspect.signature(target).bind_partial(
                    *[None] * len(node.args), **keywords
                )
            except TypeError as exc:
                pytest.fail(
                    f"step {step!r}: {node.func.id}(...) at line "
                    f"{node.lineno}: {exc}"
                )


def _resolve(module_name: str, name: str):
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return getattr(module, name)
    return importlib.import_module(f"{module_name}.{name}")
