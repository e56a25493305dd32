"""No Python file of the repo imports a name it never uses.

A stdlib ``ast`` scan, since no linter runs in CI.  A name counts as used
when the module reads it (as a name or the root of an attribute chain),
lists it in ``__all__``, or names it inside a string (a quoted annotation
of a ``TYPE_CHECKING`` import).  ``__init__.py`` files re-export by
importing, and an import line marked ``# noqa`` is deliberate.
"""

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "scripts", "examples", "benchmarks")


def _imported(tree):
    """``(name, line)`` of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0],
                       node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _string_names(text):
    """The names a string reads if it is a Python expression."""
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError:
        return set()
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _used(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used |= _string_names(node.value)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= {element.value for element in node.value.elts}
    return used


def unused_imports(source):
    """``(name, line)`` of every import of ``source`` it never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used(tree)
    return [(name, line) for name, line in _imported(tree)
            if name not in used and "# noqa" not in lines[line - 1]]


def test_no_unused_imports():
    found = [f"{path.relative_to(REPO_ROOT)}:{line} {name}"
             for top in SCANNED
             for path in sorted((REPO_ROOT / top).rglob("*.py"))
             if path.name != "__init__.py"
             for name, line in unused_imports(path.read_text())]
    assert found == []


@pytest.mark.parametrize("source, expected", [
    ("import os\n", ["os"]),
    ("import os.path\nos.sep\n", []),
    ("from typing import List, Dict\nx: List[int]\n", ["Dict"]),
    ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n"
     "    from a import B\ndef f(b: 'B'): pass\n", []),
    ("from a import B\n__all__ = ['B']\n", []),
    ("import os  # noqa: F401\n", []),
    ("from __future__ import annotations\n", []),
])
def test_scan(source, expected):
    assert [name for name, _ in unused_imports(source)] == expected
