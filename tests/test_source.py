"""Checks on the package source itself."""

import ast
from pathlib import Path

import fibsum

SOURCES = sorted(Path(fibsum.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # ``python -O`` strips assert statements, so invariants must raise.
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, f"assert statements in the package: {found}"
