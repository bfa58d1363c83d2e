"""Checks on the package source itself."""

import ast
from pathlib import Path

import fibsum

SOURCES = sorted(Path(fibsum.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # ``python -O`` strips assert statements and sets ``__debug__`` False, so
    # invariants must raise, and no code may branch on ``__debug__``: the
    # package must behave the same with and without -O.
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Name) and node.id == "__debug__"]
    assert SOURCES and not found, f"assert or __debug__ in the package: {found}"


def test_cli_handlers_write_nothing():
    # Each cmd_* returns (exit code, payload, text); only main writes, so
    # stdout and --json output leave through one place.
    path = Path(fibsum.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    handlers = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    writers = {"print", "_write", "_write_json", "stdout", "json"}
    found = [f"{handler.name}:{node.lineno} {name}"
             for handler in handlers
             for node in ast.walk(handler)
             for name in [getattr(node, "id", None) or getattr(node, "attr", None)]
             if name in writers]
    assert len(handlers) == 8 and not found, f"handlers that write: {found}"
