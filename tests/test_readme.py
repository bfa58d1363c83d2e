"""The README's library tour runs as written."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs_and_prints_its_comments():
    # The first python block runs statement by statement; a bare expression
    # must evaluate to what its comment shows first.  A public name that is
    # removed or renamed fails here, not for the reader.
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block is not None, "README.md has no python block"
    source = block.group(1)
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
            assert comment.startswith(repr(value)), (ast.unparse(stmt), value)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked
