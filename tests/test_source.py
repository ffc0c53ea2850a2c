"""Checks on the library's source text."""

import ast
from pathlib import Path

import divbound

MODULES = sorted(Path(divbound.__file__).resolve().parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # asserts vanish under python -O; a guard must raise a typed error instead
    assert {"bounds.py", "cli.py", "generators.py", "oracle.py"} <= {p.name for p in MODULES}
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
