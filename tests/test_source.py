"""Checks on the library source itself."""

import ast
from pathlib import Path

import alttamari


def test_library_code_has_no_assert():
    # ``python -O`` strips assert statements, so no invariant check may rely on one.
    modules = sorted(Path(alttamari.__file__).parent.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
