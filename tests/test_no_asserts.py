"""Certificates must survive `python -O`, so the library holds no `assert`,
and a failed certificate raises `CertificationError`, not `AssertionError`."""
from __future__ import annotations

import ast
from pathlib import Path

import qbgg

SRC = Path(qbgg.__file__).parent


def test_no_assert_statements_in_library():
    found = []
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)
                  or isinstance(node, ast.Raise) and _raises_assertion(node)]
    assert found == []


def _raises_assertion(node: ast.Raise) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"
