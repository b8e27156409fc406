"""The library holds only code the library itself runs: every function and
class defined under `src/qbgg` is referenced somewhere under `src/qbgg`.
Reference implementations that only tests compare against live in
`tests/oracles.py`.  Definitions and uses are matched by bare name, without
their class, so a method escapes this test when another class's method or a
local variable shares its name.  A use inside a definition of the same name
does not count, so neither recursion nor two methods of one name that only
call each other keep a definition alive."""
from __future__ import annotations

import ast
from pathlib import Path

import qbgg

SRC = Path(qbgg.__file__).parent

# constructors and structure kept for callers outside the package
ALLOWED = {
    # K_i^e: a generator constructor alongside F, E and one
    "K",
    # omega_i: the weight constructor alongside simple_root
    "fundamental_weight",
    # the adjoint action, kept for the quantum nilradical of the double
    # complex on non-chain coset graphs
    "adjoint",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _collect(node, inside: frozenset, where: str, defined: dict,
             used: set) -> None:
    """Record the definitions under node, and the names used under it
    outside every enclosing definition of the same name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        defined.setdefault(node.name, "%s:%d" % (where, node.lineno))
        inside = inside | {node.name}
    elif isinstance(node, ast.Name) and node.id not in inside:
        used.add(node.id)
    elif isinstance(node, ast.Attribute) and node.attr not in inside:
        used.add(node.attr)
    for child in ast.iter_child_nodes(node):
        _collect(child, inside, where, defined, used)


def test_every_library_definition_is_used_by_the_library():
    defined: dict[str, str] = {}
    used: set[str] = set()
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        _collect(tree, frozenset(), path.name, defined, used)
    unused = sorted("%s (%s)" % (name, where) for name, where in defined.items()
                    if name not in used and name not in ALLOWED
                    and not _is_dunder(name))
    assert unused == []
