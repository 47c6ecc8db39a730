"""Dead-code check over ``src/quasimap``, with the standard library's ``ast`` alone.

A module may not import a name it never uses, and a module-level ``_private``
function or class must be named by some other top-level statement of the
package; otherwise it is dead and should go.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import quasimap

PACKAGE = pathlib.Path(quasimap.__file__).resolve().parent
MODULES = {path.name: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _names(node: ast.AST) -> set[str]:
    """Every identifier ``node`` refers to: names, attributes and imported names."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names a module binds by import, each with its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = MODULES[module]
    used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{module} imports names it never uses: {unused}"


def test_every_private_definition_is_named_elsewhere():
    statements = [(module, stmt, _names(stmt)) for module, tree in MODULES.items() for stmt in tree.body]
    dead = []
    for module, stmt, _ in statements:
        if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_")
                and not stmt.name.startswith("__")):
            if not any(stmt.name in names for _, other, names in statements if other is not stmt):
                dead.append(f"{module}:{stmt.lineno} {stmt.name}")
    assert not dead, f"private definitions no other statement names: {dead}"
