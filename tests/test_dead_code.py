"""Dead-code check over ``src/quasimap``, with the standard library's ``ast`` alone.

A module may not import a name it never uses, a module-level function or
class, public or ``_private``, must be named by some other top-level statement
of the package (a name only the tests use does not count), and a public method
or property of a package class must be named by some other statement of the
package or the tests; otherwise it is dead and should go.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import quasimap

PACKAGE = pathlib.Path(quasimap.__file__).resolve().parent
MODULES = {path.name: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}
TESTS = [ast.parse(path.read_text(), filename=str(path))
         for path in sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))]


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


def _unnamed_definitions(private: bool) -> list[str]:
    """Module-level functions and classes, ``_private`` or public, that no other top-level
    statement of the package names."""
    statements = [(module, stmt, _names(stmt)) for module, tree in MODULES.items() for stmt in tree.body]
    return [f"{module}:{stmt.lineno} {stmt.name}" for module, stmt, _ in statements
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("__")
            and stmt.name.startswith("_") == private
            and not any(stmt.name in names for _, other, names in statements if other is not stmt)]


def test_every_private_definition_is_named_elsewhere():
    dead = _unnamed_definitions(private=True)
    assert not dead, f"private definitions no other statement names: {dead}"


def test_every_public_definition_is_named_elsewhere():
    dead = _unnamed_definitions(private=False)
    assert not dead, f"public definitions no other statement of the package names: {dead}"


def test_every_public_method_is_named_elsewhere():
    # A class body counts as its statements: a method named only inside its own body is
    # dead, and one that a sibling method calls is not.
    statements = [stmt for tree in [*MODULES.values(), *TESTS] for top in tree.body
                  for stmt in (top.body if isinstance(top, ast.ClassDef) else [top])]
    named = [(stmt, _names(stmt)) for stmt in statements]
    dead = [f"{module}:{member.lineno} {cls.name}.{member.name}"
            for module, tree in MODULES.items() for cls in tree.body if isinstance(cls, ast.ClassDef)
            for member in cls.body
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
            and not any(member.name in names for stmt, names in named if stmt is not member)]
    assert not dead, f"public methods no other statement names: {dead}"
