"""Every definition of the package is used by the package, and every import
is used where it is made.

A top-level function or class, or a method or property of a package class,
that only the tests reach is test code living in ``src``: move it into the
tests or delete it.  Imports do not count as uses, and a definition does not
use itself; dunder methods are called by Python itself and are exempt.  An
imported name that its module never reads is a leftover of deleted code.
"""

import ast
from pathlib import Path

import adicgaps

SOURCES = sorted(Path(adicgaps.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def _names_used(tree: ast.AST) -> set:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_top_level_definition_is_used_in_the_package():
    definitions = []  # (module, name)
    used = set()
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((path.name, stmt.name))
                names = _names_used(stmt) - {stmt.name}
            else:
                names = _names_used(stmt)
            used |= names
    assert len(SOURCES) > 1 and definitions
    unused = [f"{module}:{name}" for module, name in definitions if name not in used]
    assert unused == []


def test_every_class_member_is_used_in_the_package():
    members = []  # (module, class, name)
    used = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= _names_used(tree)
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                members += [
                    (path.name, cls.name, stmt.name)
                    for stmt in cls.body
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not _is_dunder(stmt.name)
                ]
    assert members
    # a def statement binds its name without an ast.Name or ast.Attribute
    # node, so ``used`` holds only real reads (recursion aside)
    unused = [f"{module}:{cls}.{name}" for module, cls, name in members if name not in used]
    assert unused == []


def test_every_import_is_used_by_its_module():
    unused = []
    for path in SOURCES + TESTS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.parent.name}/{path.name}:{name}" for name in imported if name not in read]
    assert len(SOURCES) > 1 and len(TESTS) > 1
    assert unused == []
