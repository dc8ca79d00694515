"""Every top-level function and class of the package is used by the package.

A definition that only the tests reach is test code living in ``src``: move it
into the tests or delete it.  Imports do not count as uses, and a definition
does not use itself.
"""

import ast
from pathlib import Path

import adicgaps

SOURCES = sorted(Path(adicgaps.__file__).parent.glob("*.py"))


def _names_used(tree: ast.AST) -> set:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


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
