"""Every definition of the package is used by the package, every import is
used where it is made, and the package imports only the standard library.

A top-level function or class, or a method or property of a package class,
that only the tests reach is test code living in ``src``: move it into the
tests or delete it.  Imports do not count as uses, and a definition does not
use itself; a class member or field counts as used only where it is read as
an attribute (``x.name``), since a bare name of the same spelling is some
other binding.  Dunder methods are called by Python itself and are exempt.  An
imported name that its module never reads is a leftover of deleted code.  Only
``search.candidate_pool`` combines the four candidate generators.
"""

import ast
import sys
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
    read = set()  # attribute names read as ``x.name``
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                members += [
                    (path.name, cls.name, stmt.name)
                    for stmt in cls.body
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not _is_dunder(stmt.name)
                ]
    assert members
    # a def statement binds its name without an ast.Attribute node, so
    # ``read`` holds only real reads (recursion aside); a local variable
    # named like a member does not reach it
    unused = [f"{module}:{cls}.{name}" for module, cls, name in members if name not in read]
    assert unused == []


def test_every_field_is_read_in_the_package():
    # an annotated class attribute (a dataclass field, say) that no package
    # code reads as ``x.name`` is computed for the tests alone
    fields = []  # (module, class, name)
    read = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                fields += [
                    (path.name, cls.name, stmt.target.id)
                    for stmt in cls.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
    assert fields
    unused = [f"{module}:{cls}.{name}" for module, cls, name in fields if name not in read]
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


def test_only_the_candidate_pool_combines_the_generators():
    # one pool composition: a second one, with its own order, would let the
    # two record searches drift apart
    generators = {"subalphabets", "substitutions", "efamilies", "dominations"}
    callers = set()
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and generators & _names_used(node.func):
                    callers.add(f"{path.name}:{getattr(stmt, 'name', '<module>')}")
    assert callers == {"search.py:candidate_pool"}


def test_the_package_imports_only_the_standard_library():
    # the package has no runtime dependency: each import is relative, of the
    # package itself, or of a standard-library module (numpy is a test oracle)
    allowed = sys.stdlib_module_names | {"adicgaps"}
    foreign = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{name}" for name in names if name.split(".")[0] not in allowed]
    assert foreign == []
