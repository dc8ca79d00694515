"""Every definition of the package is used by the package, every import is
used where it is made, and the package imports only the standard library.

A top-level function or class, or a method or property of a package class,
that only the tests reach is test code living in ``src``: move it into the
tests or delete it.  Imports do not count as uses, and a definition does not
use itself; a class member or field counts as used only where it is read as
an attribute (``x.name``), since a bare name of the same spelling is some
other binding.  Dunder methods are called by Python itself and are exempt.  An
imported name that its module never reads is a leftover of deleted code.  Only
``search.candidate_pool`` combines the four candidate generators.  Two guards
keep what speed depends on: nothing writes a ``Node`` field after
``Node.__init__`` (its hash is cached), and every ``lru_cache`` is listed
with its bound, each unbounded one with the reason its keys stay few.
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


# every field of tree.Node, and the two methods that may write them
NODE_FIELDS = {"alphabet", "runs", "length", "_hash"}
NODE_WRITERS = {"tree.py:Node.__init__", "tree.py:Node.__hash__"}


def _attribute_writes(tree: ast.AST) -> list:
    """``(enclosing definitions, name)`` for every attribute stored or
    deleted, and every string a ``setattr``-like call names."""
    writers = {"setattr", "delattr", "__setattr__", "__delattr__"}
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            out.append((".".join(scope), node.attr))
        if isinstance(node, ast.Call) and writers & _names_used(node.func):
            out.extend(
                (".".join(scope), arg.value)
                for arg in node.args
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            )
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return out


def test_no_package_code_writes_a_node_field():
    # Node is a plain slotted class, not a frozen one, and its __hash__
    # caches the hash of its fields: a field written later would leave the
    # node misfiled in every set and dict that holds it
    writes = [
        (f"{path.name}:{scope}", name)
        for path in SOURCES
        for scope, name in _attribute_writes(ast.parse(path.read_text(encoding="utf-8")))
        if name in NODE_FIELDS
    ]
    assert [f"{scope}.{name}" for scope, name in writes if scope not in NODE_WRITERS] == []
    assert {scope for scope, _ in writes} == NODE_WRITERS


# Every lru_cache of the package with its maxsize.  An unbounded cache keeps
# every entry for the life of the process (one unbounded classification memo
# grew to about 300 MB in a minute of a ternary query), so each says why its
# keys stay few.  A new cache fails the census until it is listed here.
CACHES = {
    "combs.py:comb_witness": (None, "one witness per kind, size and alphabet: 42 in a cold audit"),
    "combs.py:_comb_classes": (None, "one table map per alphabet and size"),
    "gaps.py:_strong_off_kinds": (None, "one tuple per arity"),
    "gaps.py:enumerate_candidates_strong": (None, "one candidate list per arity"),
    "gaps.py:generate_type_actions": (None, "one order pool per pair of arities"),
    "gaps.py:_realizable_maps": (None, "one map pool per pair of arities"),
    "search.py:_replay_fixture": (None, "one fixture per alphabet and map kind"),
    "search.py:_memoized_probe": (
        None,
        "one action or None per probed payload, a few dozen bytes each",
    ),
    "tree.py:_matches": (256, "bounded: node-set keys are unbounded in number and size"),
    "types.py:enumerate_types": (None, "one catalogue per alphabet"),
    "types.py:_type_classes": (None, "one table map per alphabet and size"),
    "types.py:same_type_probes": (None, "one pool per alphabet"),
}


def _caches(path: Path) -> dict:
    """``{"module:function": maxsize}`` for each function a module decorates
    with ``functools.lru_cache`` or ``functools.cache``, and ``{"module:line
    N": "?"}`` for any other use of either."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    local = {  # local name -> functools name
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in ("lru_cache", "cache")
    }

    def maker(node):  # "lru_cache", "cache" or None
        if isinstance(node, ast.Name):
            return local.get(node.id)
        if isinstance(node, ast.Attribute) and _names_used(node.value) == {"functools"}:
            return node.attr if node.attr in ("lru_cache", "cache") else None
        return None

    found, placed = {}, set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in fn.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            target = call.func if call else dec
            kind = maker(target)
            if kind is None:
                continue
            placed.add(id(target))
            args = {}
            if call:
                args = dict(zip(["maxsize"], call.args)) | {kw.arg: kw.value for kw in call.keywords}
            maxsize = ast.literal_eval(args["maxsize"]) if "maxsize" in args else 128
            found[f"{path.name}:{fn.name}"] = None if kind == "cache" else maxsize
    for node in ast.walk(tree):
        if maker(node) and id(node) not in placed:
            found[f"{path.name}:line {node.lineno}"] = "?"
    return found


def test_every_cache_is_listed_with_its_bound():
    found = {}
    for path in SOURCES:
        found.update(_caches(path))
    assert found == {name: maxsize for name, (maxsize, _) in CACHES.items()}
    assert all(reason for _, reason in CACHES.values())
