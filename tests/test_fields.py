"""Every field of a record class declared in the package is read somewhere.

A record class is a dataclass, a `NamedTuple` or a class that declares
`__slots__`; its fields are its annotated class-body names, or its slots.  A
field counts as read when `<expr>.<field>` is loaded in the package, the
scripts, the benchmark or the tests.  Where the receiver's class is known (it
is `self` in a method of the class, or a name bound from, or the direct
result of, a call annotated to return a package record), the read counts
for that class only; otherwise it counts for every class declaring the name.
A method call `x.name(...)` counts only when the receiver's class is known,
so `results.values()` on a dict reads no field named `values`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "nullstate").glob("*.py"))
READERS = PACKAGE + sorted(
    p for d in ("scripts", "bench", "tests") for p in (ROOT / d).glob("*.py")
)


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def _is_dataclass(node: ast.ClassDef) -> bool:
    """A dataclass or a `NamedTuple`: its fields are its annotated class-body names."""
    return (any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
                for d in node.decorator_list)
            or any(_name(base) == "NamedTuple" for base in node.bases))


def _slots(node: ast.ClassDef) -> list:
    """The `__slots__ = (...)` statements of a class body."""
    return [stmt for stmt in node.body if isinstance(stmt, ast.Assign)
            and any(getattr(t, "id", None) == "__slots__" for t in stmt.targets)]


def declared_fields(trees) -> dict:
    """{class name: {field name: (module, line)}} for every record class."""
    fields = {}
    for module, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_dataclass(node):
                fields[node.name] = {
                    stmt.target.id: (module, stmt.lineno)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                }
            elif _slots(node):
                fields[node.name] = {
                    name: (module, stmt.lineno)
                    for stmt in _slots(node) for name in ast.literal_eval(stmt.value)
                }
    return fields


def return_types(trees, classes) -> dict:
    """{function or method name: record} where every def of that name is annotated `-> Class`."""
    annotated = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                name = ast.unparse(node.returns).strip("'\"") if node.returns else None
                annotated.setdefault(node.name, set()).add(name)
    return {f: min(names) for f, names in annotated.items()
            if len(names) == 1 and min(names) in classes}


def _callee(node):
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", getattr(node.func, "attr", None))
    return None


def _bindings(scope, returns: dict) -> dict:
    """{name: record} for the names that every binding in scope sets from
    a call annotated to return that class; parameters count as unknown."""
    typed = {id(n.targets[0]): returns.get(_callee(n.value)) for n in ast.walk(scope)
             if isinstance(n, ast.Assign) and len(n.targets) == 1}
    kinds = {}
    for node in ast.walk(scope):
        if isinstance(node, ast.arg):
            kinds.setdefault(node.arg, set()).add(None)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            kinds.setdefault(node.id, set()).add(typed.get(id(node)))
    return {name: min(k) for name, k in kinds.items() if len(k) == 1 and None not in k}


def reads(tree, fields: dict, returns: dict) -> set:
    """(class, field) pairs read in one module."""
    owners = {}
    for cls, names in fields.items():
        for name in names:
            owners.setdefault(name, set()).add(cls)
    called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    found = set()

    def scan(scope, known):
        bound = {**_bindings(scope, returns), **known}
        for node in ast.walk(scope):
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                continue
            recv = node.value
            cls = bound.get(recv.id) if isinstance(recv, ast.Name) else returns.get(_callee(recv))
            if cls is not None:
                found.add((cls, node.attr))
            elif id(node) not in called:
                found.update((c, node.attr) for c in owners.get(node.attr, ()))

    rest = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            scan(node, {})
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef) and stmt.args.args:
                    own = node.name in fields
                    scan(stmt, {stmt.args.args[0].arg: node.name} if own else {})
                else:
                    rest.append(stmt)
        else:
            rest.append(node)
    scan(ast.Module(body=rest, type_ignores=[]), {})
    return found


def unread_fields(sources: dict, readers: dict) -> list:
    """Sorted (module, line, class.field) of declared fields that no reader loads."""
    decl = declared_fields([(m, ast.parse(s)) for m, s in sources.items()])
    parsed = [(m, ast.parse(s)) for m, s in readers.items()]
    returns = return_types(parsed, decl)
    seen = set().union(*(reads(tree, decl, returns) for _, tree in parsed))
    return sorted(
        (module, line, f"{cls}.{name}")
        for cls, names in decl.items()
        for name, (module, line) in names.items()
        if (cls, name) not in seen
    )


def test_checker_flags_an_unread_field():
    src = (
        "from dataclasses import dataclass\n"
        "@dataclass\nclass A:\n    x: int\n    y: int\n"
        "@dataclass\nclass B:\n    y: int\n    z: int\n"
        "def make() -> B:\n    return B(1, 2)\n"
        "def use(d):\n    b = make()\n    d.values()\n    return b.y + make().z\n"
    )
    assert unread_fields({"m": src}, {"m": src}) == [("m", 4, "A.x"), ("m", 5, "A.y")]
    assert unread_fields({"m": src}, {"m": src, "r": "def f(a):\n    return a.x + a.y\n"}) == []


def test_checker_flags_an_unread_namedtuple_field_and_slot():
    src = (
        "from typing import NamedTuple\n"
        "class N(NamedTuple):\n    a: int\n    b: int = 0\n"
        "class S:\n    __slots__ = ('c', 'd')\n"
        "    def __init__(self, c, d):\n        self.c = c\n        self.d = d\n"
        "    def total(self):\n        return self.c\n"
        "def make() -> N:\n    return N(1)\n"
        "def use():\n    return make().a\n"
    )
    assert unread_fields({"m": src}, {"m": src}) == [("m", 4, "N.b"), ("m", 6, "S.d")]
    assert unread_fields({"m": src}, {"m": src, "r": "def f(n, s):\n    return n.b + s.d\n"}) == []


def test_every_record_field_is_read():
    sources = {p.name: p.read_text() for p in PACKAGE}
    readers = {str(p.relative_to(ROOT)): p.read_text() for p in READERS}
    assert unread_fields(sources, readers) == []
