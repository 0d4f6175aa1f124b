"""Every defaulted parameter and record field in the package has a caller outside the tests.

A parameter with a default is an option, and so is a field with a default
that the constructor takes, of a dataclass or a `NamedTuple`; a class that
declares `__slots__` takes its fields through its own `__init__`, whose
defaulted parameters are options already.  An option counts as set when a
call in the package, the scripts or the benchmark passes it, by keyword or
by position.  Calls are matched by name: `f(...)` and `x.f(...)` count for
every def named `f`, and `C(...)` counts for `C.__init__` and for the fields
of a dataclass or `NamedTuple` `C`.  A
call to a function that passes its own `**kwargs` on to another call counts
for that callee too, so `kernel_bound_scan(kernel, T=1.0)` sets
`bound_ratio_scan`'s `T`.  Tests are not callers: an option only a test sets
is a path the program never takes.

An option that every call passes, always as the same literal, is a knob with
one value in use: a constant, or a branch no caller takes.  A call that
unpacks `*args` or `**kwargs` could pass anything, so a callee that has one
is not judged.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "nullstate").glob("*.py"))
CALLERS = PACKAGE + sorted(p for d in ("scripts", "bench") for p in (ROOT / d).glob("*.py"))

# defaulted record fields that no construction sets, kept for a reader
# outside the package: they can become constants only with a benchmark change
UNSET_FIELDS_KEPT = {
    "TruncationPolicy.tail_tol": "bench/tracing.py keys its cache on kernel.policy",
    "TruncationPolicy.n_max": "bench/tracing.py reads kernel.policy.n_max",
}


def _name(func):
    return getattr(func, "id", getattr(func, "attr", None))


def declared_options(tree) -> list:
    """(line, callee name, parameter, position) per defaulted parameter.

    The callee name of `__init__` is its class; position counts call
    arguments, so it skips `self`/`cls`, and is None for keyword-only ones.
    """
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            owner.update((id(stmt), node.name) for stmt in node.body)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        cls = owner.get(id(node))
        static = any(_name(d) == "staticmethod" for d in node.decorator_list)
        skip = 1 if cls and not static else 0
        name = cls if node.name == "__init__" else node.name
        a = node.args
        pos = a.posonlyargs + a.args
        first = len(pos) - len(a.defaults)
        found += [(node.lineno, name, arg.arg, k - skip) for k, arg in enumerate(pos) if k >= first]
        found += [(node.lineno, name, arg.arg, None)
                  for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return found


def _is_dataclass(node: ast.ClassDef) -> bool:
    """A dataclass or a `NamedTuple`: its fields are its annotated class-body names."""
    return (any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
                for d in node.decorator_list)
            or any(_name(base) == "NamedTuple" for base in node.bases))


def _init_false(value) -> bool:
    return (isinstance(value, ast.Call) and _name(value.func) == "field"
            and any(k.arg == "init" and getattr(k.value, "value", True) is False
                    for k in value.keywords))


def declared_fields(tree) -> list:
    """(line, class name, field, position) per defaulted field a record's constructor takes.

    Position counts the fields the constructor takes, in declaration order.
    A `__slots__` class has none here: its `__init__` is in `declared_options`.
    """
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
            continue
        init = [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name) and not _init_false(stmt.value)]
        found += [(stmt.lineno, node.name, stmt.target.id, k)
                  for k, stmt in enumerate(init) if stmt.value is not None]
    return found


def _forwards(trees) -> dict:
    """{function name: names of the calls that receive its **kwargs}."""
    forwards = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.args.kwarg:
                kw = node.args.kwarg.arg
                forwards.setdefault(node.name, set()).update(
                    _name(call.func) for call in ast.walk(node) if isinstance(call, ast.Call)
                    and any(k.arg is None and getattr(k.value, "id", None) == kw
                            for k in call.keywords)
                )
    return forwards


def passed(trees) -> set:
    """(callee name, keyword) and (callee name, position) pairs some call passes."""
    forwards = _forwards(trees)
    found = set()
    for tree in trees:
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            name = _name(call.func)
            found.update((name, k) for k in range(len(call.args)))
            for callee in {name} | forwards.get(name, set()):
                found.update((callee, k.arg) for k in call.keywords if k.arg)
    return found


_OPAQUE = None  # a call whose arguments cannot be read off its source


def _literal(node):
    """The literal an argument spells, as its AST dump; a fresh object if it is none."""
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return object()
    return ast.dump(node)


def call_arguments(trees) -> dict:
    """{callee name: per call, {position or keyword: `_literal` of the argument}, or _OPAQUE}."""
    found = {}
    for tree in trees:
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            if (any(isinstance(a, ast.Starred) for a in call.args)
                    or any(k.arg is None for k in call.keywords)):
                args = _OPAQUE
            else:
                args = {k: _literal(a) for k, a in enumerate(call.args)}
                args.update((k.arg, _literal(k.value)) for k in call.keywords)
            found.setdefault(_name(call.func), []).append(args)
    return found


def one_value_options(sources: dict, callers: dict) -> list:
    """Sorted (module, line, name.parameter) of options every call passes as one literal."""
    calls = call_arguments([ast.parse(s) for s in callers.values()])
    flagged = []
    for module, source in sources.items():
        for declared in (declared_options, declared_fields):
            for line, name, param, pos in declared(ast.parse(source)):
                uses = calls.get(name, [])
                if not uses or _OPAQUE in uses:
                    continue
                values = {args.get(param, args.get(pos)) for args in uses}
                if len(values) == 1 and isinstance(values.pop(), str):
                    flagged.append((module, line, f"{name}.{param}"))
    return sorted(flagged)


def unset_options(sources: dict, callers: dict) -> list:
    """Sorted (module, line, name.parameter) of options and fields that no caller sets."""
    seen = passed([ast.parse(s) for s in callers.values()])
    return sorted(
        (module, line, f"{name}.{param}")
        for module, source in sources.items()
        for declared in (declared_options, declared_fields)
        for line, name, param, pos in declared(ast.parse(source))
        if (name, param) not in seen and (name, pos) not in seen
    )


def test_checker_flags_an_unset_option():
    src = (
        "class K:\n    def __init__(self, a, b=1, *, c=2):\n        pass\n"
        "    def run(self, x, y=0):\n        pass\n"
        "def scan(kernel, t=1.0, n=3):\n    pass\n"
        "def wrap(kernel, **grid):\n    return scan(kernel, **grid)\n"
    )
    assert unset_options({"m": src}, {"m": src}) == [
        ("m", 2, "K.b"), ("m", 2, "K.c"), ("m", 4, "run.y"), ("m", 6, "scan.n"), ("m", 6, "scan.t"),
    ]
    use = "k = K(0, 5)\nk.run(1, 2)\nwrap(k, c=1, t=0.5)\nscan(k, n=4)\n"
    assert unset_options({"m": src}, {"m": src, "u": use}) == [("m", 2, "K.c")]
    assert unset_options({"m": src}, {"m": src, "u": "K(0, c=1)\n"})[0] == ("m", 2, "K.b")


def test_checker_flags_an_unset_field():
    src = (
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\nclass P:\n    a: int\n    b: int = 1\n"
        "    c: list = field(default_factory=list)\n"
        "    d: int = field(init=False, default=0)\n    e: str = 'x'\n"
    )
    assert unset_options({"m": src}, {"m": src}) == [
        ("m", 5, "P.b"), ("m", 6, "P.c"), ("m", 8, "P.e"),
    ]
    assert unset_options({"m": src}, {"m": src, "u": "P(0, 2, e='y')\nP(0, c=[])\n"}) == []


def test_checker_flags_an_unset_namedtuple_field_and_slots_parameter():
    src = (
        "from typing import NamedTuple\n"
        "class N(NamedTuple):\n    a: int\n    b: int = 1\n    c: str = 'x'\n"
        "class S:\n    __slots__ = ('d', 'e')\n"
        "    def __init__(self, d, e=0):\n        self.d, self.e = d, e\n"
    )
    assert unset_options({"m": src}, {"m": src}) == [
        ("m", 4, "N.b"), ("m", 5, "N.c"), ("m", 8, "S.e"),
    ]
    assert unset_options({"m": src}, {"m": src, "u": "N(0, 2)\nN(0, c='y')\nS(1, e=2)\n"}) == []


def test_checker_flags_an_option_with_one_value_in_use():
    src = (
        "def rule(m, basis, domain='symmetric', scale=1.0, name=None):\n    pass\n"
        "def scan(kernel, t=1.0):\n    pass\n"
        "def grid(x, n=3):\n    pass\n"
        "def wrap(*args):\n    return grid(*args)\n"
    )
    use = ("rule(120, b, 'unit', scale=-2.0)\nrule(40, b, domain='unit', scale=-2.0, name=x)\n"
           "scan(k, t=0.5)\ngrid(1, n=4)\n")
    assert one_value_options({"m": src}, {"m": src, "u": use}) == [
        ("m", 1, "rule.domain"), ("m", 1, "rule.scale"), ("m", 3, "scan.t"),
    ]
    # a second value, a call that leaves the default, or a non-literal clears it
    more = "rule(1, b, 'symmetric', [2.0])\nscan(k)\n"
    assert one_value_options({"m": src}, {"m": src, "u": use + more}) == []
    assert one_value_options({"m": src}, {"m": src, "u": "scan(k, t=x)\nscan(k, t=x)\n"}) == []


def test_every_option_has_a_caller():
    sources = {p.name: p.read_text() for p in PACKAGE}
    callers = {str(p.relative_to(ROOT)): p.read_text() for p in CALLERS}
    unset = unset_options(sources, callers)
    assert [u for u in unset if u[2] not in UNSET_FIELDS_KEPT] == []
    assert {u[2] for u in unset} == set(UNSET_FIELDS_KEPT)  # no kept entry is stale


def test_no_option_has_one_value_in_use():
    sources = {p.name: p.read_text() for p in PACKAGE}
    callers = {str(p.relative_to(ROOT)): p.read_text() for p in CALLERS}
    assert one_value_options(sources, callers) == []
