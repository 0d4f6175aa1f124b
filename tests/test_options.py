"""Every defaulted parameter in the package is set by a caller outside the tests.

A parameter with a default is an option.  It counts as set when a call in the
package, the scripts or the benchmark passes it, by keyword or by position.
Calls are matched by name: `f(...)` and `x.f(...)` count for every def named
`f`, and `C(...)` counts for `C.__init__`.  A call to a function that passes
its own `**kwargs` on to another call counts for that callee too, so
`kernel_bound_scan(kernel, T=1.0)` sets `bound_ratio_scan`'s `T`.  Tests are
not callers: an option only a test sets is a path the program never takes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "nullstate").glob("*.py"))
CALLERS = PACKAGE + sorted(p for d in ("scripts", "bench") for p in (ROOT / d).glob("*.py"))


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


def unset_options(sources: dict, callers: dict) -> list:
    """Sorted (module, line, function.parameter) of options that no caller sets."""
    seen = passed([ast.parse(s) for s in callers.values()])
    return sorted(
        (module, line, f"{name}.{param}")
        for module, source in sources.items()
        for line, name, param, pos in declared_options(ast.parse(source))
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


def test_every_option_has_a_caller():
    sources = {p.name: p.read_text() for p in PACKAGE}
    callers = {str(p.relative_to(ROOT)): p.read_text() for p in CALLERS}
    assert unset_options(sources, callers) == []
