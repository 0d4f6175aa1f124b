"""One differencing and fitting toolkit: no second least-squares line, no scalar sampler.

`findiff` holds every stencil combination and the one line fit.  Its
functions take samples, never the function to sample, so each caller
evaluates its samples itself, as one array where it can.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "nullstate").glob("*.py"))


def test_no_polyfit_in_the_package():
    # every slope and intercept goes through findiff.line_fit
    hits = [f"{p.name}:{i}" for p in PACKAGE
            for i, line in enumerate(p.read_text().splitlines(), start=1) if "polyfit" in line]
    assert hits == []


def samplers(source: str) -> list:
    """Names of the functions that call one of their own arguments."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
            if any(isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                   and c.func.id in params for c in ast.walk(node)):
                found.append(node.name)
    return found


def test_sampler_checker_flags_a_function_that_calls_its_argument():
    assert samplers("def f(g, x, h):\n    return [g(p) for p in (x - h, x + h)]\n") == ["f"]
    assert samplers("def first(w, h):\n    return (w[1] - w[0]) / h\n") == []


def test_findiff_holds_no_scalar_sampler():
    assert samplers((ROOT / "src" / "nullstate" / "findiff.py").read_text()) == []
