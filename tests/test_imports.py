"""Every name a module imports is used in it (package modules, scripts and tests), and
importing the package runs no dataclass code generation."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = (
    sorted(p for p in (ROOT / "src" / "nullstate").glob("*.py") if p.name != "__init__.py")
    + sorted((ROOT / "scripts").glob("*.py"))
    + sorted((ROOT / "tests").glob("*.py"))
)


def unused_imports(source: str) -> list:
    """Names bound by import statements that no other node of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport math\nmath.pi\n") == [(1, "os")]
    assert unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# the assertion the CI job also runs against the installed package
NO_DATACLASSES = "import sys, nullstate, nullstate.cli; assert 'dataclasses' not in sys.modules"


def test_package_imports_no_dataclasses():
    # the package's records are NamedTuples and __slots__ classes, which generate no
    # methods at import; numpy does not import dataclasses either
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", NO_DATACLASSES], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
