"""Smoke tests: each experiment script in scripts/ runs and prints its summary."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nullstate as ns

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *argv):
    # the child imports the same nullstate package as this test, installed or not
    src = str(Path(ns.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True,
        text=True,
        timeout=600,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "name, argv, summary",
    [
        ("collapse_study.py", ("--kappa", "6"),
         r"^kappa=6\.0000 +p_hat=\S+ \(stderr \S+\) .* two_leg=(True|False)"),
    ],
    ids=("collapse_study",),
)
def test_script_runs(name, argv, summary):
    code, out, err = run_script(name, *argv)
    assert code == 0, err
    assert re.search(summary, out, re.MULTILINE), out
