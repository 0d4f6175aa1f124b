"""Smoke tests: each experiment script in scripts/ runs and prints its summary."""

import csv
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



# two kappa of the sweep in a fresh process, since the script sets numpy's
# code paths before numpy is imported
FRESH_SWEEP = """
import csv, sys
import kappa_sweep as sweep
import numpy
out = csv.writer(sys.stdout, lineterminator="\\n")
out.writerow([numpy.__version__, sweep.NUMPY])
out.writerow(sweep.HEADER)
out.writerow(map(repr, sweep.kappas()))
for kappa in (2.0, 6.0):
    for suite in sweep.SUITES:
        out.writerows(sweep.suite_rows(kappa, suite))
"""


def test_committed_kappa_sweep_holds_a_fresh_run_at_kappa_2_and_6():
    # CI regenerates the whole sweep and diffs it; this reruns two of its kappa
    src = str(Path(ns.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, str(SCRIPTS), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", FRESH_SWEEP], capture_output=True, text=True,
                          timeout=600, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    (numpy, wrote), header, kappas, *fresh = csv.reader(proc.stdout.splitlines())
    with open(SCRIPTS.parent / "kappa_sweep.csv", newline="") as fh:
        committed = list(csv.reader(fh))
    assert committed[0] == header
    assert list(dict.fromkeys(row[0] for row in committed[1:])) == kappas
    want = [row for row in committed if row[0] in ("2.0", "6.0")]
    if numpy != wrote:  # another numpy may round differently: names, verdicts and tolerances
        fresh, want = ([row[:4] + row[5:] for row in rows] for rows in (fresh, want))
    assert fresh == want
