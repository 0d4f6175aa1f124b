#!/usr/bin/env python3
"""The regime map: every check of every `verify` suite over a fixed list of kappa.

Each suite runs through `checks.run_suite` with the arguments that
`nullstate verify <suite> --kappa K` resolves (`cli.suite_arguments`): h =
theta_2 and the Jacobi pair it induces, candidate n1, 100 configurations,
seed 0, t in 1e-3, 1e-2, 0.1, 1, 10, each where the suite reads it.  The
CSV has one row per (kappa, check): its verdict, repr(value) and tolerance.  A
suite that refuses a kappa with one of the package's named errors gets one
REFUSED row, with the error, in place of its checks.  No row holds a time;
`kappa_sweep.csv` at the root of the repository is the committed map, written
with the numpy version NUMPY, which CI regenerates and diffs.

    python scripts/kappa_sweep.py --output kappa_sweep.csv

numpy's and OpenBLAS's AVX-512 code rounds differently from their AVX2 code,
in 265 rows and two verdicts (kernel.symmetry at kappa = 0.42,
pde.system_residuals_sweep at 5.681).  So the script runs both on their AVX2
code, which every x86-64 machine with AVX2 and FMA has.
"""

import argparse
import csv
import math
import os
import sys

# read when numpy is imported, so set before nullstate imports it
os.environ["NPY_DISABLE_CPU_FEATURES"] = "X86_V4 AVX512_ICL AVX512_SPR"
os.environ["OPENBLAS_CORETYPE"] = "Haswell"

from nullstate import checks, cli  # noqa: E402
from nullstate.errors import (  # noqa: E402
    DegenerateFitError, DomainError, PreconditionError, TruncationError)

NUMPY = "2.4.6"  # the numpy that wrote kappa_sweep.csv
REFUSALS = (DomainError, PreconditionError, DegenerateFitError, TruncationError)
HEADER = ("kappa", "suite", "check", "verdict", "value", "tolerance", "error")
SUITES = tuple(name for name in checks.SUITES if name != "all")


def kappas() -> list:
    """96 Chebyshev points of [0.25, 7.999], denser at both edges, at 1e-3 steps,
    with the kappa of `checks.KAPPA_GRID` and 1 and 7.99."""
    lo, hi, n = 0.25, 7.999, 96
    points = {round(lo + (hi - lo) * (1.0 - math.cos(math.pi * i / (n - 1))) / 2.0, 3)
              for i in range(n)}
    return sorted(points | set(checks.KAPPA_GRID) | {1.0, 7.99})


def suite_rows(kappa: float, suite: str) -> list:
    """The rows of one suite at one kappa, or its one REFUSED row."""
    args = cli.build_parser().parse_args(["verify", suite, "--kappa", repr(kappa)])
    try:
        results = checks.run_suite(suite, kappa, **cli.suite_arguments(args))
    except REFUSALS as exc:
        return [(repr(kappa), suite, "", "REFUSED", "", "", f"{type(exc).__name__}: {exc}")]
    return [(repr(kappa), suite, c.name, "PASS" if c.passed else "FAIL", repr(c.value),
             repr(c.tolerance), "") for c in results]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output", default=None, help="CSV path (default: stdout)")
    args = ap.parse_args()
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    with out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(HEADER)
        for kappa in kappas():
            for suite in SUITES:
                writer.writerows(suite_rows(kappa, suite))


if __name__ == "__main__":
    main()
