"""Command-line front end: `exponents`, `verify`, and `scan` subcommands.

Every command is deterministic given its flags; defaults, tolerances, and the
seed are echoed in each report.  Exit codes: 0 all checks pass, 1 a named
check failed, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time

import numpy as np

from . import checks
from .errors import DegenerateFitError, DomainError, PreconditionError, TruncationError
from .exponents import jacobi_params, leg_weight
from .green import TwoIntervalGreen
from .heat_kernel import HeatKernel

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def parse_weight(spec: str, kappa: float) -> float:
    """'theta<N>' or a literal float."""
    is_leg = spec.startswith("theta")
    try:
        value = int(spec[len("theta"):]) if is_leg else float(spec)
    except ValueError as exc:
        raise DomainError(f"bad weight spec {spec!r}; expected theta<N> or a float") from exc
    return leg_weight(value, kappa) if is_leg else value


def parse_corrupt(items) -> dict:
    out = {}
    for item in items or []:
        try:
            key, value = item.split("=")
            out[key.strip()] = float(value)
        except ValueError as exc:
            raise DomainError(f"bad corruption spec {item!r}; expected key=offset") from exc
    return out


def _print_report(report: checks.Report, fmt: str, output: str | None) -> None:
    if output or fmt == "json":  # json.dumps with an indent runs the pure-Python encoder
        text = json.dumps(report.to_dict(), indent=2)
        if output:
            with open(output, "w") as fh:
                fh.write(text + "\n")
        if fmt == "json":
            print(text)
            return
    print(f"# {report.command}")
    for key, value in sorted(report.params.items()):
        print(f"#   {key} = {value!r}")
    print(f"#   seed = {report.seed}")
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        line = f"{status}  {c.name}  value={c.value:.6e}  tol={c.tolerance:.6e}"
        if c.detail:
            line += f"  ({c.detail})"
        print(line)
    n_fail = sum(not c.passed for c in report.checks)
    print(f"# {len(report.checks)} checks, {n_fail} failures, {report.wall_time:.2f}s")


def cmd_exponents(args) -> int:
    started = time.perf_counter()
    rows, check = checks.exponent_table(args.kappa, args.smax)
    payload = {
        "schema": 1,
        "command": "exponents",
        "params": {"kappa": list(args.kappa), "smax": args.smax},
        "rows": rows,
        "checks": [check._asdict()],
        "passed": check.passed,
        "wall_time": time.perf_counter() - started,
    }
    text = json.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    if args.format == "json":
        print(text)
    elif args.format == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    else:
        hdr = f"{'kappa':>8} {'s':>3} {'theta_s':>12} {'delta+':>12} {'delta-':>12} {'gap':>12} {'lambda0':>12}"
        print(hdr)
        for r in rows:
            print(
                f"{r['kappa']:8.4f} {r['s']:3d} {r['theta_s']:12.8f} "
                f"{r['delta_plus']:12.8f} {r['delta_minus']:12.8f} "
                f"{r['gap']:12.8f} {r['lambda0']:12.8f}"
            )
        print(f"# worst identity residual {check.value:.3e} (tol 1e-12): "
              + ("PASS" if check.passed else "FAIL"))
    return EXIT_OK if check.passed else EXIT_CHECK_FAILED


def jacobi_pair(args, h: float) -> tuple[float, float]:
    """--alpha and --beta, each defaulting to its value in jacobi_params(h, kappa)."""
    if args.alpha is not None and args.beta is not None:
        return args.alpha, args.beta
    params = jacobi_params(h, args.kappa)
    return (params.alpha if args.alpha is None else args.alpha,
            params.beta if args.beta is None else args.beta)


def suite_arguments(args) -> dict:
    """`checks.run_suite`'s keyword arguments from parsed `verify <suite>` arguments.

    Each option the suite takes is resolved to its value (h from its spec,
    the Jacobi pair from h where not given, the time list from --t-min where
    --t is not given); an option it does not take is None, with seed 0 and no
    corruption.
    """
    opts = vars(args)  # the options of args.suite only
    h = parse_weight(args.h, args.kappa) if "h" in opts else None
    corrupt = parse_corrupt(opts.get("corrupt"))
    alpha, beta = jacobi_pair(args, h) if "alpha" in opts else (None, None)
    t_list = None
    if "t" in opts:
        t_list = tuple(args.t) if args.t else (args.t_min, 1e-2, 0.1, 1.0, 10.0)
    return dict(h=h, alpha=alpha, beta=beta, candidate=opts.get("candidate"),
                n_configs=opts.get("configs"), seed=opts.get("seed", 0), corrupt=corrupt,
                t_list=t_list)


def cmd_verify(args) -> int:
    started = time.perf_counter()
    opts = vars(args)
    resolved = suite_arguments(args)
    results = checks.run_suite(args.suite, args.kappa, **resolved)
    params = {"suite": args.suite, "kappa": args.kappa}
    params.update((key, opts[key]) for key in ("h", "alpha", "beta", "candidate", "configs")
                  if key in opts)
    if resolved["t_list"] is not None:
        params["t_list"] = list(resolved["t_list"])
    if "corrupt" in opts:
        params["corrupt"] = resolved["corrupt"]
    report = checks.build_report("verify", params, results, started, seed=resolved["seed"])
    _print_report(report, args.format, args.output)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


class _Reprs(dict):
    """repr of each float asked for, kept for values that recur in a column."""

    def __missing__(self, value):
        text = repr(value)
        if value:  # 0.0 and -0.0 are one key, so neither is kept
            self[value] = text
        return text


def _write_csv(path: str, header, rows) -> None:
    """The bytes csv.writer writes for a header of plain names and rows of floats."""
    text = _Reprs().__getitem__
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write("".join([",".join(map(text, row)) + "\r\n" for row in rows]))


def cmd_scan(args) -> int:
    started = time.perf_counter()
    kappa = args.kappa
    h = parse_weight(args.h, kappa)
    if args.name == "kernel-bounds":
        alpha, beta = jacobi_pair(args, h)
        rows, check = checks.kernel_bound_scan(
            HeatKernel(alpha, beta), T=args.T, c1=args.c1, c2=args.c2,
            n_angle=args.n_angle, n_time=args.n_time, t_min=args.t_min,
        )
        header = ("theta", "phi", "t", "K", "envelope", "ratio")
    elif args.name == "green-adjoint":
        rows, check = checks.adjoint_scan(
            TwoIntervalGreen(h=h, kappa=kappa), rho=args.rho, epsilon=args.epsilon,
            sigmas=np.linspace(0.2, 0.8, args.n_sigma),
            ratios=np.geomspace(1.5, 4.0, args.n_eta), tol=args.tol,
        )
        header = ("rho", "epsilon", "sigma", "eta", "residual", "scale")
    else:
        rows, check = checks.pair_scan(args.name, args.candidate, kappa, h)
        header = ("delta", "epsilon", "abs_F", "ratio")
    _write_csv(args.output, header, rows)
    params = {k: v for k, v in vars(args).items() if k not in ("func",)}
    report = checks.build_report("scan", params, [check], started, seed=0)
    _print_report(report, args.format, None)
    if args.format == "text":
        print(f"# wrote {args.output}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


class _NegativeFloat:
    """Which words that start with '-' are values, not options: every negative float.

    argparse's own test takes -1 and -1.5 but reads -1e3 and -inf as unknown
    options, so `--h -inf` would not reach the refusal that `--h=-inf` does.
    No option name of this parser reads as a float.
    """

    @staticmethod
    def match(word: str) -> bool:
        try:
            float(word)
        except ValueError:
            return False
        return word.startswith("-")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the class of its subparsers, that reads negative floats as values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NegativeFloat


@functools.cache  # built on first use, once per process; parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nullstate",
        description="Verification commands for the interval-collapse PDE toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("exponents", help="leg weights, collapse exponents, eigenvalues")
    p_exp.add_argument("--kappa", type=float, nargs="+", required=True)
    p_exp.add_argument("--smax", type=positive_int, default=5)
    p_exp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_exp.add_argument("--output", default=None)
    p_exp.set_defaults(func=cmd_exponents)

    p_ver = sub.add_parser("verify", help="run a module's invariant suite")
    p_ver.set_defaults(func=cmd_verify)
    suites = p_ver.add_subparsers(dest="suite", required=True)
    shared = argparse.ArgumentParser(add_help=False)  # each suite takes only what it reads
    shared.add_argument("--kappa", type=float, required=True)
    shared.add_argument("--format", choices=("text", "json"), default="text")
    shared.add_argument("--output", default=None)
    weight = argparse.ArgumentParser(add_help=False)
    weight.add_argument("--h", default="theta2",
                        help="anomalous weight: 'theta<N>' or a float (default theta2)")
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--alpha", type=float, default=None)
    pair.add_argument("--beta", type=float, default=None)
    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--candidate", default="n1", help="n1 | one | power:<i,j=mu;...>")
    sweep.add_argument("--configs", type=positive_int, default=100)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    times = argparse.ArgumentParser(add_help=False)
    times.add_argument("--t", type=float, nargs="+", default=None,
                       help="kernel times (default t-min, 1e-2, 0.1, 1, 10)")
    times.add_argument("--t-min", type=float, default=1e-3)
    reads = {
        "exponents": (),
        "jacobi": (weight, pair, seed),
        "kernel": (weight, pair, seed, times),
        "green": (weight,),
        "pde": (sweep, seed),
        "asymptotics": (weight,),
        "all": (weight, pair, sweep, seed, times),
    }
    for suite in checks.SUITES:
        # no abbreviations: --h would otherwise be --help for a suite without --h
        p_suite = suites.add_parser(suite, parents=[shared, *reads[suite]], allow_abbrev=False)
        keys = checks.SUPPORTED_CORRUPTIONS if suite == "all" else checks.SUITE_CORRUPTIONS.get(suite)
        if keys:
            p_suite.add_argument("--corrupt", nargs="+", default=None, metavar="KEY=OFFSET",
                                 help=f"fault injection; keys: {keys}")

    p_scan = sub.add_parser("scan", help="grid scans with CSV output")
    p_scan.set_defaults(func=cmd_scan)
    scans = p_scan.add_subparsers(dest="name", required=True)
    shared = argparse.ArgumentParser(add_help=False)  # each scan takes only what it reads
    shared.add_argument("--kappa", type=float, required=True)
    shared.add_argument("--h", default="theta2")
    shared.add_argument("--format", choices=("text", "json"), default="text")
    shared.add_argument("--output", required=True)
    p_kb = scans.add_parser("kernel-bounds", parents=[shared])
    p_kb.add_argument("--alpha", type=float, default=None)
    p_kb.add_argument("--beta", type=float, default=None)
    p_kb.add_argument("--T", type=float, default=1.0)
    p_kb.add_argument("--t-min", type=float, default=0.05)
    p_kb.add_argument("--c1", type=float, default=3.8)
    p_kb.add_argument("--c2", type=float, default=4.25)
    p_kb.add_argument("--n-angle", type=positive_int, default=13)
    p_kb.add_argument("--n-time", type=positive_int, default=8)
    p_ga = scans.add_parser("green-adjoint", parents=[shared])
    p_ga.add_argument("--n-sigma", type=positive_int, default=5)
    p_ga.add_argument("--n-eta", type=positive_int, default=4)
    p_ga.add_argument("--rho", type=float, default=0.4)
    p_ga.add_argument("--epsilon", type=float, default=0.5)
    p_ga.add_argument("--tol", type=float, default=1e-4)
    for pair in ("far-pair", "adjacent-pair"):
        scans.add_parser(pair, parents=[shared]).add_argument(
            "--candidate", default="manufactured:normalized")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, PreconditionError, DegenerateFitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TruncationError as exc:
        print(f"truncation failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
