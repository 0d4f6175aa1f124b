"""Command-line front end: `exponents`, `verify`, and `scan` subcommands.

Every command is deterministic given its flags; defaults, tolerances, and the
seed are echoed in each report.  Exit codes: 0 all checks pass, 1 a named
check failed, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from . import checks
from .errors import DomainError, PreconditionError, TruncationError
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
        "checks": [check.to_dict()],
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


def cmd_verify(args) -> int:
    started = time.perf_counter()
    kappa = args.kappa
    h = parse_weight(args.h, kappa)
    corrupt = parse_corrupt(args.corrupt)
    alpha, beta = jacobi_pair(args, h)
    t_list = tuple(args.t) if args.t else (args.t_min, 1e-2, 0.1, 1.0, 10.0)
    results = checks.run_suite(
        args.suite,
        kappa,
        h=h,
        alpha=alpha,
        beta=beta,
        candidate=args.candidate,
        n_configs=args.configs,
        seed=args.seed,
        corrupt=corrupt,
        t_list=t_list,
    )
    params = {
        "suite": args.suite,
        "kappa": kappa,
        "h": args.h,
        "alpha": args.alpha,
        "beta": args.beta,
        "candidate": args.candidate,
        "configs": args.configs,
        "t_list": list(t_list),
        "corrupt": corrupt,
    }
    report = checks.build_report("verify", params, results, started, seed=args.seed)
    _print_report(report, args.format, args.output)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_ver.add_argument("suite", choices=checks.SUITES)
    p_ver.add_argument("--kappa", type=float, required=True)
    p_ver.add_argument("--h", default="theta2",
                       help="anomalous weight: 'theta<N>' or a float (default theta2)")
    p_ver.add_argument("--alpha", type=float, default=None)
    p_ver.add_argument("--beta", type=float, default=None)
    p_ver.add_argument("--candidate", default="n1",
                       help="n1 | one | power:<i,j=mu;...> (pde suite)")
    p_ver.add_argument("--configs", type=positive_int, default=100)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--t", type=float, nargs="+", default=None,
                       help="kernel times (default t-min, 1e-2, 0.1, 1, 10)")
    p_ver.add_argument("--t-min", type=float, default=1e-3)
    p_ver.add_argument("--corrupt", nargs="+", default=None, metavar="KEY=OFFSET",
                       help=f"fault injection; keys: {checks.SUPPORTED_CORRUPTIONS}")
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.add_argument("--output", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="grid scans with CSV output")
    p_scan.add_argument("name", choices=("kernel-bounds", "green-adjoint",
                                         "far-pair", "adjacent-pair"))
    p_scan.add_argument("--kappa", type=float, required=True)
    p_scan.add_argument("--h", default="theta2")
    p_scan.add_argument("--alpha", type=float, default=None)
    p_scan.add_argument("--beta", type=float, default=None)
    p_scan.add_argument("--T", type=float, default=1.0)
    p_scan.add_argument("--t-min", type=float, default=0.05)
    p_scan.add_argument("--c1", type=float, default=3.8)
    p_scan.add_argument("--c2", type=float, default=4.25)
    p_scan.add_argument("--n-angle", type=positive_int, default=13)
    p_scan.add_argument("--n-time", type=positive_int, default=8)
    p_scan.add_argument("--n-sigma", type=positive_int, default=5)
    p_scan.add_argument("--n-eta", type=positive_int, default=4)
    p_scan.add_argument("--rho", type=float, default=0.4)
    p_scan.add_argument("--epsilon", type=float, default=0.5)
    p_scan.add_argument("--tol", type=float, default=1e-4)
    p_scan.add_argument("--candidate", default="manufactured:normalized")
    p_scan.add_argument("--format", choices=("text", "json"), default="text")
    p_scan.add_argument("--output", required=True)
    p_scan.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, PreconditionError) as exc:
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
