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

from . import asymptotics as asym
from . import checks, pde
from .errors import DomainError, PreconditionError, TruncationError
from .exponents import (
    delta_plus,
    eigenvalue,
    gap,
    jacobi_params,
    kpz,
    kpz_leg_identity_residual,
    leg_weight,
)
from .green import TwoIntervalGreen
from .heat_kernel import HeatKernel, bound_ratio_scan

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def parse_weight(spec: str, kappa: float) -> float:
    """'theta<N>' or a literal float."""
    if spec.startswith("theta"):
        return leg_weight(int(spec[len("theta"):]), kappa)
    return float(spec)


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
    payload = report.to_dict()
    if fmt == "json":
        text = json.dumps(payload, indent=2)
        if output:
            with open(output, "w") as fh:
                fh.write(text + "\n")
        print(text)
        return
    print(f"# {report.command}")
    for key, value in sorted(report.params.items()):
        print(f"#   {key} = {value!r}")
    if report.seed is not None:
        print(f"#   seed = {report.seed}")
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        line = f"{status}  {c.name}  value={c.value:.6e}  tol={c.tolerance:.6e}"
        if c.detail:
            line += f"  ({c.detail})"
        print(line)
    n_fail = sum(not c.passed for c in report.checks)
    print(f"# {len(report.checks)} checks, {n_fail} failures, {report.wall_time:.2f}s")
    if output:
        with open(output, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def cmd_exponents(args) -> int:
    started = time.perf_counter()
    rows = []
    results = []
    for kappa in args.kappa:
        th1 = leg_weight(1, kappa)
        for s in range(1, args.smax + 1):
            ths = leg_weight(s, kappa)
            pair = kpz(ths, kappa)
            res_p, res_m = kpz_leg_identity_residual(s, kappa)
            rows.append(
                {
                    "kappa": kappa,
                    "s": s,
                    "theta_s": ths,
                    "delta_plus": pair.delta_plus,
                    "delta_minus": pair.delta_minus,
                    "gap": pair.gap,
                    "lambda0": eigenvalue(0, ths, kappa),
                    "residual_plus": res_p,
                    "residual_minus": res_m,
                }
            )
            results.append(max(abs(res_p), abs(res_m)))
    worst = max(results)
    check = checks.CheckResult(
        name="kpz_leg_identity_residual", value=worst, tolerance=1e-12,
        passed=worst <= 1e-12,
    )
    if args.format == "json":
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
        print(f"# worst identity residual {worst:.3e} (tol 1e-12): "
              + ("PASS" if check.passed else "FAIL"))
    return EXIT_OK if check.passed else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    started = time.perf_counter()
    kappa = args.kappa
    h = parse_weight(args.h, kappa) if args.h else None
    corrupt = parse_corrupt(args.corrupt)
    t_list = tuple(args.t) if args.t else (args.t_min, 1e-2, 0.1, 1.0, 10.0)
    results = checks.run_suite(
        args.suite,
        kappa,
        h=h,
        alpha=args.alpha,
        beta=args.beta,
        candidate=args.candidate,
        n_configs=args.configs,
        seed=args.seed,
        corrupt=corrupt,
        t_list=t_list,
    )
    params = {
        "suite": args.suite,
        "kappa": kappa,
        "h": args.h or "theta2",
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


def _scan_candidate(name: str, kind: str, kappa: float, h: float, M: int,
                    j: int, iota: int) -> pde.CandidateFunction:
    if name.startswith("manufactured:"):
        shape = name[len("manufactured:"):]
        if kind == "far-pair":
            if shape in ("bounded", "normalized"):
                return asym.manufactured_far_pair(kappa, h, M, j=j, iota=iota)
            if shape == "violating":
                return asym.manufactured_far_pair(kappa, h, M, j=j, iota=iota, violating=True)
        if kind == "adjacent-pair":
            if shape == "normalized":
                return asym.manufactured_adjacent(kappa, h, M, iota=iota)
            if shape in ("violating", "weak-eps"):
                return asym.manufactured_adjacent(kappa, h, M, iota=iota, shape="weak-eps")
        raise DomainError(f"unknown manufactured shape {shape!r} for scan {kind!r}")
    return pde.resolve_candidate(name, kappa, M=M)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_scan(args) -> int:
    started = time.perf_counter()
    kappa = args.kappa
    h = parse_weight(args.h, kappa)
    results = []
    if args.name == "kernel-bounds":
        params = jacobi_params(h, kappa)
        alpha = args.alpha if args.alpha is not None else params.alpha
        beta = args.beta if args.beta is not None else params.beta
        kernel = HeatKernel(alpha, beta)
        scan = bound_ratio_scan(
            kernel, T=args.T, c1=args.c1, c2=args.c2,
            n_angle=args.n_angle, n_time=args.n_time, t_min=args.t_min,
        )
        _write_csv(args.output, ("theta", "phi", "t", "K", "envelope", "ratio"), scan.rows)
        results.append(checks.CheckResult(
            name="bound_two_sided_on_grid",
            value=0.0 if scan.two_sided_on_grid else 1.0,
            tolerance=0.0,
            passed=scan.two_sided_on_grid,
            detail=(f"min {scan.min_ratio} max {scan.max_ratio} "
                    f"K range ({scan.k_min_large_t}, {scan.k_max_large_t}) for t > T"),
        ))
    elif args.name == "green-adjoint":
        g = TwoIntervalGreen(h=h, kappa=kappa)
        rows = []
        worst = 0.0
        for sigma in np.linspace(0.2, 0.8, args.n_sigma):
            for ratio in np.geomspace(1.5, 4.0, args.n_eta):
                rep = g.adjoint_residual(rho=args.rho, epsilon=args.epsilon,
                                         sigma=float(sigma), eta=args.epsilon * float(ratio))
                rows.append((args.rho, args.epsilon, float(sigma),
                             args.epsilon * float(ratio), rep.residual, rep.scale))
                worst = max(worst, rep.relative)
        _write_csv(args.output, ("rho", "epsilon", "sigma", "eta", "residual", "scale"), rows)
        results.append(checks.CheckResult(
            name="adjoint_residual_homogeneous", value=worst,
            tolerance=args.tol, passed=worst <= args.tol,
        ))
    elif args.name in ("far-pair", "adjacent-pair"):
        M = 5
        config = pde.PointConfig.of(*range(M))
        if args.name == "far-pair":
            j, iota = 2, 5
            weights = pde.WeightAssignment(kappa=kappa, iota=iota, h=h)
            F = _scan_candidate(args.candidate, args.name, kappa, h, M, j, iota)
            scan = asym.far_pair_bound_scan(F, config, weights, j=j)
        else:
            iota, j = 4, 0
            weights = pde.WeightAssignment(kappa=kappa, iota=iota, h=h)
            F = _scan_candidate(args.candidate, args.name, kappa, h, M, j, iota)
            scan = asym.adjacent_pair_bound_scan(F, config, weights)
        _write_csv(args.output, ("delta", "epsilon", "abs_F", "ratio"), scan.rows)
        results.append(checks.CheckResult(
            name="normalized_ratio_bounded",
            value=0.0 if not scan.divergent else 1.0,
            tolerance=0.0,
            passed=not scan.divergent,
            detail=(f"sup ratio {scan.sup_ratio!r}, eps slope {scan.eps_slope!r}, "
                    f"delta slope {scan.delta_slope!r}"),
        ))
    else:  # pragma: no cover - argparse restricts choices
        raise DomainError(f"unknown scan {args.name!r}")
    params = {k: v for k, v in vars(args).items() if k not in ("func",)}
    report = checks.build_report("scan", params, results, started, seed=0)
    _print_report(report, args.format, None)
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
    p_exp.add_argument("--smax", type=int, default=5)
    p_exp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_exp.add_argument("--output", default=None)
    p_exp.set_defaults(func=cmd_exponents)

    p_ver = sub.add_parser("verify", help="run a module's invariant suite")
    p_ver.add_argument("suite", choices=checks.SUITES)
    p_ver.add_argument("--kappa", type=float, required=True)
    p_ver.add_argument("--h", default=None,
                       help="anomalous weight: 'theta<N>' or a float (default theta2)")
    p_ver.add_argument("--alpha", type=float, default=None)
    p_ver.add_argument("--beta", type=float, default=None)
    p_ver.add_argument("--candidate", default="n1",
                       help="n1 | one | power:<i,j=mu;...> (pde suite)")
    p_ver.add_argument("--configs", type=int, default=100)
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
    p_scan.add_argument("--n-angle", type=int, default=13)
    p_scan.add_argument("--n-time", type=int, default=8)
    p_scan.add_argument("--n-sigma", type=int, default=5)
    p_scan.add_argument("--n-eta", type=int, default=4)
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
