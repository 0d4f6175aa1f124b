"""Named verification suites with machine-readable reports.

Each suite runs one module's invariant set and returns CheckResult records;
the CLI maps suites to the `verify` subcommand and derives its exit code from
them.  A `corrupt` mapping can offset selected internal constants (fault
injection), which must surface as named check failures rather than crashes.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np

from . import asymptotics as asym
from . import pde
from .errors import DomainError
from .exponents import (
    delta_plus,
    eigenvalue,
    gap,
    jacobi_params,
    kpz,
    kpz_leg_identity_residual,
    leg_weight,
    weight_floor,
)
from .green import OneIntervalGreen, TwoIntervalGreen
from .heat_kernel import QUAD_POINTS, HeatKernel, bound_ratio_scan
from .jacobi import JacobiBasis, gauss_jacobi_rule, log_beta

KAPPA_GRID = (0.5, 2.0, 10.0 / 3.0, 4.0, 16.0 / 3.0, 6.0, 20.0 / 3.0, 7.9)
# the corrupt keys each suite reads; `all` reads every one of them
SUITE_CORRUPTIONS = {"green": ("lambda0",), "kernel": ("alpha", "beta")}
SUPPORTED_CORRUPTIONS = tuple(key for keys in SUITE_CORRUPTIONS.values() for key in keys)
REPORT_SCHEMA = 2  # version of the `verify` and `scan` report layout


class CheckResult(NamedTuple):
    name: str
    value: float
    tolerance: float
    passed: bool
    detail: str = ""


class Report(NamedTuple):
    command: str
    params: dict
    checks: list
    wall_time: float
    seed: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "command": self.command,
            "params": self.params,
            "seed": self.seed,
            "passed": self.passed,
            "wall_time": self.wall_time,
            "checks": [c._asdict() for c in self.checks],
        }


def _leq(name: str, value: float, tol: float, detail: str = "") -> CheckResult:
    return CheckResult(name=name, value=float(value), tolerance=float(tol),
                       passed=bool(value <= tol), detail=detail)


def _is(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name=name, value=0.0 if ok else 1.0, tolerance=0.0,
                       passed=bool(ok), detail=detail)


def _worst(errors, at=None):
    """The largest of errors: NaN if any of them is NaN, 0.0 if there are none.

    Every check that reduces several errors reduces them here, so a NaN among
    them fails it; Python's max and min keep their first argument when the
    comparison with a NaN is false, so a running max would drop it.  Given
    labels `at`, one per error, also returns the label of the error chosen:
    the first NaN, else the first maximum (None for no errors).
    """
    errs = np.fromiter(errors, dtype=float)
    i = int(np.argmax(errs)) if errs.size else None
    worst = 0.0 if i is None else float(errs[i])
    return worst if at is None else (worst, None if i is None else at[i])


# -- exponents -----------------------------------------------------------------


S_MAX = 10  # KPZ identities are checked for theta_s, s = 1..S_MAX


def exponent_table(kappas, smax: int) -> tuple[list, CheckResult]:
    """Leg weights, exponent pairs and lambda_0 for s = 1..smax at each kappa.

    Returns the table rows and, as a check, the worst residual of the KPZ
    fusion identity over them.
    """
    rows = []
    for kappa in kappas:
        for s in range(1, smax + 1):
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
    worst = _worst(abs(r[key]) for r in rows for key in ("residual_plus", "residual_minus"))
    return rows, _leq("kpz_leg_identity_residual", worst, 1e-12)


def suite_exponents(kappas) -> list:
    _, leg_check = exponent_table(kappas, S_MAX)
    # the leg weights and four that no leg identity reads, one of them near the floor
    pairs = [(kappa, d, kpz(d, kappa)) for kappa in kappas
             for d in [leg_weight(s, kappa) for s in range(0, S_MAX + 1)]
             + [weight_floor(kappa) + 0.1, 0.7, 5.0, 25.0]]
    return [
        leg_check,
        _leq("vieta_product_residual",
             _worst(abs(p.vieta_product + 4.0 * d / kappa) for kappa, d, p in pairs), 1e-12),
    ]


# -- shared kernels --------------------------------------------------------------


def _kernel(kernels: dict, alpha: float, beta: float) -> HeatKernel:
    """The HeatKernel of (alpha, beta) in kernels, built there on first use.

    kernels belongs to one `run_suite` call, so the suites of that call that
    read one pair share its kernel, and with it the kernel's basis and kept
    tables, which are bit for bit those of a fresh kernel.
    """
    kernel = kernels.get((alpha, beta))
    if kernel is None:
        kernel = kernels[alpha, beta] = HeatKernel(alpha, beta)
    return kernel


def _basis(kernels: dict, alpha: float, beta: float) -> JacobiBasis:
    """The basis of (alpha, beta)'s kernel in kernels, or, for a pair that no
    kernel takes (alpha or beta below -1/2), a basis of its own."""
    try:
        return _kernel(kernels, alpha, beta).basis
    except DomainError:
        return JacobiBasis(alpha, beta)


# -- jacobi ----------------------------------------------------------------------


N_SUM = 8  # degrees checked against the gamma-function sum
N_SYMMETRY = 15  # degrees checked for the parameter symmetry
N_OPERATOR = 20  # degrees checked as eigenfunctions of the Jacobi operator


def suite_jacobi(alpha: float, beta: float, seed: int, kernels: dict) -> list:
    basis = _basis(kernels, alpha, beta)
    flipped = JacobiBasis(beta, alpha)
    rng = np.random.default_rng(seed)
    checks = []

    ys = rng.uniform(-1.0, 1.0, size=50)
    table = basis.eval_table(N_SUM, ys)
    worst = _worst(np.max(np.abs(table[n] - basis.eval_explicit_sum(n, ys)))
                   / max(basis.endpoint_max(n), 1.0) for n in range(N_SUM + 1))
    checks.append(_leq("recurrence_vs_gamma_sum", worst, 1e-10))

    table, flipped_table = basis.eval_table(N_SYMMETRY, -ys), flipped.eval_table(N_SYMMETRY, ys)
    checks.append(_leq("parameter_symmetry", _worst(
        np.max(np.abs(table[n] - (-1.0) ** n * flipped_table[n]))
        / max(basis.endpoint_max(n), 1.0) for n in range(N_SYMMETRY + 1)), 1e-12))

    residuals = basis.operator_residual(N_OPERATOR, np.linspace(-0.95, 0.95, 41)).tolist()
    checks.append(_leq("operator_eigen_residual", _worst(
        res / basis.endpoint_max(n) for n, res in enumerate(residuals)), 1e-9))
    return checks


# -- heat kernel -------------------------------------------------------------------


def suite_kernel(alpha: float, beta: float, t_list, corrupt: dict, seed: int,
                 kernels: dict) -> list:
    kernel = _kernel(kernels, alpha + corrupt.get("alpha", 0.0), beta + corrupt.get("beta", 0.0))
    true_basis = _basis(kernels, alpha, beta)
    rule = gauss_jacobi_rule(QUAD_POINTS, true_basis)
    rng = np.random.default_rng(seed)
    checks = []

    masses = (kernel.reproducing_integral(0.37, t, np.ones_like(rule.nodes), rule) for t in t_list)
    checks.append(_leq("mass_conservation", _worst(abs(m - 1.0) for m in masses), 1e-9))

    pts = rng.uniform(0.05, 0.95, size=(6, 2)).tolist()
    times = {t: kernel.truncation_index(t)[0] for t in (1e-2, 0.5)}
    at = [(rho, sigma, t) for rho, sigma in pts for t in times]
    # K(sigma_i, rho_i) is the diagonal of one grid per time, each cell `value`'s float
    rhos, sigmas = np.array(pts).T
    swapped = {t: np.diagonal(kernel.grid(sigmas, rhos, t, n_terms)).tolist()
               for t, n_terms in times.items()}
    values = ((kernel.value(rho, sigma, t, n_terms=times[t]).value, swapped[t][i])
              for i, (rho, sigma) in enumerate(pts) for t in times)
    worst_sym, where = _worst((abs(a - b) / max(abs(a), 1.0) for a, b in values), at=at)
    checks.append(_leq("symmetry", worst_sym, 1e-8,
                       detail=f"worst at (rho, sigma, t) = {where!r}"))

    modes = (0, 1, 3, 6)
    # P_n at the nodes in the kernel's basis, which a corrupted alpha or beta moves
    rows = kernel.basis.eval_table(max(modes), 2.0 * rule.nodes - 1.0)[list(modes)]
    coefficients = {(rho, t): kernel.reproducing_integral(rho, t, rows, rule)
                    for rho, t in ((0.25, 0.05), (0.7, 0.5))}
    checks.append(_leq("single_mode_decay", _worst(
        abs(coefficients[rho, t][i]
            - math.exp(-t * kernel.decay_rate(n)) * true_basis.eval(n, 2.0 * rho - 1.0))
        for i, n in enumerate(modes) for rho, t in coefficients), 1e-9))

    f = lambda s: s * (1.0 - s)
    at_nodes = f(rule.nodes)
    # smallest t first, so the later times slice the kept table over rho = 0.5
    errs = [abs(kernel.reproducing_integral(0.5, t, at_nodes, rule) - f(0.5))
            for t in (1e-3, 1e-2, 1e-1)][::-1]
    checks.append(_is("reproducing_error_monotone", errs[0] > errs[1] > errs[2],
                      detail=f"errors [{', '.join(f'{e:.3e}' for e in errs)}]"))

    big_t = kernel.value(0.3, 0.8, 50.0)
    limit = 1.0 / math.exp(log_beta(beta + 1.0, alpha + 1.0))
    checks.append(_leq("long_time_limit", abs(big_t.value - limit) / max(1.0, limit), 1e-9))

    _, bound_check = kernel_bound_scan(kernel, T=1.0, n_angle=9, n_time=5)
    checks.append(bound_check)
    return checks


def kernel_bound_scan(kernel: HeatKernel, **grid) -> tuple[list, CheckResult]:
    """`bound_ratio_scan` on the given grid: its c1 rows and the two-sided verdict."""
    scan = bound_ratio_scan(kernel, **grid)
    lo = -_worst(-float(v) for v in scan.min_ratio.values())
    hi = _worst(float(v) for v in scan.max_ratio.values())
    return scan.rows, _is(
        "bound_two_sided_on_grid", scan.two_sided_on_grid,
        detail=f"ratios in [{lo:.3e}, {hi:.3e}], K in [{scan.k_min_large_t:.3e}, "
               f"{scan.k_max_large_t:.3e}] for t > T, "
               f"{scan.n_unresolved}/{scan.n_points} unresolved",
    )


# -- green -------------------------------------------------------------------------


def suite_green(kappa: float, h: float, corrupt: dict, kernels: dict) -> list:
    th1 = leg_weight(1, kappa)
    checks = []

    cases = [(OneIntervalGreen(weight=d, kappa=kappa), eta)
             for d in ([th1, h] if gap(th1, kappa) > 0.0 else [h]) for eta in (0.7, 1.0)]
    worst_slope = _worst(abs(g1.coincidence_slope_fd(eta) + 4.0 / kappa) for g1, eta in cases)
    checks.append(_leq("j_coincidence_slope", worst_slope, 1e-8))
    for name, method in (("j_euler_annihilation", "analytic"), ("j_euler_annihilation_fd", "fd")):
        worst = _worst(g1.annihilation_residual(eta, np.linspace(0.05, 0.95, 10) * eta, method)
                       for g1, eta in cases)
        checks.append(_leq(name, worst, 1e-9))

    lambda0 = eigenvalue(0, h, kappa) + corrupt.get("lambda0", 0.0)
    params = jacobi_params(h, kappa)
    g = TwoIntervalGreen(h=h, kappa=kappa, lambda0=lambda0,
                         kernel=_kernel(kernels, params.alpha, params.beta))

    points = ((0.3, 0.5, 0.6, 1.0), (0.5, 0.2, 0.5, 0.5), (0.8, 1.0, 0.25, 3.0))
    values = ((g.value(*p), g.value_series(*p)) for p in points)
    checks.append(_leq("greenfunc_vs_greenfuncalt", _worst(
        abs(a - b) / max(abs(a), 1e-300) for a, b in values), 1e-10))

    _, adjoint_check = adjoint_scan(g, rho=0.4, epsilon=0.5, sigmas=np.linspace(0.2, 0.8, 5),
                                    ratios=(1.5, 2.5, 4.0), tol=1e-4)
    checks.append(adjoint_check)

    worst_eig = _worst(g.mode_residual(n, np.linspace(0.1, 0.9, 9)) for n in (0, 1, 5))
    checks.append(_leq("sigma_eigenfunction_residual", worst_eig, 1e-6))

    left = g.boundary_exponent_fit("left", rho=0.4, epsilon=0.5, eta=1.0)
    right = g.boundary_exponent_fit("right", rho=0.4, epsilon=0.5, eta=1.0)
    checks.append(_leq("sigma_decay_exponent_left", abs(left - g.exp_left), 1e-2))
    checks.append(_leq("sigma_decay_exponent_right", abs(right - g.exp_right), 1e-2))

    dp1, dph = g.dp_1, g.dp_h
    f_exact = lambda s: s**dp1 * (1.0 - s) ** dph
    eps = 0.5
    etas = eps * np.exp(4.0 * np.array([1e-1, 1e-2, 1e-3]) / kappa)
    values = g.reproducing_limit(0.5, eps, f_exact, etas)
    # this f transforms to 1, so each value is (eps/eta)^lambda0 f(rho) exactly
    factor_err = float(np.max(np.abs(values - (eps / etas) ** g.lambda0 * f_exact(0.5))))
    checks.append(_leq("reproducing_mass_identity", factor_err, 1e-9))
    return checks


def adjoint_scan(g: TwoIntervalGreen, rho: float, epsilon: float, sigmas, ratios,
                 tol: float) -> tuple[list, CheckResult]:
    """Adjoint residual of G at every sigma and eta = epsilon * ratio.

    Returns rows (rho, epsilon, sigma, eta, residual, scale) and the check that
    the worst relative residual is within tol; its detail names where it is.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be finite and positive, got {tol!r}")
    points = [(float(sigma), epsilon * float(ratio)) for sigma in sigmas for ratio in ratios]
    reps = g.adjoint_residual(rho, epsilon, [s for s, _ in points], [e for _, e in points])
    rows = [(rho, epsilon, sigma, eta, rep.residual, rep.scale)
            for (sigma, eta), rep in zip(points, reps)]
    worst, at = _worst((rep.relative for rep in reps), at=points)
    return rows, _leq("adjoint_residual_homogeneous", worst, tol,
                      detail=f"worst at (sigma, eta) = {at!r}")


# -- pde ---------------------------------------------------------------------------


def _random_configs(rng, B: int, M: int) -> np.ndarray:
    """B configurations as the rows of a (B, M) array, from one block of draws.

    Each row takes M draws in turn, as `rng.uniform` would take them: its start
    from U(-5, 5), then its M - 1 gaps from U(0.3, 1.5).
    """
    u = rng.random((B, M))
    start = -5.0 + 10.0 * u[:, :1]  # low + (high - low) u, as rng.uniform computes it
    gaps = 0.3 + (1.5 - 0.3) * u[:, 1:]
    return start + np.concatenate([np.zeros((B, 1)), np.cumsum(gaps, axis=1)], axis=1)


def suite_pde(kappa: float, candidate: str, n_configs: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    checks = []
    F = pde.resolve_candidate(candidate, kappa)  # a power product at its largest index
    M = F.arity or 2
    weights = pde.WeightAssignment.one_leg(kappa, M)

    configs = _random_configs(rng, n_configs, M)
    reports = [(b, r) for b, row in enumerate(pde.batch_residuals(F, configs, weights))
               for r in row]
    worst, (b, rep) = _worst((r.relative for _, r in reports), at=reports)
    checks.append(_leq("system_residuals_sweep", worst, 1e-6,
                       detail=f"{candidate} over {n_configs} configurations, worst "
                              f"{rep.equation} at x = {tuple(configs[b].tolist())!r}"))

    # the partials system_residuals reads, from its own stencil at a wider step
    probe = pde.builtin_power_product({(1, 2): 0.6, (1, 3): -0.4, (2, 3): 1.3}, 3)
    cfg3 = pde.PointConfig.of(-0.7, 0.4, 1.9)
    _, [fd1], [fd2] = pde._stencil(probe, cfg3.array[None], [1e-3 * cfg3.min_gap], arrays=False)
    worst_stencil = _worst(
        abs(fd - exact) / max(abs(exact), 1.0)
        for k in (1, 2, 3)
        for fd, exact in ((fd1[k - 1], probe.grad(cfg3.array, k)),
                          (fd2[k - 1], probe.second(cfg3.array, k)))
    )
    checks.append(_leq("stencil_vs_analytic", worst_stencil, 1e-8))

    # the two-point dichotomy: translation and dilation force the ansatz
    # (x2 - x1)^(-h1-h2), which leaves -(h1 - h2)(x2 - x1) F in the special
    # conformal identity, so no nonzero solution pairs theta_1 with theta_3
    th1, th3 = leg_weight(1, kappa), leg_weight(3, kappa)
    ansatz = pde.builtin_power_product({(1, 2): -th1 - th3}, 2, name="two-point")
    cfg2 = pde.PointConfig.of(0.3, 1.9)
    value = ansatz(cfg2.array)
    if value == 0.0:  # every term of the identity, and so its scale, would be 0
        raise DomainError(f"the two-point ansatz (x2 - x1)**{-th1 - th3!r} underflows to 0 "
                          f"at x = {cfg2.coords!r}, kappa={kappa!r}")
    reps = {r.equation: r for r in pde.system_residuals(
        ansatz, cfg2, pde.WeightAssignment(kappa=kappa, iota=2, h=th3))}
    conformal = reps["ward_special_conformal"]
    witness = -(th1 - th3) * (cfg2.x(2) - cfg2.x(1)) * value
    checks.append(_leq(
        "two_point_ward_witness",
        _worst((reps["ward_translation"].relative, reps["ward_dilation"].relative,
                abs(conformal.residual - witness) / conformal.scale)),
        1e-6, detail=f"special conformal relative residual {conformal.relative!r}"))

    if candidate == "n1":
        x1, x2 = configs[0].tolist()
        norm = (x2 - x1) ** (2.0 * th1) * F(configs[0])
        checks.append(_leq("n1_collapse_normalization", abs(norm - 1.0), 1e-12))
    return checks


# -- asymptotics ----------------------------------------------------------------------


def suite_asymptotics(kappa: float, h: float) -> list:
    th1 = leg_weight(1, kappa)
    checks = []

    config = pde.PointConfig.of(0.0, 1.0)
    weights = pde.WeightAssignment.one_leg(kappa, 2)
    spec = asym.CollapseSpec(i=2, weights=weights)
    est = asym.collapse_exponent(pde.builtin_n1(kappa), config, spec)
    checks.append(_leq("n1_collapse_exponent", abs(est.p_hat - (-2.0 * th1)), 1e-3))

    cfg3 = pde.PointConfig.of(0.0, 1.0, 2.3)
    w3 = pde.WeightAssignment.one_leg(kappa, 3)
    spec3 = asym.CollapseSpec(i=2, weights=w3)
    hit = asym.two_leg_test(asym.manufactured_two_leg(kappa, 3, 2, +0.05), cfg3, spec3)
    miss = asym.two_leg_test(asym.manufactured_two_leg(kappa, 3, 2, -0.05), cfg3, spec3)
    checks.append(_is("two_leg_margin_plus", hit.is_two_leg and not hit.indeterminate))
    checks.append(_is("two_leg_margin_minus", (not miss.is_two_leg) and not miss.indeterminate))

    # an exact two-channel field has a nonzero limit A, its delta_plus channel
    # alone a vanishing one; a slope fit bends past its margin at small gap
    both = asym.two_leg_test(asym.manufactured_two_term(kappa, 3, 2, th1, 1.0, 1.0), cfg3, spec3)
    plus = asym.two_leg_test(asym.manufactured_two_term(kappa, 3, 2, th1, 0.0, 1.0), cfg3, spec3)
    checks.append(_is("two_leg_two_term",
                      not (both.is_two_leg or both.indeterminate)
                      and (plus.is_two_leg or plus.indeterminate),
                      detail=f"A = {both.channels.A!r} and {plus.channels.A!r}"))

    # synthetic two-channel field; above gap 2 the delta_plus channel falls
    # below round-off and B cannot be identified, so use the weight of gap 1
    d_used = th1 if gap(th1, kappa) <= 2.0 else (kappa - 2.0) / (2.0 * kappa)
    synthetic = asym.manufactured_two_term(kappa, 3, 2, d_used, 2.0, 3.0)
    spec_syn = asym.CollapseSpec(
        i=2, weights=pde.WeightAssignment(kappa=kappa, iota=2, h=d_used)
    )
    fit = asym.collapse_channels(synthetic, cfg3, spec_syn)
    checks.append(_leq("decomposition_fit",
                       _worst((abs(fit.A - 2.0), abs(fit.B - 3.0))), 1e-6))

    bounded = _pair_collapse("far-pair", "manufactured:normalized", kappa, h)
    checks.append(_is("far_pair_bounded", bounded.bounded))
    violating = _pair_collapse("far-pair", "manufactured:violating", kappa, h)
    checks.append(_is("far_pair_violation_flagged", violating.divergent))

    normalized = _pair_collapse("adjacent-pair", "manufactured:normalized", kappa, h)
    ratios = np.array([row[3] for row in normalized.rows])
    checks.append(_leq("adjacent_normalized_ratio_constant",
                       float(np.max(np.abs(ratios - 1.0))), 1e-10))
    dph = delta_plus(h, kappa)
    checks.append(_leq("adjacent_eps_exponent",
                       abs(normalized.eps_exponent - dph), 1e-6))
    weak = _pair_collapse("adjacent-pair", "manufactured:violating", kappa, h)
    checks.append(_is("adjacent_violation_flagged", weak.divergent))
    return checks


PAIR_SCANS = ("far-pair", "adjacent-pair")
MANUFACTURED = ("manufactured:normalized", "manufactured:violating")


def _pair_collapse(kind: str, candidate: str, kappa: float, h: float) -> asym.PairScanResult:
    """Collapse scan of one candidate at x = 0, 1, 2, 3, 4 (M = 5).

    "far-pair" closes interval j = 2 with the anomalous interval iota = 5;
    "adjacent-pair" closes the two intervals ending at iota = 4.  The
    candidates "manufactured:normalized" and "manufactured:violating" name the
    test fields built for that geometry, with a bounded and a divergent
    normalized ratio; any other name goes to `pde.resolve_candidate`.
    """
    if kind not in PAIR_SCANS:
        raise DomainError(f"unknown pair scan {kind!r}; expected one of {PAIR_SCANS}")
    M = 5
    far = kind == "far-pair"
    iota = 5 if far else 4
    config = pde.PointConfig.of(*range(M))
    weights = pde.WeightAssignment(kappa=kappa, iota=iota, h=h)
    if candidate.startswith("manufactured:"):
        if candidate not in MANUFACTURED:
            raise DomainError(f"unknown manufactured field {candidate!r}; "
                              f"expected one of {MANUFACTURED}")
        violating = candidate == "manufactured:violating"
        F = (asym.manufactured_far_pair(kappa, h, M, j=2, iota=iota, violating=violating) if far
             else asym.manufactured_adjacent(kappa, h, M, iota=iota,
                                             shape="weak-eps" if violating else "normalized"))
    else:
        F = pde.resolve_candidate(candidate, kappa, M=M)
    if far:
        return asym.far_pair_bound_scan(F, config, weights, j=2)
    return asym.adjacent_pair_bound_scan(F, config, weights)


def pair_scan(kind: str, candidate: str, kappa: float, h: float) -> tuple[list, CheckResult]:
    """A pair collapse scan (see `_pair_collapse`): its rows (delta, epsilon,
    |F|, ratio) and the check that the normalized ratio stays bounded; a NaN
    slope had fewer than 2 finite positive level sups."""
    scan = _pair_collapse(kind, candidate, kappa, h)
    return scan.rows, _is(
        "normalized_ratio_bounded", scan.bounded,
        detail=(f"sup ratio {scan.sup_ratio!r}, eps slope {scan.eps_slope!r}, "
                f"delta slope {scan.delta_slope!r}"),
    )


# -- dispatch ---------------------------------------------------------------------------


SUITES = ("exponents", "jacobi", "kernel", "green", "pde", "asymptotics", "all")


def run_suite(
    name: str,
    kappa: float,
    h: float,
    alpha: float,
    beta: float,
    candidate: str,
    n_configs: int,
    seed: int,
    corrupt: dict,
    t_list,
) -> list:
    """Run one named suite (or all of them) and return its checks.

    A corrupt key the suite does not read is refused, so a fault injection
    never passes as a silent no-op; each suite reads its own keys of corrupt.
    The suites of one call that read the same (alpha, beta) share one
    HeatKernel; the kernels live in this call only, so no run sees another's.
    """
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; expected one of {SUITES}")
    reads = SUPPORTED_CORRUPTIONS if name == "all" else SUITE_CORRUPTIONS.get(name, ())
    unread = sorted(set(corrupt) - set(reads))
    if unread:
        raise DomainError(f"suite {name!r} reads no corruption keys {unread!r}; "
                          f"it reads {reads}")
    kernels = {}  # (alpha, beta) -> HeatKernel, see _kernel
    runners = {
        "exponents": lambda: suite_exponents(kappas=(kappa,)),
        "jacobi": lambda: suite_jacobi(alpha, beta, seed=seed, kernels=kernels),
        "kernel": lambda: suite_kernel(alpha, beta, t_list=t_list, corrupt=corrupt, seed=seed,
                                       kernels=kernels),
        "green": lambda: suite_green(kappa, h=h, corrupt=corrupt, kernels=kernels),
        "pde": lambda: suite_pde(kappa, candidate=candidate, n_configs=n_configs, seed=seed),
        "asymptotics": lambda: suite_asymptotics(kappa, h=h),
    }
    if name != "all":
        return runners[name]()
    return [CheckResult(f"{sub}.{c.name}", c.value, c.tolerance, c.passed, c.detail)
            for sub, run in runners.items() for c in run()]


def build_report(command: str, params: dict, checks: list, started: float, seed: int) -> Report:
    return Report(
        command=command,
        params=params,
        checks=checks,
        wall_time=time.perf_counter() - started,
        seed=seed,
    )
