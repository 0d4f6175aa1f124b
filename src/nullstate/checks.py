"""Named verification suites with machine-readable reports.

Each suite runs one module's invariant set and returns CheckResult records;
the CLI maps suites to the `verify` subcommand and derives its exit code from
them.  A `corrupt` mapping can offset selected internal constants (fault
injection), which must surface as named check failures rather than crashes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import asymptotics as asym
from . import pde
from .errors import DomainError
from .exponents import (
    delta_plus,
    eigenvalue,
    gap,
    kpz,
    kpz_leg_identity_residual,
    leg_weight,
    weight_floor,
)
from .green import OneIntervalGreen, TwoIntervalGreen
from .heat_kernel import HeatKernel, bound_ratio_scan
from .jacobi import JacobiBasis, gauss_jacobi_rule, log_beta

KAPPA_GRID = (0.5, 2.0, 10.0 / 3.0, 4.0, 16.0 / 3.0, 6.0, 20.0 / 3.0, 7.9)
# the corrupt keys each suite reads; `all` reads every one of them
SUITE_CORRUPTIONS = {"green": ("lambda0",), "kernel": ("alpha", "beta")}
SUPPORTED_CORRUPTIONS = tuple(key for keys in SUITE_CORRUPTIONS.values() for key in keys)
REPORT_SCHEMA = 2  # version of the `verify` and `scan` report layout


@dataclass
class CheckResult:
    name: str
    value: float
    tolerance: float
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass
class Report:
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
            "checks": [c.to_dict() for c in self.checks],
        }


def _leq(name: str, value: float, tol: float, detail: str = "") -> CheckResult:
    return CheckResult(name=name, value=float(value), tolerance=float(tol),
                       passed=bool(value <= tol), detail=detail)


def _is(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name=name, value=0.0 if ok else 1.0, tolerance=0.0,
                       passed=bool(ok), detail=detail)


# -- exponents -----------------------------------------------------------------


S_MAX = 10  # KPZ identities are checked for theta_s, s = 1..S_MAX
H_LEGS = 5  # eigenvalue checks take h = theta_s, s = 1..H_LEGS


def exponent_table(kappas, smax: int) -> tuple[list, CheckResult]:
    """Leg weights, exponent pairs and lambda_0 for s = 1..smax at each kappa.

    Returns the table rows and, as a check, the worst residual of the KPZ
    fusion identity over them.
    """
    rows = []
    worst = 0.0
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
            worst = max(worst, abs(res_p), abs(res_m))
    return rows, _leq("kpz_leg_identity_residual", worst, 1e-12)


def suite_exponents(kappas) -> list:
    _, leg_check = exponent_table(kappas, S_MAX)
    checks = [leg_check]
    worst_closed = 0.0
    worst_vieta_sum = 0.0
    worst_vieta_prod = 0.0
    worst_lam0 = 0.0
    monotone = True
    for kappa in kappas:
        th1 = leg_weight(1, kappa)
        for s in range(1, S_MAX + 1):
            pair = kpz(leg_weight(s, kappa), kappa)
            worst_closed = max(
                worst_closed,
                abs(pair.delta_plus - 2.0 * s / kappa),
                abs(pair.delta_minus - (1.0 - (2.0 * s + 4.0) / kappa)),
            )
        floor = weight_floor(kappa)
        ds = [leg_weight(s, kappa) for s in range(0, S_MAX + 1)]
        ds += [floor + 0.1, 0.7, 5.0, 25.0]
        for d in ds:
            pair = kpz(d, kappa)
            worst_vieta_sum = max(worst_vieta_sum, abs(pair.vieta_sum - (kappa - 4.0) / kappa))
            worst_vieta_prod = max(worst_vieta_prod, abs(pair.vieta_product + 4.0 * d / kappa))
        for s in range(1, H_LEGS + 1):
            h = leg_weight(s, kappa)
            lam0 = eigenvalue(0, h, kappa)
            target = 2.0 * delta_plus(h, kappa) + delta_plus(th1, kappa)
            worst_lam0 = max(worst_lam0, abs(lam0 - target))
            lams = [eigenvalue(n, h, kappa) for n in range(21)]
            monotone &= all(b > a for a, b in zip(lams, lams[1:]))
    checks.append(_leq("kpz_closed_form_residual", worst_closed, 1e-12))
    checks.append(_leq("vieta_sum_residual", worst_vieta_sum, 1e-12))
    checks.append(_leq("vieta_product_residual", worst_vieta_prod, 1e-12))
    checks.append(_leq("lambda0_identity_residual", worst_lam0, 1e-12))
    checks.append(_is("eigenvalue_monotone", monotone))
    return checks


# -- jacobi ----------------------------------------------------------------------


N_SUM = 8  # degrees checked against the gamma-function sum
N_ORTHO = 15  # degrees checked for orthogonality, norms and symmetry
N_OPERATOR = 20  # degrees checked as eigenfunctions of the Jacobi operator


def suite_jacobi(alpha: float, beta: float, seed: int) -> list:
    basis = JacobiBasis(alpha, beta)
    flipped = JacobiBasis(beta, alpha)
    rng = np.random.default_rng(seed)
    checks = []

    ys = rng.uniform(-1.0, 1.0, size=50)
    table = basis.eval_table(N_SUM, ys)
    worst = 0.0
    for n in range(N_SUM + 1):
        ref = max(basis.endpoint_max(n), 1.0)
        diff = np.max(np.abs(table[n] - basis.eval_explicit_sum(n, ys)))
        worst = max(worst, diff / ref)
    checks.append(_leq("recurrence_vs_gamma_sum", worst, 1e-10))

    rule = gauss_jacobi_rule(2 * N_ORTHO + 10, basis)
    table = basis.eval_table(N_ORTHO, rule.nodes)
    grams = (table * rule.weights) @ table.T
    worst_off = 0.0
    worst_norm = 0.0
    for n in range(N_ORTHO + 1):
        hn = basis.norm_sq(n)
        worst_norm = max(worst_norm, abs(grams[n, n] - hn) / hn)
        for m in range(n):
            worst_off = max(worst_off, abs(grams[m, n]) / math.sqrt(basis.norm_sq(m) * hn))
    checks.append(_leq("orthogonality", worst_off, 1e-10))
    checks.append(_leq("norm_vs_closed_form", worst_norm, 1e-10))

    unit = gauss_jacobi_rule(2 * N_ORTHO + 10, basis, domain="unit")
    table = basis.eval_table(N_ORTHO, 2.0 * unit.nodes - 1.0)
    worst_shift = 0.0
    for n in range(N_ORTHO + 1):
        q = float(np.dot(unit.weights, table[n] ** 2))
        ref = basis.shifted_norm_sq(n)
        worst_shift = max(worst_shift, abs(q - ref) / ref)
    checks.append(_leq("shifted_norm_relation", worst_shift, 1e-10))

    table, flipped_table = basis.eval_table(N_ORTHO, -ys), flipped.eval_table(N_ORTHO, ys)
    worst_sym = 0.0
    for n in range(N_ORTHO + 1):
        ref = max(basis.endpoint_max(n), 1.0)
        diff = np.max(np.abs(table[n] - (-1.0) ** n * flipped_table[n]))
        worst_sym = max(worst_sym, diff / ref)
    checks.append(_leq("parameter_symmetry", worst_sym, 1e-12))

    grid = np.linspace(-0.95, 0.95, 41)
    worst_op = 0.0
    for n in range(N_OPERATOR + 1):
        res = basis.operator_residual(n, grid)
        worst_op = max(worst_op, res / basis.endpoint_max(n))
    checks.append(_leq("operator_eigen_residual", worst_op, 1e-9))

    beta_exact = math.exp(log_beta(beta + 1.0, alpha + 1.0))
    q = unit.integrate(lambda s: np.ones_like(s))
    checks.append(_leq("unit_weight_mass_vs_beta_function",
                       abs(q - beta_exact) / beta_exact, 1e-12))
    return checks


# -- heat kernel -------------------------------------------------------------------


QUAD_POINTS = 120  # unit-domain Gauss-Jacobi nodes for the kernel integrals


def suite_kernel(alpha: float, beta: float, t_list, corrupt: dict, seed: int) -> list:
    kernel = HeatKernel(alpha + corrupt.get("alpha", 0.0), beta + corrupt.get("beta", 0.0))
    true_basis = JacobiBasis(alpha, beta)
    rule = gauss_jacobi_rule(QUAD_POINTS, true_basis, domain="unit")
    rng = np.random.default_rng(seed)
    checks = []

    worst_mass = 0.0
    for t in t_list:
        kvals = kernel.grid(np.array([0.37]), rule.nodes, t)[0]
        worst_mass = max(worst_mass, abs(float(np.dot(rule.weights, kvals)) - 1.0))
    checks.append(_leq("mass_conservation", worst_mass, 1e-9))

    pts = rng.uniform(0.05, 0.95, size=(6, 2))
    worst_sym = 0.0
    for rho, sigma in pts:
        for t in (1e-2, 0.5):
            n_terms, _ = kernel.truncation_index(t)
            a = kernel.value(rho, sigma, t, n_terms=n_terms).value
            b = kernel.value(sigma, rho, t, n_terms=n_terms).value
            worst_sym = max(worst_sym, abs(a - b) / max(abs(a), 1.0))
    checks.append(_leq("symmetry", worst_sym, 1e-8))

    worst_semi = 0.0
    srule = gauss_jacobi_rule(80, true_basis, domain="unit")
    for t1, t2 in ((0.05, 0.05), (0.1, 0.3)):
        rhos = np.array([0.2, 0.55, 0.9])
        sigmas = np.array([0.3, 0.7])
        left = kernel.grid(rhos, srule.nodes, t1)
        right = kernel.grid(srule.nodes, sigmas, t2)
        composed = (left * srule.weights) @ right
        direct = kernel.grid(rhos, sigmas, t1 + t2)
        scale = max(1.0, float(np.max(np.abs(direct))))
        worst_semi = max(worst_semi, float(np.max(np.abs(composed - direct))) / scale)
    checks.append(_leq("semigroup", worst_semi, 1e-8))

    grid = np.linspace(0.0, 1.0, 21)
    t_grid = np.geomspace(0.1, 10.0, 8)
    kmin = math.inf
    for t in t_grid:
        kmin = min(kmin, float(kernel.grid(grid, grid, t).min()))
    checks.append(_is("positivity_grid", kmin > 0.0, detail=f"min K = {kmin!r}"))

    worst_mode = 0.0
    for n in (0, 1, 3, 6):
        for rho, t in ((0.25, 0.05), (0.7, 0.5)):
            got = kernel.mode_coefficient(rho, t, n, rule)
            want = math.exp(-t * kernel.decay_rate(n)) * true_basis.eval(n, 2.0 * rho - 1.0)
            worst_mode = max(worst_mode, abs(got - want))
    checks.append(_leq("single_mode_decay", worst_mode, 1e-9))

    f = lambda s: s * (1.0 - s)
    errs = [abs(kernel.reproducing_integral(0.5, t, f, rule) - f(0.5))
            for t in (1e-1, 1e-2, 1e-3)]
    checks.append(_is("reproducing_error_monotone", errs[0] > errs[1] > errs[2],
                      detail=f"errors {errs!r}"))
    checks.append(_leq("reproducing_error_small_t", errs[-1], 2e-2))

    big_t = kernel.value(0.3, 0.8, 50.0)
    limit = 1.0 / math.exp(log_beta(beta + 1.0, alpha + 1.0))
    checks.append(_leq("long_time_limit", abs(big_t.value - limit) / max(1.0, limit), 1e-9))

    _, bound_check = kernel_bound_scan(kernel, T=1.0, n_angle=9, n_time=5)
    checks.append(bound_check)
    return checks


def kernel_bound_scan(kernel: HeatKernel, **grid) -> tuple[list, CheckResult]:
    """`bound_ratio_scan` on the given grid: its c1 rows and the two-sided verdict."""
    scan = bound_ratio_scan(kernel, **grid)
    lo = min(float(v) for v in scan.min_ratio.values())
    hi = max(float(v) for v in scan.max_ratio.values())
    return scan.rows, _is(
        "bound_two_sided_on_grid", scan.two_sided_on_grid,
        detail=f"ratios in [{lo:.3e}, {hi:.3e}], K in [{scan.k_min_large_t:.3e}, "
               f"{scan.k_max_large_t:.3e}] for t > T, "
               f"{scan.n_unresolved}/{scan.n_points} unresolved",
    )


# -- green -------------------------------------------------------------------------


def suite_green(kappa: float, h: float, corrupt: dict) -> list:
    th1 = leg_weight(1, kappa)
    checks = []

    cases = [(OneIntervalGreen(weight=d, kappa=kappa), eta)
             for d in ([th1, h] if gap(th1, kappa) > 0.0 else [h]) for eta in (0.7, 1.0)]
    worst_slope = max(abs(g1.coincidence_slope_fd(eta) + 4.0 / kappa) for g1, eta in cases)
    checks.append(_leq("j_coincidence_slope", worst_slope, 1e-8))
    for name, method in (("j_euler_annihilation", "analytic"), ("j_euler_annihilation_fd", "fd")):
        worst = max(g1.annihilation_residual(eta, np.linspace(0.05, 0.95, 10) * eta, method)
                    for g1, eta in cases)
        checks.append(_leq(name, worst, 1e-9))

    lambda0 = eigenvalue(0, h, kappa) + corrupt.get("lambda0", 0.0)
    g = TwoIntervalGreen(h=h, kappa=kappa, lambda0=lambda0)

    worst_agree = 0.0
    for rho, eps, sigma, eta in (
        (0.3, 0.5, 0.6, 1.0),
        (0.5, 0.2, 0.5, 0.5),
        (0.8, 1.0, 0.25, 3.0),
    ):
        a = g.value(rho, eps, sigma, eta)
        b = g.value_series(rho, eps, sigma, eta)
        worst_agree = max(worst_agree, abs(a - b) / max(abs(a), 1e-300))
    checks.append(_leq("greenfunc_vs_greenfuncalt", worst_agree, 1e-10))

    _, adjoint_check = adjoint_scan(g, rho=0.4, epsilon=0.5, sigmas=np.linspace(0.2, 0.8, 5),
                                    ratios=(1.5, 2.5, 4.0), tol=1e-4)
    checks.append(adjoint_check)

    worst_eig = max(g.eigenfunction(n).equation_residual(np.linspace(0.1, 0.9, 9))
                    for n in (0, 1, 5))
    checks.append(_leq("sigma_eigenfunction_residual", worst_eig, 1e-6))

    left = g.boundary_exponent_fit("left", rho=0.4, epsilon=0.5, eta=1.0)
    right = g.boundary_exponent_fit("right", rho=0.4, epsilon=0.5, eta=1.0)
    checks.append(_leq("sigma_decay_exponent_left", abs(left - g.exp_left), 1e-2))
    checks.append(_leq("sigma_decay_exponent_right", abs(right - g.exp_right), 1e-2))

    dp1, dph = g.dp_1, g.dp_h
    f_exact = lambda s: s**dp1 * (1.0 - s) ** dph
    eps = 0.5
    etas = eps * np.exp(4.0 * np.array([1e-1, 1e-2, 1e-3]) / kappa)
    rec = g.reproducing_limit(0.5, eps, f_exact, etas)
    # the approach rate is f(rho) (1 - (eps/eta)^lambda0) for this f; allow 2x
    rate = rec.target * (1.0 - (eps / etas[-1]) ** g.lambda0)
    checks.append(_leq("reproducing_limit_error", rec.errors[-1],
                       max(1e-3, 2.0 * rate)))
    factor_err = float(np.max(np.abs(rec.values - (eps / rec.etas) ** g.lambda0 * rec.target)))
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
    rows = []
    worst, at = 0.0, None
    for sigma in map(float, sigmas):
        for ratio in ratios:
            eta = epsilon * float(ratio)
            rep = g.adjoint_residual(rho=rho, epsilon=epsilon, sigma=sigma, eta=eta)
            rows.append((rho, epsilon, sigma, eta, rep.residual, rep.scale))
            if rep.relative > worst:
                worst, at = rep.relative, (sigma, eta)
    return rows, _leq("adjoint_residual_homogeneous", worst, tol,
                      detail=f"worst at (sigma, eta) = {at!r}")


# -- pde ---------------------------------------------------------------------------


def _random_config(rng, M: int) -> pde.PointConfig:
    start = rng.uniform(-5.0, 5.0)
    gaps = rng.uniform(0.3, 1.5, size=M - 1)
    return pde.PointConfig(tuple(start + np.concatenate([[0.0], np.cumsum(gaps)])))


def suite_pde(kappa: float, candidate: str, n_configs: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    checks = []
    F = pde.resolve_candidate(candidate, kappa, M=2)
    M = F.arity or 2
    weights = pde.WeightAssignment.one_leg(kappa, M)

    configs = [_random_config(rng, M) for _ in range(n_configs)]
    worst = max(
        max(r.relative for r in pde.system_residuals(F, config, weights))
        for config in configs
    )
    checks.append(_leq("system_residuals_sweep", worst, 1e-6,
                       detail=f"{candidate} over {n_configs} configurations"))

    # the partials system_residuals reads, from its own stencil at a wider step
    probe = pde.builtin_power_product({(1, 2): 0.6, (1, 3): -0.4, (2, 3): 1.3}, 3)
    cfg3 = pde.PointConfig.of(-0.7, 0.4, 1.9)
    _, fd1, fd2 = pde._stencil(probe, cfg3, 1e-3 * cfg3.min_gap)
    worst_stencil = max(
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
    reps = {r.equation: r for r in pde.system_residuals(
        ansatz, cfg2, pde.WeightAssignment(kappa=kappa, iota=2, h=th3))}
    conformal = reps["ward_special_conformal"]
    witness = -(th1 - th3) * (cfg2.x(2) - cfg2.x(1)) * ansatz(cfg2.array)
    checks.append(_leq(
        "two_point_ward_witness",
        max(reps["ward_translation"].relative, reps["ward_dilation"].relative,
            abs(conformal.residual - witness) / conformal.scale),
        1e-6, detail=f"special conformal relative residual {conformal.relative!r}"))

    if candidate == "n1":
        config = configs[0]
        s = config.x(2) - config.x(1)
        norm = s ** (2.0 * th1) * F(config.array)
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
                       max(abs(fit.A - 2.0), abs(fit.B - 3.0)), 1e-6))

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
    never passes as a silent no-op.
    """
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; expected one of {SUITES}")
    reads = SUPPORTED_CORRUPTIONS if name == "all" else SUITE_CORRUPTIONS.get(name, ())
    unread = sorted(set(corrupt) - set(reads))
    if unread:
        raise DomainError(f"suite {name!r} reads no corruption keys {unread!r}; "
                          f"it reads {reads}")
    if name == "exponents":
        return suite_exponents(kappas=(kappa,))
    if name == "jacobi":
        return suite_jacobi(alpha, beta, seed=seed)
    if name == "kernel":
        return suite_kernel(alpha, beta, t_list=t_list, corrupt=corrupt, seed=seed)
    if name == "green":
        return suite_green(kappa, h=h, corrupt=corrupt)
    if name == "pde":
        return suite_pde(kappa, candidate=candidate, n_configs=n_configs, seed=seed)
    if name == "asymptotics":
        return suite_asymptotics(kappa, h=h)
    checks = []
    for sub in ("exponents", "jacobi", "kernel", "green", "pde", "asymptotics"):
        sub_checks = run_suite(
            sub, kappa, h=h, alpha=alpha, beta=beta, candidate=candidate,
            n_configs=n_configs, seed=seed, t_list=t_list,
            corrupt={k: v for k, v in corrupt.items() if k in SUITE_CORRUPTIONS.get(sub, ())},
        )
        for c in sub_checks:
            c.name = f"{sub}.{c.name}"
        checks.extend(sub_checks)
    return checks


def build_report(command: str, params: dict, checks: list, started: float, seed: int) -> Report:
    return Report(
        command=command,
        params=params,
        checks=checks,
        wall_time=time.perf_counter() - started,
        seed=seed,
    )
