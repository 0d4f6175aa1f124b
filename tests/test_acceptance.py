"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  Total runtime is a few seconds.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nullstate as ns
from nullstate import asymptotics as asym
from nullstate import pde
from nullstate.heat_kernel import HeatKernel
from nullstate.jacobi import JacobiBasis, gauss_jacobi_rule

KAPPAS = (0.5, 2.0, 10.0 / 3.0, 4.0, 16.0 / 3.0, 6.0, 20.0 / 3.0, 7.9)


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_kpz_identity_suite():
    worst_leg = worst_vieta = worst_lam0 = 0.0
    for kappa in KAPPAS:
        th1 = ns.leg_weight(1, kappa)
        dp1 = ns.delta_plus(th1, kappa)
        for s in range(1, 11):
            rp, rm = ns.kpz_leg_identity_residual(s, kappa)
            worst_leg = max(worst_leg, abs(rp), abs(rm))
            d = ns.leg_weight(s, kappa)
            pair = ns.kpz(d, kappa)
            worst_vieta = max(
                worst_vieta,
                abs(pair.vieta_product + 4.0 * d / kappa),
                abs(pair.vieta_sum - (kappa - 4.0) / kappa),
            )
        for s in range(1, 6):
            h = ns.leg_weight(s, kappa)
            worst_lam0 = max(
                worst_lam0,
                abs(ns.eigenvalue(0, h, kappa) - (2.0 * ns.delta_plus(h, kappa) + dp1)),
            )
    ok = worst_leg <= 1e-12 and worst_vieta <= 1e-12 and worst_lam0 <= 1e-12
    report(1, "kpz identities", ok,
           f"lemma-2 {worst_leg:.2e}, vieta {worst_vieta:.2e}, lambda0 {worst_lam0:.2e}")


def test_criterion_2_jacobi_suite():
    params = [(1.0 / 3.0, 1.0 / 3.0)]
    for kappa in (10.0 / 3.0, 4.0, 6.0):
        for s in (1, 2, 3):
            p = ns.jacobi_params(ns.leg_weight(s, kappa), kappa)
            params.append((p.alpha, p.beta))
    worst_eig = worst_ortho = worst_norm = worst_sum = 0.0
    rng = np.random.default_rng(0)
    grid = np.linspace(-0.95, 0.95, 41)
    for alpha, beta in params:
        b = JacobiBasis(alpha, beta)
        for n in range(21):
            worst_eig = max(worst_eig, b.operator_residual(n, grid) / b.endpoint_max(n))
        rule = gauss_jacobi_rule(40, b)
        table = b.eval_table(15, rule.nodes)
        grams = (table * rule.weights) @ table.T
        for n in range(16):
            hn = b.norm_sq(n)
            worst_norm = max(worst_norm, abs(grams[n, n] - hn) / hn)
            for m in range(n):
                worst_ortho = max(
                    worst_ortho, abs(grams[m, n]) / math.sqrt(b.norm_sq(m) * hn)
                )
        ys = rng.uniform(-1.0, 1.0, size=50)
        for n in range(9):
            diff = np.max(np.abs(b.eval(n, ys) - b.eval_explicit_sum(n, ys)))
            worst_sum = max(worst_sum, diff / max(b.endpoint_max(n), 1.0))
    ok = (worst_eig <= 1e-9 and worst_ortho <= 1e-10 and worst_norm <= 1e-10
          and worst_sum <= 1e-10)
    report(2, "jacobi suite", ok,
           f"eigen {worst_eig:.2e}, ortho {worst_ortho:.2e}, "
           f"norm {worst_norm:.2e}, sum {worst_sum:.2e}")


def test_criterion_3_heat_kernel_suite():
    worst_mass = worst_sym = worst_semi = worst_mode = 0.0
    positive = True
    for alpha, beta in ((1.0 / 3.0, 1.0 / 3.0), (2.0, 1.0)):
        k = HeatKernel(alpha, beta)
        rule = gauss_jacobi_rule(120, k.basis, domain="unit")
        for t in (1e-3, 1e-2, 0.1, 1.0, 10.0):
            mass = k.reproducing_integral(0.37, t, lambda s: 1.0, rule)
            worst_mass = max(worst_mass, abs(mass - 1.0))
        rng = np.random.default_rng(3)
        for rho, sigma in rng.uniform(0.03, 0.97, size=(5, 2)):
            n_terms, _ = k.truncation_index(0.05)
            a = k.value(rho, sigma, 0.05, n_terms=n_terms).value
            b = k.value(sigma, rho, 0.05, n_terms=n_terms).value
            worst_sym = max(worst_sym, abs(a - b))
        srule = gauss_jacobi_rule(80, k.basis, domain="unit")
        rhos, sigmas = np.array([0.2, 0.6, 0.95]), np.array([0.35, 0.8])
        for t1, t2 in ((0.05, 0.05), (0.1, 0.4)):
            left = k.grid(rhos, srule.nodes, t1)
            right = k.grid(srule.nodes, sigmas, t2)
            direct = k.grid(rhos, sigmas, t1 + t2)
            scale = max(1.0, float(np.max(np.abs(direct))))
            worst_semi = max(
                worst_semi, float(np.max(np.abs((left * srule.weights) @ right - direct))) / scale
            )
        pts = np.linspace(0.0, 1.0, 21)
        for t in np.geomspace(0.1, 10.0, 8):
            positive &= bool(k.grid(pts, pts, float(t)).min() > 0.0)
        for n in (0, 1, 3, 6):
            for rho, t in ((0.25, 0.05), (0.7, 0.5)):
                got = k.mode_coefficient(rho, t, n, rule)
                want = math.exp(-t * k.decay_rate(n)) * k.basis.eval(n, 2 * rho - 1)
                worst_mode = max(worst_mode, abs(got - want))
    k = HeatKernel(1.0 / 3.0, 1.0 / 3.0)
    rule = gauss_jacobi_rule(120, k.basis, domain="unit")
    f = lambda s: s * (1.0 - s)
    errs = [abs(k.reproducing_integral(0.5, t, f, rule) - 0.25) for t in (1e-1, 1e-2, 1e-3)]
    monotone = errs[0] > errs[1] > errs[2]
    ok = (worst_mass <= 1e-9 and worst_sym <= 1e-8 and worst_semi <= 1e-8 and positive
          and worst_mode <= 1e-9 and monotone and errs[2] <= 2e-2)
    report(3, "heat-kernel suite", ok,
           f"mass {worst_mass:.2e}, sym {worst_sym:.2e}, semigroup {worst_semi:.2e}, "
           f"positive {positive}, mode {worst_mode:.2e}, reproducing {errs[2]:.2e}")


def test_criterion_4_green_suite():
    worst_slope = worst_ann = worst_agree = worst_adjoint = worst_exp = 0.0
    exact_zero = True
    for kappa in KAPPAS:
        for s in (1, 2):
            g1 = ns.OneIntervalGreen(weight=ns.leg_weight(s, kappa), kappa=kappa)
            exact_zero &= g1.value(1.0, 1.0) == 0.0
            worst_slope = max(worst_slope, abs(g1.coincidence_slope_fd(1.0) + 4.0 / kappa))
            deltas = np.linspace(0.05, 0.95, 10)
            worst_ann = max(worst_ann, g1.annihilation_residual(1.0, deltas))
    for kappa in (6.0, 10.0 / 3.0):
        g = ns.TwoIntervalGreen(h=ns.leg_weight(2, kappa), kappa=kappa)
        exact_zero &= g.value(0.3, 1.0, 0.6, 0.5) == 0.0 and g.value(0.3, 1.0, 0.6, 1.0) == 0.0
        for pt in ((0.3, 0.5, 0.6, 1.0), (0.5, 0.2, 0.5, 0.5), (0.8, 1.0, 0.25, 3.0)):
            a, b = g.value(*pt), g.value_series(*pt)
            worst_agree = max(worst_agree, abs(a - b) / abs(a))
        for sigma in np.linspace(0.2, 0.8, 5):
            for ratio in (1.5, 2.5, 4.0):
                rep = g.adjoint_residual(0.4, 0.5, float(sigma), 0.5 * ratio)
                worst_adjoint = max(worst_adjoint, rep.relative)
        left = g.boundary_exponent_fit("left", 0.4, 0.5, 1.0)
        right = g.boundary_exponent_fit("right", 0.4, 0.5, 1.0)
        worst_exp = max(worst_exp, abs(left - g.exp_left), abs(right - g.exp_right))
    ok = (exact_zero and worst_slope <= 1e-8 and worst_ann <= 1e-9
          and worst_agree <= 1e-10 and worst_adjoint <= 1e-4 and worst_exp <= 1e-2)
    report(4, "green suite", ok,
           f"slope {worst_slope:.2e}, euler {worst_ann:.2e}, agree {worst_agree:.2e}, "
           f"adjoint {worst_adjoint:.2e}, exponents {worst_exp:.2e}")


def test_criterion_5_pde_suite():
    rng = np.random.default_rng(5)
    worst = 0.0
    for kappa in KAPPAS:
        F = ns.builtin_n1(kappa)
        w = pde.WeightAssignment.one_leg(kappa, 2)
        for _ in range(100):
            a = rng.uniform(-5.0, 5.0)
            cfg = pde.PointConfig.of(a, a + rng.uniform(0.3, 1.8))
            worst = max(worst, max(r.relative for r in pde.system_residuals(F, cfg, w)))
    solvable_ok = True
    for kappa in (4.0, 6.0):
        th1 = ns.leg_weight(1, kappa)
        solvable_ok &= ns.two_point_ward_solvable(th1, th1)[0]
        for N in (2, 3, 4):
            solvable_ok &= not ns.two_point_ward_solvable(
                th1, ns.leg_weight(2 * N - 1, kappa)
            )[0]
    ok = worst <= 1e-6 and solvable_ok
    report(5, "pde suite", ok,
           f"800 configs, worst residual {worst:.2e}, two-point dichotomy {solvable_ok}")


def test_criterion_6_asymptotics_suite():
    worst_exp = worst_id = 0.0
    classify_ok = True
    for kappa in KAPPAS:
        th1 = ns.leg_weight(1, kappa)
        worst_id = max(worst_id, abs(-2.0 * th1 - ns.delta_minus(th1, kappa)))
        F = ns.builtin_n1(kappa)
        cfg = pde.PointConfig.of(0.0, 1.0)
        spec = asym.CollapseSpec(i=2, weights=pde.WeightAssignment.one_leg(kappa, 2))
        est = ns.collapse_exponent(F, cfg, spec)
        worst_exp = max(worst_exp, abs(est.p_hat - (-2.0 * th1)))
        cfg3 = pde.PointConfig.of(0.0, 1.0, 2.3)
        spec3 = asym.CollapseSpec(i=2, weights=pde.WeightAssignment.one_leg(kappa, 3))
        hit = ns.two_leg_test(asym.manufactured_two_leg(kappa, 3, 2, +0.05), cfg3, spec3)
        miss = ns.two_leg_test(asym.manufactured_two_leg(kappa, 3, 2, -0.05), cfg3, spec3)
        classify_ok &= hit.is_two_leg and not miss.is_two_leg
    ratio_dev = 0.0
    flagged_ok = True
    for kappa in (10.0 / 3.0, 6.0):
        h = ns.leg_weight(2, kappa)
        cfg5 = pde.PointConfig.of(0.0, 1.0, 2.0, 3.0, 4.0)
        w_adj = pde.WeightAssignment(kappa=kappa, iota=4, h=h)
        norm = ns.adjacent_pair_bound_scan(
            asym.manufactured_adjacent(kappa, h, 5, 4), cfg5, w_adj
        )
        ratio_dev = max(ratio_dev, max(abs(r[3] - 1.0) for r in norm.rows))
        weak = ns.adjacent_pair_bound_scan(
            asym.manufactured_adjacent(kappa, h, 5, 4, shape="weak-eps"), cfg5, w_adj
        )
        w_far = pde.WeightAssignment(kappa=kappa, iota=5, h=h)
        bad = ns.far_pair_bound_scan(
            asym.manufactured_far_pair(kappa, h, 5, 2, 5, violating=True), cfg5, w_far, j=2
        )
        flagged_ok &= weak.divergent and bad.divergent
    ok = (worst_exp <= 1e-3 and worst_id <= 1e-12 and classify_ok
          and ratio_dev <= 1e-10 and flagged_ok)
    report(6, "asymptotics suite", ok,
           f"n1 exponent {worst_exp:.2e}, identity {worst_id:.2e}, "
           f"classification {classify_ok}, ratio dev {ratio_dev:.2e}, flags {flagged_ok}")


def run_cli(*argv):
    # the child imports the same nullstate package as this test, installed or not
    src = str(Path(ns.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "nullstate.cli", *argv],
        capture_output=True,
        text=True,
        timeout=600,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc.returncode, proc.stdout


def test_criterion_7_end_to_end():
    code6, _ = run_cli("verify", "all", "--kappa", "6")
    code33, _ = run_cli("verify", "all", "--kappa", "3.3333")
    code_bad, out_bad = run_cli("verify", "all", "--kappa", "6", "--corrupt", "lambda0=1e-6")
    named_failure = any(
        "FAIL" in line and "greenfunc_vs_greenfuncalt" in line
        for line in out_bad.splitlines()
    )
    ok = code6 == 0 and code33 == 0 and code_bad == 1 and named_failure
    report(7, "end-to-end", ok,
           f"exit codes {code6}/{code33}/{code_bad}, named corruption failure {named_failure}")
