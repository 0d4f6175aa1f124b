import math

import numpy as np
import pytest

from nullstate import (
    CollapseSpec,
    DegenerateFitError,
    PointConfig,
    PreconditionError,
    WeightAssignment,
    adjacent_pair_bound_scan,
    builtin_n1,
    collapse_exponent,
    delta_minus,
    delta_plus,
    eigenvalue,
    ell_limit,
    far_pair_bound_scan,
    leg_weight,
    one_interval_decomposition_fit,
    two_leg_test,
)
from nullstate import asymptotics as asym
from nullstate import pde
from conftest import KAPPA_GRID, KAPPA_MODERATE


def spec_for(kappa, M=2, i=2):
    return CollapseSpec(i=i, weights=WeightAssignment.one_leg(kappa, M))


@pytest.mark.parametrize("kappa", KAPPA_GRID)
def test_n1_collapse_exponent(kappa):
    F = builtin_n1(kappa)
    cfg = PointConfig.of(0.0, 1.0)
    est = collapse_exponent(F, cfg, spec_for(kappa))
    assert abs(est.p_hat - (-2.0 * leg_weight(1, kappa))) <= 1e-3


def test_manufactured_exponent_recovered():
    kappa = 10.0 / 3.0
    target = delta_plus(leg_weight(1, kappa), kappa)
    F = asym.manufactured_collapse_power(kappa, 3, 2, target)
    cfg = PointConfig.of(0.0, 1.0, 2.5)
    est = collapse_exponent(F, cfg, spec_for(kappa, M=3))
    assert abs(est.p_hat - target) <= 1e-3


def test_constant_field_exponent_zero():
    F = pde.resolve_candidate("one", 4.0)
    est = collapse_exponent(F, PointConfig.of(0.0, 1.0), spec_for(4.0))
    assert abs(est.p_hat) <= 1e-12


def test_degenerate_fit_raises():
    F = pde.CandidateFunction(name="zero", func=lambda xs: 0.0)
    with pytest.raises(DegenerateFitError):
        collapse_exponent(F, PointConfig.of(0.0, 1.0), spec_for(4.0))


def test_collapse_effective_weight_case_table():
    w = WeightAssignment(kappa=4.0, iota=3, h=1.5)
    assert CollapseSpec(i=2, weights=w).effective_weight == leg_weight(1, 4.0)
    assert CollapseSpec(i=3, weights=w).effective_weight == 1.5
    assert CollapseSpec(i=4, weights=w).effective_weight == 1.5
    assert CollapseSpec(i=5, weights=w).effective_weight == leg_weight(1, 4.0)


@pytest.mark.parametrize("kappa", KAPPA_MODERATE)
@pytest.mark.parametrize("gamma,expected", [(0.05, True), (-0.05, False)])
def test_two_leg_margin(kappa, gamma, expected):
    cfg = PointConfig.of(0.0, 1.0, 2.3)
    F = asym.manufactured_two_leg(kappa, 3, 2, gamma)
    res = two_leg_test(F, cfg, spec_for(kappa, M=3))
    assert res.is_two_leg is expected
    assert not res.indeterminate


def test_two_leg_plus_channel_true():
    kappa = 10.0 / 3.0
    F = asym.manufactured_collapse_power(kappa, 3, 2, delta_plus(leg_weight(1, kappa), kappa))
    res = two_leg_test(F, PointConfig.of(0.0, 1.0, 2.3), spec_for(kappa, M=3))
    assert res.is_two_leg


def test_n1_never_two_leg():
    # -2 theta_1 equals delta_minus(theta_1) identically, so the identity
    # channel is always present; at kappa = 4 the exponents coincide at -1/2
    kappa = 4.0
    assert delta_minus(leg_weight(1, kappa), kappa) == pytest.approx(-0.5, abs=1e-14)
    F = builtin_n1(kappa)
    res = two_leg_test(F, PointConfig.of(0.0, 1.0), spec_for(kappa))
    assert not res.is_two_leg


@pytest.mark.parametrize("kappa", KAPPA_MODERATE)
def test_ell_limit_n1_normalization(kappa):
    F = builtin_n1(kappa)
    rec = ell_limit(F, PointConfig.of(0.0, 1.0), spec_for(kappa))
    assert rec.converged
    assert rec.limit == pytest.approx(1.0, abs=1e-10)


def test_ell_limit_two_leg_field_vanishes():
    kappa = 10.0 / 3.0
    F = asym.manufactured_collapse_power(kappa, 3, 2, delta_plus(leg_weight(1, kappa), kappa))
    rec = ell_limit(F, PointConfig.of(0.0, 1.0, 2.3), spec_for(kappa, M=3))
    assert rec.converged
    assert abs(rec.limit) <= 1e-6


def test_ell_limit_slice_prefactor():
    kappa = 10.0 / 3.0
    dm = delta_minus(leg_weight(1, kappa), kappa)
    F = asym.manufactured_collapse_power(kappa, 3, 2, dm, prefactor=lambda x1: x1 * x1 + 1.0)
    cfg = PointConfig.of(0.0, 1.0, 2.3)
    xs = np.linspace(-0.8, 0.8, 20)
    rec = ell_limit(F, cfg, spec_for(kappa, M=3), slice_index=1, slice_values=xs)
    assert np.max(np.abs(rec.slice_limits - (xs * xs + 1.0))) <= 1e-4
    # uniformity proxy shrinks along the collapse
    assert rec.slice_uniformity[-1] <= rec.slice_uniformity[0] + 1e-12


def test_decomposition_fit_synthetic():
    kappa, d = 10.0 / 3.0, leg_weight(1, 10.0 / 3.0)
    F = asym.manufactured_two_term(kappa, 3, 2, d, 2.0, 3.0)
    cfg = PointConfig.of(0.0, 1.0, 2.3)
    spec = CollapseSpec(i=2, weights=WeightAssignment(kappa=kappa, iota=2, h=d))
    fit = one_interval_decomposition_fit(F, cfg, spec)
    assert fit.A == pytest.approx(2.0, abs=1e-6)
    assert fit.B == pytest.approx(3.0, abs=1e-6)


@pytest.mark.parametrize("kappa", KAPPA_MODERATE)
def test_decomposition_n1_pure_minus_channel(kappa):
    F = builtin_n1(kappa)
    fit = one_interval_decomposition_fit(F, PointConfig.of(0.0, 1.0), spec_for(kappa))
    assert fit.A == pytest.approx(1.0, abs=1e-6)
    assert fit.B == pytest.approx(0.0, abs=1e-6)


def test_decomposition_two_leg_field():
    kappa = 10.0 / 3.0
    th1 = leg_weight(1, kappa)
    F = asym.manufactured_collapse_power(kappa, 2, 2, delta_plus(th1, kappa))
    fit = one_interval_decomposition_fit(F, PointConfig.of(0.0, 1.0), spec_for(kappa))
    assert fit.A == pytest.approx(0.0, abs=1e-6)
    assert fit.B == pytest.approx(1.0, abs=1e-6)


def test_decomposition_rejects_tiny_gap():
    kappa = 7.9  # gap(theta_1) = 8/7.9 - 1 < 0.05
    F = builtin_n1(kappa)
    with pytest.raises(PreconditionError):
        one_interval_decomposition_fit(F, PointConfig.of(0.0, 1.0), spec_for(kappa))


@pytest.mark.parametrize("kappa", (10.0 / 3.0, 6.0))
def test_far_pair_scan(kappa):
    h = leg_weight(2, kappa)
    cfg = PointConfig.of(0.0, 1.0, 2.0, 3.0, 4.0)
    w = WeightAssignment(kappa=kappa, iota=5, h=h)
    good = far_pair_bound_scan(asym.manufactured_far_pair(kappa, h, 5, 2, 5), cfg, w, j=2)
    assert not good.divergent
    assert good.sup_ratio == pytest.approx(1.0, rel=1e-10)
    bad = far_pair_bound_scan(
        asym.manufactured_far_pair(kappa, h, 5, 2, 5, violating=True), cfg, w, j=2
    )
    assert bad.divergent


def test_far_pair_two_leg_product_m4():
    # M = 4 product ansatz with the plus channel on both intervals stays bounded
    kappa = 10.0 / 3.0
    h = leg_weight(2, kappa)
    dp1 = delta_plus(leg_weight(1, kappa), kappa)
    dph = delta_plus(h, kappa)
    F = pde.builtin_power_product({(1, 2): dp1, (3, 4): dph}, 4)
    cfg = PointConfig.of(0.0, 1.0, 2.0, 3.0)
    w = WeightAssignment(kappa=kappa, iota=4, h=h)
    scan = far_pair_bound_scan(F, cfg, w, j=2)
    assert not scan.divergent
    assert math.isfinite(scan.sup_ratio)


def test_far_pair_rejects_adjacent():
    kappa = 4.0
    cfg = PointConfig.of(0.0, 1.0, 2.0, 3.0)
    w = WeightAssignment(kappa=kappa, iota=3, h=1.0)
    with pytest.raises(PreconditionError):
        far_pair_bound_scan(builtin_n1(kappa), cfg, w, j=2)


def _pointwise_rows(F, config, moves, ratio):
    """The per-point loop the batched scans replaced: one F call per grid point."""
    rows = []
    for move in moves:
        xs = config.array
        for i, (anchor, length) in move.items():
            xs[i - 1] = xs[anchor - 1] + length
        lengths = [xs[i - 1] - xs[anchor - 1] for i, (anchor, _) in move.items()]
        val = abs(F(xs))
        rows.append((*lengths, val, val / ratio(*lengths)))
    return rows


def test_far_pair_scan_matches_pointwise_loop():
    # NaN ratios (here the eps = 1e-5 column) are skipped by every sup
    kappa = 6.0
    h = leg_weight(2, kappa)
    dp1, dph = delta_plus(leg_weight(1, kappa), kappa), delta_plus(h, kappa)
    cfg = PointConfig.of(0.0, 1.0, 2.0, 3.0, 4.0)
    w = WeightAssignment(kappa=kappa, iota=5, h=h)
    base = asym.manufactured_far_pair(kappa, h, 5, 2, 5, violating=True)
    F = pde.CandidateFunction(
        name="holed", arity=5,
        func=lambda xs: np.where(xs[4] - xs[3] > 5e-5, base.func(xs), np.nan),
    )
    deltas, epsilons = [1e-4, 1e-3, 1e-2], [1e-5, 1e-4, 1e-3]
    scan = far_pair_bound_scan(F, cfg, w, j=2, deltas=deltas, epsilons=epsilons)
    moves = [{2: (1, d), 5: (4, e)} for d in deltas for e in epsilons]
    want = _pointwise_rows(F, cfg, moves, lambda d, e: d**dp1 * e**dph)
    np.testing.assert_allclose(scan.rows, want, rtol=1e-14)
    ratios = np.array([row[3] for row in want]).reshape(3, 3)
    assert scan.sup_ratio == pytest.approx(np.nanmax(ratios), rel=1e-14)
    slope = np.polyfit(np.log(deltas), np.log(np.nanmax(ratios, axis=1)), 1)[0]
    assert scan.delta_slope == pytest.approx(slope, rel=1e-12)
    assert scan.divergent


def test_adjacent_pair_scan_matches_pointwise_loop():
    kappa = 10.0 / 3.0
    h = leg_weight(2, kappa)
    dp1, dph = delta_plus(leg_weight(1, kappa), kappa), delta_plus(h, kappa)
    cfg = PointConfig.of(0.0, 1.0, 2.0, 3.0, 4.0)
    w = WeightAssignment(kappa=kappa, iota=4, h=h)
    F = asym.manufactured_adjacent(kappa, h, 5, 4, shape="weak-eps")
    epsilons, fractions = [1e-4, 1e-3, 1e-2], [0.2, 0.5, 0.7]
    scan = adjacent_pair_bound_scan(F, cfg, w, epsilons=epsilons, fractions=fractions)
    moves = [{3: (2, f * e), 4: (2, e)} for e in epsilons for f in fractions]
    want = _pointwise_rows(F, cfg, moves, lambda d, e: d**dp1 * e**dph * (e - d) ** dph)
    np.testing.assert_allclose(scan.rows, want, rtol=1e-14)
    ratios = np.array([row[3] for row in want])
    inner = np.array([d < e / 2.0 for d, e, _, _ in want])
    assert scan.sup_ratio == pytest.approx(ratios.max(), rel=1e-14)
    assert scan.split_sups["inner"] == pytest.approx(ratios[inner].max(), rel=1e-14)
    assert scan.split_sups["outer"] == pytest.approx(ratios[~inner].max(), rel=1e-14)
    assert scan.eps_exponent == pytest.approx(dph - 0.5, abs=1e-9)
    assert scan.divergent


def test_far_pair_rejects_displacement_past_neighbour():
    # delta = 2.5 puts x_2 past x_3
    kappa = 6.0
    h = leg_weight(2, kappa)
    cfg = PointConfig.of(0.0, 1.0, 2.0, 3.0, 4.0)
    w = WeightAssignment(kappa=kappa, iota=5, h=h)
    F = asym.manufactured_far_pair(kappa, h, 5, 2, 5)
    with pytest.raises(PreconditionError):
        far_pair_bound_scan(F, cfg, w, j=2, deltas=[1e-3, 2.5], epsilons=[1e-3])


def test_adjacent_pair_rejects_displacement_onto_neighbour():
    # eps = 3 puts x_4 on x_5
    kappa = 6.0
    h = leg_weight(2, kappa)
    cfg = PointConfig.of(0.0, 1.0, 2.0, 3.0, 4.0)
    w = WeightAssignment(kappa=kappa, iota=4, h=h)
    F = asym.manufactured_adjacent(kappa, h, 5, 4)
    with pytest.raises(PreconditionError):
        adjacent_pair_bound_scan(F, cfg, w, epsilons=[1e-3, 3.0])


@pytest.mark.parametrize("kappa", (10.0 / 3.0, 6.0))
def test_adjacent_pair_scan(kappa):
    h = leg_weight(2, kappa)
    cfg = PointConfig.of(0.0, 1.0, 2.0, 3.0, 4.0)
    w = WeightAssignment(kappa=kappa, iota=4, h=h)
    norm = adjacent_pair_bound_scan(asym.manufactured_adjacent(kappa, h, 5, 4), cfg, w)
    ratios = np.array([row[3] for row in norm.rows])
    assert np.max(np.abs(ratios - 1.0)) <= 1e-10
    assert not norm.divergent
    # lambda_0 bookkeeping: the eps power recovered at fixed fraction equals
    # lambda_0 - dp(theta_1) - dp(h) = dp(h)
    lam0 = eigenvalue(0, h, kappa)
    dp1, dph = delta_plus(leg_weight(1, kappa), kappa), delta_plus(h, kappa)
    assert lam0 - dp1 - dph == pytest.approx(dph, abs=1e-12)
    assert norm.eps_exponent == pytest.approx(dph, abs=1e-6)
    assert norm.split_sups["inner"] <= 1.0 + 1e-10
    assert norm.split_sups["outer"] <= 1.0 + 1e-10
    weak = adjacent_pair_bound_scan(
        asym.manufactured_adjacent(kappa, h, 5, 4, shape="weak-eps"), cfg, w
    )
    assert weak.divergent


def test_exponent_fit_consistency_with_ell():
    # when p_hat sits at delta_minus within error, the ell limit is finite nonzero
    kappa = 16.0 / 3.0
    F = builtin_n1(kappa)
    cfg = PointConfig.of(0.0, 1.0)
    est = collapse_exponent(F, cfg, spec_for(kappa))
    dm = delta_minus(leg_weight(1, kappa), kappa)
    assert abs(est.p_hat - dm) <= 3.0 * est.stderr + 1e-3
    rec = ell_limit(F, cfg, spec_for(kappa))
    assert rec.converged and abs(rec.limit) > 0.1


def test_pure_power_range(rng):
    # fit recovers exponents across [-3, 3] within 3 stderr
    kappa = 4.0
    cfg = PointConfig.of(0.0, 1.0)
    for p in (-3.0, -1.2, 0.4, 1.7, 3.0):
        F = asym.manufactured_collapse_power(kappa, 2, 2, p)
        est = collapse_exponent(F, cfg, spec_for(kappa))
        assert abs(est.p_hat - p) <= 3.0 * est.stderr + 1e-9
