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
    collapse_channels,
    collapse_exponent,
    delta_minus,
    delta_plus,
    eigenvalue,
    far_pair_bound_scan,
    leg_weight,
    two_leg_test,
    weight_floor,
)
from nullstate import asymptotics as asym
from nullstate import findiff, pde
from conftest import KAPPA_GRID


def spec_for(kappa, M=2, i=2):
    return CollapseSpec(i=i, weights=WeightAssignment.one_leg(kappa, M))


def collapse_power(M, exponent):
    """(x_2 - x_1)^exponent on M points."""
    return pde.builtin_power_product({(1, 2): exponent}, M)


@pytest.mark.parametrize("kappa", KAPPA_GRID)
def test_n1_collapse_exponent(kappa):
    F = builtin_n1(kappa)
    cfg = PointConfig.of(0.0, 1.0)
    est = collapse_exponent(F, cfg, spec_for(kappa))
    assert abs(est.p_hat - (-2.0 * leg_weight(1, kappa))) <= 1e-3


def test_manufactured_exponent_recovered():
    kappa = 10.0 / 3.0
    target = delta_plus(leg_weight(1, kappa), kappa)
    F = collapse_power(3, target)
    cfg = PointConfig.of(0.0, 1.0, 2.5)
    est = collapse_exponent(F, cfg, spec_for(kappa, M=3))
    assert abs(est.p_hat - target) <= 1e-3


def test_constant_field_exponent_zero():
    F = pde.resolve_candidate("one", 4.0)
    est = collapse_exponent(F, PointConfig.of(0.0, 1.0), spec_for(4.0))
    assert abs(est.p_hat) <= 1e-12


@pytest.mark.parametrize("fit", (collapse_exponent, collapse_channels, two_leg_test))
def test_degenerate_fit_raises(fit):
    F = pde.CandidateFunction(name="zero", func=lambda xs: np.zeros_like(xs[0]))
    with pytest.raises(DegenerateFitError):
        fit(F, PointConfig.of(0.0, 1.0), spec_for(4.0))


def test_collapse_effective_weight_case_table():
    w = WeightAssignment(kappa=4.0, iota=3, h=1.5)
    assert CollapseSpec(i=2, weights=w).effective_weight == leg_weight(1, 4.0)
    assert CollapseSpec(i=3, weights=w).effective_weight == 1.5
    assert CollapseSpec(i=4, weights=w).effective_weight == 1.5
    assert CollapseSpec(i=5, weights=w).effective_weight == leg_weight(1, 4.0)


def bench_configs(M, seeds=range(10)):
    """One configuration per seed, drawn as the benchmark draws them:
    start ~ U(-5, 5), gaps ~ U(0.3, 1.5)."""
    configs = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        start = rng.uniform(-5.0, 5.0)
        gaps = rng.uniform(0.3, 1.5, size=M - 1)
        configs.append(PointConfig(tuple(start + np.concatenate([[0.0], np.cumsum(gaps)]))))
    return configs


@pytest.mark.parametrize("kappa", KAPPA_GRID)
@pytest.mark.parametrize("gamma,expected", [(0.05, True), (-0.05, False)])
def test_two_leg_margin(kappa, gamma, expected):
    # pure powers off both channels: the channel fit does not describe them,
    # so the slope rule keeps its verdict (the benchmark's two_leg_test ops)
    F = asym.manufactured_two_leg(kappa, 3, 2, gamma)
    for cfg in [PointConfig.of(0.0, 1.0, 2.3)] + bench_configs(3):
        res = two_leg_test(F, cfg, spec_for(kappa, M=3))
        assert res.channels.misfit > asym.MODEL_TOL
        assert res.is_two_leg is expected
        assert not res.indeterminate


@pytest.mark.parametrize("kappa", KAPPA_GRID + (7.99,))
def test_two_leg_two_term(kappa):
    # A delta^dm + B delta^dp: the slope of log|F| bends toward dp at small
    # gap, which read (1, 1) as two-leg at kappa = 6, 20/3 and 7.9
    th1 = leg_weight(1, kappa)
    cfg = PointConfig.of(0.0, 1.0, 2.3)
    both = two_leg_test(asym.manufactured_two_term(kappa, 3, 2, th1, 1.0, 1.0), cfg,
                        spec_for(kappa, M=3))
    assert not both.is_two_leg and not both.indeterminate
    assert both.channels.A == pytest.approx(1.0, abs=1e-10)
    plus = two_leg_test(asym.manufactured_two_term(kappa, 3, 2, th1, 0.0, 1.0), cfg,
                        spec_for(kappa, M=3))
    assert plus.is_two_leg or plus.indeterminate


def test_two_leg_round_off_floor_is_tight():
    # an A of 1e-10 against B = 1 is far above the round-off floor
    # (A_ROUNDOFF times max |delta^(-delta_minus) F|), so the field is not
    # two-leg; only an A that is exactly 0 is
    kappa = 6.0
    th1 = leg_weight(1, kappa)
    cfg = PointConfig.of(0.0, 1.0, 2.3)
    spec = CollapseSpec(i=2, weights=WeightAssignment.one_leg(kappa, 3))
    small = two_leg_test(asym.manufactured_two_term(kappa, 3, 2, th1, 1e-10, 1.0), cfg, spec)
    assert small.channels.misfit <= asym.MODEL_TOL
    assert not small.is_two_leg and not small.indeterminate
    zero = two_leg_test(asym.manufactured_two_term(kappa, 3, 2, th1, 0.0, 1.0), cfg, spec)
    assert zero.is_two_leg and not zero.indeterminate


@pytest.mark.parametrize("kappa", KAPPA_GRID + (1.0, 7.99))
def test_two_leg_plus_channel(kappa):
    # delta^dp(theta_1) alone: B = 1 and A is round-off, at kappa = 7.9 more
    # than 3 stderr_A of it, which the A_ROUNDOFF term absorbs
    F = collapse_power(2, delta_plus(leg_weight(1, kappa), kappa))
    res = two_leg_test(F, PointConfig.of(0.0, 1.0), spec_for(kappa))
    assert res.is_two_leg and not res.indeterminate
    assert res.channels.misfit <= asym.MODEL_TOL
    assert res.channels.B == pytest.approx(1.0, abs=1e-10)


def test_n1_never_two_leg():
    # -2 theta_1 equals delta_minus(theta_1) identically, so the identity
    # channel is always present; at kappa = 4 the exponents coincide at -1/2
    kappa = 4.0
    assert delta_minus(leg_weight(1, kappa), kappa) == pytest.approx(-0.5, abs=1e-14)
    F = builtin_n1(kappa)
    res = two_leg_test(F, PointConfig.of(0.0, 1.0), spec_for(kappa))
    assert not res.is_two_leg


@pytest.mark.parametrize("kappa", KAPPA_GRID + (1.0, 7.99))
def test_channels_n1_pure_minus_channel(kappa):
    # n1 = delta^(-2 theta_1) = delta^dm: A = 1 is the collapse normalization
    fit = collapse_channels(builtin_n1(kappa), PointConfig.of(0.0, 1.0), spec_for(kappa))
    assert fit.A == pytest.approx(1.0, abs=1e-10)
    assert fit.misfit <= asym.MODEL_TOL
    if kappa >= 2.0:  # at gap 7 and 15, delta^gap <= 1e-14 is below A's round-off
        assert fit.B == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("kappa", (10.0 / 3.0, 6.0, 20.0 / 3.0, 7.9, 7.99))
def test_channels_synthetic(kappa):
    # no gap precondition: the known exponents separate the channels down to
    # gap 8/7.99 - 1 = 1.3e-3
    d = leg_weight(1, kappa)
    F = asym.manufactured_two_term(kappa, 3, 2, d, 2.0, 3.0)
    spec = CollapseSpec(i=2, weights=WeightAssignment(kappa=kappa, iota=2, h=d))
    fit = collapse_channels(F, PointConfig.of(0.0, 1.0, 2.3), spec)
    assert fit.A == pytest.approx(2.0, abs=1e-10)
    assert fit.B == pytest.approx(3.0, abs=1e-10)
    assert fit.misfit <= asym.MODEL_TOL


def test_channels_refuse_coincident_exponents():
    # at the weight floor delta_plus = delta_minus: the second channel is
    # delta^dm log delta, which A + B delta^gap cannot fit
    kappa = 6.0
    d = weight_floor(kappa)
    spec = CollapseSpec(i=2, weights=WeightAssignment(kappa=kappa, iota=2, h=d))
    assert spec.exponents().gap == 0.0
    F = asym.manufactured_two_term(kappa, 3, 2, d, 1.0, 0.0)
    with pytest.raises(DegenerateFitError, match="gap of 0"):
        collapse_channels(F, PointConfig.of(0.0, 1.0, 2.3), spec)


@pytest.mark.parametrize("kappa", (10.0 / 3.0, 6.0))
def test_far_pair_scan(kappa):
    h = leg_weight(2, kappa)
    cfg = PointConfig.of(0.0, 1.0, 2.0, 3.0, 4.0)
    w = WeightAssignment(kappa=kappa, iota=5, h=h)
    good = far_pair_bound_scan(asym.manufactured_far_pair(kappa, h, 5, 2, 5), cfg, w, j=2)
    assert not good.divergent and good.bounded
    assert good.sup_ratio == pytest.approx(1.0, rel=1e-10)
    bad = far_pair_bound_scan(
        asym.manufactured_far_pair(kappa, h, 5, 2, 5, violating=True), cfg, w, j=2
    )
    assert bad.divergent and not bad.bounded


def test_line_fit_through_two_points():
    # a line through exactly two points has its slope and no standard error
    a, b, stderr_a, stderr_b, rms = findiff.line_fit(np.array([0.0, 2.0]), np.array([1.0, 4.0]))
    assert (a, b, rms) == (1.0, 1.5, 0.0)
    assert stderr_a == stderr_b == math.inf


def test_far_pair_scan_needs_two_finite_levels_per_axis():
    # finite ratios on one eps level only: the eps slope is never measured, so
    # the scan is not bounded, although it is not divergent and its sup is finite
    kappa = 6.0
    h = leg_weight(2, kappa)
    cfg = PointConfig.of(0.0, 1.0, 2.0, 3.0, 4.0)
    w = WeightAssignment(kappa=kappa, iota=5, h=h)
    base = asym.manufactured_far_pair(kappa, h, 5, 2, 5)
    F = pde.CandidateFunction(
        name="one-level", arity=5,
        func=lambda xs: np.where(xs[4] - xs[3] > 5e-3, base.func(xs), np.nan),
    )
    scan = far_pair_bound_scan(F, cfg, w, j=2)
    assert math.isnan(scan.eps_slope) and math.isfinite(scan.delta_slope)
    assert math.isfinite(scan.sup_ratio) and not scan.divergent
    assert not scan.bounded


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
    assert scan.bounded


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
    # on the default grid (delta up to room/100 = 2e-2, eps up to 1e-2), NaN
    # ratios (here the eps <= 1e-5 columns) are skipped by every sup
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
    deltas, epsilons = 2.0 * np.geomspace(1e-6, 1e-2, 5), np.geomspace(1e-6, 1e-2, 5)
    scan = far_pair_bound_scan(F, cfg, w, j=2)
    moves = [{2: (1, d), 5: (4, e)} for d in deltas for e in epsilons]
    want = _pointwise_rows(F, cfg, moves, lambda d, e: d**dp1 * e**dph)
    np.testing.assert_allclose(scan.rows, want, rtol=1e-14)
    ratios = np.array([row[3] for row in want]).reshape(5, 5)
    assert np.all(np.isnan(ratios[:, :2])) and not np.any(np.isnan(ratios[:, 2:]))
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
    # the default grid: eps up to room/100 = 2e-2, delta = f eps for f = 0.1..0.9
    epsilons, fractions = 2.0 * np.geomspace(1e-6, 1e-2, 7), np.linspace(0.1, 0.9, 9)
    scan = adjacent_pair_bound_scan(F, cfg, w)
    moves = [{3: (2, f * e), 4: (2, e)} for e in epsilons for f in fractions]
    want = _pointwise_rows(F, cfg, moves, lambda d, e: d**dp1 * e**dph * (e - d) ** dph)
    np.testing.assert_allclose(scan.rows, want, rtol=1e-14)
    ratios = np.array([row[3] for row in want])
    assert scan.sup_ratio == pytest.approx(ratios.max(), rel=1e-14)
    assert scan.eps_exponent == pytest.approx(dph - 0.5, abs=1e-9)
    assert scan.divergent


# at 1e12 one ulp is 1.2e-4, so x_{i-1} + 1e-6 room rounds back onto x_{i-1}
FAR_OUT = PointConfig.of(*(x + 1e12 for x in (0.0, 1.0, 2.0, 3.0, 4.0)))


def test_far_pair_rejects_collapse_lost_to_rounding():
    kappa = 6.0
    h = leg_weight(2, kappa)
    w = WeightAssignment(kappa=kappa, iota=5, h=h)
    F = asym.manufactured_far_pair(kappa, h, 5, 2, 5)
    with pytest.raises(PreconditionError, match="not strictly increasing"):
        far_pair_bound_scan(F, FAR_OUT, w, j=2)


def test_adjacent_pair_rejects_collapse_lost_to_rounding():
    kappa = 6.0
    h = leg_weight(2, kappa)
    w = WeightAssignment(kappa=kappa, iota=4, h=h)
    F = asym.manufactured_adjacent(kappa, h, 5, 4)
    with pytest.raises(PreconditionError, match="not strictly increasing"):
        adjacent_pair_bound_scan(F, FAR_OUT, w)


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
    weak = adjacent_pair_bound_scan(
        asym.manufactured_adjacent(kappa, h, 5, 4, shape="weak-eps"), cfg, w
    )
    assert weak.divergent


def test_exponent_fit_consistency_with_channels():
    # when p_hat sits at delta_minus within error, the collapse limit is finite nonzero
    kappa = 16.0 / 3.0
    F = builtin_n1(kappa)
    cfg = PointConfig.of(0.0, 1.0)
    est = collapse_exponent(F, cfg, spec_for(kappa))
    dm = delta_minus(leg_weight(1, kappa), kappa)
    assert abs(est.p_hat - dm) <= 3.0 * est.stderr + 1e-3
    assert abs(collapse_channels(F, cfg, spec_for(kappa)).A) > 0.1


def test_pure_power_range(rng):
    # fit recovers exponents across [-3, 3] within 3 stderr
    kappa = 4.0
    cfg = PointConfig.of(0.0, 1.0)
    for p in (-3.0, -1.2, 0.4, 1.7, 3.0):
        F = collapse_power(2, p)
        est = collapse_exponent(F, cfg, spec_for(kappa))
        assert abs(est.p_hat - p) <= 3.0 * est.stderr + 1e-9
