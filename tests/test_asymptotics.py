import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nullstate import (
    CollapseSpec,
    DegenerateFitError,
    DomainError,
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


def test_collapse_fit_drops_zero_and_non_finite_samples():
    # the power 1.3 with holes at the three smallest displacements: the fit
    # reads the six samples left, and the same field without holes agrees
    cfg = PointConfig.of(0.0, 1.0)
    spec = spec_for(4.0)
    base = collapse_power(2, 1.3)
    cut = asym.default_delta_grid(cfg, 2)[3] * 0.999
    holes = (np.nan, 0.0, np.inf)
    F = pde.CandidateFunction(
        name="holed", func=lambda xs: np.select(
            [xs[1] - xs[0] < cut / 100.0, xs[1] - xs[0] < cut / 10.0, xs[1] - xs[0] < cut],
            holes, base.func(xs)))
    eff, vals = asym._collapse_samples(F, cfg, 2)
    assert eff.size == vals.size == 6 and np.all(np.isfinite(vals) & (vals != 0.0))
    est = collapse_exponent(F, cfg, spec)
    assert abs(est.p_hat - 1.3) <= 1e-9
    assert abs(est.p_hat - collapse_exponent(base, cfg, spec).p_hat) <= 1e-9


def test_log_slope_drops_non_finite_and_non_positive_sups():
    x = np.geomspace(1e-6, 1e-2, 5)
    y = x**1.5
    assert asym._log_slope(x, y) == findiff.line_fit(np.log(x), np.log(y))[1]
    for hole in (np.nan, 0.0, -1.0, np.inf):
        holed = np.concatenate([[hole, hole], y[2:]])
        slope = findiff.line_fit(np.log(x[2:]), np.log(y[2:]))[1]
        assert asym._log_slope(x, holed) == slope and abs(slope - 1.5) <= 1e-12
    assert math.isnan(asym._log_slope(x, np.array([np.nan] * 4 + [1.0])))


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


def test_fit_whose_deviations_underflow_names_its_abscissae():
    # distinct abscissae delta^99, as at kappa = 0.08, whose centred squares underflow
    x = np.array([0.0, 6.5e-262, 6.5e-163])
    with pytest.raises(DegenerateFitError) as exc:
        findiff.line_fit(x, np.array([1.0, 2.0, 3.0]))
    assert str(exc.value) == ("the fit abscissae span [0.0, 6.5e-163], but the squares of "
                              "their deviations from the mean underflow to 0")


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
        xs = config.array.copy()
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


# -- the scans and fits as built before the module-level grids: a bitwise reference --


def _mean_line_fit(x, y):
    """findiff.line_fit with its means taken by ndarray.mean."""
    xm, ym = x.mean(), y.mean()
    xc = x - xm
    sxx = float(xc @ xc)
    if sxx == 0.0 and x.min() == x.max():
        raise DegenerateFitError(f"every fit abscissa equals {float(xm)!r} (an exponent gap of 0?)")
    if sxx == 0.0:
        raise DegenerateFitError(f"the fit abscissae span [{float(x.min())!r}, "
                                 f"{float(x.max())!r}], but the squares of their deviations "
                                 f"from the mean underflow to 0")
    b = float(xc @ (y - ym)) / sxx
    resid = y - ym - b * xc
    rss = float(resid @ resid)
    s2 = rss / (x.size - 2) if x.size > 2 else math.inf
    return (float(ym - b * xm), b, math.sqrt(s2 * (1.0 / x.size + xm * xm / sxx)),
            math.sqrt(s2 / sxx), math.sqrt(rss / x.size))


def _reference_log_slope(x, y):
    keep = np.isfinite(y) & (y > 0.0)
    if np.count_nonzero(keep) < 2:
        return math.nan
    return _mean_line_fit(np.log(x[keep]), np.log(y[keep]))[1]


def _reference_pair_scan(F, config, closing, offsets, normaliser):
    """Rows, sup ratio and per-row and per-column sups over np.meshgrid offsets."""
    (i, a), (k, b) = closing
    cols = asym._batch(config, {i: config.x(a) + offsets[0].ravel(),
                                k: config.x(b) + offsets[1].ravel()})
    d_eff, e_eff = cols[i - 1] - cols[a - 1], cols[k - 1] - cols[b - 1]
    vals = np.abs(F(cols))
    ratio = vals / normaliser(d_eff, e_eff)
    rows = list(zip(d_eff.tolist(), e_eff.tolist(), vals.tolist(), ratio.tolist()))
    grid = ratio.reshape(offsets[0].shape)
    sup = np.fmax.reduce
    return rows, float(sup(ratio)), sup(grid, axis=1), sup(grid, axis=0)


def _reference_far_pair(F, config, weights, j):
    """(rows, sup ratio, delta slope, eps slope, eps exponent), grids built per call."""
    iota = weights.iota
    dp1 = delta_plus(weights.theta1, weights.kappa)
    dph = delta_plus(weights.h, weights.kappa)
    deltas = np.geomspace(1e-6, 1e-2, 5) * asym.collapse_room(config, j)
    epsilons = np.geomspace(1e-6, 1e-2, 5) * asym.collapse_room(config, iota)
    rows, sup, delta_sups, eps_sups = _reference_pair_scan(
        F, config, ((j, j - 1), (iota, iota - 1)), np.meshgrid(deltas, epsilons, indexing="ij"),
        lambda d, e: d**dp1 * e**dph)
    return (rows, sup, _reference_log_slope(deltas, delta_sups),
            _reference_log_slope(epsilons, eps_sups), None)


def _reference_adjacent_pair(F, config, weights):
    iota = weights.iota
    dp1 = delta_plus(weights.theta1, weights.kappa)
    dph = delta_plus(weights.h, weights.kappa)
    epsilons = np.geomspace(1e-6, 1e-2, 7) * asym.collapse_room(config, iota)
    fractions = np.linspace(0.1, 0.9, 9)
    grid_e, grid_f = np.meshgrid(epsilons, fractions, indexing="ij")
    rows, sup, eps_sups, _ = _reference_pair_scan(
        F, config, ((iota - 1, iota - 2), (iota, iota - 2)), (grid_f * grid_e, grid_e),
        lambda d, e: d**dp1 * e**dph * (e - d) ** dph)
    mid = slice(int(np.argmin(np.abs(fractions - 0.5))), None, len(fractions))
    d, e, vals, _ = np.array(rows[mid]).T
    return (rows, sup, 0.0, _reference_log_slope(epsilons, eps_sups),
            _reference_log_slope(e, vals / (d**dp1 * (e - d) ** dph)))


def _hex(value):
    """float.hex of every float in a nested tuple or list; None stays None."""
    if isinstance(value, (tuple, list)):
        return [_hex(v) for v in value]
    return None if value is None else float(value).hex()


def _scan_hex(scan):
    return _hex((scan.rows, scan.sup_ratio, scan.delta_slope, scan.eps_slope, scan.eps_exponent))


def test_pair_scan_rows_are_its_samples_zipped_on_read():
    kappa = 6.0
    h = leg_weight(2, kappa)
    cfg = PointConfig.of(0.0, 1.1, 2.0, 3.3, 4.0)
    far = asym.manufactured_far_pair(kappa, h, 5, j=2, iota=5)
    adj = asym.manufactured_adjacent(kappa, h, 5, iota=4)
    for scan, size in ((far_pair_bound_scan(far, cfg, WeightAssignment(kappa, 5, h), j=2), 25),
                       (adjacent_pair_bound_scan(adj, cfg, WeightAssignment(kappa, 4, h)), 63)):
        assert not hasattr(scan, "__dict__")  # nothing is built or kept until a read
        d, e, vals, ratio = scan.samples
        want = [(float(d[n]), float(e[n]), float(vals[n]), float(ratio[n])) for n in range(size)]
        assert type(scan.rows) is list and _hex(scan.rows) == _hex(want)
        assert scan.rows is not scan.rows and scan.rows == scan.rows


def _reference_channels(F, config, spec):
    pair = spec.exponents()
    eff, vals = asym._collapse_samples(F, config, spec.i)
    scaled = vals * eff ** (-pair.delta_minus)
    A, B, stderr_A, _, rms = _mean_line_fit(eff**pair.gap, scaled)
    return A, B, stderr_A, rms / float(np.max(np.abs(scaled)))


@pytest.mark.parametrize("kappa", KAPPA_GRID)
def test_pair_scans_match_the_per_call_grids_bitwise(kappa):
    # both far-pair fields and both adjacent shapes, at theta_2 and theta_3, on
    # M = 5 configurations drawn as the benchmark draws them
    for cfg in bench_configs(5, seeds=range(4)):
        for s in (2, 3):
            h = leg_weight(s, kappa)
            far = WeightAssignment(kappa=kappa, iota=5, h=h)
            for violating in (False, True):
                F = asym.manufactured_far_pair(kappa, h, 5, 2, 5, violating=violating)
                assert (_scan_hex(far_pair_bound_scan(F, cfg, far, j=2))
                        == _hex(_reference_far_pair(F, cfg, far, 2)))
            adj = WeightAssignment(kappa=kappa, iota=4, h=h)
            for shape in ("normalized", "weak-eps"):
                F = asym.manufactured_adjacent(kappa, h, 5, 4, shape=shape)
                assert (_scan_hex(adjacent_pair_bound_scan(F, cfg, adj))
                        == _hex(_reference_adjacent_pair(F, cfg, adj)))


@pytest.mark.parametrize("kappa", KAPPA_GRID)
def test_collapse_fits_match_the_mean_formula_bitwise(kappa):
    # collapse_exponent of n1 and two_leg_test's channel fit on the slope route
    # (pure powers) and on the channel route (two-term fields)
    th1 = leg_weight(1, kappa)
    for cfg in bench_configs(2, seeds=range(4)):
        spec = spec_for(kappa, M=2)
        eff, vals = asym._collapse_samples(builtin_n1(kappa), cfg, 2)
        _, p_hat, _, stderr, _ = _mean_line_fit(np.log(eff), np.log(np.abs(vals)))
        est = collapse_exponent(builtin_n1(kappa), cfg, spec)
        assert _hex((est.p_hat, est.stderr)) == _hex((p_hat, stderr))
    fields = [asym.manufactured_two_leg(kappa, 3, 2, gamma) for gamma in (0.05, -0.05)]
    fields += [asym.manufactured_two_term(kappa, 3, 2, th1, A, 1.0) for A in (1.0, 0.0)]
    for cfg in bench_configs(3, seeds=range(4)):
        spec = spec_for(kappa, M=3)
        for F in fields:
            fit = two_leg_test(F, cfg, spec).channels
            assert (_hex((fit.A, fit.B, fit.stderr_A, fit.misfit))
                    == _hex(_reference_channels(F, cfg, spec)))


@pytest.mark.parametrize("name", ("FAR_PAIR_LEVELS", "ADJACENT_EPS_LEVELS", "ADJACENT_FRACTIONS",
                                  "_FAR_PAIR_COLUMNS", "_ADJACENT_COLUMNS"))
def test_pair_scan_grids_are_read_only(name):
    grid = getattr(asym, name)
    with pytest.raises(ValueError, match="read-only"):
        grid[0] = 1.0


FIT_FLOATS = st.floats(width=64, allow_nan=True, allow_infinity=True)


@st.composite
def fit_samples(draw):
    n = draw(st.integers(2, 64))
    return tuple(draw(hnp.arrays(np.float64, n, elements=FIT_FLOATS)) for _ in range(2))


def _fit_outcome(fit, x, y):
    """The fit's five floats as bytes, or the message of the error it raises."""
    with np.errstate(all="ignore"):
        try:
            return [np.float64(v).tobytes() for v in fit(x, y)]
        except DegenerateFitError as exc:
            return str(exc)


@settings(max_examples=300, deadline=None)
@given(fit_samples())
def test_line_fit_is_the_mean_formula_bitwise(samples):
    assert _fit_outcome(findiff.line_fit, *samples) == _fit_outcome(_mean_line_fit, *samples)


# -- the collapse grid and the batch order check as the parent built them: bitwise references --


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-298, 1e302) | st.just(math.inf))
def test_delta_grid_is_np_geomspace_bitwise(room):
    # the top of the grid, FIT_TOP_FRACTION * room, runs from 1e-300 to 1e300, plus inf
    with mock.patch.object(asym, "collapse_room", lambda config, i: room), \
            np.errstate(invalid="ignore"):
        grid = asym.default_delta_grid(None, 2)
        top = asym.FIT_TOP_FRACTION * room
        want = np.geomspace(top * 10.0 ** (-asym.FIT_DECADES), top, asym.FIT_DECADES + 1)
    assert grid.tobytes() == want.tobytes()


def test_delta_grid_whose_smallest_displacement_underflows_is_domain_error():
    cfg = PointConfig.of(0.0, 1e-320, 2e-320)
    message = "the collapse grid at i=2 needs a displacement of 2e-322 * 1e-8, which underflows to 0"
    with pytest.raises(DomainError) as exc:
        asym.default_delta_grid(cfg, 2)
    assert str(exc.value) == message
    with pytest.raises(DomainError, match="underflows to 0"):
        collapse_exponent(builtin_n1(6.0), PointConfig.of(0.0, 1e-320, 2e-320, 1.0), spec_for(6.0, 4))


def _reference_batch(config, moves):
    """asym._batch with the order of every row checked."""
    cols = np.repeat(config.array[:, None], np.broadcast(*moves.values()).size, axis=1)
    for i, values in moves.items():
        cols[i - 1] = values
    bad = cols[:, ~np.all(np.diff(cols, axis=0) > 0.0, axis=0)]
    if bad.size:
        raise PreconditionError(f"configuration {bad[:, 0].tolist()!r} is not strictly increasing")
    return cols


def _batch_outcome(batch, config, moves):
    """The batch's bytes, or the message of its refusal."""
    try:
        return batch(config, moves).tobytes()
    except PreconditionError as exc:
        return str(exc)


CFG5 = PointConfig.of(0.0, 1.0, 2.0, 3.0, 4.0)
# x_i -> values; each refused case's first bad column is not its first column
BATCH_MOVES = {
    "left": {3: [2.5, 1.5, 0.5, 1.0]},  # x_3 crosses x_2, then lands on it
    "right": {3: [2.5, 3.5, 3.0]},  # x_3 crosses x_4, then lands on it
    "adjacent": {3: [2.2, 2.6, 2.5], 4: [2.8, 2.4, 2.5]},  # x_3 and x_4 cross each other
    "first": {1: [0.5, 1.5]},
    "last": {5: [3.5, 2.5]},
    "far": {2: [1.5, 1.5, 1.5], 5: [4.5, 3.5, 2.5]},
    "nan": {4: [3.5, math.nan]},
    "increasing": {2: [0.5, 1.5], 4: [2.5, 3.5]},
}


@pytest.mark.parametrize("case", BATCH_MOVES)
def test_batch_checks_the_moved_points_as_the_full_order_check_bitwise(case):
    moves = {i: np.array(values) for i, values in BATCH_MOVES[case].items()}
    outcome = _batch_outcome(asym._batch, CFG5, moves)
    assert outcome == _batch_outcome(_reference_batch, CFG5, moves)
    assert isinstance(outcome, str) == (case != "increasing")
