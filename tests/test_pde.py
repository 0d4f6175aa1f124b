import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullstate import (
    CandidateFunction,
    DomainError,
    PointConfig,
    PreconditionError,
    WeightAssignment,
    builtin_n1,
    builtin_power_product,
    leg_weight,
    resolve_candidate,
    system_residuals,
)
from nullstate.pde import batch_residuals
from nullstate import asymptotics as asym
from nullstate import checks, findiff, pde
from conftest import KAPPA_GRID, KAPPA_MODERATE


def residuals(F, config, weights) -> dict:
    """The system's residual reports by equation name."""
    return {r.equation: r for r in system_residuals(F, config, weights)}


def test_point_config_validation():
    with pytest.raises(DomainError):
        PointConfig.of(1.0, 1.0)
    with pytest.raises(DomainError):
        PointConfig.of(2.0, 1.0)
    cfg = PointConfig.of(-1.0, 0.5, 2.0)
    assert cfg.M == 3
    assert cfg.x(1) == -1.0
    assert cfg.min_gap == 1.5


@pytest.mark.parametrize(
    "coords",
    ((-math.inf, 0.0, 1.0), (0.0, 1.0, math.inf), (0.0, math.nan, 1.0), (-1e308, 1e308)),
    ids=("-inf", "+inf", "nan", "span-overflow"),
)
def test_point_config_refuses_non_finite(coords):
    # finite coordinates whose span overflows are refused before any gap
    # is taken, so no numpy overflow warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="coordinates must be finite"):
            PointConfig(coords)


def test_weight_assignment():
    w = WeightAssignment.one_leg(4.0, 3)
    assert w.homogeneous
    assert w.weight(1) == w.weight(3) == leg_weight(1, 4.0)
    w2 = WeightAssignment(kappa=4.0, iota=2, h=1.7)
    assert w2.weight(2) == 1.7 and w2.weight(1) == leg_weight(1, 4.0)


@pytest.mark.parametrize("kappa", (2.0, 10.0 / 3.0, 4.0, 16.0 / 3.0))
def test_n1_satisfies_system(kappa, rng):
    F = builtin_n1(kappa)
    w = WeightAssignment.one_leg(kappa, 2)
    for _ in range(10):
        a = rng.uniform(-3.0, 3.0)
        cfg = PointConfig.of(a, a + rng.uniform(0.4, 2.0))
        for rep in system_residuals(F, cfg, w):
            assert rep.relative <= 1e-6, (rep.equation, rep.relative)


@pytest.mark.parametrize("kappa", (2.0, 10.0 / 3.0, 4.0))
def test_n1_null_state_spot(kappa):
    # the j = 1 equation cancels symbolically; kappa theta_1 (2 theta_1 + 1)/2
    # equals 3 theta_1, so only stencil noise remains
    F = builtin_n1(kappa)
    cfg = PointConfig.of(-0.3, 1.1)
    rep = residuals(F, cfg, WeightAssignment.one_leg(kappa, 2))["null_state[1]"]
    assert rep.relative <= 1e-7


def test_constant_not_a_solution():
    # only the potential term survives for F = 1
    kappa = 10.0 / 3.0
    th1 = leg_weight(1, kappa)
    one = resolve_candidate("one", kappa)
    cfg = PointConfig.of(0.0, 1.3)
    rep = residuals(one, cfg, WeightAssignment.one_leg(kappa, 2))["null_state[1]"]
    assert rep.residual == pytest.approx(-th1 / 1.3**2, rel=1e-12)


def test_wrong_weight_power_residual():
    # F = (x2-x1)^(-2h) with both weights h leaves kappa h(2h+1)/2 - 3h
    kappa, h = 10.0 / 3.0, 1.2
    cfg = PointConfig.of(0.0, 1.0)
    w = WeightAssignment(kappa=kappa, iota=2, h=h)
    F = CandidateFunction(name="wrong", func=lambda xs: (xs[1] - xs[0]) ** (-2.0 * h))
    rep = residuals(F, cfg, w)["null_state[1]"]
    want = kappa * h * (2.0 * h + 1.0) / 2.0 - 3.0 * h
    assert rep.residual == pytest.approx(want, rel=1e-6)
    th1 = leg_weight(1, kappa)
    assert abs(kappa * th1 * (2.0 * th1 + 1.0) / 2.0 - 3.0 * th1) <= 1e-12


def test_ward_translation_spot_value():
    F = CandidateFunction(name="sum", func=lambda xs: xs[0] + xs[1])
    cfg = PointConfig.of(0.2, 1.7)
    w1 = residuals(F, cfg, WeightAssignment.one_leg(4.0, 2))["ward_translation"]
    assert w1.residual == pytest.approx(2.0, abs=1e-9)


def test_two_point_special_conformal_factor():
    # residual of the scale-covariant ansatz is -(h1-h2)(x2-x1) F
    kappa, h1, h2 = 4.0, leg_weight(1, 4.0), leg_weight(3, 4.0)
    q = -(h1 + h2)
    F = CandidateFunction(name="two-point", func=lambda xs: (xs[1] - xs[0]) ** q)
    cfg = PointConfig.of(0.3, 1.9)
    w = WeightAssignment(kappa=kappa, iota=2, h=h2)
    # translation/dilation hold; special conformal carries the witness
    reps = residuals(F, cfg, w)
    wt, wd, wsc = (reps[f"ward_{n}"] for n in ("translation", "dilation", "special_conformal"))
    assert wt.relative <= 1e-9
    assert wd.relative <= 1e-9
    s = 1.9 - 0.3
    want = -(h1 - h2) * s * F(cfg.array)
    assert wsc.residual == pytest.approx(want, rel=1e-7)


def test_builtin_n1_normalization():
    F = builtin_n1(6.0)
    assert F(np.array([0.0, 5.0])) == 1.0  # theta_1 = 0 at kappa = 6
    kappa = 10.0 / 3.0
    F = builtin_n1(kappa)
    th1 = leg_weight(1, kappa)
    s = 1.7
    assert s ** (2 * th1) * F(np.array([0.0, s])) == pytest.approx(1.0, rel=1e-14)


def test_power_product_trivial():
    F = builtin_power_product({}, 3)
    assert F(np.array([0.0, 1.0, 2.0])) == 1.0


def test_power_product_derivatives(rng):
    F = builtin_power_product({(1, 2): 0.6, (1, 3): -0.4, (2, 3): 1.3}, 3)
    cfg = PointConfig.of(-0.7, 0.4, 1.9)
    step = 1e-3 * cfg.min_gap
    for k in (1, 2, 3):
        def along(t):
            xs = cfg.array.copy()
            xs[k - 1] = t
            return F(xs)

        x = cfg.x(k)
        wings = (along(x - 2 * step), along(x - step), along(x + step), along(x + 2 * step))
        fd1 = findiff.first(wings, step)
        fd2 = findiff.second(along(x), wings, step)
        assert abs(fd1 - F.grad(cfg.array, k)) <= 1e-9 * max(1.0, abs(F.grad(cfg.array, k)))
        assert abs(fd2 - F.second(cfg.array, k)) <= 1e-8 * max(1.0, abs(F.second(cfg.array, k)))


@pytest.mark.parametrize("M", (2, 5, 8))
def test_system_residuals_sample_once(M):
    # one shared stencil per configuration, F(x), F(x +- h e_k), F(x +- 2h e_k),
    # evaluated as one batch: a single call of func on 1 + 4M columns
    base = builtin_power_product({(i, i + 1): 0.5 for i in range(1, M)}, M)
    calls = []

    def func(xs):
        calls.append(xs.shape)
        return base.func(xs)

    F = CandidateFunction(name="counted", func=func, arity=M)
    cfg = PointConfig(tuple(0.2 + 1.3 * np.arange(M)))
    reports = system_residuals(F, cfg, WeightAssignment.one_leg(4.0, M))
    assert len(reports) == M + 3
    assert calls == [(M, 1 + 4 * M)]


def _increasing_batch(rng, M, B=7):
    """B strictly increasing configurations as the columns of an (M, B) array."""
    gaps = rng.uniform(0.2, 1.5, size=(M - 1, B))
    return rng.uniform(-3.0, 3.0, size=B) + np.vstack([np.zeros(B), np.cumsum(gaps, axis=0)])


KAPPA_BATCH = 10.0 / 3.0
H_BATCH = leg_weight(2, KAPPA_BATCH)
MU_BATCH = {(1, 2): 0.6, (1, 3): -0.4, (2, 3): 1.3}
COLLAPSE_POWER = builtin_power_product({(1, 2): -0.7}, 3, name="collapse-power[-0.7]")
# every builtin and manufactured field, and a user field built on a power
# product, with its number of power factors
BATCH_FIELDS = [
    (builtin_n1(KAPPA_BATCH), 1),
    (builtin_power_product(MU_BATCH, 3), len(MU_BATCH)),
    (resolve_candidate("one", KAPPA_BATCH), 0),
    (COLLAPSE_POWER, 1),
    (
        CandidateFunction(
            name="collapse-power[-0.7]*g", arity=3,
            func=lambda xs: (xs[0] * xs[0] + 1.0) * COLLAPSE_POWER.func(xs),
        ),
        1,
    ),
    (asym.manufactured_two_leg(KAPPA_BATCH, 3, 2, 0.05), 1),
    (asym.manufactured_two_term(KAPPA_BATCH, 3, 2, H_BATCH, 2.0, 3.0), 2),
    (asym.manufactured_far_pair(KAPPA_BATCH, H_BATCH, 5, 2, 5), 2),
    (asym.manufactured_far_pair(KAPPA_BATCH, H_BATCH, 5, 2, 5, violating=True), 2),
    (asym.manufactured_adjacent(KAPPA_BATCH, H_BATCH, 5, 4), 3),
    (asym.manufactured_adjacent(KAPPA_BATCH, H_BATCH, 5, 4, shape="weak-eps"), 3),
]


@pytest.mark.parametrize("field, n_powers", BATCH_FIELDS, ids=[f.name for f, _ in BATCH_FIELDS])
def test_batch_matches_columns(field, n_powers, rng):
    # numpy's array ** may differ from the scalar pow by an ulp per factor
    M = field.arity or 2
    calls = []

    def func(xs):
        calls.append(xs.shape)
        return field.func(xs)

    F = CandidateFunction(name="counted", func=func, arity=field.arity)
    X = _increasing_batch(rng, M)
    got = F(X)
    assert calls == [X.shape]
    want = np.array([field(col) for col in X.T])
    assert got.shape == want.shape == (X.shape[1],)
    assert np.all(np.abs(got - want) <= 2 * max(n_powers, 1) * np.spacing(np.abs(want)))


def test_wrong_shape_batch_refused(rng):
    # np.prod(np.diff(xs)) is a field on one configuration but reduces a whole
    # batch to one number
    F = CandidateFunction(name="scalar-only", func=lambda xs: np.prod(np.diff(xs)))
    X = _increasing_batch(rng, 3)
    assert F(X[:, 0]) == (X[1, 0] - X[0, 0]) * (X[2, 0] - X[1, 0])
    with pytest.raises(DomainError, match=r"scalar-only returned shape \(\) for a batch \(3, 7\)"):
        F(X)


@pytest.mark.parametrize(
    "func, error",
    (
        (lambda xs: math.exp(xs[1] - xs[0]), TypeError),  # math on an array
        (lambda xs: 1.0 if xs[0] < 0.0 else 2.0, ValueError),  # truth of an array
    ),
    ids=("math-exp", "if-on-coordinate"),
)
def test_batch_error_propagates(func, error, rng):
    F = CandidateFunction(name="scalar-only", func=func)
    with pytest.raises(error):
        F(_increasing_batch(rng, 3))


def _reference_reports(F, config, weights):
    """Every equation assembled by its own loop, the reference for system_residuals.

    Returns ({j: null_state[j]}, [translation, dilation, special_conformal]).
    """
    M = config.M
    h = pde.STEP_FACTOR * float(np.min(np.diff(config.array)))
    [fval], [grads], [seconds] = pde._stencil(F, config.array[None], [h], arrays=False)

    def report(name, terms):
        scale = max((abs(t) for t in terms), default=0.0)
        return pde.ResidualReport(name, math.fsum(terms), scale, h)

    nulls = {}
    for j in range(1, M + 1):
        xj = config.x(j)
        terms = [weights.kappa / 4.0 * seconds[j - 1]]
        for k in range(1, M + 1):
            if k == j:
                continue
            dx = config.x(k) - xj
            terms.append(grads[k - 1] / dx)
            terms.append(-weights.weight(k) * fval / dx**2)
        nulls[j] = report(f"null_state[{j}]", terms)

    t1 = list(grads)
    t2 = [config.x(k) * grads[k - 1] for k in range(1, M + 1)]
    t2 += [weights.weight(k) * fval for k in range(1, M + 1)]
    t3 = [config.x(k) ** 2 * grads[k - 1] for k in range(1, M + 1)]
    t3 += [2.0 * weights.weight(k) * config.x(k) * fval for k in range(1, M + 1)]
    ward = [
        report("ward_translation", t1),
        report("ward_dilation", t2),
        report("ward_special_conformal", t3),
    ]
    return nulls, ward


def _bits(r):
    return (r.equation, float.hex(r.residual), float.hex(r.scale), float.hex(r.step))


WEIGHTINGS = {
    "one-leg": lambda kappa, M: WeightAssignment.one_leg(kappa, M),
    "iota2-h1.7": lambda kappa, M: WeightAssignment(kappa=kappa, iota=2, h=1.7),
    "iotaM-h0.4": lambda kappa, M: WeightAssignment(kappa=kappa, iota=M, h=0.4),
}


@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("M", (2, 3, 5, 8))
def test_system_residuals_match_standalone_reports(M, weighting):
    # the one assembly reproduces the per-equation loops bit for bit; the
    # anomalous index of a non-homogeneous weighting has no null-state equation
    pairs = [(i, j) for i in range(1, M + 1) for j in range(i + 1, M + 1)]
    mu = {(i, j): (-1) ** (i + j) * 0.7 / (j - i) for i, j in pairs}
    F = builtin_power_product(mu, M)
    cfg = PointConfig(tuple(-1.2 + np.cumsum([0.0, 0.9, 0.8, 1.4, 0.5, 1.1, 0.35, 0.7][:M])))
    for kappa in sorted(set(KAPPA_GRID) | {0.3, 1.0, 7.99}):
        w = WEIGHTINGS[weighting](kappa, M)
        nulls, ward = _reference_reports(F, cfg, w)
        js = [j for j in nulls if w.homogeneous or j != w.iota]
        assert len(js) == (M if w.homogeneous else M - 1)
        want = [_bits(nulls[j]) for j in js] + [_bits(r) for r in ward]
        assert [_bits(r) for r in system_residuals(F, cfg, w)] == want


def test_anomalous_index_outside_configuration_rejected():
    F = builtin_n1(4.0)
    cfg = PointConfig.of(0.0, 1.0)
    w = WeightAssignment(kappa=4.0, iota=3, h=1.5)
    with pytest.raises(DomainError, match="iota=3 outside 1..2"):
        system_residuals(F, cfg, w)


def test_point_config_min_gap_is_hidden_field():
    cfg = PointConfig.of(-1.0, 0.25, 0.5, 3.0)
    assert cfg.min_gap == np.min(np.diff(cfg.coords)) == 0.25
    assert repr(cfg) == "PointConfig(coords=(-1.0, 0.25, 0.5, 3.0))"
    assert cfg == PointConfig((-1, 0.25, 0.5, 3)) and cfg != PointConfig.of(-1.0, 0.25, 0.75, 3.0)
    assert hash(cfg) == hash((cfg.coords,))


def test_point_config_array_is_one_read_only_copy():
    coords = np.array([-1.0, 0.25, 0.5, 3.0])
    cfg = PointConfig(coords)
    assert cfg.array is cfg.array
    assert cfg.array.dtype == np.float64 and cfg.array.tolist() == list(cfg.coords)
    with pytest.raises(ValueError, match="read-only"):
        cfg.array[0] = -2.0
    coords[0] = -2.0  # the caller's array stays its own and writeable
    assert cfg.array[0] == cfg.x(1) == -1.0


def test_power_spec_parsing():
    F = resolve_candidate("power:1,2=0.5;2,3=-0.25", 6.0, M=3)
    xs = np.array([0.0, 1.0, 3.0])
    assert F(xs) == pytest.approx(1.0**0.5 * 2.0**-0.25, rel=1e-14)
    with pytest.raises(DomainError):
        resolve_candidate("power:2,1=0.5", 6.0, M=3)
    with pytest.raises(DomainError):
        resolve_candidate("nope", 6.0)


@pytest.mark.parametrize("spec, M", (("1,2=0.5", 2), ("1,2=0.5;3,4=-1", 4), ("2,5=1", 5)))
def test_power_spec_without_M_takes_its_largest_index(spec, M):
    assert resolve_candidate(f"power:{spec}", 6.0).arity == M
    assert resolve_candidate(f"power:{spec}", 6.0, M=8).arity == 8


@pytest.mark.parametrize("spec", ("", " ; ", "2,1=0.5"))
def test_power_spec_naming_no_ordered_pair_is_refused(spec):
    with pytest.raises(DomainError):
        resolve_candidate(f"power:{spec}", 6.0)


@pytest.mark.parametrize("spec", ("1,2=1;1,2=2", "1,2=1;2,3=0.5; 1,2 =1"))
def test_power_spec_naming_a_pair_twice_is_refused_by_name(spec):
    with pytest.raises(DomainError, match=r"names the pair \(1, 2\) twice"):
        resolve_candidate(f"power:{spec}", 6.0)


def test_pde_suite_sweeps_a_power_product_at_its_own_M():
    # the Coulomb-gas vertex product at M = 4 solves the null-state equations
    # but not the Ward identities of theta_1 weights, so the sweep fails by name
    kappa = 6.0
    spec = ";".join(f"{i},{j}={2.0 / kappa!r}" for i in range(1, 5) for j in range(i + 1, 5))
    sweep = checks.suite_pde(kappa, f"power:{spec}", 100, 0)[0]
    assert sweep.name == "system_residuals_sweep" and not sweep.passed
    assert "worst ward_" in sweep.detail and sweep.value > 1.0
    x = sweep.detail.split(" at x = ")[1]
    assert len(x.strip("()").split(", ")) == 4
    configs = checks._random_configs(np.random.default_rng(0), 100, 4)
    F = resolve_candidate(f"power:{spec}", kappa)
    reps = [r for row in batch_residuals(F, configs, WeightAssignment.one_leg(kappa, 4))
            for r in row if r.equation.startswith("null_state")]
    assert max(r.relative for r in reps) < 1e-5


@pytest.mark.parametrize("kappa", KAPPA_MODERATE)
def test_translation_invariance(kappa):
    # translated coordinates round differently, so residuals agree only to the
    # stencil noise floor of each equation
    F = builtin_n1(kappa)
    w = WeightAssignment.one_leg(kappa, 2)
    cfg = PointConfig.of(-0.4, 1.1)
    base = {r.equation: r.relative for r in system_residuals(F, cfg, w)}
    moved = {r.equation: r.relative
             for r in system_residuals(F, PointConfig.of(*(x + 7.0 for x in cfg.coords)), w)}
    for eq in base:
        noise = max(base[eq], moved[eq])
        assert abs(base[eq] - moved[eq]) <= max(1e-8, 3.0 * noise)
        assert moved[eq] <= 1e-6


@pytest.mark.parametrize("coords", ((0.0, 5e-324),), ids=("gap-underflow",))
def test_stencil_leaving_domain_rejected(coords):
    # a subnormal gap rounds the step STEP_FACTOR * min_gap to 0, and 12 h h
    # with it (an overflowing gap is refused by PointConfig itself)
    F = builtin_n1(4.0)
    with pytest.raises(PreconditionError, match=r"stencil step 0\.0 .* 12\*step\*step = 0\.0"):
        system_residuals(F, PointConfig.of(*coords), WeightAssignment.one_leg(4.0, 2))


def test_n1_residual_sweep_full_grid(rng):
    # 100-configuration sweep at every grid kappa, the acceptance workload
    for kappa in KAPPA_GRID:
        F = builtin_n1(kappa)
        w = WeightAssignment.one_leg(kappa, 2)
        worst = 0.0
        for _ in range(100):
            a = rng.uniform(-5.0, 5.0)
            cfg = PointConfig.of(a, a + rng.uniform(0.3, 1.8))
            worst = max(worst, max(r.relative for r in system_residuals(F, cfg, w)))
        assert worst <= 1e-6, kappa


# -- batched sweeps -------------------------------------------------------------


def _alternating_power(M):
    pairs = [(i, j) for i in range(1, M + 1) for j in range(i + 1, M + 1)]
    return builtin_power_product({(i, j): (-1) ** (i + j) * 0.7 / (j - i) for i, j in pairs}, M)


def _square_ulp_row(M):
    """A configuration whose x_1 and x_2 - x_1 each square otherwise by ** than by x * x.

    Python's x**2 is libm's pow, numpy's array ** 2 a square; they differ in
    the last bit on about one double in a thousand.
    """
    draws = iter(np.random.default_rng(11).uniform(0.0, 1.0, size=200_000).tolist())
    x1 = next(x for x in (-3.0 + 6.0 * u for u in draws) if x * x != x**2)
    x2 = next(x1 + g for g in (0.3 + 1.2 * u for u in draws)
              if (x1 + g - x1) * (x1 + g - x1) != (x1 + g - x1) ** 2)
    return [x1, x2] + [x2 + 0.7 * k for k in range(1, M - 1)]


def _edge_rows(M):
    """Three configurations and the field samples to replace on each, {(k, x_k moved): value}.

    A NaN at x_1 + 2h makes the first term of null_state[1] and of each Ward
    identity NaN, and a later term of null_state[2]; +inf at x_1 + 2h and
    x_2 + 2h with x_1 < 0 < x_2 puts +inf and -inf into ward_dilation; the
    third row's squares differ by route (`_square_ulp_row`).
    """
    rows = [np.array([4.0 + 0.9 * k for k in range(M)]),
            np.array([-0.4 + 0.8 * k for k in range(M)]),
            np.array(_square_ulp_row(M))]
    steps = [pde.STEP_FACTOR * np.diff(x).min() for x in rows]
    poison = {(0, rows[0][0] + 2.0 * steps[0]): math.nan,
              (0, rows[1][0] + 2.0 * steps[1]): math.inf,
              (1, rows[1][1] + 2.0 * steps[1]): math.inf}
    return rows, poison


def _threshold_rows(M):
    """The most rows of M points whose batch stays on floats, and one more: the fewest on arrays."""
    rows = (pde.BATCH_COLUMNS - 1) // (1 + 4 * M)
    return rows, rows + 1


# rows on both sides of BATCH_COLUMNS: 11 and 12 at M = 2, 7 and 8 at M = 3,
# 4 and 5 at M = 5, 3 and 4 at M = 8
BATCH_SIZES = {M: sorted({1, 6, *_threshold_rows(M), 100}) for M in (2, 3, 5, 8)}


@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("M, B", [(M, B) for M, sizes in BATCH_SIZES.items() for B in sizes])
def test_batch_rows_are_system_residuals(M, B, weighting, rng):
    # every row of one batched sweep reports what system_residuals reports on
    # that configuration alone, bit for bit, from a single F call, on both
    # sides of BATCH_COLUMNS; the rows after the first are the edge rows
    base = _alternating_power(M)
    edges, poison = _edge_rows(M)
    calls = []

    def func(xs):
        calls.append(xs.shape)
        vals = base.func(xs)
        for (k, x), value in poison.items():
            vals = np.where(xs[k] == x, value, vals)
        return vals

    F = CandidateFunction(name="counted", func=func, arity=M)
    X = _increasing_batch(rng, M, B=B).T
    X[1:4] = np.array(edges)[: B - 1]
    for kappa in sorted(set(KAPPA_GRID) | {0.3, 1.0, 7.99}):
        w = WEIGHTINGS[weighting](kappa, M)
        calls.clear()
        rows = batch_residuals(F, X, w)
        assert calls == [(M, B * (1 + 4 * M))]
        assert len(rows) == B
        for x, row in zip(X, rows):
            want = [_bits(r) for r in system_residuals(F, PointConfig(tuple(x)), w)]
            assert [_bits(r) for r in row] == want
    if B >= 4 and weighting == "one-leg":  # the edge rows reach every case they are there for
        reps = [{r.equation: r for r in row} for row in batch_residuals(F, X, w)]
        assert math.isnan(reps[1]["null_state[1]"].scale)
        assert math.isnan(reps[1]["null_state[2]"].residual)
        assert not math.isnan(reps[1]["null_state[2]"].scale)
        assert math.isnan(reps[2]["ward_dilation"].residual)
        assert reps[2]["ward_dilation"].scale == math.inf


def _routes(monkeypatch) -> list:
    """Records "arrays" each time a batch takes the array assembly."""
    routes, assemble = [], pde._batch_terms
    monkeypatch.setattr(pde, "_batch_terms", lambda *a: routes.append("arrays") or assemble(*a))
    return routes


@pytest.mark.parametrize("M", (2, 5, 8))
def test_the_sampled_columns_alone_choose_the_route(M, rng, monkeypatch):
    # just below BATCH_COLUMNS columns the rows are assembled on floats, from
    # it on as arrays, whatever the coordinates and gaps; each row is
    # system_residuals on its own, bit for bit, either way
    F, w = _alternating_power(M), WeightAssignment.one_leg(KAPPA_BATCH, M)
    routes = _routes(monkeypatch)
    edge = _square_edges()[0]
    tiny = 1e-158  # a gap whose 12 h h is 1.2e-323, a subnormal
    odd_rows = [[edge * (0.99 * k / (M - 1) - 0.5) for k in range(M)],
                [tiny * k for k in range(M)]]
    for B in _threshold_rows(M):
        X = _increasing_batch(rng, M, B=B).T
        X[:2] = odd_rows
        routes.clear()
        rows = batch_residuals(F, X, w)
        assert routes == ([] if B * (1 + 4 * M) < pde.BATCH_COLUMNS else ["arrays"])
        for x, row in zip(X, rows):
            want = [_bits(r) for r in system_residuals(F, PointConfig(tuple(x)), w)]
            assert [_bits(r) for r in row] == want
    assert routes == ["arrays"]


def _square_edges() -> tuple:
    """The largest double whose square, Python's x**2 (libm's pow), is finite, and the next."""
    x = math.sqrt(sys.float_info.max)
    while _square_overflows(x):
        x = math.nextafter(x, 0.0)
    while not _square_overflows(math.nextafter(x, math.inf)):
        x = math.nextafter(x, math.inf)
    return x, math.nextafter(x, math.inf)


def _square_overflows(x) -> bool:
    try:
        x**2
    except OverflowError:
        return True
    return False


def _gap_edges() -> tuple:
    """The largest gap whose step h has 12 h h = 0, findiff.second's denominator, and the next."""
    lo, hi = 0.0, 1e-150  # doubles of one sign order as their bit patterns
    a, b = (np.float64(v).view(np.int64).item() for v in (lo, hi))
    while b - a > 1:
        mid = (a + b) // 2
        h = pde.STEP_FACTOR * np.int64(mid).view(np.float64).item()
        a, b = (mid, b) if 12.0 * h * h == 0.0 else (a, mid)
    gap = np.int64(a).view(np.float64).item()
    return gap, math.nextafter(gap, math.inf)


def _span_edges() -> tuple:
    """(-t, x) with x + t the largest span whose square is finite, and (-t', x), t' next."""
    x = 0.5 * _square_edges()[0]
    t = x
    while not _square_overflows(x + math.nextafter(t, math.inf)):
        t = math.nextafter(t, math.inf)
    return (-t, x), (-math.nextafter(t, math.inf), x)


def _refusal_edges():
    """(held, refused, error, text) at each side of both refusals, for M = 2."""
    square, over = _square_edges()
    gap, held_gap = _gap_edges()
    span, wide = _span_edges()

    def over_text(x):
        return f"x = {x!r} has a coordinate or span beyond {square!r}, whose square overflows"

    return {
        # x_1 = 0.9 x_2: the span squares within range, x_2 does not
        "coordinate": ((0.9 * square, square), (0.9 * over, over), DomainError,
                       over_text((0.9 * over, over))),
        "-coordinate": ((-square, -0.9 * square), (-over, -0.9 * over), DomainError,
                        over_text((-over, -0.9 * over))),
        "span": (span, wide, DomainError, over_text(wide)),
        "gap": ((0.0, held_gap), (0.0, gap), PreconditionError,
                f"stencil step {pde.STEP_FACTOR * gap!r} of minimum gap {gap!r} "
                f"gives 12*step*step = 0.0"),
    }


@pytest.mark.parametrize("edge", ("coordinate", "-coordinate", "span", "gap"))
def test_rows_the_floats_cannot_hold_are_refused_by_name(edge, monkeypatch):
    # at the boundary double of each refusal, the held side computes, the
    # same on both routes, and the next double is refused before F is called,
    # with one class and text through system_residuals and through batch
    # residuals on floats and on arrays
    held, refused, error, text = _refusal_edges()[edge]
    calls = []
    base = builtin_power_product({(1, 2): 1.0}, 2)
    F = CandidateFunction(name="counted", func=lambda xs: calls.append(1) or base.func(xs), arity=2)
    w = WeightAssignment.one_leg(2.0, 2)
    routes = _routes(monkeypatch)
    want = [_bits(r) for r in system_residuals(F, PointConfig(held), w)]
    for B in _threshold_rows(2):
        X = np.array([(k, k + 0.5) for k in range(B)], dtype=float)
        X[B // 2] = held
        assert [_bits(r) for r in batch_residuals(F, X, w)[B // 2]] == want
        X[B // 2] = refused
        calls.clear()
        assert _refusal(lambda: batch_residuals(F, X, w)) == (error, text)
        assert calls == []
    assert routes == ["arrays"]
    assert _refusal(lambda: system_residuals(F, PointConfig(refused), w)) == (error, text)
    assert calls == []


def test_every_other_step_keeps_its_wings_inside_the_gap():
    # a step h > 0 has 4h <= 4 * STEP_FACTOR * gap (1 + 2**-52) < gap, so the
    # only step that leaves the stencil no room is 0, which 12 h h = 0 refuses
    assert 4.0 * pde.STEP_FACTOR < 1.0


def _random_config(rng, M):
    """The pde suite's draw of one configuration, as it drew them one at a time."""
    start = rng.uniform(-5.0, 5.0)
    gaps = rng.uniform(0.3, 1.5, size=M - 1)
    return start + np.concatenate([[0.0], np.cumsum(gaps)])


@pytest.mark.parametrize("M", (2, 3, 5))
@pytest.mark.parametrize("n_configs", (1, 100, 2000))
def test_config_block_is_the_per_config_draws(n_configs, M):
    # one rng.random block reproduces the per-configuration uniform draws bit
    # for bit and leaves the generator where they left it
    old, new = np.random.default_rng(7), np.random.default_rng(7)
    want = np.array([_random_config(old, M) for _ in range(n_configs)])
    got = checks._random_configs(new, n_configs, M)
    assert got.shape == (n_configs, M)
    assert got.tobytes() == want.tobytes()
    assert new.random() == old.random()


def _refusal(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflowing span warns nothing
        with pytest.raises((DomainError, PreconditionError)) as info:
            call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "bad",
    (
        (0.0, math.nan, 1.0),
        (-math.inf, 0.0, 1.0),
        (0.0, 1.0, math.inf),
        (-1e308, 0.0, 1e308),
        (0.0, 1.0, 1.0),
        (0.0, 2.0, 1.0),
    ),
    ids=("nan", "-inf", "+inf", "span-overflow", "repeated", "decreasing"),
)
def test_batch_refuses_a_row_as_point_config_does(bad):
    # one validation routine: the bad row among good ones raises PointConfig's
    # DomainError text, and F is never called
    F = CandidateFunction(name="never", func=lambda xs: pytest.fail("F was called"))
    X = np.array([(-1.0, 0.5, 2.0), bad, (3.0, 4.0, 5.5)])
    kind, text = _refusal(lambda: PointConfig(bad))
    assert kind is DomainError
    assert _refusal(lambda: batch_residuals(F, X, WeightAssignment.one_leg(4.0, 3))) == (kind, text)


@pytest.mark.parametrize("shape", ((3, 1), (3,), (2, 3, 2)))
def test_batch_refuses_a_shape_with_no_configurations(shape):
    F = CandidateFunction(name="never", func=lambda xs: pytest.fail("F was called"))
    with pytest.raises(DomainError, match="at least two coordinates"):
        batch_residuals(F, np.ones(shape), WeightAssignment.one_leg(4.0, 2))


def test_batch_refuses_a_row_whose_step_is_0():
    # the subnormal gap rounds its step to 0; the message is system_residuals'
    F = CandidateFunction(name="never", func=lambda xs: pytest.fail("F was called"))
    X = np.array([(0.0, 1.0), (0.0, 5e-324), (2.0, 3.5)])
    w = WeightAssignment.one_leg(4.0, 2)
    kind, text = _refusal(lambda: batch_residuals(F, X, w))
    assert kind is PreconditionError
    assert (kind, text) == _refusal(lambda: system_residuals(F, PointConfig.of(0.0, 5e-324), w))
    assert text == "stencil step 0.0 of minimum gap 5e-324 gives 12*step*step = 0.0"


def test_sweep_detail_names_its_worst_configuration_and_equation():
    kappa = 16.0 / 3.0
    sweep = checks.suite_pde(kappa, "n1", 100, 0)[0]
    where = sweep.detail.split("worst ")[1]
    equation, coords = where.split(" at x = ")
    F, w = builtin_n1(kappa), WeightAssignment.one_leg(kappa, 2)
    reps = residuals(F, PointConfig(tuple(float(x) for x in coords.strip("()").split(", "))), w)
    assert reps[equation].relative == sweep.value


@pytest.mark.parametrize(
    "spec, coords, equation",
    (
        # (x2 - x1)^-650 overflows, so its partials hold +inf and -inf together,
        # which math.fsum refuses
        ("power:1,2=-650", (-4.590264760638053, -4.270431598003818), "null_state[1]"),
        # at -620, the 57th configuration of the seed-0 sweep gives special
        # conformal terms [inf, -inf, 1.35e308, 1.55e308], whose finite pair
        # overflows math.fsum's partial sum before it reaches the infinities
        ("power:1,2=-620", (2.192197728267403, 2.5113878036956896), "ward_special_conformal"),
    ),
)
def test_terms_overflowing_both_ways_give_a_nan_residual_and_a_failed_sweep(spec, coords, equation):
    kappa = 2.0
    F = pde.resolve_candidate(spec, kappa, M=2)
    reps = residuals(F, PointConfig(coords), WeightAssignment.one_leg(kappa, 2))
    assert math.isnan(reps[equation].residual)
    assert math.isnan(reps[equation].relative)
    assert pde._fsum([1e16, 1.0, -1e16]) == math.fsum([1e16, 1.0, -1e16]) == 1.0
    assert pde._fsum([math.inf, 1.0]) == math.inf
    sweep = checks.suite_pde(kappa, spec, 100, 0)[0]
    assert sweep.name == "system_residuals_sweep"
    assert math.isnan(sweep.value) and not sweep.passed


BIG = 1.7976931348623157e308


@pytest.mark.parametrize(
    "terms, want",
    (
        ([math.inf, -math.inf, 1.35e308, 1.55e308], math.nan),
        ([math.nan, BIG, BIG], math.nan),
        ([math.inf, BIG, BIG], math.inf),
        ([BIG, BIG, -math.inf], -math.inf),
        ([BIG, BIG], math.inf),
        ([-BIG, -BIG], -math.inf),
        ([1e308, 1e308, -1e308], 1e308),
        ([BIG, BIG, -BIG, -BIG, 5e-324], 5e-324),
        ([BIG, 2.0**970, -2.0**970], BIG),
    ),
)
def test_fsum_never_raises(terms, want):
    got = pde._fsum(terms)
    assert got == want or (math.isnan(got) and math.isnan(want))


def _exact_sum(terms) -> float:
    """The correctly rounded sum of finite terms, by exact rationals."""
    exact = sum(map(Fraction, terms))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


FINITE = st.floats(allow_nan=False, allow_infinity=False)
HUGE = st.sampled_from([BIG, -BIG, 1e308, -1e308, 2.0**1023, 5e-324, -5e-324, 2.0**-1022])


@settings(max_examples=400, deadline=None)
@given(st.lists(FINITE | HUGE, max_size=10))
def test_fsum_of_finite_terms_is_the_correctly_rounded_sum(terms):
    assert pde._fsum(terms) == _exact_sum(terms)


# -- the vertex product as the pair loop computes it: a bitwise reference --


def _pair_loop(mu, xs):
    """builtin_power_product's field as one power per pair, multiplied in mu's order."""
    acc = 1.0
    with np.errstate(over="ignore"):
        for (i, j), e in mu.items():
            acc *= (xs[j - 1] - xs[i - 1]) ** float(e)
    return acc


def _vertex(M, exponent):
    """prod_{i<j} (x_j - x_i)^exponent over every pair of M points, as a mu dict."""
    return {(i, j): exponent for i in range(1, M + 1) for j in range(i + 1, M + 1)}


# 2/kappa on the grid; 0.5, 2 and -1 are where numpy's power takes sqrt, square and reciprocal
SHARED_EXPONENTS = tuple(2.0 / kappa for kappa in KAPPA_GRID) + (0.5, 2.0, -1.0)


@pytest.mark.parametrize("exponent", SHARED_EXPONENTS)
@pytest.mark.parametrize("M", range(2, 9))
def test_one_exponent_product_is_the_pair_loop_bitwise(M, exponent, rng):
    mu = _vertex(M, exponent)
    F = builtin_power_product(mu, M)
    X = np.sort(rng.uniform(-5.0, 5.0, size=(M, 1 + 4 * M)), axis=0)
    assert F(X).tobytes() == _pair_loop(mu, X).tobytes()
    for xs in X.T:  # one configuration takes the loop's scalar powers
        assert F(xs) == float(_pair_loop(mu, xs))


def test_one_exponent_product_overflows_to_inf_without_a_warning():
    # column 0 overflows in the product (6^400), column 1 in a power (10^400)
    mu = _vertex(3, 400.0)
    X = np.array([[0.0, 0.0], [1.0, 10.0], [3.0, 30.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = builtin_power_product(mu, 3)(X)
    assert vals.tolist() == [math.inf, math.inf]
    assert vals.tobytes() == _pair_loop(mu, X).tobytes()
