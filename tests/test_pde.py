import math
import warnings

import numpy as np
import pytest

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
from nullstate import asymptotics as asym
from nullstate import findiff, pde
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
            xs = cfg.array
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
    fval, grads, seconds = pde._stencil(F, config, h)

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


def test_power_spec_parsing():
    F = resolve_candidate("power:1,2=0.5;2,3=-0.25", 6.0, M=3)
    xs = np.array([0.0, 1.0, 3.0])
    assert F(xs) == pytest.approx(1.0**0.5 * 2.0**-0.25, rel=1e-14)
    with pytest.raises(DomainError):
        resolve_candidate("power:2,1=0.5", 6.0, M=3)
    with pytest.raises(DomainError):
        resolve_candidate("nope", 6.0)


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
    # the step STEP_FACTOR * min_gap must satisfy 0 < 4*step < min_gap: a
    # subnormal gap rounds the step to 0 (an overflowing gap is refused by
    # PointConfig itself)
    F = builtin_n1(4.0)
    with pytest.raises(PreconditionError, match="stencil step"):
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
