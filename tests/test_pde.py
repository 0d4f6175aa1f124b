import math

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
    null_state_residual,
    resolve_candidate,
    system_residuals,
    two_point_ward_solvable,
    ward_residuals,
)
from nullstate import findiff
from conftest import KAPPA_GRID, KAPPA_MODERATE


def test_point_config_validation():
    with pytest.raises(DomainError):
        PointConfig.of(1.0, 1.0)
    with pytest.raises(DomainError):
        PointConfig.of(2.0, 1.0)
    cfg = PointConfig.of(-1.0, 0.5, 2.0)
    assert cfg.M == 3
    assert cfg.x(1) == -1.0
    assert cfg.min_gap == 1.5


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
    rep = null_state_residual(F, cfg, WeightAssignment.one_leg(kappa, 2), j=1)
    assert rep.relative <= 1e-7


def test_constant_not_a_solution():
    # only the potential term survives for F = 1
    kappa = 10.0 / 3.0
    th1 = leg_weight(1, kappa)
    one = resolve_candidate("one", kappa)
    cfg = PointConfig.of(0.0, 1.3)
    rep = null_state_residual(one, cfg, WeightAssignment.one_leg(kappa, 2), j=1)
    assert rep.residual == pytest.approx(-th1 / 1.3**2, rel=1e-12)


def test_wrong_weight_power_residual():
    # F = (x2-x1)^(-2h) with both weights h leaves kappa h(2h+1)/2 - 3h
    kappa, h = 10.0 / 3.0, 1.2
    cfg = PointConfig.of(0.0, 1.0)
    w = WeightAssignment(kappa=kappa, iota=2, h=h)
    F = CandidateFunction(name="wrong", func=lambda xs: (xs[1] - xs[0]) ** (-2.0 * h))
    rep = null_state_residual(F, cfg, w, j=1)
    want = kappa * h * (2.0 * h + 1.0) / 2.0 - 3.0 * h
    assert rep.residual == pytest.approx(want, rel=1e-6)
    th1 = leg_weight(1, kappa)
    assert abs(kappa * th1 * (2.0 * th1 + 1.0) / 2.0 - 3.0 * th1) <= 1e-12


def test_ward_translation_spot_value():
    F = CandidateFunction(name="sum", func=lambda xs: xs[0] + xs[1])
    cfg = PointConfig.of(0.2, 1.7)
    w1, _, _ = ward_residuals(F, cfg, WeightAssignment.one_leg(4.0, 2))
    assert w1.residual == pytest.approx(2.0, abs=1e-9)


def test_two_point_special_conformal_factor():
    # residual of the scale-covariant ansatz is -(h1-h2)(x2-x1) F
    kappa, h1, h2 = 4.0, leg_weight(1, 4.0), leg_weight(3, 4.0)
    q = -(h1 + h2)
    F = CandidateFunction(name="two-point", func=lambda xs: (xs[1] - xs[0]) ** q)
    cfg = PointConfig.of(0.3, 1.9)
    w = WeightAssignment(kappa=kappa, iota=2, h=h2)
    # translation/dilation hold; special conformal carries the witness
    wt, wd, wsc = ward_residuals(F, cfg, w)
    assert wt.relative <= 1e-9
    assert wd.relative <= 1e-9
    s = 1.9 - 0.3
    want = -(h1 - h2) * s * F(cfg.array)
    assert wsc.residual == pytest.approx(want, rel=1e-7)


def test_two_point_solvable():
    th1 = leg_weight(1, 6.0)
    assert two_point_ward_solvable(th1, th1) == (True, 0.0)
    ok, _ = two_point_ward_solvable(5.0, 5.0)
    assert ok
    for N in (2, 3, 4):
        solvable, witness = two_point_ward_solvable(th1, leg_weight(2 * N - 1, 6.0))
        assert not solvable
        assert witness != 0.0


@settings(max_examples=100, deadline=None)
@given(h1=st.floats(min_value=-1.0, max_value=10.0), h2=st.floats(min_value=-1.0, max_value=10.0))
def test_two_point_solvable_symmetric(h1, h2):
    a, wa = two_point_ward_solvable(h1, h2)
    b, wb = two_point_ward_solvable(h2, h1)
    assert a == b
    assert wa == -wb
    assert two_point_ward_solvable(h1, h1)[0]


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
        along = lambda t: F(cfg.replace(k, t).array)
        fd1 = findiff.d1(along, cfg.x(k), step)
        fd2 = findiff.d2(along, cfg.x(k), step)
        assert abs(fd1 - F.grad(cfg.array, k)) <= 1e-9 * max(1.0, abs(F.grad(cfg.array, k)))
        assert abs(fd2 - F.second(cfg.array, k)) <= 1e-8 * max(1.0, abs(F.second(cfg.array, k)))


@pytest.mark.parametrize("M", (2, 5, 8))
def test_system_residuals_sample_once(M):
    # one shared stencil per configuration: F(x), F(x +- h e_k), F(x +- 2h e_k)
    base = builtin_power_product({(i, i + 1): 0.5 for i in range(1, M)}, M)
    calls = []

    def func(xs):
        calls.append(1)
        return base.func(xs)

    F = CandidateFunction(name="counted", func=func, arity=M)
    cfg = PointConfig(tuple(0.2 + 1.3 * np.arange(M)))
    reports = system_residuals(F, cfg, WeightAssignment.one_leg(4.0, M))
    assert len(reports) == M + 3
    assert len(calls) == 1 + 4 * M


def test_system_residuals_match_standalone_reports():
    # the shared stencil feeds every equation exactly as a standalone call
    # would; iota = 3 is anomalous, so its null-state equation is skipped
    mu = {(i, j): (-1) ** (i + j) * 0.7 / (j - i) for i in range(1, 6) for j in range(i + 1, 6)}
    F = builtin_power_product(mu, 5)
    cfg = PointConfig.of(-1.2, -0.3, 0.5, 1.9, 2.4)
    w = WeightAssignment(kappa=10.0 / 3.0, iota=3, h=1.7)
    want = [null_state_residual(F, cfg, w, j) for j in (1, 2, 4, 5)]
    want += list(ward_residuals(F, cfg, w))
    assert system_residuals(F, cfg, w) == want


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
    moved = {r.equation: r.relative for r in system_residuals(F, cfg.translated(7.0), w)}
    for eq in base:
        noise = max(base[eq], moved[eq])
        assert abs(base[eq] - moved[eq]) <= max(1e-8, 3.0 * noise)
        assert moved[eq] <= 1e-6


def test_anomalous_center_rejected():
    w = WeightAssignment(kappa=4.0, iota=2, h=1.5)
    F = builtin_n1(4.0)
    with pytest.raises(PreconditionError):
        null_state_residual(F, PointConfig.of(0.0, 1.0), w, j=2)


def test_stencil_leaving_domain_rejected():
    F = builtin_n1(4.0)
    w = WeightAssignment.one_leg(4.0, 2)
    with pytest.raises(PreconditionError):
        null_state_residual(F, PointConfig.of(0.0, 1.0), w, j=1, step=0.3)


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
