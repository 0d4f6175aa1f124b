import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullstate import DomainError, JacobiBasis, gauss_jacobi_rule, jacobi_params, leg_weight
from nullstate.jacobi import NARROW, log_beta

PARAM_GRID = [
    (0.0, 0.0),
    (1.0 / 3.0, 1.0 / 3.0),
    (2.0, 1.0),
    (0.5, 1.5),
]
# parameter pairs induced by the weight map on the moderate kappa grid
for kappa in (10.0 / 3.0, 4.0, 6.0):
    for s in (1, 2, 3):
        p = jacobi_params(leg_weight(s, kappa), kappa)
        PARAM_GRID.append((p.alpha, p.beta))


@pytest.mark.parametrize("n", (-1, -2))
def test_negative_degree_is_domain_error(n):
    b = JacobiBasis(0.5, 1.5)
    with pytest.raises(DomainError):
        b.eval(n, 0.3)
    with pytest.raises(DomainError):
        b.eval_table(n, [0.3, -0.2])


def test_degree_zero_and_one():
    b = JacobiBasis(0.7, 1.9)
    assert b.eval(0, 0.123) == 1.0
    assert JacobiBasis(0.0, 0.0).eval(1, 0.37) == pytest.approx(0.37, abs=1e-15)
    assert b.eval(1, 1.0) == pytest.approx(b.alpha + 1.0, abs=1e-14)


@pytest.mark.parametrize("alpha,beta", PARAM_GRID)
def test_recurrence_matches_explicit_sum(alpha, beta, rng):
    b = JacobiBasis(alpha, beta)
    ys = rng.uniform(-1.0, 1.0, size=50)
    for n in range(9):
        ref = max(b.endpoint_max(n), 1.0)
        diff = np.max(np.abs(b.eval(n, ys) - b.eval_explicit_sum(n, ys)))
        assert diff <= 1e-10 * ref


@pytest.mark.parametrize("alpha,beta", PARAM_GRID)
def test_orthogonality_and_norms(alpha, beta):
    b = JacobiBasis(alpha, beta)
    rule = gauss_jacobi_rule(40, b)
    table = b.eval_table(15, rule.nodes)
    grams = (table * rule.weights) @ table.T
    for n in range(16):
        hn = b.norm_sq(n)
        assert abs(grams[n, n] - hn) <= 1e-10 * hn
        for m in range(n):
            assert abs(grams[m, n]) <= 1e-10 * math.sqrt(b.norm_sq(m) * hn)


def test_norm_spot_values():
    assert JacobiBasis(0.0, 0.0).norm_sq(0) == pytest.approx(2.0, abs=1e-14)
    b = JacobiBasis(0.8, 0.3)
    # shifted zeroth norm is the Beta integral of the unit-interval weight
    beta_fn = math.exp(log_beta(b.beta + 1.0, b.alpha + 1.0))
    assert b.shifted_norm_sq(0) == pytest.approx(beta_fn, rel=1e-13)
    rule = gauss_jacobi_rule(20, b, domain="unit")
    assert rule.integrate(lambda s: np.ones_like(s)) == pytest.approx(beta_fn, rel=1e-12)


@pytest.mark.parametrize("alpha,beta", PARAM_GRID)
def test_shifted_norm_relation(alpha, beta):
    b = JacobiBasis(alpha, beta)
    rule = gauss_jacobi_rule(40, b, domain="unit")
    for n in range(16):
        q = rule.integrate(lambda s: b.eval(n, 2.0 * s - 1.0) ** 2)
        assert abs(q - b.shifted_norm_sq(n)) <= 1e-12 * b.shifted_norm_sq(n)


def test_operator_residual_trivial_cases():
    b = JacobiBasis(0.0, 0.0)
    grid = np.linspace(-0.9, 0.9, 19)
    assert b.operator_residual(0, grid) == 0.0
    # J[y] = -2y for Legendre degree one
    assert np.allclose(b.operator_apply(1, grid), -2.0 * grid, atol=1e-14)
    assert b.operator_residual(1, grid) <= 1e-11


@pytest.mark.parametrize("alpha,beta", PARAM_GRID)
def test_operator_eigen_relation(alpha, beta):
    b = JacobiBasis(alpha, beta)
    grid = np.linspace(-0.95, 0.95, 41)
    for n in range(21):
        assert b.operator_residual(n, grid) <= 1e-9 * b.endpoint_max(n)


def test_operator_residual_fd_oracle():
    # independent finite-difference route for the eigen-relation
    from nullstate import findiff

    b = JacobiBasis(1.0 / 3.0, 1.0 / 3.0)
    h = 1e-3
    for n in (1, 4, 9):
        lam = n * (n + b.alpha + b.beta + 1.0)
        worst = 0.0
        for y in np.linspace(-0.8, 0.8, 9):
            p = b.eval(n, y)
            wings = [b.eval(n, z) for z in (y - 2 * h, y - h, y + h, y + 2 * h)]
            d1 = findiff.first(wings, h)
            d2 = findiff.second(p, wings, h)
            res = (1 - y * y) * d2 + (b.beta - b.alpha - (b.alpha + b.beta + 2) * y) * d1
            worst = max(worst, abs(res + lam * p))
        assert worst <= 1e-6 * b.endpoint_max(n)


def test_gauss_rule_midpoint():
    rule = gauss_jacobi_rule(1, JacobiBasis(0.0, 0.0))
    assert rule.nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert rule.weights[0] == pytest.approx(2.0, abs=1e-14)


def test_gauss_rule_exactness():
    b = JacobiBasis(1.0 / 3.0, 1.0 / 3.0)
    m = 6
    rule = gauss_jacobi_rule(m, b)
    big = gauss_jacobi_rule(m + 20, b)
    for k in range(2 * m):
        moment = rule.integrate(lambda y: y**k)
        ref = big.integrate(lambda y: y**k)
        assert moment == pytest.approx(ref, abs=1e-13 * max(1.0, abs(ref)))


def test_gauss_rule_orthogonality_spot():
    b = JacobiBasis(1.0 / 3.0, 1.0 / 3.0)
    rule = gauss_jacobi_rule(20, b)
    inner = rule.integrate(lambda y: b.eval(3, y) * b.eval(5, y))
    assert abs(inner) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(
    alpha=st.floats(min_value=-0.45, max_value=3.0),
    beta=st.floats(min_value=-0.45, max_value=3.0),
    y=st.floats(min_value=-1.0, max_value=1.0),
    n=st.integers(min_value=0, max_value=12),
)
def test_parameter_symmetry(alpha, beta, y, n):
    left = JacobiBasis(alpha, beta).eval(n, -y)
    right = (-1.0) ** n * JacobiBasis(beta, alpha).eval(n, y)
    ref = max(JacobiBasis(alpha, beta).endpoint_max(n), 1.0)
    assert abs(left - right) <= 1e-12 * ref


def test_derivative_shift_identity(rng):
    b = JacobiBasis(0.9, 0.2)
    ys = rng.uniform(-0.95, 0.95, size=11)
    h = 1e-6
    for n in (1, 3, 7):
        exact = b.deriv(n, ys)
        fd = (b.eval(n, ys + h) - b.eval(n, ys - h)) / (2 * h)
        assert np.max(np.abs(exact - fd)) <= 1e-7 * b.endpoint_max(n)


def _reference_table(alpha, beta, n_max, y):
    """The three-term recurrence on the whole ndarray, one degree at a time, with
    each degree's coefficients computed in Python floats as it is reached."""
    y = np.asarray(y, dtype=float)
    apb = alpha + beta
    table = np.empty((n_max + 1,) + y.shape)
    pm1 = np.ones_like(y)
    p = (alpha + 1.0) + (alpha + beta + 2.0) * (y - 1.0) / 2.0
    table[0] = pm1
    if n_max >= 1:
        table[1] = p
    for n in range(2, n_max + 1):
        a = 2.0 * n * (n + apb) * (2.0 * n + apb - 2.0)
        b0 = (2.0 * n + apb - 1.0) * (alpha * alpha - beta * beta)
        b1 = (2.0 * n + apb - 1.0) * (2.0 * n + apb) * (2.0 * n + apb - 2.0)
        c = 2.0 * (n + alpha - 1.0) * (n + beta - 1.0) * (2.0 * n + apb)
        p, pm1 = ((b0 + b1 * y) * p - c * pm1) / a, p
        table[n] = p
    return table


@pytest.mark.parametrize("shape", ((1,), (2,), (NARROW,), (NARROW + 1,), (120,), (3, 4), (6, 20)))
@pytest.mark.parametrize("alpha,beta", PARAM_GRID)
def test_eval_table_matches_reference_bitwise(alpha, beta, shape, rng):
    b = JacobiBasis(alpha, beta)
    y = rng.uniform(-1.0, 1.0, size=shape)
    y.flat[0] = 1.0
    for n_max in (0, 1, 2, 300):
        want = _reference_table(alpha, beta, n_max, y)
        got = b.eval_table(n_max, y)
        assert got.shape == want.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        assert np.asarray(b.eval(n_max, y)).tobytes() == want[-1].tobytes()


@pytest.mark.parametrize("n", (0, 1, 5, 300))
def test_eval_of_scalar_is_python_float(n):
    b = JacobiBasis(0.5, 1.5)
    value = b.eval(n, 0.3)
    assert type(value) is float
    assert value == _reference_table(0.5, 1.5, n, 0.3)[-1]
    assert type(b.deriv(n, 0.3)) is float


def test_coefficient_table_grows_without_changing_rows(rng):
    y = rng.uniform(-1.0, 1.0, size=5)
    b = JacobiBasis(1.0 / 3.0, 1.0 / 3.0)
    first = b.eval_table(10, y).tobytes()
    assert len(b._coeffs[0]) == 9  # a fresh basis builds only degrees 2..10
    b.eval_table(12, y)
    assert len(b._coeffs[0]) == 18  # then doubles
    big = b.eval_table(500, y)
    assert len(b._coeffs[0]) == 499
    assert b.eval_table(10, y).tobytes() == first
    assert big.tobytes() == JacobiBasis(1.0 / 3.0, 1.0 / 3.0).eval_table(500, y).tobytes()


@pytest.mark.parametrize("size", (1, NARROW + 9))
def test_deriv_matches_finite_differences_either_width(size, rng):
    b = JacobiBasis(0.9, 0.2)
    ys = rng.uniform(-0.95, 0.95, size=size)
    h = 1e-6
    for n in (1, 3, 7, 40):
        for order in (1, 2):
            exact = b.deriv(n, ys, order)
            lower = b.eval if order == 1 else lambda n, y: b.deriv(n, y, order - 1)
            fd = (lower(n, ys + h) - lower(n, ys - h)) / (2 * h)
            scale = b.endpoint_max(n) * (n * (n + b.alpha + b.beta + 1.0)) ** order
            assert np.max(np.abs(exact - fd)) <= 1e-6 * scale
