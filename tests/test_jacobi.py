import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullstate import DomainError, JacobiBasis, gauss_jacobi_rule, jacobi, jacobi_params, leg_weight
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


@pytest.mark.parametrize("name", ("alpha", "beta"))
@pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf, -1.0))
def test_basis_refuses_a_parameter_outside_minus_one_to_inf_by_name(name, value):
    pair = {"alpha": 0.5, "beta": 1.5, name: value}
    with pytest.raises(DomainError, match=rf"^jacobi parameter {name} must lie in \(-1, inf\), "
                                          rf"got {value!r}$"):
        JacobiBasis(**pair)


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
    table = b.eval_table(15, 2.0 * rule.nodes - 1.0)
    grams = (table * rule.weights) @ table.T
    for n in range(16):
        hn = b.shifted_norm_sq(n)
        assert abs(grams[n, n] - hn) <= 1e-10 * hn
        for m in range(n):
            assert abs(grams[m, n]) <= 1e-10 * math.sqrt(b.shifted_norm_sq(m) * hn)


def test_norm_spot_values():
    assert JacobiBasis(0.0, 0.0).norm_sq(0) == pytest.approx(2.0, abs=1e-14)
    b = JacobiBasis(0.8, 0.3)
    # shifted zeroth norm is the Beta integral of the unit-interval weight
    beta_fn = math.exp(log_beta(b.beta + 1.0, b.alpha + 1.0))
    assert b.shifted_norm_sq(0) == pytest.approx(beta_fn, rel=1e-13)
    rule = gauss_jacobi_rule(20, b)
    assert float(np.sum(rule.weights)) == pytest.approx(beta_fn, rel=1e-12)


# the pairs of theta_2 at kappa = 0.15 and 0.12, (79, 52.3) and (99, 65.7): eigenvector
# weights missed two of their norms by 1.56e-10 and 1.37e-10
SMALL_KAPPA_PAIRS = [(p.alpha, p.beta)
                     for p in (jacobi_params(leg_weight(2, k), k) for k in (0.15, 0.12))]


@pytest.mark.parametrize("alpha,beta", PARAM_GRID + SMALL_KAPPA_PAIRS)
def test_shifted_norm_relation(alpha, beta):
    b = JacobiBasis(alpha, beta)
    rule = gauss_jacobi_rule(40, b)
    for n in range(16):
        q = float(np.dot(rule.weights, b.eval(n, 2.0 * rule.nodes - 1.0) ** 2))
        assert abs(q - b.shifted_norm_sq(n)) <= 1e-12 * b.shifted_norm_sq(n)


def test_operator_residual_trivial_cases():
    b = JacobiBasis(0.0, 0.0)
    grid = np.linspace(-0.9, 0.9, 19)
    assert b.operator_residual(0, grid).tolist() == [0.0]
    # J[y] = -2y for Legendre degree one
    assert np.allclose(b.operator_apply(1, grid), -2.0 * grid, atol=1e-14)
    assert b.operator_residual(1, grid)[1] <= 1e-11


@pytest.mark.parametrize("alpha,beta", PARAM_GRID)
def test_operator_eigen_relation(alpha, beta):
    b = JacobiBasis(alpha, beta)
    grid = np.linspace(-0.95, 0.95, 41)
    for n, res in enumerate(b.operator_residual(20, grid)):
        assert res <= 1e-9 * b.endpoint_max(n)


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
    assert rule.nodes[0] == pytest.approx(0.5, abs=1e-15)
    assert rule.weights[0] == pytest.approx(1.0, abs=1e-14)


def test_gauss_rule_exactness():
    b = JacobiBasis(1.0 / 3.0, 1.0 / 3.0)
    m = 6
    rule = gauss_jacobi_rule(m, b)
    big = gauss_jacobi_rule(m + 20, b)
    for k in range(2 * m):
        moment = float(np.dot(rule.weights, rule.nodes**k))
        ref = float(np.dot(big.weights, big.nodes**k))
        assert moment == pytest.approx(ref, abs=1e-13 * max(1.0, abs(ref)))


def test_gauss_rule_orthogonality_spot():
    b = JacobiBasis(1.0 / 3.0, 1.0 / 3.0)
    rule = gauss_jacobi_rule(20, b)
    y = 2.0 * rule.nodes - 1.0
    inner = float(np.dot(rule.weights, b.eval(3, y) * b.eval(5, y)))
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


@pytest.mark.parametrize("shape", ((1,), (2,), (NARROW - 1,), (NARROW,), (NARROW + 1,), (120,),
                                   (3, 4), (4, 6), (5, 5), (6, 20)))
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


@pytest.mark.parametrize("size", (5, NARROW + 1))
def test_coefficient_table_grows_without_changing_rows(size, rng):
    # the coefficient lists grow in place and a table reads slices of them: every
    # table is bit for bit a fresh basis's, on both routes
    y = rng.uniform(-1.0, 1.0, size=size)
    b = JacobiBasis(1.0 / 3.0, 1.0 / 3.0)
    # a fresh basis builds only degrees 2..10, then doubles
    for n_max, have in ((10, 9), (12, 18), (1000, 999), (5, 999)):
        table = b.eval_table(n_max, y)
        assert len(b._coeffs[0]) == have
        assert table.tobytes() == JacobiBasis(1.0 / 3.0, 1.0 / 3.0).eval_table(n_max, y).tobytes()
    columns = jacobi._recurrence_coefficients(2, 1001, 1.0 / 3.0, 1.0 / 3.0)
    for kept, floats in zip(b._coeffs, columns):
        assert type(kept) is list and all(type(c) is float for c in kept)
        assert kept == floats.tolist()


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


def _operator_residual_per_degree(b, n, y):
    """The eigen-relation residual of degree n alone, from its own deriv and eval calls."""
    d1 = b.deriv(n, y, 1)
    d2 = b.deriv(n, y, 2)
    res = ((1.0 - y * y) * d2 + (b.beta - b.alpha - (b.alpha + b.beta + 2.0) * y) * d1
           + n * (n + b.alpha + b.beta + 1.0) * b.eval(n, y))
    return float(np.max(np.abs(res)))


@pytest.mark.parametrize("size", (NARROW - 5, 41))
@pytest.mark.parametrize("alpha,beta", PARAM_GRID)
def test_operator_residual_table_route_is_per_degree_bitwise(alpha, beta, size):
    # three tables give every degree's residual, bit for bit the per-degree
    # recurrences on either side of the narrow/wide crossover
    grid = np.linspace(-0.95, 0.95, size)
    got = JacobiBasis(alpha, beta).operator_residual(20, grid)
    b = JacobiBasis(alpha, beta)
    want = [_operator_residual_per_degree(b, n, grid) for n in range(21)]
    assert got.shape == (21,)
    assert got.tolist() == want


@pytest.mark.parametrize("order", (1, 2))
def test_deriv_of_a_degree_array_is_its_rows(order, rng):
    b = JacobiBasis(0.9, 0.2)
    for y in (rng.uniform(-0.95, 0.95, size=7), rng.uniform(-0.95, 0.95, size=NARROW + 3), 0.3):
        degrees = np.array([0, 1, 2, 5, 3, 40])
        rows = b.deriv(degrees, y, order)
        assert rows.shape == (len(degrees),) + np.shape(y)
        for n, row in zip(degrees.tolist(), rows):
            assert np.asarray(b.deriv(n, y, order)).tobytes() == row.tobytes()


def _one_degree_deriv(alpha, beta, n, y, order):
    """The single-degree formula `deriv` had: zeros below `order`, else the
    factor times the shifted basis's degree n - order."""
    y = np.asarray(y, dtype=float)
    if n < order:
        out = np.zeros_like(y)
        return out if out.ndim else float(out)
    factor = 1.0
    for j in range(order):
        factor *= (n + alpha + beta + 1.0 + j) / 2.0
    p = _reference_table(alpha + order, beta + order, n - order, y)[-1]
    return factor * (p if p.ndim else float(p))


@pytest.mark.parametrize("order", (1, 2))
@pytest.mark.parametrize("alpha,beta", PARAM_GRID)
def test_one_degree_deriv_is_the_shifted_row_bitwise(alpha, beta, order, rng):
    b = JacobiBasis(alpha, beta)
    for y in (0.3, rng.uniform(-1.0, 1.0, size=NARROW), rng.uniform(-1.0, 1.0, size=NARROW + 1),
              rng.uniform(-1.0, 1.0, size=(3, 4))):
        for n in (0, 1, 2, 3, 40):
            got, want = b.deriv(n, y, order), _one_degree_deriv(alpha, beta, n, y, order)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(y)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _closed_form_endpoint_max(alpha, beta, n):
    """max(|P_n(1)|, |P_n(-1)|) from the two closed forms, each written out."""
    at_one = math.exp(math.lgamma(n + alpha + 1.0) - math.lgamma(n + 1.0)
                      - math.lgamma(alpha + 1.0))
    mag = math.exp(math.lgamma(n + beta + 1.0) - math.lgamma(n + 1.0) - math.lgamma(beta + 1.0))
    at_minus_one = -mag if n % 2 else mag
    return max(at_one, abs(at_minus_one))


def test_endpoint_max_is_the_two_closed_forms_bitwise(rng):
    # equal and one-ulp-apart parameters included: there lgamma rounding can
    # order the two endpoints either way
    alphas = rng.uniform(-0.5, 40.0, size=100)
    pairs = [(a, b) for a, b in zip(alphas, rng.uniform(-0.5, 40.0, size=100))]
    pairs += [(a, a) for a in alphas[:40]]
    pairs += [(a, np.nextafter(a, np.inf)) for a in alphas[40:70]]
    pairs += [(np.nextafter(a, np.inf), a) for a in alphas[70:]]
    for alpha, beta in pairs:
        b = JacobiBasis(float(alpha), float(beta))
        for n in (0, 1, 2, 3, 10, 57, 300, 1000):
            want = _closed_form_endpoint_max(float(alpha), float(beta), n)
            assert b.endpoint_max(n).hex() == want.hex()


def test_endpoint_max_that_overflows_is_domain_error():
    # alpha = 239 is the theta2 pair at kappa = 0.05
    with pytest.raises(DomainError, match=r"\|P_1622\| at the endpoint of parameter 239\.0"):
        JacobiBasis(239.0, 1.0).endpoint_max(1622)


def test_norm_that_leaves_the_floats_is_domain_error():
    # (1199, 799) is the theta2 pair at kappa = 0.01
    with pytest.raises(DomainError, match=r"^shifted squared norm of P_0 for \(alpha, beta\) = "
                                          r"\(1199\.0, 799\.0\) underflows"):
        JacobiBasis(1199.0, 799.0).shifted_norm_sq(0)
    with pytest.raises(DomainError, match=r"^squared norm of P_3 for \(alpha, beta\) = "
                                          r"\(2000\.0, 0\.0\) overflows"):
        JacobiBasis(2000.0, 0.0).norm_sq(3)


@pytest.mark.parametrize("alpha, beta", [(-0.5, -0.5), (-0.3, -0.7), (-0.95, -0.05), (-0.05, -0.95)])
def test_norms_at_alpha_plus_beta_minus_one_match_mpmath(alpha, beta):
    # at n = 0 the general form takes log(2n + alpha + beta + 1) and
    # lgamma(n + alpha + beta + 1) at their poles; h_0 is 2^0 B(alpha + 1, beta + 1)
    mp = pytest.importorskip("mpmath").mp
    b = JacobiBasis(alpha, beta)
    with mp.workdps(40):
        a, c = mp.mpf(alpha), mp.mpf(beta)
        for n in range(8):
            if n == 0:
                want = 2 ** (a + c + 1) * mp.beta(a + 1, c + 1)
            else:
                want = (2 ** (a + c + 1) * mp.gamma(n + a + 1) * mp.gamma(n + c + 1)
                        / ((2 * n + a + c + 1) * mp.factorial(n) * mp.gamma(n + a + c + 1)))
            assert abs(b.norm_sq(n) / want - 1) <= 1e-14, n
    if alpha == beta == -0.5:
        assert b.norm_sq(0) == pytest.approx(math.pi, rel=2e-15)


def test_rule_whose_weight_mass_overflows_is_domain_error():
    with pytest.raises(DomainError, match=r"weight mass of the 3-point rule for \(alpha, beta\) = "
                                          r"\(2000\.0, 0\.0\) overflows"):
        gauss_jacobi_rule(3, JacobiBasis(2000.0, 0.0))


def test_unit_rule_whose_weights_underflow_is_domain_error():
    # (599, 399) is the theta2 pair at kappa = 0.02: of the 120 weights, 39 are
    # 0.0 and 23 subnormal
    b = JacobiBasis(599.0, 399.0)
    for m, lost in ((40, 9), (120, 62)):
        with pytest.raises(DomainError, match=rf"^the {m}-point unit-domain rule for "
                                              rf"\(alpha, beta\) = \(599\.0, 399\.0\) has "
                                              rf"{lost} weights that underflow"):
            gauss_jacobi_rule(m, b)
    # at kappa = 0.05, (239, 159), every weight of the 120-point unit rule stays
    # normal; the smallest is 5.570422584e-202 by a 40-digit mpmath Christoffel sum
    unit = gauss_jacobi_rule(120, JacobiBasis(239.0, 159.0))
    assert unit.weights.min() == pytest.approx(5.570422584e-202, rel=1e-9)


def test_rules_of_one_size_and_basis_share_one_factorisation(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(len(a)) or svd(a, **kw))
    jacobi._gauss_jacobi.cache_clear()
    b = JacobiBasis(2.0, 1.0)
    for _ in range(4):
        gauss_jacobi_rule(17, b)
    gauss_jacobi_rule(17, JacobiBasis(2.0, 1.0))
    assert calls == [17]


def test_rule_arrays_are_read_only():
    rule = gauss_jacobi_rule(5, JacobiBasis(2.0, 1.0))
    for array in (rule.nodes, rule.weights):
        with pytest.raises(ValueError):
            array[0] = 0.0


@pytest.mark.parametrize("alpha, beta", PARAM_GRID)
def test_rule_weights_are_the_symmetric_ones_scaled_bitwise(alpha, beta):
    # the weights are those of [-1, 1], the mass 2^(a+b+1) B(a+1, b+1) over the
    # Christoffel sums, times 2^(-a-b-1): the arithmetic that fixes their bits
    # and the scale at which the underflow refusal looks
    b = JacobiBasis(alpha, beta)
    apb = alpha + beta
    for m in (40, 80, 120):
        jacobi._gauss_jacobi.cache_clear()
        rule = gauss_jacobi_rule(m, b)
        odd, even = jacobi._chain_sequence(m, alpha, beta)
        diag = odd.copy()
        diag[1:] += even
        sums = jacobi._christoffel_sums(rule.nodes, diag, np.sqrt(odd[:-1] * even))
        mass = math.exp((apb + 1.0) * math.log(2.0) + log_beta(alpha + 1.0, beta + 1.0))
        assert rule.weights.tobytes() == (mass / sums * 2.0 ** (-apb - 1.0)).tobytes()
        jacobi._gauss_jacobi.cache_clear()
        again = gauss_jacobi_rule(m, b)
        assert again.nodes.tobytes() == rule.nodes.tobytes()
        assert again.weights.tobytes() == rule.weights.tobytes()


@pytest.mark.parametrize("m", (1, 2, 17))
def test_signed_zero_parameters_give_one_rule(m):
    # no node or weight reads the sign of a zero parameter, so the cache key,
    # which cannot tell 0.0 from -0.0, needs none
    rules = []
    for beta in (0.0, -0.0):
        jacobi._gauss_jacobi.cache_clear()
        rule = gauss_jacobi_rule(m, JacobiBasis(0.0, beta))
        rules.append((rule.nodes.tobytes(), rule.weights.tobytes()))
    assert rules[0] == rules[1]


@pytest.mark.parametrize("alpha, beta", [(2.0, 1.0), (11.0, 7.0), (0.5019, 0.00125), (0.0, 0.0),
                                         (-0.5, -0.5), (-0.9, 0.3)])
def test_bidiagonal_factor_gives_the_recurrence_jacobi_matrix(alpha, beta):
    # B B^T against the unit Jacobi matrix read off the recurrence columns
    # a P_n = (b0 + b1 y) P_{n-1} - c P_{n-2}, with s = (1 + y) / 2
    m = 30
    odd, even = jacobi._chain_sequence(m, alpha, beta)
    assert np.all(odd > 0.0) and np.all(even > 0.0)
    lower = np.diag(np.sqrt(odd)) + np.diag(np.sqrt(even), -1)
    jac = lower @ lower.T
    a, b0, b1, c = jacobi._recurrence_coefficients(2, m + 1, alpha, beta)  # n = 2..m
    apb = alpha + beta
    assert jac[0, 0] == pytest.approx((1.0 + (beta - alpha) / (apb + 2.0)) / 2.0, rel=1e-15)
    assert jac[1, 0] ** 2 == pytest.approx(
        (alpha + 1.0) * (beta + 1.0) / ((apb + 2.0) ** 2 * (apb + 3.0)), rel=1e-14)
    np.testing.assert_allclose(np.diag(jac)[1:], (1.0 - b0 / b1) / 2.0, rtol=1e-14, atol=1e-16)
    np.testing.assert_allclose(np.diag(jac, -1)[1:] ** 2, a[:-1] * c[1:] / (4.0 * b1[:-1] * b1[1:]),
                               rtol=1e-14)
    np.testing.assert_array_equal(np.triu(jac, 2), 0.0)


def _mpmath_golub_welsch(mp, m, alpha, beta):
    """Unit nodes and weights from mpmath's eigsy on the classical symmetric Jacobi matrix."""
    a, b = mp.mpf(alpha), mp.mpf(beta)
    apb = a + b
    jac = mp.zeros(m, m)
    jac[0, 0] = (b - a) / (apb + 2)
    for k in range(1, m):
        jac[k, k] = (b * b - a * a) / ((2 * k + apb) * (2 * k + apb + 2))
        if k == 1:
            sub = 4 * (a + 1) * (b + 1) / ((apb + 2) ** 2 * (apb + 3))
        else:
            q = 2 * k + apb
            sub = 4 * k * (k + a) * (k + b) * (k + apb) / (q**2 * (q**2 - 1))
        jac[k, k - 1] = jac[k - 1, k] = mp.sqrt(sub)
    values, vectors = mp.eigsy(jac)
    order = sorted(range(m), key=lambda i: values[i])
    mass = mp.beta(a + 1, b + 1)
    return [(values[i] + 1) / 2 for i in order], [mass * vectors[0, i] ** 2 for i in order]


@pytest.mark.parametrize("alpha, beta", [(23.0, 15.0), (11.0, 7.0), (2.0, 1.0), (0.5019, 0.00125),
                                         (0.0, 0.0)])
def test_rule_matches_a_40_digit_golub_welsch(alpha, beta):
    mp = pytest.importorskip("mpmath").mp
    m = 24
    jacobi._gauss_jacobi.cache_clear()
    rule = gauss_jacobi_rule(m, JacobiBasis(alpha, beta))
    with mp.workdps(40):
        nodes, weights = _mpmath_golub_welsch(mp, m, alpha, beta)
        node_err = max(abs(x / mp.mpf(float(y)) - 1) for x, y in zip(nodes, rule.nodes))
        weight_err = max(abs(w / mp.mpf(float(v)) - 1) for w, v in zip(weights, rule.weights))
    assert node_err <= 1e-14
    assert weight_err <= 1e-12


def test_gauss_jacobi_rule_is_a_plain_function():
    # the benchmark's tracer wraps plain functions only, so its rule counts need one
    assert inspect.isfunction(gauss_jacobi_rule)
