import ast
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullstate import (
    DomainError,
    HeatKernel,
    TruncationError,
    TruncationPolicy,
    collapse_time,
    gauss_jacobi_rule,
    jacobi_params,
    leg_weight,
)
from nullstate import checks
from nullstate.heat_kernel import TABLES_KEPT, bound_ratio_scan
from nullstate.jacobi import NARROW, JacobiBasis, log_beta

PARAMS = [(1.0 / 3.0, 1.0 / 3.0), (2.0, 1.0), (0.5, 1.4)]


@pytest.fixture(params=PARAMS, ids=lambda p: f"a{p[0]:g}-b{p[1]:g}")
def kernel(request):
    return HeatKernel(*request.param)


def unit_rule(kernel, m=120):
    return gauss_jacobi_rule(m, kernel.basis)


def test_domain_errors():
    k = HeatKernel(1.0, 1.0)
    with pytest.raises(DomainError):
        k.value(0.3, 0.4, 0.0)
    with pytest.raises(DomainError):
        k.value(0.3, 0.4, -1.0)
    with pytest.raises(DomainError):
        HeatKernel(-0.6, 1.0)


@pytest.mark.parametrize("alpha, beta", [(-0.5, -0.5), (1.0, 1.0)])
@pytest.mark.parametrize("n_terms", [0, -1])
def test_fewer_than_one_term_is_refused_by_name(alpha, beta, n_terms):
    # n_terms = 0 divided by zero in the tail bound, or blamed a jacobi degree of -1
    k = HeatKernel(alpha, beta)
    calls = (lambda: k.value(0.3, 0.4, 0.1, n_terms=n_terms),
             lambda: k.grid([0.3], [0.4], np.array([[0.1]]), n_terms),
             lambda: k.grid([0.3], [0.4], 0.1, n_terms=n_terms))
    for call in calls:
        with pytest.raises(DomainError, match=f"^n_terms must be >= 1, got {n_terms}$"):
            call()


NOT_A_TIME = (0.0, -1.0, math.nan, math.inf)


@pytest.mark.parametrize(
    "call",
    [
        *(pytest.param(lambda k, t=t: k.truncation_index(t), id=f"truncation_index-{t}")
          for t in (math.nan, math.inf)),
        pytest.param(lambda k: k.value(0.3, 0.4, math.inf), id="value-inf"),
        *(pytest.param(lambda k, t=t: k.value(0.3, 0.4, t, n_terms=10), id=f"value-n_terms-{t}")
          for t in NOT_A_TIME),
        *(pytest.param(lambda k, t=t: k.grid([0.3], [0.4], t, n_terms=10), id=f"grid-n_terms-{t}")
          for t in NOT_A_TIME),
        *(pytest.param(lambda k, t=t: k.grid([0.3], [0.4, 0.5], np.array([0.1, t]), 10),
                       id=f"grid-per-cell-{t}") for t in NOT_A_TIME),
        *(pytest.param(lambda k, t=t: k.cancellation_floor(t, 10), id=f"cancellation_floor-{t}")
          for t in NOT_A_TIME),
    ],
)
def test_kernel_time_must_be_finite_and_positive(call):
    # a NaN time used to run all n_max terms and blame a small t; an infinite
    # or explicit-n_terms time returned NaN or a value with no error bound
    with pytest.raises(DomainError, match="kernel time must be finite and positive"):
        call(HeatKernel(1.0, 1.0 / 3.0))


@pytest.mark.parametrize(
    "grid",
    [{"t_min": 0.0}, {"t_min": math.nan}, {"t_min": math.inf}, {"c1": 0.0}, {"c1": -1.0},
     {"c2": math.nan}, {"c2": math.inf}, {"T": math.nan}, {"T": math.inf}],
    ids=lambda g: "{}={}".format(*next(iter(g.items()))),
)
def test_bound_scan_refuses_bad_grid(grid):
    name = next(iter(grid))
    with pytest.raises(DomainError, match=f"^{name} must be finite and positive"):
        bound_ratio_scan(HeatKernel(1.0, 1.0 / 3.0), **grid)


def test_truncation_error_reports_achieved_bound():
    # at t = 1e-5 the certified tail is still above 1e-10 after n_max = 2000 terms
    k = HeatKernel(1.0, 1.0)
    with pytest.raises(TruncationError) as err:
        k.value(0.5, 0.5, 1e-5)
    assert err.value.n_terms == TruncationPolicy().n_max == 2000
    assert err.value.achieved_bound > TruncationPolicy().tail_tol


def test_tail_bound_is_honest(kernel):
    # adding many more terms changes the value by less than the certified tail
    t = 5e-3
    n_terms, tail = kernel.truncation_index(t)
    short = kernel.value(0.3, 0.8, t, n_terms=n_terms).value
    long = kernel.value(0.3, 0.8, t, n_terms=n_terms + 200).value
    assert abs(long - short) <= tail


def reference_term_bound(k, n, t):
    """B_n from the basis, degree by degree: the reference for the kernel's columns."""
    pbar = k.basis.endpoint_max(n)
    return math.exp(-t * k.decay_rate(n)) * (pbar * pbar / k.basis.shifted_norm_sq(n))


@pytest.mark.parametrize("alpha, beta", [(39.0, 25.7), (1.0, 1.0 / 3.0)])
def test_term_bound_reads_endpoint_max(alpha, beta):
    k = HeatKernel(alpha, beta)
    for t in (1e-4, 0.05):
        for n in range(1501):
            assert k.term_bound(n, t) == reference_term_bound(k, n, t)


def test_fixed_truncation_without_geometric_tail_is_uncertified():
    # the tail ratio envelope at n = 5, t = 1e-4 exceeds 1: no tail is certified
    k = HeatKernel(1.0, 1.0 / 3.0)
    assert k.value(0.3, 0.8, 1e-4, n_terms=5).tail_bound == math.inf


TAIL_FAMILIES = ("q > 0", "q <= 0", "alpha beta < 0")


def _kernel_family(family: str, rng) -> tuple:
    """A seeded (alpha, beta) with q = max(alpha, beta) > 0, with q <= 0, or with alpha beta < 0."""
    if family == "q > 0":
        return tuple(rng.uniform(0.0, 30.0, 2).tolist())
    if family == "q <= 0":
        return tuple(rng.uniform(-0.5, 0.0, 2).tolist())
    return tuple(rng.permutation([rng.uniform(-0.5, 0.0), rng.uniform(0.0, 30.0)]).tolist())


@pytest.mark.parametrize("family", TAIL_FAMILIES)
def test_certified_tail_is_honest_and_first(family):
    # 15 kernels x 5 times in [2e-4, 20] per family; the certified tail sits
    # 0-2.6% above the summed term bounds, so half of it fails the third assert
    rng = np.random.default_rng(TAIL_FAMILIES.index(family))
    for _ in range(15):
        k = HeatKernel(*_kernel_family(family, rng))
        tol = k.policy.tail_tol
        for t in (10.0 ** rng.uniform(math.log10(2e-4), math.log10(20.0), 5)).tolist():
            n, tail = k.truncation_index(t)
            case = (k.alpha, k.beta, t, n)
            assert tail == k._tail_bound(n, t) <= tol, case
            assert all(k._tail_bound(m, t) > tol for m in range(1, n)), case
            # past n the bounds decrease, so they are summed until negligible
            terms = [k.term_bound(n, t)]
            while terms[-1] > 1e-17 * terms[0]:
                terms.append(k.term_bound(n + len(terms), t))
            assert tail >= math.fsum(terms) * (1.0 - 1e-12), case


def reference_tail(k, n, t):
    """The certified tail at degree n >= 1 by per-degree arithmetic.

    Every factor of the tail ratio is computed here.  The tail is inf where
    the ratio is >= 1, and only where it is below 1 are the norm and
    endpoint value read.
    """
    a, b = k.alpha, k.beta
    apb, q, ab = a + b, max(a, b), a * b
    pbar_growth = ((n + 1.0 + q) / (n + 1.0)) ** 2 if q > 0.0 else 1.0
    norm_fac = (2 * n + apb + 3.0) / (2 * n + apb + 1.0)
    if ab < 0.0:
        norm_fac *= 1.0 - ab / ((n + 1.0 + a) * (n + 1.0 + b))
    ratio = math.exp(-t * (2 * n + apb + 2.0)) * pbar_growth * norm_fac
    if ratio >= 1.0:
        return math.inf
    pbar = k.basis.endpoint_max(n)
    coef = pbar * pbar / k.basis.shifted_norm_sq(n)
    return math.exp(-t * (n * (n + a + b + 1.0))) * coef / (1.0 - ratio)


def reference_truncation(k, t):
    """`truncation_index` by per-degree arithmetic, the reference for the columns.

    Returns (n_terms, tail), or the type and text of the error the loop raises.
    """
    tol, best = k.policy.tail_tol, math.inf
    try:
        for n in range(1, k.policy.n_max + 1):
            tail = reference_tail(k, n, t)
            best = min(best, tail)
            if tail <= tol:
                return n, tail
    except DomainError as err:
        return "DomainError", str(err)
    return "TruncationError", (
        f"could not certify tail <= {tol!r} at t={t!r} within {k.policy.n_max} terms "
        f"(best bound {best!r}); t is too small for the series route")


def _truncation_or_error(k, t):
    try:
        return k.truncation_index(t)
    except (DomainError, TruncationError) as err:
        return type(err).__name__, str(err)


def _pair(kappa, s):
    params = jacobi_params(leg_weight(s, kappa), kappa)
    return params.alpha, params.beta


REFERENCE_CASES = [
    ((-0.5, -0.5), 1e-3),  # alpha + beta = -1: the norm factor's pole sits at degree 0
    ((-0.5, -0.5), 0.3),
    (_pair(0.5, 3), 2e-4),  # (31, 15) at 1239 terms
    (_pair(6.0, 2), 1e-5),  # refused: best bound 1.72e-6 after 2000 terms
    (_pair(0.1, 2), 1e-3),  # refused: (119, 79), best bound 1.72e-10
    (_pair(0.05, 2), 1e-3),  # refused: |P_1622| overflows at (239, 159)
]


@pytest.mark.parametrize("family", TAIL_FAMILIES)
def test_truncation_index_is_the_reference_loop_bit_for_bit(family):
    # a seeded (alpha, beta, t) grid per family, and the named cases: the same
    # (n_terms, tail) bit for bit, or the same error text; each kernel is asked
    # at falling and then rising t, so each call extends the columns a shorter
    # call left and the later calls read the grown columns
    rng = np.random.default_rng(100 + TAIL_FAMILIES.index(family))
    cases = [(_kernel_family(family, rng), 10.0 ** rng.uniform(-5.0, 1.0, 6)) for _ in range(6)]
    if family == TAIL_FAMILIES[0]:
        cases += [(pair, np.array([t])) for pair, t in REFERENCE_CASES]
    for pair, ts in cases:
        k = HeatKernel(*pair)
        for t in sorted(ts.tolist(), reverse=True) + sorted(ts.tolist()):
            got, want = _truncation_or_error(k, t), reference_truncation(HeatKernel(*pair), t)
            assert repr(got) == repr(want), (pair, t)
            if isinstance(got[0], str):
                continue
            n_terms = got[0]
            floor = 1e-10 * sum(reference_term_bound(k, n, t) for n in range(n_terms))
            assert k.cancellation_floor(t, n_terms).hex() == floor.hex(), (pair, t)
            for n in (0, 1, n_terms - 1, n_terms, 2 * n_terms + 7):
                assert k.term_bound(n, t).hex() == reference_term_bound(k, n, t).hex(), (pair, t, n)


@pytest.mark.parametrize("pair, t, degrees", [
    ((1.0, 1.0 / 3.0), 1e-4, (1, 120, 121, 468, 2500)),  # the ratio is below 1 from 121 on
    ((-0.5, -0.5), 0.3, (1, 2, 40)),
    # exp(-t mu_n) underflows to 0 where Pbar_n^2 overflows: the formula's 0 * inf is a NaN tail
    ((159.0, 159.0), 9.550693236042829, (1, 1600, 1765)),
])
def test_tail_bound_is_the_reference_tail_bit_for_bit(pair, t, degrees):
    # the explicit-n_terms route's tail; the first, highest degree grows the
    # columns that the later ones read
    k = HeatKernel(*pair)
    for n in sorted(degrees, reverse=True):
        want = reference_tail(HeatKernel(*pair), n, t)
        assert k._tail_bound(n, t).hex() == want.hex(), (pair, t, n)


def test_long_time_limit(kernel):
    limit = 1.0 / math.exp(log_beta(kernel.beta + 1.0, kernel.alpha + 1.0))
    got = kernel.value(0.25, 0.85, 60.0).value
    assert got == pytest.approx(limit, rel=1e-12)


@pytest.mark.parametrize("t", (1e-3, 1e-2, 0.1, 1.0, 10.0))
def test_mass_conservation(kernel, t):
    rule = unit_rule(kernel)
    for rho in (0.0, 0.31, 1.0):
        mass = kernel.reproducing_integral(rho, t, np.ones_like(rule.nodes), rule)
        assert abs(mass - 1.0) <= 1e-9


def test_symmetry(kernel, rng):
    for rho, sigma in rng.uniform(0.02, 0.98, size=(8, 2)):
        n_terms, _ = kernel.truncation_index(0.05)
        a = kernel.value(rho, sigma, 0.05, n_terms=n_terms).value
        b = kernel.value(sigma, rho, 0.05, n_terms=n_terms).value
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


@pytest.mark.parametrize("kappa", (1.0, 6.0))
def test_symmetry_check_names_its_worst_point(kappa):
    # kappa 1 is where the check fails (cancellation at a point the global
    # floor counts as resolved); the named point reproduces the value
    params = jacobi_params(leg_weight(2, kappa), kappa)
    suite = checks.suite_kernel(params.alpha, params.beta, (1e-3, 1e-2, 0.1, 1.0, 10.0), {}, 0, {})
    check = next(c for c in suite if c.name == "symmetry")
    rho, sigma, t = ast.literal_eval(check.detail.removeprefix("worst at (rho, sigma, t) = "))
    kernel = HeatKernel(params.alpha, params.beta)
    n_terms, _ = kernel.truncation_index(t)
    a = kernel.value(rho, sigma, t, n_terms=n_terms).value
    b = kernel.value(sigma, rho, t, n_terms=n_terms).value
    assert abs(a - b) / max(abs(a), 1.0) == check.value
    assert check.passed == (kappa != 1.0)


def test_semigroup(kernel):
    rule = gauss_jacobi_rule(80, kernel.basis)
    rhos = np.array([0.15, 0.5, 0.85])
    sigmas = np.array([0.3, 0.7])
    for t1, t2 in ((0.05, 0.05), (0.1, 0.4)):
        left = kernel.grid(rhos, rule.nodes, t1)
        right = kernel.grid(rule.nodes, sigmas, t2)
        composed = (left * rule.weights) @ right
        direct = kernel.grid(rhos, sigmas, t1 + t2)
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(composed - direct)) <= 1e-8 * scale


def test_positivity_grid(kernel):
    grid = np.linspace(0.0, 1.0, 21)
    for t in np.geomspace(0.1, 10.0, 8):
        assert kernel.grid(grid, grid, float(t)).min() > 0.0


def test_single_mode_decay(kernel):
    rule = unit_rule(kernel)
    for n in (0, 1, 4, 7):
        for rho, t in ((0.2, 0.03), (0.65, 0.4)):
            mode = kernel.basis.eval(n, 2 * rule.nodes - 1)
            got = kernel.reproducing_integral(rho, t, mode, rule)
            want = math.exp(-t * kernel.decay_rate(n)) * kernel.basis.eval(n, 2 * rho - 1)
            assert abs(got - want) <= 1e-9


def test_single_mode_p1_closed_form():
    k = HeatKernel(0.8, 0.3)
    rule = unit_rule(k)
    t, rho = 0.2, 0.4
    got = k.reproducing_integral(rho, t, k.basis.eval(1, 2 * rule.nodes - 1), rule)
    want = math.exp(-t * (k.alpha + k.beta + 2.0)) * k.basis.eval(1, 2 * rho - 1)
    assert got == pytest.approx(want, abs=1e-12)


def test_reproducing_limit_quadratic():
    k = HeatKernel(1.0 / 3.0, 1.0 / 3.0)
    rule = unit_rule(k)
    f = lambda s: s * (1.0 - s)
    errs = [abs(k.reproducing_integral(0.5, t, f(rule.nodes), rule) - 0.25)
            for t in (1e-1, 1e-2, 1e-3)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 2e-2


def test_collapse_time_map():
    assert collapse_time(0.5, 0.5 * math.e, 4.0) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(DomainError):
        collapse_time(0.0, 1.0, 4.0)


def lambda_envelope(theta: float, phi: float, t: float, alpha: float, beta: float) -> float:
    """[t + sin(th/2) sin(ph/2)]^(-a-1/2) [t + cos(th/2) cos(ph/2)]^(-b-1/2).

    The scalar form of the envelope that `bound_ratio_scan` evaluates as arrays.
    """
    s = t + math.sin(theta / 2.0) * math.sin(phi / 2.0)
    c = t + math.cos(theta / 2.0) * math.cos(phi / 2.0)
    return s ** (-alpha - 0.5) * c ** (-beta - 0.5)


def gaussian_factor(x: float, c: float, t: float) -> float:
    """Rod heat kernel exp(-x^2 / c t) / sqrt(pi c t)."""
    return math.exp(-x * x / (c * t)) / math.sqrt(math.pi * c * t)


def test_envelope_coincidence_finite():
    # at t = 0 and theta = phi interior, the envelope matches its closed form
    a, b = 1.0 / 3.0, 1.0 / 3.0
    for theta in (0.3, 1.2, 2.8):
        lam = lambda_envelope(theta, theta, 0.0, a, b)
        want = (math.sin(theta / 2) ** 2) ** (-a - 0.5) * (math.cos(theta / 2) ** 2) ** (-b - 0.5)
        assert lam == pytest.approx(want, rel=1e-12)


def test_bound_scan_two_sided_example():
    scan = bound_ratio_scan(HeatKernel(1.0 / 3.0, 1.0 / 3.0), T=1.0)
    assert scan.two_sided_on_grid
    for c in (scan.c1, scan.c2):
        assert 1e-3 <= scan.min_ratio[c] <= scan.max_ratio[c] <= 1e3
    assert math.isfinite(scan.k_min_large_t) and scan.k_min_large_t > 0.0
    # rows carry (theta, phi, t, K, envelope, ratio)
    theta, phi, t, kval, env, ratio = scan.rows[0]
    assert ratio == pytest.approx(kval / env, rel=1e-12)
    assert gaussian_factor(theta - phi, scan.c1, t) > 0.0


@pytest.mark.parametrize("call", (3, 7))
def test_bound_scan_fails_on_a_nan_cell_in_one_slice(call, monkeypatch):
    # one NaN cell in one scan slice (call 3 a small-t slice, call 7 a t > T
    # one) leaves NaN extremes, so the two-sided certificate fails by name
    grid, calls = HeatKernel.grid, []

    def nan_once(self, rhos, sigmas, t, n_terms=None):
        out = grid(self, rhos, sigmas, t, n_terms)
        calls.append(t)
        if len(calls) == call:
            out = out.copy()
            out[0, 0] = math.nan
        return out

    monkeypatch.setattr(HeatKernel, "grid", nan_once)
    _, check = checks.kernel_bound_scan(HeatKernel(1.0, 0.5), T=1.0, n_angle=9, n_time=5)
    assert len(calls) == 9
    assert check.name == "bound_two_sided_on_grid" and not check.passed
    assert "nan" in check.detail


def test_grid_matches_pointwise(kernel):
    # every cell is `value`'s float, also where the kept tables were rebuilt
    # (falling t) or sliced (rising t)
    rhos = np.array([0.1, 0.37, 0.6, 0.93])
    sigmas = np.array([0.02, 0.25, 0.5, 0.9])
    for t in (0.07, 5e-3, 0.2):
        grid = kernel.grid(rhos, sigmas, t)
        for i, r in enumerate(rhos):
            for j, s in enumerate(sigmas):
                assert grid[i, j] == kernel.value(float(r), float(s), t).value


def pointwise_bound_scan(kernel, T=1.0, c1=3.8, c2=4.25, n_angle=13, n_time=8, t_min=0.05):
    """(rows, min_ratio, max_ratio, n_points, n_unresolved) point by point: the reference."""
    a, b = kernel.alpha, kernel.beta
    thetas = np.linspace(0.0, math.pi, n_angle)
    phis = np.linspace(0.0, math.pi, n_angle)
    sigmas = np.cos(thetas / 2.0) ** 2
    rhos = np.cos(phis / 2.0) ** 2
    min_ratio = {c1: math.inf, c2: math.inf}
    max_ratio = {c1: -math.inf, c2: -math.inf}
    rows = []
    n_points = n_unresolved = 0
    for t in np.geomspace(t_min, T, n_time):
        n_terms, _ = kernel.truncation_index(float(t))
        floor = kernel.cancellation_floor(float(t), n_terms)
        kgrid = kernel.grid(rhos, sigmas, float(t), n_terms=n_terms)
        for i, phi in enumerate(phis):
            for j, theta in enumerate(thetas):
                k = kgrid[i, j]
                n_points += 1
                if abs(k) <= floor:
                    n_unresolved += 1
                    continue
                for c in (c1, c2):
                    env = lambda_envelope(theta, phi, float(t), a, b) * gaussian_factor(
                        theta - phi, c, float(t)
                    )
                    ratio = k / env
                    min_ratio[c] = min(min_ratio[c], ratio)
                    max_ratio[c] = max(max_ratio[c], ratio)
                    if c == c1:
                        rows.append((theta, phi, float(t), k, env, ratio))
    return rows, min_ratio, max_ratio, n_points, n_unresolved


def within_ulps(got, want, n=4):
    return abs(got - want) <= n * math.ulp(want)


KAPPA_03 = jacobi_params(leg_weight(2, 0.3), 0.3)  # the theta2 pair at kappa = 0.3


@pytest.mark.parametrize(
    "alpha, beta",
    [(1.0, 1.0 / 3.0), (1.0 / 3.0, 1.0 / 3.0), (KAPPA_03.alpha, KAPPA_03.beta)],
    ids=("kappa6", "a1/3-b1/3", "kappa0.3"),
)
def test_bound_scan_matches_pointwise_reference(alpha, beta):
    # the angle grid, times and K are the reference's bit for bit; the
    # envelope's exp runs on arrays, so envelope and ratio may move by an ulp or so
    kernel = HeatKernel(alpha, beta)
    scan = bound_ratio_scan(kernel)
    rows, min_ratio, max_ratio, n_points, n_unresolved = pointwise_bound_scan(kernel)
    assert (scan.n_points, scan.n_unresolved) == (n_points, n_unresolved)
    assert 0 < len(scan.rows) == len(rows)
    for got, want in zip(scan.rows, rows):
        assert [x.hex() for x in got[:4]] == [float(x).hex() for x in want[:4]]
        assert within_ulps(got[4], want[4]) and within_ulps(got[5], want[5])
    for c in (scan.c1, scan.c2):
        assert within_ulps(scan.min_ratio[c], min_ratio[c])
        assert within_ulps(scan.max_ratio[c], max_ratio[c])


@functools.cache
def pair_rule(pair):
    return gauss_jacobi_rule(120, JacobiBasis(*pair))


@settings(max_examples=40, deadline=None)
@given(pair=st.sampled_from(PARAMS), rho=st.floats(0.0, 1.0), t=st.floats(1e-3, 2.0),
       n_rows=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_a_stack_of_rows_projects_as_each_row_alone_bit_for_bit(pair, rho, t, n_rows, seed):
    rule = pair_rule(pair)
    rows = np.random.default_rng(seed).standard_normal((n_rows, rule.nodes.size))
    kernel, calls = HeatKernel(*pair), []
    grid = kernel.grid
    kernel.grid = lambda *args: calls.append(args) or grid(*args)
    got = kernel.reproducing_integral(rho, t, rows, rule)
    assert len(calls) == 1  # one kernel row serves every row
    alone = [HeatKernel(*pair).reproducing_integral(rho, t, row, rule) for row in rows]
    kvals = HeatKernel(*pair).grid([rho], rule.nodes, t)[0]
    direct = [float(np.dot(rule.weights, kvals * row)) for row in rows]
    assert [v.hex() for v in got] == [v.hex() for v in alone] == [v.hex() for v in direct]
    assert isinstance(alone[0], float)


@pytest.mark.parametrize("values", (1.0, np.ones(119), np.ones((2, 2, 120))),
                         ids=("scalar", "short-row", "3-d"))
def test_reproducing_integral_refuses_values_off_the_nodes(values):
    k = HeatKernel(1.0, 0.5)
    with pytest.raises(DomainError, match="node values"):
        k.reproducing_integral(0.3, 0.1, values, unit_rule(k))


# -- kept Jacobi tables ------------------------------------------------------


@pytest.mark.parametrize("size", (3, NARROW, NARROW + 1, 120))
def test_shorter_eval_table_is_a_row_slice_of_a_longer_one(size, rng):
    # a kept table serves fewer degrees by a prefix of its degrees: on both routes (per-point
    # floats up to NARROW points, arrays above) a row does not depend on n_max
    y = rng.uniform(-1.0, 1.0, size=size)
    longest = JacobiBasis(0.5, 1.4).eval_table(300, y)
    for n_max in (1, 2, 40, 300):
        assert JacobiBasis(0.5, 1.4).eval_table(n_max, y).tobytes() == longest[:n_max + 1].tobytes()


def _count_tables(monkeypatch, basis, size=None) -> list:
    """The degree counts of the tables `basis` builds, at `size` points if given."""
    built = []
    original = JacobiBasis.eval_table

    def spied(self, n_max, y):
        if self is basis and size in (None, np.size(y)):
            built.append(n_max + 1)
        return original(self, n_max, y)

    monkeypatch.setattr(JacobiBasis, "eval_table", spied)
    return built


def test_grid_at_falling_then_rising_t_is_a_fresh_kernels_grid(kernel, monkeypatch):
    # falling t needs more degrees, which rebuilds the kept tables; rising t
    # reads a prefix of each row.  Every grid is byte for byte a fresh kernel's
    built = _count_tables(monkeypatch, kernel.basis)
    nodes = unit_rule(kernel).nodes
    rhos = np.array([0.1, 0.37, 0.9])
    for t in (0.5, 0.05, 5e-3, 1e-3, 0.01, 0.2, 2.0):
        for x, y in ((rhos, nodes), (nodes[:NARROW], nodes[:NARROW]), (rhos, rhos)):
            fresh = HeatKernel(kernel.alpha, kernel.beta).grid(x, y, t)
            assert kernel.grid(x, y, t).tobytes() == fresh.tobytes()
    # the three point sets are each built at the first t and rebuilt at each falling t
    assert len(built) == 3 * 4


def test_per_cell_times_are_value_bit_for_bit_after_a_slice_and_a_rebuild(kernel, monkeypatch):
    # each sigma recurs at two times, and the cells read the table of the three
    # distinct sigmas, out of order here
    built = _count_tables(monkeypatch, kernel.basis, size=3)
    rho = 0.4
    points = [(s, t) for s in (0.35, 0.2, 0.61) for t in (0.02, 0.05)]
    sigmas, times = np.array(points).T
    for n_terms in (8, 40, 25, 90):  # builds, rebuilds, slices, rebuilds
        got = kernel.grid([rho], sigmas, times[None], n_terms)[0].tolist()
        want = [kernel.value(rho, s, t, n_terms=n_terms).value for s, t in points]
        assert [v.hex() for v in got] == [v.hex() for v in want]
    assert built == [8, 40, 90]


def test_per_cell_times_refuse_the_first_bad_time_in_cell_order_and_need_n_terms():
    k = HeatKernel(1.0, 1.0 / 3.0)
    times = np.array([[0.1, 0.2, -1.0], [math.nan, 0.0, 0.3]])
    with pytest.raises(DomainError, match=r"^kernel time must be finite and positive, got -1.0$"):
        k.grid([0.3, 0.5], [0.2, 0.4, 0.6], times, 10)
    # a column of times broadcasts along each row, so the second row's first cell is the bad one
    with pytest.raises(DomainError, match=r"^kernel time must be finite and positive, got inf$"):
        k.grid([0.3, 0.5], [0.2, 0.4], np.array([[0.1], [math.inf]]), 10)
    for t in ([0.1], np.array([[0.1, 0.2]])):
        with pytest.raises(DomainError, match=r"^per-cell kernel times need n_terms$"):
            k.grid([0.3], [0.4, 0.6], t)


def test_columns_grow_after_sum_read_them(kernel):
    # `_sum` divides by a view of the norm column, and an `array` that is
    # viewed cannot grow (BufferError): after each sum the next, smaller t
    # grows every column, and each value is bit for bit a fresh kernel's
    rho, sigmas = 0.35, np.array([0.1, 0.6, 0.92])
    lengths = []
    for t in (0.05, 0.5, 2.0, 0.2, 0.01, 2e-3, 4e-4):
        n_terms, _ = kernel.truncation_index(t)
        fresh = HeatKernel(kernel.alpha, kernel.beta)
        got = [kernel.value(rho, 0.6, t).value,
               *kernel.grid([rho], sigmas, np.full((1, 3), t), n_terms).ravel().tolist(),
               *kernel.grid([rho], sigmas, t).ravel().tolist()]
        want = [fresh.value(rho, 0.6, t).value,
                *fresh.grid([rho], sigmas, np.full((1, 3), t), n_terms).ravel().tolist(),
                *fresh.grid([rho], sigmas, t).ravel().tolist()]
        assert [v.hex() for v in got] == [v.hex() for v in want], t
        lengths.append((len(kernel._nrm), len(kernel._shrink)))
    assert lengths[-1][0] > lengths[3][0] and lengths[-1][1] > lengths[3][1]


def test_kept_tables_are_point_major_and_serve_fewer_terms_by_a_prefix(kernel, monkeypatch):
    # one contiguous row of degrees per point; a grid that needs fewer terms reads
    # a prefix of each row, bit for bit a fresh kernel's grid
    built = _count_tables(monkeypatch, kernel.basis)
    rhos, sigmas = np.array([0.2, 0.7]), np.linspace(0.05, 0.95, NARROW + 6)
    kernel.grid(rhos, sigmas, 1e-3)
    n_terms = kernel.truncation_index(1e-3)[0]
    assert [(t.shape, t.flags.c_contiguous) for t in kernel._tables.values()] == [
        ((2, n_terms), True), ((NARROW + 6, n_terms), True)]
    for t in (1e-2, 0.3):
        fresh = HeatKernel(kernel.alpha, kernel.beta).grid(rhos, sigmas, t)
        assert kernel.grid(rhos, sigmas, t).tobytes() == fresh.tobytes()
    assert built == [n_terms, n_terms]


def test_kernel_keeps_a_bounded_number_of_tables(rng):
    k = HeatKernel(1.0, 1.0 / 3.0)
    for rho, sigma in rng.uniform(0.01, 0.99, size=(1000, 2)):
        k.value(rho, sigma, 0.05)
    assert k._tables == {}  # the pointwise route neither reads nor fills them
    for m in range(TABLES_KEPT + 3):
        k.grid([0.5], np.linspace(0.1, 0.9, 30 + m), 0.05)
        assert len(k._tables) <= TABLES_KEPT
    assert len(k._tables) == TABLES_KEPT
