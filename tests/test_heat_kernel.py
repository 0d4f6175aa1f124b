import math

import numpy as np
import pytest

from nullstate import (
    DomainError,
    HeatKernel,
    TruncationError,
    TruncationPolicy,
    collapse_time,
    gauss_jacobi_rule,
)
from nullstate.heat_kernel import bound_ratio_scan, gaussian_factor, lambda_envelope
from nullstate.jacobi import log_beta

PARAMS = [(1.0 / 3.0, 1.0 / 3.0), (2.0, 1.0), (0.5, 1.4)]


@pytest.fixture(params=PARAMS, ids=lambda p: f"a{p[0]:g}-b{p[1]:g}")
def kernel(request):
    return HeatKernel(*request.param)


def unit_rule(kernel, m=120):
    return gauss_jacobi_rule(m, kernel.basis, domain="unit")


def test_domain_errors():
    k = HeatKernel(1.0, 1.0)
    with pytest.raises(DomainError):
        k.value(0.3, 0.4, 0.0)
    with pytest.raises(DomainError):
        k.value(0.3, 0.4, -1.0)
    with pytest.raises(DomainError):
        HeatKernel(-0.6, 1.0)


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


@pytest.mark.parametrize("alpha, beta", [(39.0, 25.7), (1.0, 1.0 / 3.0)])
def test_term_bound_reads_endpoint_max(alpha, beta):
    k = HeatKernel(alpha, beta)
    for t in (1e-4, 0.05):
        for n in range(1501):
            pbar = k.basis.endpoint_max(n)
            want = math.exp(-t * k.decay_rate(n)) * (pbar * pbar / k.basis.shifted_norm_sq(n))
            assert k.term_bound(n, t) == want


def test_fixed_truncation_without_geometric_tail_is_uncertified():
    # the tail ratio envelope at n = 5, t = 1e-4 exceeds 1: no tail is certified
    k = HeatKernel(1.0, 1.0 / 3.0)
    assert k.value(0.3, 0.8, 1e-4, n_terms=5).tail_bound == math.inf


def test_long_time_limit(kernel):
    limit = 1.0 / math.exp(log_beta(kernel.beta + 1.0, kernel.alpha + 1.0))
    got = kernel.value(0.25, 0.85, 60.0).value
    assert got == pytest.approx(limit, rel=1e-12)


@pytest.mark.parametrize("t", (1e-3, 1e-2, 0.1, 1.0, 10.0))
def test_mass_conservation(kernel, t):
    rule = unit_rule(kernel)
    for rho in (0.0, 0.31, 1.0):
        mass = kernel.reproducing_integral(rho, t, lambda s: 1.0, rule)
        assert abs(mass - 1.0) <= 1e-9


def test_symmetry(kernel, rng):
    for rho, sigma in rng.uniform(0.02, 0.98, size=(8, 2)):
        n_terms, _ = kernel.truncation_index(0.05)
        a = kernel.value(rho, sigma, 0.05, n_terms=n_terms).value
        b = kernel.value(sigma, rho, 0.05, n_terms=n_terms).value
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_semigroup(kernel):
    rule = gauss_jacobi_rule(80, kernel.basis, domain="unit")
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
            got = kernel.mode_coefficient(rho, t, n, rule)
            want = math.exp(-t * kernel.decay_rate(n)) * kernel.basis.eval(n, 2 * rho - 1)
            assert abs(got - want) <= 1e-9


def test_single_mode_p1_closed_form():
    k = HeatKernel(0.8, 0.3)
    rule = unit_rule(k)
    t, rho = 0.2, 0.4
    got = k.reproducing_integral(rho, t, lambda s: k.basis.eval(1, 2 * s - 1), rule)
    want = math.exp(-t * (k.alpha + k.beta + 2.0)) * k.basis.eval(1, 2 * rho - 1)
    assert got == pytest.approx(want, abs=1e-12)


def test_reproducing_limit_quadratic():
    k = HeatKernel(1.0 / 3.0, 1.0 / 3.0)
    rule = unit_rule(k)
    f = lambda s: s * (1.0 - s)
    errs = [abs(k.reproducing_integral(0.5, t, f, rule) - 0.25) for t in (1e-1, 1e-2, 1e-3)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 2e-2


def test_collapse_time_map():
    assert collapse_time(0.5, 0.5 * math.e, 4.0) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(DomainError):
        collapse_time(0.0, 1.0, 4.0)


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


def test_grid_matches_pointwise(kernel):
    rhos = np.array([0.1, 0.6])
    sigmas = np.array([0.25, 0.9])
    t = 0.07
    n_terms, _ = kernel.truncation_index(t)
    grid = kernel.grid(rhos, sigmas, t, n_terms=n_terms)
    for i, r in enumerate(rhos):
        for j, s in enumerate(sigmas):
            assert grid[i, j] == pytest.approx(
                kernel.value(float(r), float(s), t, n_terms=n_terms).value, rel=1e-12
            )
