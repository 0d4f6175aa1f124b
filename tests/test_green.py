import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullstate import (
    DomainError,
    HeatKernel,
    OneIntervalGreen,
    PreconditionError,
    TwoIntervalGreen,
    collapse_time,
    delta_plus,
    eigenvalue,
    findiff,
    jacobi_params,
    kpz,
    leg_weight,
)
from nullstate import checks
from nullstate.green import STEP_LADDER, AdjointResidual
from nullstate.jacobi import JacobiBasis
from conftest import KAPPA_GRID


def test_j_spot_value():
    g = OneIntervalGreen(weight=leg_weight(1, 6.0), kappa=6.0)
    assert g.value(0.5, 1.0) == pytest.approx(2.0 * (1.0 - 2.0 ** (-1.0 / 3.0)), rel=1e-14)


def test_j_zero_at_coincidence_and_causality():
    g = OneIntervalGreen(weight=leg_weight(2, 4.0), kappa=4.0)
    assert g.value(1.0, 1.0) == 0.0
    assert g.value(2.0, 1.0) == 0.0


@pytest.mark.parametrize(
    "delta, eta",
    [(math.nan, 1.0), (0.5, math.nan), (0.5, math.inf), (math.inf, 1.0), (0.0, 1.0), (0.5, -1.0)],
)
def test_j_refuses_lengths_not_finite_and_positive(delta, eta):
    g = OneIntervalGreen(weight=leg_weight(1, 6.0), kappa=6.0)
    with pytest.raises(DomainError, match="interval lengths must be finite and positive"):
        g.value(delta, eta)


@settings(max_examples=100, deadline=None)
@given(
    kappa=st.floats(min_value=0.5, max_value=7.8),
    delta=st.floats(min_value=1e-6, max_value=5.0),
    eta=st.floats(min_value=1e-6, max_value=5.0),
)
def test_j_nonnegative(kappa, delta, eta):
    g = OneIntervalGreen(weight=leg_weight(1, kappa), kappa=kappa)
    assert g.value(delta, eta) >= 0.0


@pytest.mark.parametrize("kappa", (10.0 / 3.0, 6.0, 0.5, 7.9))
def test_coincidence_slope(kappa):
    g = OneIntervalGreen(weight=leg_weight(1, kappa), kappa=kappa)
    for eta in (0.3, 1.0, 2.0):
        assert g.slope(eta * (1.0 - 1e-14), eta) == pytest.approx(-4.0 / kappa, rel=1e-10)
        assert abs(g.coincidence_slope_fd(eta) - (-4.0 / kappa)) <= 1e-8


def test_euler_coefficient_identity():
    # kappa/4 * gap(gap-1) + (kappa dm/2 + 1) gap = 0, by Vieta on the exponents
    for kappa in (0.5, 2.0, 10.0 / 3.0, 6.0, 7.9):
        for s in (1, 2):
            pair = kpz(leg_weight(s, kappa), kappa)
            g = pair.gap
            val = kappa / 4.0 * g * (g - 1.0) + (kappa * pair.delta_minus / 2.0 + 1.0) * g
            assert abs(val) <= 1e-11


@pytest.mark.parametrize("kappa", (10.0 / 3.0, 6.0))
@pytest.mark.parametrize("s", (1, 2))
def test_j_annihilation(kappa, s):
    g = OneIntervalGreen(weight=leg_weight(s, kappa), kappa=kappa)
    for eta in (0.7, 1.3):
        deltas = np.linspace(0.05, 0.95, 12) * eta
        assert g.annihilation_residual(eta, deltas) <= 1e-9
        assert g.annihilation_residual(eta, deltas, method="fd") <= 1e-9


def test_j_annihilation_rejects_bad_grid():
    g = OneIntervalGreen(weight=leg_weight(1, 4.0), kappa=4.0)
    with pytest.raises(PreconditionError):
        g.annihilation_residual(1.0, [0.5, 1.5])


@pytest.fixture(params=[(6.0, 2), (10.0 / 3.0, 2), (16.0 / 3.0, 3)],
                ids=lambda p: f"k{p[0]:g}-s{p[1]}")
def green(request):
    kappa, s = request.param
    return TwoIntervalGreen(h=leg_weight(s, kappa), kappa=kappa)


def test_g_causality_exact(green):
    assert green.value(0.3, 1.0, 0.6, 0.5) == 0.0
    assert green.value(0.3, 1.0, 0.6, 1.0) == 0.0


def test_g_domain_errors(green):
    with pytest.raises(DomainError):
        green.value(0.0, 1.0, 0.5, 2.0)
    with pytest.raises(DomainError):
        green.value(0.5, -1.0, 0.5, 2.0)


def test_g_refuses_overflowing_collapse_time(green):
    # eta/epsilon overflows to inf, so the kernel time is inf: refused, not NaN
    with pytest.raises(DomainError, match="kernel time must be finite and positive"):
        green.value(0.3, 5e-324, 0.4, 1.0)


def test_series_vs_factored(green):
    for pt in [(0.3, 0.5, 0.6, 1.0), (0.5, 0.2, 0.5, 0.5), (0.8, 1.0, 0.25, 3.0)]:
        a = green.value(*pt)
        b = green.value_series(*pt)
        assert abs(a - b) <= 1e-10 * abs(a)


@pytest.mark.parametrize("kappa, s", [(6.0, 2), (10.0 / 3.0, 3), (2.0, 2)])
def test_factored_value_reads_the_written_out_prefactor(kappa, s):
    # `value` reads `_prefactor`; here it is written out from the exponents
    h = leg_weight(s, kappa)
    p = jacobi_params(h, kappa)
    dp1, dph = delta_plus(leg_weight(1, kappa), kappa), delta_plus(h, kappa)
    lam0 = eigenvalue(0, h, kappa)
    g = TwoIntervalGreen(h=h, kappa=kappa)
    kernel = HeatKernel(p.alpha, p.beta)
    for rho, eps, sigma, eta in ((0.3, 0.5, 0.6, 1.0), (0.5, 0.2, 0.05, 0.5),
                                 (0.8, 1.0, 0.25, 3.0), (0.1, 0.4, 0.93, 0.9)):
        prefactor = (sigma ** (p.beta + 1.0) * (1.0 - sigma) ** (p.alpha + 1.0)
                     * (rho / sigma) ** dp1 * ((1.0 - rho) / (1.0 - sigma)) ** dph)
        k = kernel.value(rho, sigma, collapse_time(eps, eta, kappa)).value
        want = prefactor * -eta * (eps / eta) ** lam0 * k
        assert g.value(rho, eps, sigma, eta) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_adjoint_residual_homogeneous(green):
    worst = 0.0
    for sigma in np.linspace(0.2, 0.8, 5):
        for ratio in (1.5, 2.5, 4.0):
            rep = green.adjoint_residual(0.4, 0.5, float(sigma), 0.5 * ratio)
            worst = max(worst, rep.relative)
    assert worst <= 1e-4


def _spy(monkeypatch, cls, name, calls):
    """Record the arguments of every call to cls.name in calls."""
    original = getattr(cls, name)

    def spied(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, spied)


def test_adjoint_residual_sample_count(green, monkeypatch):
    # seven samples in sigma give g0 and both refined sigma derivatives; the
    # eta derivative takes six wing samples, the step-h/2 stencil sharing
    # its outer points eta -+ h with the step-h one.  All 13 come from one
    # `grid` call, which reads one Jacobi table over rho and one over the
    # seven sigmas, none through `value`
    calls = {"value": [], "eval_table": [], "grid": []}
    _spy(monkeypatch, TwoIntervalGreen, "value", calls["value"])
    _spy(monkeypatch, JacobiBasis, "eval_table", calls["eval_table"])
    _spy(monkeypatch, HeatKernel, "grid", calls["grid"])
    green.adjoint_residual(0.4, 0.5, 0.5, 1.25)
    assert calls["value"] == []
    [(_, y_rho), (_, y)] = calls["eval_table"]
    assert y_rho.tolist() == [2.0 * 0.4 - 1.0] and len(y) == 7
    [(rhos, sigmas, times, _)] = calls["grid"]
    points = list(zip(sigmas.tolist(), np.ravel(times).tolist()))
    centre_t = green.time(0.5, 1.25)
    assert rhos == [0.4] and len(points) == 13
    assert sum(t == centre_t for _, t in points) == 7
    assert sum(sigma == 0.5 and t != centre_t for sigma, t in points) == 6


def test_adjoint_residual_sigma_stencil_leaving_domain(green, monkeypatch):
    # the sigma step is at most a tenth of the distance to the nearer endpoint,
    # so a sigma next to 0 or 1 keeps every stencil sample inside (0, 1); a
    # sigma outside is refused
    tables = []
    _spy(monkeypatch, JacobiBasis, "eval_table", tables)
    for sigma in (1e-3, 1.0 - 1e-3):
        assert math.isfinite(green.adjoint_residual(0.4, 0.5, sigma, 1.25).residual)
    # rho's table, kept for the second sigma, then each sigma's stencil
    assert len(tables) == 3 and tables[0][1].tolist() == [2.0 * 0.4 - 1.0]
    sigmas = [(y + 1.0) / 2.0 for _, ys in tables[1:] for y in ys]
    assert len(sigmas) == 14 and all(0.0 < s < 1.0 for s in sigmas)
    for sigma in (0.0, 1.0, 1.2):
        with pytest.raises(DomainError, match="rho and sigma must lie in"):
            green.adjoint_residual(0.4, 0.5, sigma, 1.25)


def pointwise_adjoint_residual(g, rho, epsilon, sigma, eta):
    """(residual, scale, relative) from 13 separate samples of `value`'s factored form."""
    sigma_step = min(1e-3, min(sigma, 1.0 - sigma) / 10.0)
    eta_step = 1e-3 * eta
    n_terms, _ = g.kernel.truncation_index(g.time(epsilon, eta - 2.0 * eta_step))

    def stencils(f, x, h):
        coarse = f(x - 2 * h), f(x - h), f(x + h), f(x + 2 * h)
        return coarse, (coarse[1], f(x - h / 2.0), f(x + h / 2.0), coarse[2])

    def refined_d1(coarse, fine, h):
        return findiff.richardson(findiff.first(coarse, h), findiff.first(fine, h / 2.0), 4)

    def g_at(s, e):  # `value`'s factored form with the stencil's one n_terms
        k = g.kernel.value(rho, s, g.time(epsilon, e), n_terms=n_terms).value
        return -g._prefactor(rho, s) * e * (epsilon / e) ** g.lambda0 * k

    def g_of_sigma(s):
        return g_at(s, eta)

    def g_of_eta(e):
        return g_at(sigma, e)

    g0 = g_of_sigma(sigma)
    coarse, fine = stencils(g_of_sigma, sigma, sigma_step)
    g1 = refined_d1(coarse, fine, sigma_step)
    g2 = findiff.richardson(findiff.second(g0, coarse, sigma_step),
                            findiff.second(g0, fine, sigma_step / 2.0), 4)
    deta = refined_d1(*stencils(g_of_eta, eta, eta_step), eta_step)
    terms = g.sigma_operator_terms(g0, g1, g2, sigma)
    terms.append(-eta * deta / (sigma * (1.0 - sigma)))
    total = 0.0
    for term in terms:  # left to right (from Python 3.12, sum() of floats compensates)
        total += term
    residual = total / eta**2
    scale = max(max(abs(x) for x in terms), 1e-300) / eta**2
    return residual, scale, abs(residual) / scale


@pytest.mark.parametrize("kappa", KAPPA_GRID)
@pytest.mark.parametrize("s", (2, 3))
def test_adjoint_residual_matches_pointwise_reference(kappa, s):
    # the one-table samples keep each point's arithmetic, so the residual
    # is the 13-call reference's bit for bit
    g = TwoIntervalGreen(h=leg_weight(s, kappa), kappa=kappa)
    for sigma, ratio in ((1e-3, 2.5), (0.2, 1.5), (0.5, 4.0), (0.8, 2.5), (1.0 - 1e-3, 1.5)):
        rep = g.adjoint_residual(0.4, 0.5, sigma, 0.5 * ratio)
        got = (rep.residual, rep.scale, rep.relative)
        want = pointwise_adjoint_residual(g, 0.4, 0.5, sigma, 0.5 * ratio)
        assert [x.hex() for x in got] == [x.hex() for x in want]


# (sigmas, ratios eta/epsilon): the CLI's default grid, the green suite's, and one
# with sigma next to both endpoints and two etas, 4.0 and 4.01, that share an n_terms
SCAN_GRIDS = {
    "cli": (np.linspace(0.2, 0.8, 5), np.geomspace(1.5, 4.0, 4)),
    "suite": (np.linspace(0.2, 0.8, 5), (1.5, 2.5, 4.0)),
    "edges": ((1e-3, 0.5, 1.0 - 1e-3), (1.5, 4.0, 4.01)),
}


@pytest.mark.parametrize("kappa", KAPPA_GRID)
@pytest.mark.parametrize("s", (2, 3))
def test_adjoint_scan_matches_pointwise_reference(kappa, s):
    # one batched call per scan; every row is the 13-call reference's bit for bit
    g = TwoIntervalGreen(h=leg_weight(s, kappa), kappa=kappa)
    for sigmas, ratios in SCAN_GRIDS.values():
        rows, check = checks.adjoint_scan(g, 0.4, 0.5, sigmas, ratios, tol=1e-4)
        want = [pointwise_adjoint_residual(g, 0.4, 0.5, float(sigma), 0.5 * float(ratio))
                for sigma in sigmas for ratio in ratios]
        assert [(r[4].hex(), r[5].hex()) for r in rows] == [
            (w[0].hex(), w[1].hex()) for w in want]
        assert check.value == max(w[2] for w in want)
    etas = 0.5 * np.array(SCAN_GRIDS["edges"][1])
    n_terms = {g.kernel.truncation_index(g.time(0.5, e - 2.0 * (1e-3 * e)))[0] for e in etas}
    assert len(n_terms) < len(etas)  # the edge grid does share an n_terms


@pytest.mark.parametrize("grid", SCAN_GRIDS)
def test_adjoint_scan_truncates_once_per_eta_and_reads_one_table(grid, monkeypatch):
    calls = {"truncation_index": [], "grid": [], "eval_table": [], "value": [], "batch": []}
    _spy(monkeypatch, TwoIntervalGreen, "adjoint_residual", calls["batch"])
    _spy(monkeypatch, HeatKernel, "truncation_index", calls["truncation_index"])
    _spy(monkeypatch, HeatKernel, "grid", calls["grid"])
    _spy(monkeypatch, JacobiBasis, "eval_table", calls["eval_table"])
    _spy(monkeypatch, TwoIntervalGreen, "value", calls["value"])
    g = TwoIntervalGreen(h=leg_weight(2, 6.0), kappa=6.0)
    sigmas, ratios = SCAN_GRIDS[grid]
    rows, _ = checks.adjoint_scan(g, 0.4, 0.5, sigmas, ratios, tol=1e-4)
    [(_, _, batch_sigma, batch_eta)] = calls["batch"]  # the whole scan is one call
    assert len(batch_sigma) == len(batch_eta) == len(rows)
    assert len(calls["truncation_index"]) == len(ratios)
    n_terms = [n for _, _, _, n in calls["grid"]]
    assert len(n_terms) == len(set(n_terms)) and n_terms == sorted(n_terms, reverse=True)
    assert sum(len(samples) for _, samples, _, _ in calls["grid"]) == (
        13 * len(sigmas) * len(ratios))
    # one table over rho and one over every stencil sigma, each built at the largest n_terms
    [(n_rho, y_rho), (n_max, y)] = calls["eval_table"]
    assert n_rho == n_max == n_terms[0] - 1
    assert y_rho.tolist() == [2.0 * 0.4 - 1.0] and len(y) == 7 * len(sigmas)
    assert calls["value"] == []


def test_adjoint_residual_of_sequences_is_the_list_of_its_points():
    g = TwoIntervalGreen(h=leg_weight(3, 10.0 / 3.0), kappa=10.0 / 3.0)
    sigmas, etas = [0.3, 0.3, 0.7, 1e-3], [1.0, 1.6, 1.0, 0.9]
    one_by_one = [g.adjoint_residual(0.4, 0.5, s, e) for s, e in zip(sigmas, etas)]
    assert all(isinstance(rep, AdjointResidual) for rep in one_by_one)
    assert g.adjoint_residual(0.4, 0.5, sigmas, etas) == one_by_one
    assert g.adjoint_residual(0.4, 0.5, np.array(sigmas[:2]), 1.0) == one_by_one[:1] * 2
    assert g.adjoint_residual(0.4, 0.5, [], []) == []


@pytest.mark.parametrize("bad, error, message", (
    ((0.5, 0.5), PreconditionError, "needs eta > epsilon"),
    ((0.5, 0.5 * (1.0 + 1e-3)), PreconditionError, "would cross the source"),
    ((0.0, 1.0), DomainError, "rho and sigma must lie in"),
    ((1.0, 1.0), DomainError, "rho and sigma must lie in"),
    ((1.2, 1.0), DomainError, "rho and sigma must lie in"),
    ((math.nan, 1.0), DomainError, "rho and sigma must lie in"),
))
def test_adjoint_residual_refuses_the_first_bad_point_of_a_batch(bad, error, message):
    g = TwoIntervalGreen(h=leg_weight(2, 6.0), kappa=6.0)
    good = [(0.3, 1.0), (0.6, 2.0)]
    with pytest.raises(error, match=message):
        g.adjoint_residual(0.4, 0.5, *bad)
    for points in (good + [bad], [bad] + good, good + [bad, (0.5, 0.4)]):
        with pytest.raises(error, match=message):
            g.adjoint_residual(0.4, 0.5, *zip(*points))


@pytest.mark.parametrize("epsilon, eta", ((1e200, 2e200), (1e-300, 2e-300)))
def test_adjoint_residual_refuses_an_eta_whose_square_leaves_the_floats(epsilon, eta):
    g = TwoIntervalGreen(h=leg_weight(2, 6.0), kappa=6.0)
    for sigma, etas in ((0.5, [eta]), ([0.5, 0.3], [eta, 1.5 * eta])):
        with pytest.raises(DomainError, match=r"eta\*\*2 must be finite and positive"):
            g.adjoint_residual(0.4, epsilon, sigma, etas)


def test_j_annihilation_fd_sample_count(monkeypatch):
    # J is sampled twice, each time as one array: the grid itself (the centre
    # values, which also set the scale), then six refined samples per delta at
    # every step of the ladder
    value = OneIntervalGreen.value
    sizes = []

    def counted(self, delta, eta):
        sizes.append(np.size(delta))
        return value(self, delta, eta)

    monkeypatch.setattr(OneIntervalGreen, "value", counted)
    g = OneIntervalGreen(weight=leg_weight(1, 6.0), kappa=6.0)
    g.annihilation_residual(1.0, [0.3, 0.5, 0.7], method="fd")
    assert sizes == [3, 6 * len(STEP_LADDER) * 3]


@pytest.mark.parametrize("kappa", (0.3, *KAPPA_GRID))
def test_j_array_value_is_its_scalar_calls_bit_for_bit(kappa):
    g = OneIntervalGreen(weight=leg_weight(2, kappa), kappa=kappa)
    deltas = np.concatenate([np.geomspace(1e-9, 0.9999, 61), [0.95, 1.0, 1.7]])
    for eta in (0.7, 1.0):
        got = g.value(deltas * eta, eta).tolist()
        assert [x.hex() for x in got] == [g.value(float(d), eta).hex() for d in deltas * eta]
        block = g.value(np.reshape(deltas[:60] * eta, (3, 4, 5)), eta)
        assert block.ravel().tolist() == got[:60]


def test_j_fd_residual_where_the_step_cap_binds():
    # kappa = 0.3, h = theta_2 has gap 39.  At delta = 0.95 eta the cap (eta - delta)/8
    # binds, and the former fixed step 5e-3 delta read 4.9e-9 here
    g = OneIntervalGreen(weight=leg_weight(2, 0.3), kappa=0.3)
    assert g.annihilation_residual(1.0, [0.95], method="fd") <= 1e-9
    assert g.annihilation_residual(1.0, np.linspace(0.05, 0.95, 10), method="fd") <= 1e-9


def test_value_series_reads_one_table(green, monkeypatch):
    counts = {"eval": 0, "eval_table": 0}
    for name in counts:
        original = getattr(JacobiBasis, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(JacobiBasis, name, counted)
    green.value_series(0.3, 0.5, 0.6, 1.0)
    assert counts == {"eval": 0, "eval_table": 1}


def _value_series_running_sum(g, rho, epsilon, sigma, eta):
    """`value_series` mode by mode with a running float total, the order it keeps."""
    n_terms, _ = g.kernel.truncation_index(g.time(epsilon, eta))
    basis = g.kernel.basis
    table = basis.eval_table(n_terms - 1, [2.0 * rho - 1.0, 2.0 * sigma - 1.0])
    total = 0.0
    for n, (p_rho, p_sigma) in enumerate(table.tolist()):
        lam = eigenvalue(n, g.h, g.kappa)
        total += (epsilon / eta) ** lam * p_rho * p_sigma / basis.shifted_norm_sq(n)
    prefactor = (sigma ** (g.beta + 1.0) * (1.0 - sigma) ** (g.alpha + 1.0)
                 * (rho / sigma) ** g.dp_1 * ((1.0 - rho) / (1.0 - sigma)) ** g.dp_h)
    return -prefactor * eta * total


@pytest.mark.parametrize("kappa", (0.3, *KAPPA_GRID, 7.99))
@pytest.mark.parametrize("s", (2, 3))
def test_value_series_is_the_running_sum_bit_for_bit(kappa, s):
    g = TwoIntervalGreen(h=leg_weight(s, kappa), kappa=kappa)
    for pt in ((0.3, 0.5, 0.6, 1.0), (0.5, 0.2, 0.5, 0.5), (0.8, 1.0, 0.25, 3.0),
               (0.4, 0.5, 1e-3, 0.51), (0.9, 0.3, 1.0 - 1e-3, 0.7)):
        assert g.value_series(*pt).hex() == _value_series_running_sum(g, *pt).hex()


def test_adjoint_requires_homogeneous_region(green):
    with pytest.raises(PreconditionError):
        green.adjoint_residual(0.4, 1.0, 0.5, 0.8)


def test_sigma_mode_residual(green):
    sigmas = np.linspace(0.08, 0.92, 11)
    for n in (0, 1, 2, 5, 8):
        assert green.mode_residual(n, sigmas) <= 1e-6


def test_mode_jet_derivatives_match_fd(green):
    def value(sigma):
        return green._mode_jet(3, sigma)[0]

    h = 1e-6
    for sigma in (0.3, 0.55, 0.8):
        v, d1, d2 = green._mode_jet(3, sigma)
        f = sigma**green.exp_left * (1.0 - sigma) ** green.exp_right
        assert v == pytest.approx(f * green.kernel.basis.eval(3, 2.0 * sigma - 1.0), rel=1e-12)
        fd1 = (value(sigma + h) - value(sigma - h)) / (2 * h)
        assert d1 == pytest.approx(fd1, rel=1e-7, abs=1e-9)
        fd2 = (value(sigma + 1e-4) - 2.0 * v + value(sigma - 1e-4)) / 1e-8
        assert d2 == pytest.approx(fd2, rel=1e-5, abs=1e-6)


def test_boundary_exponents(green):
    left = green.boundary_exponent_fit("left", rho=0.4, epsilon=0.5, eta=1.0)
    right = green.boundary_exponent_fit("right", rho=0.4, epsilon=0.5, eta=1.0)
    assert abs(left - green.exp_left) <= 1e-2
    assert abs(right - green.exp_right) <= 1e-2


def test_boundary_exponent_fit_reads_one_grid_call(green, monkeypatch):
    # the seven samples share one time: one `HeatKernel.grid` call gives them,
    # none through `value`, and each equals `value` at its point bit for bit,
    # so the slope is the line fit of the pointwise samples exactly
    s = np.geomspace(1e-6, 1e-3, 7)
    for side, sigmas in (("left", s), ("right", 1.0 - s)):
        calls = {"value": [], "grid": []}
        with monkeypatch.context() as m:
            _spy(m, TwoIntervalGreen, "value", calls["value"])
            _spy(m, HeatKernel, "grid", calls["grid"])
            slope = green.boundary_exponent_fit(side, rho=0.4, epsilon=0.5, eta=1.0)
        assert calls["value"] == [] and len(calls["grid"]) == 1
        vals = np.abs([green.value(0.4, 0.5, sig, 1.0) for sig in sigmas.tolist()])
        assert slope == findiff.line_fit(np.log(s), np.log(vals))[1]


def test_reproducing_limit_pure_mode(green):
    # f with the exact boundary powers reduces to mass conservation, so the
    # value is (eps/eta)^lambda0 f(rho) at every eta
    f = lambda s: s**green.dp_1 * (1.0 - s) ** green.dp_h
    eps = 0.5
    etas = eps * np.exp(4.0 * np.array([0.3, 0.1, 0.03, 0.01]) / green.kappa)
    values = green.reproducing_limit(0.5, eps, f, etas)
    for value, eta in zip(values, etas):
        assert value == pytest.approx((eps / eta) ** green.lambda0 * f(0.5), abs=1e-9)
    assert np.all(np.diff(np.abs(values - f(0.5))) < 0.0)


def test_reproducing_limit_first_order_rate(green):
    f = lambda s: s ** (green.dp_1 + 1.0) * (1.0 - s) ** green.dp_h
    eps = 0.5
    ts = np.array([4e-2, 2e-2, 1e-2, 5e-3])
    etas = eps * np.exp(4.0 * ts / green.kappa)
    errs = np.abs(green.reproducing_limit(0.5, eps, f, etas) - f(0.5))
    # halving t roughly halves the error (first-order rate)
    rates = errs[:-1] / errs[1:]
    assert np.all(rates > 1.5)
    assert np.all(rates < 3.0)


def test_reproducing_limit_small_t_value():
    g = TwoIntervalGreen(h=leg_weight(2, 6.0), kappa=6.0)
    f = lambda s: s**g.dp_1 * (1.0 - s) ** g.dp_h
    eps = 0.5
    eta = eps * math.exp(4.0 * 1e-3 / 6.0)
    values = g.reproducing_limit(0.5, eps, f, [eta])
    assert abs(values[0] - f(0.5)) <= 1e-3


def test_reproducing_rejects_divergent_transform(green):
    with pytest.raises(PreconditionError):
        green.reproducing_limit(0.5, 0.5, lambda s: 1.0, [0.6])


def test_green_reads_the_kernel_it_is_given():
    kappa, h = 6.0, leg_weight(2, 6.0)
    params = jacobi_params(h, kappa)
    kernel = HeatKernel(params.alpha, params.beta)
    g = TwoIntervalGreen(h=h, kappa=kappa, kernel=kernel)
    assert g.kernel is kernel
    fresh = TwoIntervalGreen(h=h, kappa=kappa)
    assert g.value(0.3, 0.5, 0.6, 1.0) == fresh.value(0.3, 0.5, 0.6, 1.0)
    with pytest.raises(DomainError, match="heat kernel of"):
        TwoIntervalGreen(h=leg_weight(3, kappa), kappa=kappa, kernel=kernel)
    with pytest.raises(DomainError, match="heat kernel of"):
        TwoIntervalGreen(h=h, kappa=kappa, kernel=HeatKernel(params.alpha + 1e-6, params.beta))


def test_lambda0_override_breaks_agreement():
    kappa, h = 6.0, leg_weight(2, 6.0)
    lam0 = eigenvalue(0, h, kappa)
    g = TwoIntervalGreen(h=h, kappa=kappa, lambda0=lam0 + 1e-6)
    a = g.value(0.3, 0.5, 0.6, 1.0)
    b = g.value_series(0.3, 0.5, 0.6, 1.0)
    assert abs(a - b) > 1e-10 * abs(a)
