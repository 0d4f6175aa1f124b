import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullstate import (
    DomainError,
    delta_minus,
    delta_plus,
    eigenvalue,
    gap,
    jacobi_params,
    kpz,
    kpz_leg_identity_residual,
    leg_weight,
    weight_floor,
)
from conftest import KAPPA_GRID


def test_leg_weight_values():
    assert leg_weight(0, 3.7) == 0.0
    assert leg_weight(1, 6.0) == 0.0
    assert leg_weight(1, 4.0) == pytest.approx(0.25, abs=1e-15)
    assert leg_weight(2, 8.0 / 3.0) == pytest.approx(2.0, abs=1e-14)


def test_leg_weight_domain():
    with pytest.raises(DomainError):
        leg_weight(1, 9.0)
    with pytest.raises(DomainError):
        leg_weight(1, 0.0)
    with pytest.raises(DomainError):
        leg_weight(-1, 4.0)


def test_kpz_values():
    pair = kpz(leg_weight(1, 6.0), 6.0)
    assert pair.delta_plus == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert pair.delta_minus == pytest.approx(0.0, abs=1e-15)
    pair = kpz(0.0, 2.0)
    assert pair.delta_plus == pytest.approx(0.0, abs=1e-15)
    assert pair.delta_minus == pytest.approx(-1.0, abs=1e-15)
    # closed form 2s/kappa at s=2, kappa=4
    assert delta_plus(leg_weight(2, 4.0), 4.0) == pytest.approx(1.0, abs=1e-15)


def test_kpz_negative_discriminant():
    with pytest.raises(DomainError):
        kpz(weight_floor(3.0) - 0.01, 3.0)


@pytest.mark.parametrize("d", (math.nan, math.inf, -math.inf))
def test_kpz_refuses_a_non_finite_weight_by_name(d):
    with pytest.raises(DomainError, match=f"^conformal weight d must be finite, got {d!r}$"):
        kpz(d, 6.0)


def test_kpz_double_root_at_floor():
    pair = kpz(weight_floor(3.0), 3.0)
    assert pair.gap == 0.0
    assert pair.delta_plus == pair.delta_minus


@pytest.mark.parametrize("kappa", KAPPA_GRID)
@pytest.mark.parametrize("s", range(1, 11))
def test_leg_identity_grid(s, kappa):
    rp, rm = kpz_leg_identity_residual(s, kappa)
    assert abs(rp) <= 1e-12
    assert abs(rm) <= 1e-12
    pair = kpz(leg_weight(s, kappa), kappa)
    assert pair.delta_plus == pytest.approx(2.0 * s / kappa, abs=1e-12)
    assert pair.delta_minus == pytest.approx(1.0 - (2.0 * s + 4.0) / kappa, abs=1e-12)


def test_leg_identity_spot_values():
    assert kpz_leg_identity_residual(1, 6.0) == (0.0, 0.0)
    rp, rm = kpz_leg_identity_residual(3, 3.0)
    assert max(abs(rp), abs(rm)) <= 1e-12
    assert delta_plus(leg_weight(1, 4.0), 4.0) == pytest.approx(0.5, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    kappa=st.floats(min_value=0.05, max_value=7.95),
    d=st.floats(min_value=-0.2, max_value=40.0),
)
def test_vieta_identities(kappa, d):
    if d <= weight_floor(kappa):
        return
    pair = kpz(d, kappa)
    sum_ref = (kappa - 4.0) / kappa
    prod_ref = -4.0 * d / kappa
    vieta_sum = pair.delta_plus + pair.delta_minus
    assert vieta_sum == pytest.approx(sum_ref, abs=max(1e-12, 1e-14 * abs(sum_ref)))
    assert pair.vieta_product == pytest.approx(prod_ref, abs=max(1e-12, 1e-14 * abs(prod_ref)))
    assert pair.gap >= 0.0
    assert pair.delta_minus <= pair.delta_plus


def test_jacobi_params_values():
    p = jacobi_params(leg_weight(1, 6.0), 6.0)
    assert p.alpha == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert p.beta == pytest.approx(1.0 / 3.0, abs=1e-15)
    p = jacobi_params(leg_weight(2, 4.0), 4.0)
    assert p.alpha == pytest.approx(2.0, abs=1e-14)
    # gap(theta_1) = 8/kappa - 1 collapses to zero at the upper end
    assert gap(leg_weight(1, 7.999), 7.999) == pytest.approx(8.0 / 7.999 - 1.0, abs=1e-12)


def test_jacobi_params_rejects_inadmissible():
    with pytest.raises(DomainError):
        jacobi_params(weight_floor(3.0), 3.0)


@pytest.mark.parametrize("kappa", KAPPA_GRID)
def test_lambda0_identity(kappa):
    th1 = leg_weight(1, kappa)
    for s in range(1, 6):
        h = leg_weight(s, kappa)
        lam0 = eigenvalue(0, h, kappa)
        assert lam0 == pytest.approx(2.0 * delta_plus(h, kappa) + delta_plus(th1, kappa),
                                     abs=1e-12)


def test_lambda0_spot_value():
    assert eigenvalue(0, leg_weight(1, 6.0), 6.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("kappa", (2.0, 10.0 / 3.0, 4.0, 6.0))
@pytest.mark.parametrize("s", (1, 2, 3))
def test_eigenvalue_monotone(kappa, s):
    h = leg_weight(s, kappa)
    lams = [eigenvalue(n, h, kappa) for n in range(21)]
    assert all(b > a for a, b in zip(lams, lams[1:]))


def test_minus_two_theta1_is_delta_minus():
    for kappa in KAPPA_GRID:
        th1 = leg_weight(1, kappa)
        assert -2.0 * th1 == pytest.approx(delta_minus(th1, kappa), abs=1e-12)
