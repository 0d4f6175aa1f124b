"""Conformal weights, collapse exponents, and spectral scalars.

All quantities are closed-form functions of the SLE parameter kappa in (0, 8):
the s-leg boundary weights theta_s, the pair of indicial exponents
(delta_minus, delta_plus) governing interval collapse of a weight-d pair,
the exponent gap feeding the Jacobi parameters (alpha, beta), and the
eigenvalues lambda_n of the separated two-interval operator.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError

KAPPA_MIN = 0.0
KAPPA_MAX = 8.0


def check_kappa(kappa: float) -> float:
    if not KAPPA_MIN < kappa < KAPPA_MAX:
        raise DomainError(f"kappa must lie in (0, 8), got {kappa!r}")
    return float(kappa)


def weight_floor(kappa: float) -> float:
    """Smallest conformal weight with a real collapse exponent, -(kappa-4)^2/16kappa."""
    check_kappa(kappa)
    return -((kappa - 4.0) ** 2) / (16.0 * kappa)


def leg_weight(s: int, kappa: float) -> float:
    """Conformal weight theta_s = s(2s+4-kappa)/2kappa of the s-leg boundary operator.

    s = 0 is the identity operator and has weight zero.
    """
    check_kappa(kappa)
    if s < 0 or int(s) != s:
        raise DomainError(f"leg count must be a non-negative integer, got {s!r}")
    return s * (2.0 * s + 4.0 - kappa) / (2.0 * kappa)


class KpzPair(NamedTuple):
    """The two collapse exponents of a conformal weight and their gap."""

    delta_minus: float
    delta_plus: float
    gap: float

    @property
    def vieta_product(self) -> float:
        return self.delta_plus * self.delta_minus


def kpz(d: float, kappa: float) -> KpzPair:
    """Map a conformal weight d to its exponent pair.

    delta_pm = (kappa - 4 +- sqrt((kappa-4)^2 + 16 kappa d)) / 2 kappa.
    At the discriminant boundary d = -(kappa-4)^2/16kappa the double root is
    returned (gap = 0) rather than raising.  A non-finite d is refused.
    """
    check_kappa(kappa)
    if not math.isfinite(d):
        raise DomainError(f"conformal weight d must be finite, got {d!r}")
    disc = (kappa - 4.0) ** 2 + 16.0 * kappa * d
    if disc < 0.0:
        raise DomainError(
            f"negative discriminant: d={d!r} is below the floor {weight_floor(kappa)!r}"
        )
    root = math.sqrt(disc)
    return KpzPair(
        delta_minus=(kappa - 4.0 - root) / (2.0 * kappa),
        delta_plus=(kappa - 4.0 + root) / (2.0 * kappa),
        gap=root / kappa,
    )


def delta_plus(d: float, kappa: float) -> float:
    return kpz(d, kappa).delta_plus


def delta_minus(d: float, kappa: float) -> float:
    return kpz(d, kappa).delta_minus


def gap(d: float, kappa: float) -> float:
    """Exponent gap delta_plus(d) - delta_minus(d) = sqrt((kappa-4)^2+16 kappa d)/kappa."""
    return kpz(d, kappa).gap


def kpz_leg_identity_residual(s: int, kappa: float) -> tuple[float, float]:
    """Residuals of the fusion identity delta_pm(theta_s) = -theta_1 - theta_s + theta_{s+-1}.

    Both entries vanish to round-off for every s >= 1 and kappa in (0, 8).
    """
    if s < 1:
        raise DomainError(f"identity requires s >= 1, got {s!r}")
    pair = kpz(leg_weight(s, kappa), kappa)
    th1 = leg_weight(1, kappa)
    ths = leg_weight(s, kappa)
    res_plus = pair.delta_plus - (-th1 - ths + leg_weight(s + 1, kappa))
    res_minus = pair.delta_minus - (-th1 - ths + leg_weight(s - 1, kappa))
    return res_plus, res_minus


class JacobiParams(NamedTuple):
    """Jacobi parameter pair (alpha, beta) = (gap(h), gap(theta_1))."""

    alpha: float
    beta: float


def jacobi_params(h: float, kappa: float) -> JacobiParams:
    """Jacobi parameters induced by an anomalous weight h.

    alpha = gap(h) and beta = gap(theta_1); both are strictly positive when
    h > -(kappa-4)^2/16kappa and kappa in (0, 8), which is required downstream
    (the spectral basis needs alpha, beta > 0).
    """
    alpha = gap(h, kappa)
    beta = gap(leg_weight(1, kappa), kappa)
    if alpha <= 0.0 or beta <= 0.0:
        raise DomainError(
            f"jacobi parameters must be positive, got alpha={alpha!r}, beta={beta!r} "
            f"(h at or below the admissible floor)"
        )
    return JacobiParams(alpha=alpha, beta=beta)


def eigenvalue(n: int, h: float, kappa: float) -> float:
    """Eigenvalue lambda_n of the separated two-interval operator.

    4 lambda_n = kappa n^2 + [8 - kappa + 2 kappa (dp(h) + dp(theta_1))] n
                 + 4 (dp(h) + dp(theta_1)) + 2 kappa dp(h) dp(theta_1),
    with dp the plus-exponent.  Strictly increasing in n.
    """
    if n < 0 or int(n) != n:
        raise DomainError(f"eigenvalue index must be a non-negative integer, got {n!r}")
    dp_h = delta_plus(h, kappa)
    dp_1 = delta_plus(leg_weight(1, kappa), kappa)
    four_lam = (
        kappa * n * n
        + (8.0 - kappa + 2.0 * kappa * (dp_h + dp_1)) * n
        + 4.0 * (dp_h + dp_1)
        + 2.0 * kappa * dp_h * dp_1
    )
    return four_lam / 4.0
