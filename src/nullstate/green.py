"""Causal Green functions for interval collapse.

Two evaluators live here.  The two-variable kernel J(delta, eta) inverts the
Euler operator of a single collapsing interval.  The four-variable kernel
G(rho, epsilon; sigma, eta) inverts the separated operator of two adjacent
collapsing intervals; its essential factor is the Jacobi heat kernel, and its
series and factored forms are kept as independent evaluation routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import findiff
from .errors import DomainError, PreconditionError
from .exponents import KpzPair, delta_plus, eigenvalue, jacobi_params, kpz, leg_weight
from .heat_kernel import HeatKernel, collapse_time
from .jacobi import gauss_jacobi_rule

ADMISSIBLE_SLOPE_TOL = 0.01  # steepest endpoint divergence a reproduced f may show
# J finite-difference steps as fractions of delta, each capped at (eta - delta)/8
STEP_LADDER = np.array([2e-2, 1e-2, 5e-3, 2e-3, 1e-3, 5e-4])


@dataclass(frozen=True)
class OneIntervalGreen:
    """J(delta, eta) for a collapsing pair of effective weight d."""

    weight: float
    kappa: float
    pair: KpzPair = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pair", kpz(self.weight, self.kappa))
        if self.pair.gap <= 0.0:
            raise DomainError(
                f"one-interval kernel needs a positive exponent gap; "
                f"weight {self.weight!r} is at or below the floor for kappa={self.kappa!r}"
            )

    @property
    def gap(self) -> float:
        return self.pair.gap

    def value(self, delta, eta: float):
        """(4/kappa)/gap * eta * [1 - (delta/eta)^gap] for delta < eta, else 0.

        delta may be an array.  The bracket is -expm1(gap log(delta/eta)), which
        keeps full relative precision as delta approaches eta.
        """
        d = np.asarray(delta, dtype=float)
        if not (np.all((0.0 < d) & (d < math.inf)) and 0.0 < eta < math.inf):
            raise DomainError(
                f"interval lengths must be finite and positive, got delta={delta!r}, eta={eta!r}"
            )
        g = self.gap
        return _below(d, eta, lambda r: -(4.0 / self.kappa) / g * eta * np.expm1(g * np.log(r)))

    def slope(self, delta, eta: float):
        """Analytic d/d delta of the kernel, delta may be an array; -> -4/kappa at coincidence."""
        return _below(delta, eta, lambda r: -(4.0 / self.kappa) * r ** (self.gap - 1.0))

    def coincidence_slope_fd(self, eta: float) -> float:
        """One-sided finite-difference slope at delta = eta (from below), Richardson refined."""
        steps = 1e-6 * eta * np.array([1.0, 0.5])
        coarse, fine = (self.value(eta, eta) - self.value(eta - steps, eta)) / steps
        return float(findiff.richardson(coarse, fine, order=1))

    def _fd_derivatives(self, u0: np.ndarray, deltas: np.ndarray, eta: float) -> tuple:
        """Refined (u', u'') of J(., eta) at each delta, from the STEP_LADDER step
        with the least truncation plus round-off estimate.  Truncation: the h^4
        term the refinement removes, times (gap h/delta)^2 (each derivative of
        delta^gap brings about gap/delta).  Round-off: the refined stencil's
        weight sum times eps |u0| / h^2."""
        h = np.minimum(STEP_LADDER[:, None] * deltas, (eta - deltas) / 8.0)
        samples = self.value(np.stack(findiff.refined_points(deltas, h)), eta)
        u1, u2 = findiff.refined_first(samples, h), findiff.refined_second(u0, samples, h)
        removed = np.abs(u2 - findiff.second(u0, samples[:4], h))  # samples[:4]: the step-h wings
        noise = findiff.REFINED_SECOND_GAIN * np.finfo(float).eps * np.abs(u0) / h**2
        best = np.argmin(removed * (self.gap * h / deltas) ** 2 + noise, axis=0)
        return u1[best, np.arange(deltas.size)], u2[best, np.arange(deltas.size)]

    def annihilation_residual(self, eta: float, deltas, method: str = "analytic") -> float:
        """max over the grid of the relative peeled-Euler-operator residual on J(., eta).

        kappa/4 u'' + (kappa dm/2 + 1) u'/delta is the operator left after
        peeling the delta^dm prefactor off the original Euler operator; it
        annihilates 1 and delta^gap, hence J(., eta).  Each route samples J
        once over the whole grid, as an array.  The normalization scale
        includes the Euler magnitude of J itself, (kappa/4)|J|/delta^2, so the
        measure stays meaningful where the two operator terms vanish
        individually (gap = 1 makes the first-derivative coefficient exactly
        zero) or where J is flat to double precision (large gap at small delta).
        """
        deltas = np.asarray(deltas, dtype=float)
        if np.any(deltas <= 0.0) or np.any(deltas >= eta):
            raise PreconditionError("delta grid must lie strictly inside (0, eta)")
        if method not in ("analytic", "fd"):
            raise DomainError(f"unknown method {method!r}")
        g = self.gap
        u0 = self.value(deltas, eta)
        if method == "analytic":
            u1 = self.slope(deltas, eta)
            u2 = -(4.0 / self.kappa) * (g - 1.0) * deltas ** (g - 2.0) * eta ** (1.0 - g)
        else:
            u1, u2 = self._fd_derivatives(u0, deltas, eta)
        c1 = self.kappa * self.pair.delta_minus / 2.0 + 1.0
        terms = [self.kappa / 4.0 * u2, c1 * u1 / deltas]
        scale = np.max(np.abs([*terms, self.kappa / 4.0 * u0 / deltas**2]), axis=0)
        return float(np.max(np.abs(sum(terms)) / np.maximum(scale, 1e-300)))


def _below(delta, eta: float, f):
    """f(delta/eta) where delta < eta and 0 elsewhere; a float for a scalar delta."""
    d = np.asarray(delta, dtype=float)
    out = np.where(d < eta, f(np.minimum(d, eta) / eta), 0.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class SigmaEigenfunction:
    """Separable sigma-mode f(sigma) P_n(2 sigma - 1) of the adjoint operator."""

    n: int
    green: "TwoIntervalGreen"

    def prefactor(self, sigma):
        g = self.green
        return sigma**g.exp_left * (1.0 - sigma) ** g.exp_right

    def value(self, sigma):
        return self.prefactor(sigma) * self.green.kernel.basis.eval(self.n, 2.0 * sigma - 1.0)

    def derivatives(self, sigma) -> tuple:
        """(value, d/dsigma, d^2/dsigma^2), all in closed form; sigma may be an array."""
        g = self.green
        basis = g.kernel.basis
        y = 2.0 * sigma - 1.0
        p0 = basis.eval(self.n, y)
        p1 = 2.0 * basis.deriv(self.n, y, 1)
        p2 = 4.0 * basis.deriv(self.n, y, 2)
        f = self.prefactor(sigma)
        lg1 = g.exp_left / sigma - g.exp_right / (1.0 - sigma)
        lg2 = -g.exp_left / sigma**2 - g.exp_right / (1.0 - sigma) ** 2
        f1 = f * lg1
        f2 = f * (lg1 * lg1 + lg2)
        return f * p0, f1 * p0 + f * p1, f2 * p0 + 2.0 * f1 * p1 + f * p2

    def equation_residual(self, sigmas) -> float:
        """max relative residual of [Q* + (lambda_n - 1)/(sigma(1-sigma))] on the mode."""
        g = self.green
        lam = eigenvalue(self.n, g.h, g.kappa)
        sigmas = np.asarray(sigmas, dtype=float)
        v, d1v, d2v = self.derivatives(sigmas)
        terms = g.sigma_operator_terms(v, d1v, d2v, sigmas)
        total = sum(terms) + (lam - 1.0) / (sigmas * (1.0 - sigmas)) * v
        scale = np.maximum(np.max(np.abs(terms), axis=0), 1e-300)
        return float(np.max(np.abs(total) / scale))


@dataclass
class AdjointResidual:
    residual: float
    scale: float
    relative: float


@dataclass
class ReproducingRecord:
    etas: np.ndarray
    values: np.ndarray
    target: float

    @property
    def errors(self) -> np.ndarray:
        return np.abs(self.values - self.target)


class TwoIntervalGreen:
    """G(rho, epsilon; sigma, eta) for adjacent collapsing intervals.

    lambda0 may be overridden for fault injection; by default it is the n = 0
    eigenvalue, which makes the factored and series forms agree identically.
    """

    def __init__(self, h: float, kappa: float, lambda0: float | None = None):
        self.h = float(h)
        self.kappa = float(kappa)
        self.theta1 = leg_weight(1, kappa)
        params = jacobi_params(h, kappa)
        self.alpha, self.beta = params.alpha, params.beta
        self.dp_h = delta_plus(h, kappa)
        self.dp_1 = delta_plus(self.theta1, kappa)
        self.lambda0 = eigenvalue(0, h, kappa) if lambda0 is None else float(lambda0)
        self.kernel = HeatKernel(self.alpha, self.beta)
        # boundary decay exponents at sigma -> 0 and sigma -> 1
        self.exp_left = self.dp_1 + 4.0 / kappa
        self.exp_right = self.dp_h + 4.0 / kappa

    def time(self, epsilon: float, eta: float) -> float:
        return collapse_time(epsilon, eta, self.kappa)

    def eigenfunction(self, n: int) -> SigmaEigenfunction:
        return SigmaEigenfunction(n=n, green=self)

    # -- evaluation ----------------------------------------------------------

    def _prefactor(self, rho: float, sigma: float) -> float:
        return (
            sigma ** (self.beta + 1.0)
            * (1.0 - sigma) ** (self.alpha + 1.0)
            * (rho / sigma) ** self.dp_1
            * ((1.0 - rho) / (1.0 - sigma)) ** self.dp_h
        )

    def _factored(self, rho: float, epsilon: float, sigma: float, eta: float, k: float) -> float:
        """The factored form at one point, given the kernel value k there."""
        return -self._prefactor(rho, sigma) * eta * (epsilon / eta) ** self.lambda0 * k

    def value(self, rho: float, epsilon: float, sigma: float, eta: float) -> float:
        """Factored form: prefactor * eta * (eps/eta)^lambda0 * K(rho, sigma, t)."""
        self._check_point(rho, sigma, epsilon, eta)
        if eta <= epsilon:
            return 0.0
        k = self.kernel.value(rho, sigma, self.time(epsilon, eta)).value
        return self._factored(rho, epsilon, sigma, eta, k)

    def _values(self, rho: float, epsilon: float, points, n_terms: int) -> list:
        """The factored form at each (sigma, eta) of points, from one `HeatKernel.values` call."""
        for s, e in points:
            self._check_point(rho, s, epsilon, e)
        ks = self.kernel.values(rho, [(s, self.time(epsilon, e)) for s, e in points], n_terms)
        return [self._factored(rho, epsilon, s, e, k) for (s, e), k in zip(points, ks)]

    def value_series(self, rho: float, epsilon: float, sigma: float, eta: float) -> float:
        """Direct eigenvalue series with per-mode powers (eps/eta)^lambda_n."""
        self._check_point(rho, sigma, epsilon, eta)
        if eta <= epsilon:
            return 0.0
        n_terms, _ = self.kernel.truncation_index(self.time(epsilon, eta))
        basis = self.kernel.basis
        table = basis.eval_table(n_terms - 1, [2.0 * rho - 1.0, 2.0 * sigma - 1.0])
        ratio = epsilon / eta
        total = 0.0
        for n, (p_rho, p_sigma) in enumerate(table.tolist()):
            lam = eigenvalue(n, self.h, self.kappa)
            total += ratio**lam * p_rho * p_sigma / basis.shifted_norm_sq(n)
        return -self._prefactor(rho, sigma) * eta * total

    @staticmethod
    def _check_point(rho, sigma, epsilon, eta):
        if not (0.0 < rho < 1.0 and 0.0 < sigma < 1.0):
            raise DomainError("rho and sigma must lie in (0, 1)")
        if epsilon <= 0.0 or eta <= 0.0:
            raise DomainError("epsilon and eta must be positive")

    # -- adjoint equation ------------------------------------------------------

    def sigma_operator_terms(self, g0: float, g1: float, g2: float, sigma: float) -> list[float]:
        """Summands of Q* applied to a function with values/derivatives (g0, g1, g2)."""
        return [
            self.kappa / 4.0 * g2,
            -(1.0 - 2.0 * sigma) / (sigma * (1.0 - sigma)) * g1,
            (1.0 - self.theta1) / sigma**2 * g0,
            (1.0 - self.h) / (1.0 - sigma) ** 2 * g0,
            g0 / sigma,
            g0 / (1.0 - sigma),
        ]

    def adjoint_residual(
        self, rho: float, epsilon: float, sigma: float, eta: float
    ) -> AdjointResidual:
        """Finite-difference residual of P*[G] away from the source (eta > epsilon).

        The sigma step shrinks with the distance to the endpoints because the
        operator coefficients blow up there; the eta step is 1e-3 eta.  All
        stencil evaluations share one truncation index so the sampled function
        is a fixed finite sum, and the 13 samples (seven in sigma at eta, six
        in eta at sigma) come from one Jacobi table; each equals the
        factored-form `value` at its point bit for bit.  The residual is
        divided by eta^2, so an eta whose square overflows or underflows is
        refused.
        """
        if eta <= epsilon:
            raise PreconditionError("adjoint residual needs eta > epsilon (homogeneous region)")
        if not 0.0 < eta * eta < math.inf:
            raise DomainError(f"eta**2 must be finite and positive, got eta={eta!r}")
        sigma_step = min(1e-3, min(sigma, 1.0 - sigma) / 10.0)
        eta_step = 1e-3 * eta
        eta_lo = eta - 2.0 * eta_step
        if eta_lo <= epsilon:
            raise PreconditionError("eta stencil would cross the source at eta = epsilon")
        n_terms, _ = self.kernel.truncation_index(self.time(epsilon, eta_lo))
        points = [(s, eta) for s in (sigma, *findiff.refined_points(sigma, sigma_step))]
        points += [(sigma, e) for e in findiff.refined_points(eta, eta_step)]
        g = self._values(rho, epsilon, points, n_terms)
        g0, sigma_wings, eta_wings = g[0], g[1:7], g[7:]
        g1 = findiff.refined_first(sigma_wings, sigma_step)
        g2 = findiff.refined_second(g0, sigma_wings, sigma_step)
        deta = findiff.refined_first(eta_wings, eta_step)
        terms = self.sigma_operator_terms(g0, g1, g2, sigma)
        terms.append(-eta * deta / (sigma * (1.0 - sigma)))
        residual = sum(terms) / eta**2
        scale = max(max(abs(x) for x in terms), 1e-300) / eta**2
        return AdjointResidual(residual=residual, scale=scale, relative=abs(residual) / scale)

    # -- reproducing limit -----------------------------------------------------

    def _transformed(self, f, sigma: float) -> float:
        return f(sigma) * sigma ** (-self.dp_1) * (1.0 - sigma) ** (-self.dp_h)

    def check_admissible(self, f) -> None:
        """Reject f whose endpoint-normalized ratio blows up toward 0 or 1.

        The transformed integrand must extend continuously to the endpoints, so
        its log-log slope toward each endpoint cannot be negative.
        """
        s = np.geomspace(1e-6, 1e-3, 4)
        for edge in (0.0, 1.0):
            sigmas = s if edge == 0.0 else 1.0 - s
            vals = np.array([abs(self._transformed(f, sig)) for sig in sigmas])
            if np.all(vals == 0.0):
                continue
            if np.any(vals == 0.0):
                raise PreconditionError("transformed integrand changes support near an endpoint")
            slope = findiff.line_fit(np.log(s), np.log(vals))[1]
            if slope < -ADMISSIBLE_SLOPE_TOL:
                raise PreconditionError(
                    "f(sigma) sigma^{-dp(theta1)} (1-sigma)^{-dp(h)} does not extend "
                    f"continuously to the endpoint at {edge} (divergence exponent {slope:.3g})"
                )

    def reproducing_limit(self, rho: float, epsilon: float, f, etas) -> ReproducingRecord:
        """Evaluate -int G(rho,eps;sigma,eta) f(sigma) / (eta sigma(1-sigma)) dsigma.

        As eta decreases to epsilon the value converges to f(rho); the integrand
        reduces to the kernel's reproducing integral applied to the transformed f.
        """
        self.check_admissible(f)
        rule = gauss_jacobi_rule(120, self.kernel.basis, domain="unit")
        etas = np.asarray(etas, dtype=float)
        if np.any(etas <= epsilon):
            raise PreconditionError("every eta must exceed epsilon")
        values = np.empty_like(etas)
        amp = rho**self.dp_1 * (1.0 - rho) ** self.dp_h
        # f need only take a scalar: it is sampled node by node, once for every eta
        transformed = np.array([self._transformed(f, s) for s in rule.nodes], dtype=float)
        for i, eta in enumerate(etas):
            t = self.time(epsilon, float(eta))
            integral = self.kernel.reproducing_integral(rho, t, lambda s: transformed, rule)
            values[i] = (epsilon / eta) ** self.lambda0 * amp * integral
        return ReproducingRecord(etas=etas, values=values, target=f(rho))

    # -- boundary exponents ------------------------------------------------------

    def boundary_exponent_fit(self, side: str, rho: float, epsilon: float, eta: float) -> float:
        """Log-log slope of |G| as sigma approaches an endpoint.

        side="left" fits sigma -> 0 (expected dp(theta1) + 4/kappa);
        side="right" fits sigma -> 1 (expected dp(h) + 4/kappa).  The seven
        samples share one time and come from one `HeatKernel.values` call.
        """
        if side not in ("left", "right"):
            raise DomainError(f"side must be 'left' or 'right', got {side!r}")
        s = np.geomspace(1e-6, 1e-3, 7)
        points = [(sig, eta) for sig in (s if side == "left" else 1.0 - s).tolist()]
        self._check_point(rho, points[0][0], epsilon, eta)
        if eta <= epsilon:
            raise DomainError("kernel vanished on the fit grid")
        n_terms, _ = self.kernel.truncation_index(self.time(epsilon, eta))
        vals = np.abs(self._values(rho, epsilon, points, n_terms))
        if np.any(vals == 0.0):
            raise DomainError("kernel vanished on the fit grid")
        return findiff.line_fit(np.log(s), np.log(vals))[1]
