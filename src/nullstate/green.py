"""Causal Green functions for interval collapse.

Two evaluators live here.  The two-variable kernel J(delta, eta) inverts the
Euler operator of a single collapsing interval.  The four-variable kernel
G(rho, epsilon; sigma, eta) inverts the separated operator of two adjacent
collapsing intervals; its essential factor is the Jacobi heat kernel, and its
series and factored forms are kept as independent evaluation routes.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from . import findiff
from .errors import DomainError, PreconditionError
from .exponents import delta_plus, eigenvalue, jacobi_params, kpz, leg_weight
from .heat_kernel import QUAD_POINTS, HeatKernel, collapse_time
from .jacobi import gauss_jacobi_rule

ADMISSIBLE_SLOPE_TOL = 0.01  # steepest endpoint divergence a reproduced f may show
# J finite-difference steps as fractions of delta, each capped at (eta - delta)/8
STEP_LADDER = np.array([2e-2, 1e-2, 5e-3, 2e-3, 1e-3, 5e-4])


class OneIntervalGreen:
    """J(delta, eta) for a collapsing pair of effective weight d."""

    __slots__ = ("kappa", "pair")

    def __init__(self, weight: float, kappa: float):
        self.kappa = kappa
        self.pair = kpz(weight, kappa)
        if self.pair.gap <= 0.0:
            raise DomainError(
                f"one-interval kernel needs a positive exponent gap; "
                f"weight {weight!r} is at or below the floor for kappa={kappa!r}"
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
            try:
                eta_power = eta ** (1.0 - g)
            except OverflowError:
                raise DomainError(
                    f"the analytic Euler residual of J(., eta) needs eta**(1 - gap) = "
                    f"{eta!r}**{1.0 - g!r}, which overflows at kappa={self.kappa!r}") from None
            u1 = self.slope(deltas, eta)
            u2 = -(4.0 / self.kappa) * (g - 1.0) * deltas ** (g - 2.0) * eta_power
        else:
            u1, u2 = self._fd_derivatives(u0, deltas, eta)
        c1 = self.kappa * self.pair.delta_minus / 2.0 + 1.0
        terms = [self.kappa / 4.0 * u2, c1 * u1 / deltas]
        scale = np.max(np.abs([*terms, self.kappa / 4.0 * u0 / deltas**2]), axis=0)
        return float(np.max(np.abs(sum(terms)) / np.maximum(scale, 1e-300)))


def _pow(x, y):
    """x**y by libm's pow, for a float or elementwise for an array.

    np.float_power calls pow per element, as a float's ** does; an array's **
    may take numpy's SIMD route (x*x for y = 2), which can differ from it in
    the last bit.  So a sample's arithmetic is the same in a batch as alone.
    """
    return np.float_power(x, y) if isinstance(x, np.ndarray) else x**y


def _below(delta, eta: float, f):
    """f(delta/eta) where delta < eta and 0 elsewhere; a float for a scalar delta."""
    d = np.asarray(delta, dtype=float)
    out = np.where(d < eta, f(np.minimum(d, eta) / eta), 0.0)
    return out if out.ndim else float(out)


class AdjointResidual(NamedTuple):
    residual: float
    scale: float
    relative: float


class TwoIntervalGreen:
    """G(rho, epsilon; sigma, eta) for adjacent collapsing intervals.

    lambda0 may be overridden for fault injection; by default it is the n = 0
    eigenvalue, which makes the factored and series forms agree identically.
    The heat kernel is built here unless one of this (alpha, beta) is given,
    so callers that read the same pair can share its kept tables.
    """

    def __init__(self, h: float, kappa: float, lambda0: float | None = None,
                 kernel: HeatKernel | None = None):
        self.h = float(h)
        self.kappa = float(kappa)
        self.theta1 = leg_weight(1, kappa)
        params = jacobi_params(h, kappa)
        self.alpha, self.beta = params.alpha, params.beta
        self.dp_h = delta_plus(h, kappa)
        self.dp_1 = delta_plus(self.theta1, kappa)
        self.lambda0 = eigenvalue(0, h, kappa) if lambda0 is None else float(lambda0)
        if kernel is None:
            kernel = HeatKernel(self.alpha, self.beta)
        elif (kernel.alpha, kernel.beta) != (self.alpha, self.beta):
            raise DomainError(
                f"heat kernel of (alpha, beta) = ({kernel.alpha!r}, {kernel.beta!r}) "
                f"given for a Green function of ({self.alpha!r}, {self.beta!r})")
        self.kernel = kernel
        # boundary decay exponents at sigma -> 0 and sigma -> 1
        self.exp_left = self.dp_1 + 4.0 / kappa
        self.exp_right = self.dp_h + 4.0 / kappa

    def time(self, epsilon: float, eta: float) -> float:
        return collapse_time(epsilon, eta, self.kappa)

    # -- evaluation ----------------------------------------------------------

    def _prefactor(self, rho: float, sigma):
        """The algebraic factor of G; sigma may be an array."""
        return (
            _pow(sigma, self.beta + 1.0)
            * _pow(1.0 - sigma, self.alpha + 1.0)
            * _pow(rho / sigma, self.dp_1)
            * _pow((1.0 - rho) / (1.0 - sigma), self.dp_h)
        )

    def _factored(self, rho: float, epsilon: float, sigma, eta, k):
        """The factored form given the kernel value k; sigma, eta and k may be arrays."""
        return -self._prefactor(rho, sigma) * eta * _pow(epsilon / eta, self.lambda0) * k

    def value(self, rho: float, epsilon: float, sigma: float, eta: float) -> float:
        """Factored form: prefactor * eta * (eps/eta)^lambda0 * K(rho, sigma, t)."""
        self._check_point(rho, sigma, epsilon, eta)
        if eta <= epsilon:
            return 0.0
        k = self.kernel.value(rho, sigma, self.time(epsilon, eta)).value
        return self._factored(rho, epsilon, sigma, eta, k)

    def _values(self, rho: float, epsilon: float, sigma: np.ndarray, eta: np.ndarray,
                n_terms: list) -> np.ndarray:
        """The factored form at each (sigma, eta) of two (points, samples) arrays, unchecked.

        Row j holds the samples of point j, which take n_terms[j] terms; the
        points that share an n_terms are adjacent, and each such run is one
        `HeatKernel.grid` call over rho and the run's samples, at per-cell
        times.  Each distinct eta is turned into a time once.
        """
        etas = eta.ravel().tolist()
        times = {e: self.time(epsilon, e) for e in set(etas)}
        sigmas, t = sigma.ravel(), np.array([times[e] for e in etas])
        k, start = np.empty(sigma.size), 0
        for n, run in itertools.groupby(n_terms):
            stop = start + sigma.shape[1] * len(list(run))
            k[start:stop] = self.kernel.grid([rho], sigmas[start:stop], t[None, start:stop], n)[0]
            start = stop
        return self._factored(rho, epsilon, sigma, eta, k.reshape(sigma.shape))

    def value_series(self, rho: float, epsilon: float, sigma: float, eta: float) -> float:
        """Direct eigenvalue series with per-mode powers (eps/eta)^lambda_n.

        The modes are evaluated as arrays and summed in order of n, one at a
        time (np.cumsum), as a running total would sum them.
        """
        self._check_point(rho, sigma, epsilon, eta)
        if eta <= epsilon:
            return 0.0
        n_terms, _ = self.kernel.truncation_index(self.time(epsilon, eta))
        basis = self.kernel.basis
        table = basis.eval_table(n_terms - 1, [2.0 * rho - 1.0, 2.0 * sigma - 1.0])
        lam = np.array([eigenvalue(n, self.h, self.kappa) for n in range(n_terms)])
        nrm = np.array([basis.shifted_norm_sq(n) for n in range(n_terms)])
        terms = np.float_power(epsilon / eta, lam) * table[:, 0] * table[:, 1] / nrm
        total = float(np.cumsum(terms)[-1])
        # `_prefactor` written out, so that comparing this route with `value` checks it
        prefactor = (sigma ** (self.beta + 1.0) * (1.0 - sigma) ** (self.alpha + 1.0)
                     * (rho / sigma) ** self.dp_1 * ((1.0 - rho) / (1.0 - sigma)) ** self.dp_h)
        return -prefactor * eta * total

    @staticmethod
    def _check_point(rho, sigma, epsilon, eta):
        if not (0.0 < rho < 1.0 and 0.0 < sigma < 1.0):
            raise DomainError("rho and sigma must lie in (0, 1)")
        if epsilon <= 0.0 or eta <= 0.0:
            raise DomainError("epsilon and eta must be positive")

    # -- adjoint equation ------------------------------------------------------

    def sigma_operator_terms(self, g0, g1, g2, sigma) -> list:
        """Summands of Q* applied to a function with values/derivatives (g0, g1, g2).

        The arguments may be arrays of one shape; the squares go through libm's pow.
        """
        return [
            self.kappa / 4.0 * g2,
            -(1.0 - 2.0 * sigma) / (sigma * (1.0 - sigma)) * g1,
            (1.0 - self.theta1) / _pow(sigma, 2) * g0,
            (1.0 - self.h) / _pow(1.0 - sigma, 2) * g0,
            g0 / sigma,
            g0 / (1.0 - sigma),
        ]

    def adjoint_residual(self, rho: float, epsilon: float, sigma, eta):
        """Finite-difference residual of P*[G] away from the source (eta > epsilon).

        sigma and eta are floats, for one `AdjointResidual`, or sequences that
        broadcast to one length, for the list of residuals at their pairs,
        evaluated as one batch; a point's residual does not depend on the
        others.  The sigma step shrinks with the distance to the endpoints
        because the operator coefficients blow up there; the eta step is 1e-3
        eta.  All 13 stencil samples of a point (seven in sigma at eta, six in
        eta at sigma) share one truncation index, that of its lowest eta, so
        the sampled function is a fixed finite sum.  The points are checked in
        order, so the first bad one raises; each distinct lowest eta is
        truncated once.  The samples of the points that share an n_terms come
        from one `HeatKernel.grid` call, the largest n_terms first, so on a
        product grid of sigmas and etas one kept table over rho and one over
        every stencil sigma are built once and then sliced.  Each sample
        equals the factored-form `value` at its point bit for bit, and the rest is
        elementwise arithmetic in the order a float point takes.  The residual
        is divided by eta^2, so an eta whose square overflows or underflows is
        refused.
        """
        sigmas, etas = np.broadcast_arrays(sigma, eta)
        points = list(zip(sigmas.ravel().tolist(), etas.ravel().tolist()))
        n_of, n_terms = {}, []
        for sigma, eta in points:
            if eta <= epsilon:
                raise PreconditionError("adjoint residual needs eta > epsilon (homogeneous region)")
            if not 0.0 < eta * eta < math.inf:
                raise DomainError(f"eta**2 must be finite and positive, got eta={eta!r}")
            eta_lo = eta - 2.0 * (1e-3 * eta)
            if eta_lo <= epsilon:
                raise PreconditionError("eta stencil would cross the source at eta = epsilon")
            if eta_lo not in n_of:
                n_of[eta_lo], _ = self.kernel.truncation_index(self.time(epsilon, eta_lo))
            n_terms.append(n_of[eta_lo])
            self._check_point(rho, sigma, epsilon, eta)
        order = sorted(range(len(points)), key=lambda i: -n_terms[i])
        sigma, eta = np.array([points[i] for i in order], dtype=float).reshape(-1, 2).T
        sigma_step = np.minimum(1e-3, np.minimum(sigma, 1.0 - sigma) / 10.0)
        eta_step = 1e-3 * eta
        # each point's 13 samples: g0, six sigma wings at eta, six eta wings at sigma
        samples_sigma = np.array([sigma, *findiff.refined_points(sigma, sigma_step), *[sigma] * 6])
        samples_eta = np.array([*[eta] * 7, *findiff.refined_points(eta, eta_step)])
        g = self._values(rho, epsilon, samples_sigma.T, samples_eta.T,
                         [n_terms[i] for i in order]).T
        g0, sigma_wings, eta_wings = g[0], g[1:7], g[7:]
        g1 = findiff.refined_first(sigma_wings, sigma_step)
        g2 = findiff.refined_second(g0, sigma_wings, sigma_step)
        deta = findiff.refined_first(eta_wings, eta_step)
        terms = self.sigma_operator_terms(g0, g1, g2, sigma)
        terms.append(-eta * deta / (sigma * (1.0 - sigma)))
        eta_sq = _pow(eta, 2)
        residual = sum(terms) / eta_sq  # left to right, as for one float point
        largest = np.abs(terms[0])
        for term in terms[1:]:  # Python's max: a NaN is kept only as the first size
            largest = np.where(np.abs(term) > largest, np.abs(term), largest)
        scale = np.maximum(largest, 1e-300) / eta_sq
        relative = np.abs(residual) / scale
        reps = [None] * len(order)
        for i, r, sc, q in zip(order, residual.tolist(), scale.tolist(), relative.tolist()):
            reps[i] = AdjointResidual(residual=r, scale=sc, relative=q)
        return reps if sigmas.ndim else reps[0]

    def _mode_jet(self, n: int, sigma) -> tuple:
        """(value, d/dsigma, d^2/dsigma^2) of the separable sigma-mode f(sigma) P_n(2 sigma - 1)
        of the adjoint operator, in closed form; sigma may be an array."""
        basis = self.kernel.basis
        y = 2.0 * sigma - 1.0
        p0 = basis.eval(n, y)
        p1 = 2.0 * basis.deriv(n, y, 1)
        p2 = 4.0 * basis.deriv(n, y, 2)
        f = sigma**self.exp_left * (1.0 - sigma) ** self.exp_right
        lg1 = self.exp_left / sigma - self.exp_right / (1.0 - sigma)
        lg2 = -self.exp_left / sigma**2 - self.exp_right / (1.0 - sigma) ** 2
        f1 = f * lg1
        f2 = f * (lg1 * lg1 + lg2)
        return f * p0, f1 * p0 + f * p1, f2 * p0 + 2.0 * f1 * p1 + f * p2

    def mode_residual(self, n: int, sigmas) -> float:
        """max relative residual of [Q* + (lambda_n - 1)/(sigma(1-sigma))] on mode n."""
        lam = eigenvalue(n, self.h, self.kappa)
        sigmas = np.asarray(sigmas, dtype=float)
        v, d1v, d2v = self._mode_jet(n, sigmas)
        terms = self.sigma_operator_terms(v, d1v, d2v, sigmas)
        total = sum(terms) + (lam - 1.0) / (sigmas * (1.0 - sigmas)) * v
        scale = np.maximum(np.max(np.abs(terms), axis=0), 1e-300)
        return float(np.max(np.abs(total) / scale))

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

    def reproducing_limit(self, rho: float, epsilon: float, f, etas) -> np.ndarray:
        """-int G(rho,eps;sigma,eta) f(sigma) / (eta sigma(1-sigma)) dsigma at each eta.

        As eta decreases to epsilon the value converges to f(rho); the integrand
        reduces to the kernel's reproducing integral of the transformed f.
        """
        self.check_admissible(f)
        rule = gauss_jacobi_rule(QUAD_POINTS, self.kernel.basis)
        etas = np.asarray(etas, dtype=float)
        if np.any(etas <= epsilon):
            raise PreconditionError("every eta must exceed epsilon")
        values = np.empty_like(etas)
        amp = rho**self.dp_1 * (1.0 - rho) ** self.dp_h
        # f need only take a scalar: it is sampled node by node, once for every eta
        transformed = np.array([self._transformed(f, s) for s in rule.nodes], dtype=float)
        # smallest eta, shortest time and most terms first: the later etas
        # read a prefix of each row of the nodes' kept table
        for i in np.argsort(etas, kind="stable").tolist():
            eta = etas[i]
            t = self.time(epsilon, float(eta))
            integral = self.kernel.reproducing_integral(rho, t, transformed, rule)
            values[i] = (epsilon / eta) ** self.lambda0 * amp * integral
        return values

    # -- boundary exponents ------------------------------------------------------

    def boundary_exponent_fit(self, side: str, rho: float, epsilon: float, eta: float) -> float:
        """Log-log slope of |G| as sigma approaches an endpoint.

        side="left" fits sigma -> 0 (expected dp(theta1) + 4/kappa);
        side="right" fits sigma -> 1 (expected dp(h) + 4/kappa).  The seven
        samples share one time and come from one `HeatKernel.grid` call.
        """
        if side not in ("left", "right"):
            raise DomainError(f"side must be 'left' or 'right', got {side!r}")
        s = np.geomspace(1e-6, 1e-3, 7)
        sigmas = s if side == "left" else 1.0 - s
        self._check_point(rho, float(sigmas[0]), epsilon, eta)  # the others lie inside too
        if eta <= epsilon:
            raise DomainError("kernel vanished on the fit grid")
        k = self.kernel.grid([rho], sigmas, self.time(epsilon, eta))[0]
        vals = np.abs(self._factored(rho, epsilon, sigmas, eta, k))
        if np.any(vals == 0.0):
            raise DomainError("kernel vanished on the fit grid")
        return findiff.line_fit(np.log(s), np.log(vals))[1]
