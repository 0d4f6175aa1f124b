"""Spectral heat kernel of the Jacobi operator, with certified truncation.

K(rho, sigma, t) = sum_n exp(-t n(n+alpha+beta+1)) P_n(2 rho - 1) P_n(2 sigma - 1) / nrm_n,

where nrm_n is the squared shifted norm.  Truncation is driven by the rigorous
per-term bound exp(-t n(n+alpha+beta+1)) * Pbar_n^2 / nrm_n, with Pbar_n the
endpoint maximum of |P_n| (valid as the sup over [-1,1] for alpha, beta >= -1/2),
and the neglected tail is dominated by a geometric series whose ratio envelope
decreases in n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TruncationError
from .jacobi import JacobiBasis, QuadratureRule

DEFAULT_TAIL_TOL = 1e-10
DEFAULT_N_MAX = 2000


@dataclass(frozen=True)
class TruncationPolicy:
    """Series truncation contract: certified tail <= tail_tol within n_max terms."""

    tail_tol: float = DEFAULT_TAIL_TOL
    n_max: int = DEFAULT_N_MAX


@dataclass(frozen=True)
class KernelValue:
    value: float
    tail_bound: float
    n_terms: int


def _check_time(t: float) -> None:
    if not 0.0 < t < math.inf:
        raise DomainError(f"kernel time must be finite and positive, got {t!r}")


def collapse_time(epsilon: float, eta: float, kappa: float) -> float:
    """Heat-kernel time of an interval-length ratio, t = (kappa/4) log(eta/epsilon)."""
    if epsilon <= 0.0 or eta <= 0.0:
        raise DomainError("interval lengths must be positive")
    return (kappa / 4.0) * math.log(eta / epsilon)


class HeatKernel:
    """Evaluator for K^(alpha,beta); immutable parameters, append-only caches."""

    def __init__(self, alpha: float, beta: float):
        if alpha < -0.5 or beta < -0.5:
            raise DomainError(
                "endpoint-maximum tail bounds require alpha, beta >= -1/2, "
                f"got ({alpha!r}, {beta!r})"
            )
        self.basis = JacobiBasis(alpha, beta)
        self.policy = TruncationPolicy()
        self._nrm: list[float] = []
        self._coef: list[float] = []  # Pbar_n^2 / nrm_n

    @property
    def alpha(self) -> float:
        return self.basis.alpha

    @property
    def beta(self) -> float:
        return self.basis.beta

    def decay_rate(self, n: int) -> float:
        """Eigenvalue n(n+alpha+beta+1) of the time decay."""
        return n * (n + self.alpha + self.beta + 1.0)

    def _ensure(self, n: int) -> None:
        while len(self._coef) <= n:
            m = len(self._coef)
            self._nrm.append(self.basis.shifted_norm_sq(m))
            pbar = self.basis.endpoint_max(m)
            self._coef.append(pbar * pbar / self._nrm[-1])

    def term_bound(self, n: int, t: float) -> float:
        """B_n = exp(-t n(n+alpha+beta+1)) Pbar_n^2 / nrm_n.

        t is not checked here: callers validate it once, because this is the
        primitive inside the `truncation_index` loop.
        """
        self._ensure(n)
        return math.exp(-t * self.decay_rate(n)) * self._coef[n]

    def _tail_ratio_bound(self, n: int, t: float) -> float:
        """Upper bound on B_{m+1}/B_m valid for all m >= n; decreasing in n.

        Each factor of the term ratio (endpoint-value growth, norm shrinkage,
        eigenvalue decay) is bounded by its value at m = n, where it is largest.
        """
        a, b = self.alpha, self.beta
        apb = a + b
        q = max(a, b)
        pbar_growth = ((n + 1.0 + q) / (n + 1.0)) ** 2 if q > 0.0 else 1.0
        norm_fac = (2 * n + apb + 3.0) / (2 * n + apb + 1.0)
        ab = a * b
        if ab < 0.0:
            norm_fac *= 1.0 - ab / ((n + 1.0 + a) * (n + 1.0 + b))
        return math.exp(-t * (2 * n + apb + 2.0)) * pbar_growth * norm_fac

    def _tail_bound(self, n_terms: int, t: float) -> float:
        """Certified bound on sum_{n >= n_terms} B_n; inf where no geometric tail holds."""
        ratio = self._tail_ratio_bound(n_terms, t)
        if ratio >= 1.0:
            return math.inf
        return self.term_bound(n_terms, t) / (1.0 - ratio)

    def truncation_index(self, t: float) -> tuple[int, float]:
        """Number of terms and certified tail bound for time t.

        Returns (n_terms, tail_bound) with sum_{n >= n_terms} B_n <= tail_bound
        <= tail_tol.  Raises TruncationError if n_max is hit first (very small t).
        """
        _check_time(t)
        tol = self.policy.tail_tol
        best = math.inf
        for n_terms in range(1, self.policy.n_max + 1):
            tail = self._tail_bound(n_terms, t)
            best = min(best, tail)
            if tail <= tol:
                return n_terms, tail
        raise TruncationError(
            f"could not certify tail <= {tol!r} at t={t!r} within "
            f"{self.policy.n_max} terms (best bound {best!r}); "
            "t is too small for the series route",
            achieved_bound=best,
            n_terms=self.policy.n_max,
        )

    def value(self, rho: float, sigma: float, t: float, n_terms: int | None = None) -> KernelValue:
        """Pointwise kernel value with its certified truncation error."""
        if n_terms is None:
            n_terms, tail = self.truncation_index(t)
        else:
            _check_time(t)
            self._ensure(n_terms)
            tail = self._tail_bound(n_terms, t)
        y = np.array([2.0 * rho - 1.0, 2.0 * sigma - 1.0])
        table = self.basis.eval_table(n_terms - 1, y)
        n = np.arange(n_terms, dtype=float)
        decay = np.exp(-t * n * (n + self.alpha + self.beta + 1.0))
        nrm = np.array(self._nrm[:n_terms])
        total = float(np.sum(decay * table[:, 0] * table[:, 1] / nrm))
        return KernelValue(value=total, tail_bound=tail, n_terms=n_terms)

    def grid(self, rhos, sigmas, t: float, n_terms: int | None = None) -> np.ndarray:
        """K on the product grid rhos x sigmas at a single time, vectorized."""
        if n_terms is None:
            n_terms, _ = self.truncation_index(t)
        else:
            _check_time(t)
            self._ensure(n_terms)
        rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
        sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
        tr = self.basis.eval_table(n_terms - 1, 2.0 * rhos - 1.0)
        ts = self.basis.eval_table(n_terms - 1, 2.0 * sigmas - 1.0)
        n = np.arange(n_terms, dtype=float)
        decay = np.exp(-t * n * (n + self.alpha + self.beta + 1.0))
        nrm = np.array(self._nrm[:n_terms])
        return np.einsum("n,ni,nj->ij", decay / nrm, tr, ts)

    def cancellation_floor(self, t: float, n_terms: int) -> float:
        """Magnitude below which a computed kernel value is treated as unresolved.

        The alternating series is accumulated from terms bounded by B_n, and the
        recurrence loses a few digits at high degree, so values carry absolute
        noise of order n_terms * eps * sum B_n (measured: a few 1e-13 of the
        term scale).  The floor is set at 1e-10 of that scale, leaving values
        above it with at least ~5 reliable digits; the exponentially small
        deep-off-diagonal values at small t fall below it and cannot be
        certified in doubles.
        """
        _check_time(t)
        self._ensure(n_terms)
        return 1e-10 * sum(self.term_bound(n, t) for n in range(n_terms))

    def reproducing_integral(self, rho: float, t: float, f, rule: QuadratureRule) -> float:
        """int_0^1 K(rho, sigma, t) f(sigma) w(sigma) dsigma; -> f(rho) as t -> 0."""
        if rule.domain != "unit":
            raise DomainError("reproducing integral needs a unit-domain rule")
        n_terms, _ = self.truncation_index(t)
        kvals = self.grid(np.array([rho]), rule.nodes, t, n_terms=n_terms)[0]
        fvals = np.array([f(s) for s in rule.nodes], dtype=float)
        return float(np.dot(rule.weights, kvals * fvals))

    def mode_coefficient(self, rho: float, t: float, n: int, rule: QuadratureRule) -> float:
        """Projection <K(rho, ., t), P_n>_w; equals exp(-t mu_n) P_n(2 rho - 1)."""
        return self.reproducing_integral(
            rho, t, lambda s: self.basis.eval(n, 2.0 * s - 1.0), rule
        )


# -- sharp two-sided bound machinery ----------------------------------------


def lambda_envelope(theta: float, phi: float, t: float, alpha: float, beta: float) -> float:
    """[t + sin(th/2) sin(ph/2)]^(-a-1/2) [t + cos(th/2) cos(ph/2)]^(-b-1/2)."""
    s = t + math.sin(theta / 2.0) * math.sin(phi / 2.0)
    c = t + math.cos(theta / 2.0) * math.cos(phi / 2.0)
    return s ** (-alpha - 0.5) * c ** (-beta - 0.5)


def gaussian_factor(x: float, c: float, t: float) -> float:
    """Rod heat kernel exp(-x^2 / c t) / sqrt(pi c t)."""
    return math.exp(-x * x / (c * t)) / math.sqrt(math.pi * c * t)


@dataclass
class BoundScanResult:
    """Extremes of K / envelope over the resolvable scan grid, per constant."""

    c1: float
    c2: float
    min_ratio: dict
    max_ratio: dict
    k_min_large_t: float
    k_max_large_t: float
    rows: list  # (theta, phi, t, K, envelope, ratio) for the c1 envelope
    n_points: int = 0
    n_unresolved: int = 0

    @property
    def two_sided_on_grid(self) -> bool:
        vals = [self.min_ratio[c] for c in (self.c1, self.c2)]
        vals += [self.max_ratio[c] for c in (self.c1, self.c2)]
        vals += [self.k_min_large_t, self.k_max_large_t]
        return all(math.isfinite(v) and v > 0.0 for v in vals)


def bound_ratio_scan(
    kernel: HeatKernel,
    T: float = 1.0,
    c1: float = 3.8,
    c2: float = 4.25,
    n_angle: int = 13,
    n_time: int = 8,
    t_min: float = 0.05,
) -> BoundScanResult:
    """Scan K / (Lambda * gaussian(c)) over [0, pi]^2 x [t_min, T] for c in {c1, c2}.

    rho = cos^2(phi/2) and sigma = cos^2(theta/2).  For t > T the kernel itself
    is scanned (the bound there is a plain two-sided constant).  Grid points
    whose kernel value sits below the summation cancellation floor (deep
    off-diagonal at small t) are excluded from the extremes and counted in
    n_unresolved; finite positive extremes over the resolved points certify the
    two-sided bound there.
    """
    for name, value in (("T", T), ("t_min", t_min), ("c1", c1), ("c2", c2)):
        if not 0.0 < value < math.inf:
            raise DomainError(f"{name} must be finite and positive, got {value!r}")
    a, b = kernel.alpha, kernel.beta
    thetas = np.linspace(0.0, math.pi, n_angle)
    phis = np.linspace(0.0, math.pi, n_angle)
    ts = np.geomspace(t_min, T, n_time)
    sigmas = np.cos(thetas / 2.0) ** 2
    rhos = np.cos(phis / 2.0) ** 2
    min_ratio = {c1: math.inf, c2: math.inf}
    max_ratio = {c1: -math.inf, c2: -math.inf}
    rows = []
    n_points = n_unresolved = 0
    for t in ts:
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
    k_min, k_max = math.inf, -math.inf
    for t in np.geomspace(T * 1.5, T * 12.0, 4):
        kgrid = kernel.grid(rhos, sigmas, float(t))
        k_min = min(k_min, float(kgrid.min()))
        k_max = max(k_max, float(kgrid.max()))
    return BoundScanResult(
        c1=c1,
        c2=c2,
        min_ratio=min_ratio,
        max_ratio=max_ratio,
        k_min_large_t=k_min,
        k_max_large_t=k_max,
        rows=rows,
        n_points=n_points,
        n_unresolved=n_unresolved,
    )
