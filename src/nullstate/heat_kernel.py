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
from array import array
from typing import NamedTuple

import numpy as np

from .errors import DomainError, TruncationError
from .jacobi import JacobiBasis, QuadratureRule

DEFAULT_TAIL_TOL = 1e-10
DEFAULT_N_MAX = 2000
QUAD_POINTS = 120  # nodes of the Gauss-Jacobi rule the kernel integrals read
# point sets whose Jacobi table a kernel keeps: the seven that `verify all` reads
# between the kernel suite's last use of the quadrature nodes and the green
# suite's, namely the nodes and rho = 0.5 on them, the bound scan's angle grid,
# rho = 0.4, the adjoint stencil's sigmas and each boundary fit's sigmas
TABLES_KEPT = 7


class TruncationPolicy(NamedTuple):
    """Series truncation contract: certified tail <= tail_tol within n_max terms."""

    tail_tol: float = DEFAULT_TAIL_TOL
    n_max: int = DEFAULT_N_MAX


class KernelValue(NamedTuple):
    value: float
    tail_bound: float
    n_terms: int


def _check_time(t: float) -> None:
    if not 0.0 < t < math.inf:
        raise DomainError(f"kernel time must be finite and positive, got {t!r}")


def _check_terms(n_terms: int) -> None:
    if n_terms < 1:
        raise DomainError(f"n_terms must be >= 1, got {n_terms!r}")


def collapse_time(epsilon: float, eta: float, kappa: float) -> float:
    """Heat-kernel time of an interval-length ratio, t = (kappa/4) log(eta/epsilon)."""
    if epsilon <= 0.0 or eta <= 0.0:
        raise DomainError("interval lengths must be positive")
    return (kappa / 4.0) * math.log(eta / epsilon)


class HeatKernel:
    """Evaluator for K^(alpha,beta); immutable parameters, append-only caches.

    Every per-degree constant sits in a float64 column (`array("d")`) indexed
    by the degree n, each entry computed once and never changed:
    - `_nrm`: nrm_n, the squared shifted norm;
    - `_coef`: Pbar_n^2 / nrm_n, the term bound's t-independent factor;
    - `_rate`: n(n + alpha + beta + 1), the decay eigenvalue (`decay_rate`);
    - `_step`: 2n + alpha + beta + 2, the tail ratio's eigenvalue gap;
    - `_growth`: ((n + 1 + q) / (n + 1))^2 with q = max(alpha, beta), or 1
      where q <= 0, the tail ratio's endpoint-value growth;
    - `_shrink`: (2n + alpha + beta + 3) / (2n + alpha + beta + 1), times
      1 - alpha beta / ((n + 1 + alpha)(n + 1 + beta)) where alpha beta < 0,
      the tail ratio's norm shrinkage.
    `_nrm` and `_coef` read the basis (`_ensure`) one degree at a time and
    only as far as a caller asks, since a norm or an endpoint value may
    overflow at degrees no caller certifies.  The other four are arithmetic
    (`_extend`) and grow by doubling.  A column's numpy view (`_sum`) lives
    for one expression only, since an `array` cannot grow while it is viewed.
    """

    def __init__(self, alpha: float, beta: float):
        if alpha < -0.5 or beta < -0.5:
            raise DomainError(
                "endpoint-maximum tail bounds require alpha, beta >= -1/2, "
                f"got ({alpha!r}, {beta!r})"
            )
        self.basis = JacobiBasis(alpha, beta)
        self.policy = TruncationPolicy()
        self._nrm = array("d")
        self._coef = array("d")
        self._rate = array("d")
        self._step = array("d")
        self._growth = array("d")
        self._shrink = array("d")
        self._tables: dict = {}  # y bytes -> Jacobi table at y, least recently used first

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
        """Grow `_nrm` and `_coef` to degree n, one degree at a time."""
        while len(self._coef) <= n:
            m = len(self._coef)
            nrm = self.basis.shifted_norm_sq(m)
            pbar = self.basis.endpoint_max(m)
            self._nrm.append(nrm)
            self._coef.append(pbar * pbar / nrm)

    def _extend(self, n: int) -> None:
        """Grow `_rate`, `_step`, `_growth` and `_shrink` to at least degree n.

        Degree 0 of `_growth` and `_shrink` is a placeholder, 1 and inf: no
        tail is certified from degree 0, and at alpha + beta = -1 the norm
        factor would divide by zero there.
        """
        m = len(self._rate)
        if m > n:
            return
        a, b = self.alpha, self.beta
        apb, q, ab = a + b, max(a, b), a * b
        for k in range(m, max(n + 1, 2 * m)):
            self._rate.append(k * (k + a + b + 1.0))
            self._step.append(2 * k + apb + 2.0)
            self._growth.append(((k + 1.0 + q) / (k + 1.0)) ** 2 if q > 0.0 and k else 1.0)
            shrink = (2 * k + apb + 3.0) / (2 * k + apb + 1.0) if k else math.inf
            if ab < 0.0:
                shrink *= 1.0 - ab / ((k + 1.0 + a) * (k + 1.0 + b))
            self._shrink.append(shrink)

    def _table(self, n_terms: int, x) -> np.ndarray:
        """Degrees 0..n_terms-1 of the Jacobi table at y = 2x - 1, one row per point x.

        The kernel keeps the tables of its TABLES_KEPT most recently used point
        sets, point-major, so each point's degrees are one contiguous row.  A
        call that needs fewer degrees takes a prefix of each row; one that
        needs more rebuilds the table from degree 0.
        """
        y = 2.0 * np.asarray(x, dtype=float).ravel() - 1.0
        key = y.tobytes()
        table = self._tables.pop(key, None)
        if table is None or table.shape[1] < n_terms:
            table = np.ascontiguousarray(self.basis.eval_table(n_terms - 1, y).T)
            table.setflags(write=False)  # callers get views of it
        self._tables[key] = table
        if len(self._tables) > TABLES_KEPT:
            del self._tables[next(iter(self._tables))]
        return table[:, :n_terms]

    def term_bound(self, n: int, t: float) -> float:
        """B_n = exp(-t n(n+alpha+beta+1)) Pbar_n^2 / nrm_n.

        t is not checked here: callers validate it once, before they sum or
        scan many degrees at one time.
        """
        self._ensure(n)
        self._extend(n)
        return math.exp(-t * self._rate[n]) * self._coef[n]

    def _tail_bound(self, n: int, t: float) -> float:
        """Certified bound B_n / (1 - r) on sum_{m >= n} B_m; inf where r >= 1.

        r = exp(-t (2n + alpha + beta + 2)) * growth_n * shrink_n bounds
        B_{m+1}/B_m for all m >= n and decreases in n: each factor of the term
        ratio (eigenvalue decay, endpoint-value growth, norm shrinkage) is
        bounded by its value at m = n, where it is largest.  Every factor but
        t's is a column entry (see `HeatKernel`), so a call is two exps, a
        product and a quotient; B_n is `term_bound`'s.  The norms are read
        only where r < 1.
        """
        if len(self._rate) <= n:
            self._extend(n)
        ratio = math.exp(-t * self._step[n]) * self._growth[n] * self._shrink[n]
        if ratio >= 1.0:
            return math.inf
        if len(self._coef) <= n:
            self._ensure(n)
        return math.exp(-t * self._rate[n]) * self._coef[n] / (1.0 - ratio)

    def truncation_index(self, t: float) -> tuple[int, float]:
        """Number of terms and certified tail bound for time t.

        Returns (n_terms, tail_bound) with sum_{n >= n_terms} B_n <= tail_bound
        <= tail_tol.  Raises TruncationError if n_max is hit first (very small t).
        """
        _check_time(t)
        tol = self.policy.tail_tol
        best = math.inf
        tail_bound = self._tail_bound
        for n_terms in range(1, self.policy.n_max + 1):
            tail = tail_bound(n_terms, t)
            if tail < best:
                best = tail
            if tail <= tol:
                return n_terms, tail
        raise TruncationError(
            f"could not certify tail <= {tol!r} at t={t!r} within "
            f"{self.policy.n_max} terms (best bound {best!r}); "
            "t is too small for the series route",
            achieved_bound=best,
            n_terms=self.policy.n_max,
        )

    def _truncation(self, t: float, n_terms: int | None) -> tuple[int, float]:
        """(n_terms, certified tail) at time t; `truncation_index` if n_terms is None."""
        if n_terms is None:
            return self.truncation_index(t)
        _check_time(t)
        _check_terms(n_terms)
        self._ensure(n_terms)
        return n_terms, self._tail_bound(n_terms, t)

    def _sum(self, t, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """sum_n exp(-t mu_n) left_n right_n / nrm_n over the last (degree) axis.

        t is a scalar or broadcasts over the leading axes.  Each point's terms,
        formed in this order, are one contiguous row with its own pairwise sum,
        so a value does not depend on the route or on the other points.
        """
        n = np.arange(left.shape[-1], dtype=float)
        decay = np.exp(-t * n * (n + self.alpha + self.beta + 1.0))
        terms = np.multiply(decay * left, right, order="C")
        terms /= np.frombuffer(self._nrm, count=len(n))  # a view, dropped at once
        return terms.sum(axis=-1)

    def value(self, rho: float, sigma: float, t: float, n_terms: int | None = None) -> KernelValue:
        """Pointwise kernel value with its certified truncation error."""
        n_terms, tail = self._truncation(t, n_terms)
        table = self.basis.eval_table(n_terms - 1, np.array([2.0 * rho - 1.0, 2.0 * sigma - 1.0]))
        return KernelValue(value=float(self._sum(t, table[:, 0], table[:, 1])),
                           tail_bound=tail, n_terms=n_terms)

    def grid(self, rhos, sigmas, t, n_terms: int | None = None) -> np.ndarray:
        """K on the product grid rhos x sigmas; each cell is `value`'s float.

        t is one time, or an array of per-cell times that broadcasts to
        (len(rhos), len(sigmas)) and then needs n_terms; the first time out of
        range, in cell order, is refused.  Per-cell times make the cells
        samples, which may repeat a sigma at other times, so they read the
        table of the distinct sigmas in increasing order.  The Jacobi tables
        of rhos and of sigmas are kept (see `_table`), so a grid on the same
        points that needs no more terms runs no recurrence.
        """
        cols = slice(None)
        if np.ndim(t) == 0:
            n_terms, _ = self._truncation(t, n_terms)
        elif n_terms is None:
            raise DomainError("per-cell kernel times need n_terms")
        else:
            t = np.asarray(t, dtype=float)
            if not ((0.0 < t) & (t < math.inf)).all():
                for cell in np.broadcast_to(t, (np.size(rhos), np.size(sigmas))).flat:
                    _check_time(float(cell))  # raises at the first bad time, in cell order
            _check_terms(n_terms)
            self._ensure(n_terms)
            t = t[..., None]
            sigmas, cols = np.unique(sigmas, return_inverse=True)
        tr = self._table(n_terms, rhos)
        ts = self._table(n_terms, sigmas)[cols]
        return self._sum(t, tr[:, None, :], ts[None, :, :])

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
        self._extend(n_terms)
        rate, coef = self._rate, self._coef
        return 1e-10 * sum(math.exp(-t * rate[n]) * coef[n] for n in range(n_terms))

    def reproducing_integral(self, rho: float, t: float, values, rule: QuadratureRule):
        """int_0^1 K(rho, sigma, t) f(sigma) w(sigma) dsigma on the rule; -> f(rho) as t -> 0.

        values holds f at the rule's nodes: one row, whose integral comes back
        as a float, or a stack of rows, whose integrals come back as a list.
        One kernel row over the nodes serves every row, and each integral is
        its own dot product, so a row of a stack projects bit for bit as it
        does alone.  f = 1 gives the mass, 1, and f = P_n(2 sigma - 1) gives
        exp(-t mu_n) P_n(2 rho - 1).
        """
        rows = np.asarray(values, dtype=float)
        if rows.ndim not in (1, 2) or rows.shape[-1] != rule.nodes.size:
            raise DomainError(f"values must be one row or a stack of rows of {rule.nodes.size} "
                              f"node values, got shape {rows.shape}")
        kvals = self.grid(np.array([rho]), rule.nodes, t)[0]
        out = [float(np.dot(rule.weights, kvals * row)) for row in np.atleast_2d(rows)]
        return out if rows.ndim == 2 else out[0]


# -- sharp two-sided bound machinery ----------------------------------------


class BoundScanResult(NamedTuple):
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
    two-sided bound there, and a NaN kernel value leaves a NaN extreme, which
    does not.  Each time slice is evaluated as arrays on the kernel grid's
    (phi, theta) layout; rows keep that order.
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
    # the envelope's angle factors on the kernel grid's (phi, theta) layout
    theta_grid, phi_grid = np.meshgrid(thetas, phis)
    sin_prod = np.outer(np.sin(phis / 2.0), np.sin(thetas / 2.0))
    cos_prod = np.outer(np.cos(phis / 2.0), np.cos(thetas / 2.0))
    x = theta_grid - phi_grid
    neg_sq = -x * x
    min_ratio = {c1: math.inf, c2: math.inf}
    max_ratio = {c1: -math.inf, c2: -math.inf}
    rows = []
    n_points = n_unresolved = 0
    for t in ts.tolist():
        n_terms, _ = kernel.truncation_index(t)
        floor = kernel.cancellation_floor(t, n_terms)
        kgrid = kernel.grid(rhos, sigmas, t, n_terms=n_terms)
        resolved = ~(np.abs(kgrid) <= floor)
        n_points += kgrid.size
        n_unresolved += kgrid.size - int(np.count_nonzero(resolved))
        k = kgrid[resolved]
        # float_power calls libm's pow per element, as the scalar envelope does;
        # np.power may take a SIMD route that differs from it in the last bit
        lam = (np.float_power(t + sin_prod[resolved], -a - 0.5)
               * np.float_power(t + cos_prod[resolved], -b - 0.5))
        for c in (c1, c2):
            env = lam * (np.exp(neg_sq[resolved] / (c * t)) / math.sqrt(math.pi * c * t))
            ratio = k / env
            min_ratio[c] = float(np.minimum(min_ratio[c], ratio.min(initial=math.inf)))
            max_ratio[c] = float(np.maximum(max_ratio[c], ratio.max(initial=-math.inf)))
            if c == c1:
                rows += zip(theta_grid[resolved].tolist(), phi_grid[resolved].tolist(),
                            [t] * k.size, k.tolist(), env.tolist(), ratio.tolist())
    k_min, k_max = math.inf, -math.inf
    for t in np.geomspace(T * 1.5, T * 12.0, 4):
        kgrid = kernel.grid(rhos, sigmas, float(t))
        k_min = float(np.minimum(k_min, kgrid.min()))
        k_max = float(np.maximum(k_max, kgrid.max()))
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
