"""Jacobi polynomials on [-1, 1] and shifted to [0, 1], with quadrature on [0, 1].

Evaluation goes through the stable three-term recurrence, always from degree
0; the explicit gamma-function sum is kept only as a cross-check oracle (it
alternates and loses digits past degree ~10).  Quadrature needs no
eigensolver: the Jacobi matrix of the unit-interval weight factors as B B^T
with B lower bidiagonal (the chain-sequence factorisation; Gautschi,
Orthogonal Polynomials: Computation and Approximation, OUP 2004), the nodes
are the squared singular values of B, and the weights are Christoffel weights
from the orthonormal recurrence at the nodes, so they are positive by
construction.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError

# Tables over at most NARROW points run the recurrence one point at a time on
# Python floats; wider ones run it on the whole ndarray.  Both do the same IEEE
# operations in the same order, so the two routes agree bit for bit.  Measured
# at degree 467 on a 2-vCPU Xeon VM, best of repeated runs in a slow and a fast
# phase of the host: per-point floats take 2.53 and 1.70 ms at 24 points against
# 2.97 and 1.80 ms for numpy, and 3.50 and 2.24 ms at 32 points against 2.98 and
# 1.81 ms.  The crossover lies between 24 and 32 points.
NARROW = 24


def _recurrence_coefficients(n_lo: int, n_hi: int, alpha: float, beta: float) -> list:
    """Columns a, b0, b1, c with a P_n = (b0 + b1 y) P_{n-1} - c P_{n-2}, n_lo <= n < n_hi."""
    n = np.arange(n_lo, n_hi, dtype=float)
    apb = alpha + beta
    a = 2.0 * n * (n + apb) * (2.0 * n + apb - 2.0)
    b0 = (2.0 * n + apb - 1.0) * (alpha * alpha - beta * beta)
    b1 = (2.0 * n + apb - 1.0) * (2.0 * n + apb) * (2.0 * n + apb - 2.0)
    c = 2.0 * (n + alpha - 1.0) * (n + beta - 1.0) * (2.0 * n + apb)
    return [a, b0, b1, c]


def log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _endpoint_value(n: int, q: float) -> float:
    """|P_n| at the endpoint whose parameter is q: Gamma(n+q+1)/(n! Gamma(q+1))."""
    try:
        return math.exp(math.lgamma(n + q + 1.0) - math.lgamma(n + 1.0) - math.lgamma(q + 1.0))
    except OverflowError:
        raise DomainError(f"|P_{n}| at the endpoint of parameter {q!r} overflows a float") from None


class JacobiBasis:
    """Parameter pair (alpha, beta) with alpha, beta > -1."""

    __slots__ = ("alpha", "beta", "_coeffs", "_shifted")

    def __init__(self, alpha: float, beta: float):
        for name, value in (("alpha", alpha), ("beta", beta)):
            if not -1.0 < value < math.inf:
                raise DomainError(f"jacobi parameter {name} must lie in (-1, inf), got {value!r}")
        self.alpha = alpha
        self.beta = beta
        self._coeffs = [[] for _ in range(4)]
        self._shifted = {}

    # -- evaluation ---------------------------------------------------------

    def _coefficients(self, n_max: int) -> list:
        """Columns a, b0, b1, c of this basis's recurrence for degrees 2..n_max.

        The table is built with numpy and grows by doubling, so a fresh basis
        builds only the rows it is asked for.  It is kept as lists of Python
        floats (128 bytes a row), boxed once as they grow, and a call gets list
        slices, which copy pointers and box nothing.
        """
        if n_max < 0:
            raise DomainError(f"jacobi degree must be >= 0, got {n_max!r}")
        have, need = len(self._coeffs[0]), max(n_max - 1, 0)
        if have < need:
            new = _recurrence_coefficients(have + 2, max(need, 2 * have) + 2, self.alpha, self.beta)
            for column, rows in zip(self._coeffs, new):
                column.extend(rows.tolist())
        return [column[:need] for column in self._coeffs]

    def _rows(self, coeffs: list, n_max: int, y):
        """P_0(y), ..., P_n_max(y), one degree at a time; y is a Python float or an ndarray."""
        pm1 = np.ones_like(y) if isinstance(y, np.ndarray) else 1.0
        yield pm1
        if n_max == 0:
            return
        p = (self.alpha + 1.0) + (self.alpha + self.beta + 2.0) * (y - 1.0) / 2.0
        yield p
        for a, b0, b1, c in zip(*coeffs):
            p, pm1 = ((b0 + b1 * y) * p - c * pm1) / a, p
            yield p

    def eval(self, n: int, y):
        """P_n^(alpha,beta)(y), row n of `eval_table`; y may be an ndarray."""
        y = np.asarray(y, dtype=float)
        p = self.eval_table(n, y)[n]
        return p if y.ndim else float(p[0])

    def eval_table(self, n_max: int, y) -> np.ndarray:
        """All degrees 0..n_max at once; result has shape (n_max+1,) + y.shape."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        coeffs = self._coefficients(n_max)
        table = np.empty((n_max + 1,) + y.shape)
        if y.size > NARROW:
            for k, p in enumerate(self._rows(coeffs, n_max, y)):
                table[k] = p
            return table
        columns = table.reshape(len(table), y.size)
        for j, yj in enumerate(y.ravel().tolist()):
            columns[:, j] = np.fromiter(self._rows(coeffs, n_max, yj), float, n_max + 1)
        return table

    def eval_explicit_sum(self, n: int, y):
        """The explicit gamma-function sum; cross-check oracle for n <= ~10.

        The gamma ratios telescope into finite products, so each summand is
        exact to round-off (no lgamma cancellation for large arguments).
        """
        y = np.asarray(y, dtype=float)
        apb = self.alpha + self.beta
        acc = np.zeros_like(y)
        half = (y - 1.0) / 2.0
        for m in range(n + 1):
            coeff = math.comb(n, m) / math.factorial(n)
            for j in range(m, n):  # Gamma(alpha+n+1) / Gamma(alpha+m+1)
                coeff *= self.alpha + 1.0 + j
            for j in range(m):  # Gamma(apb+n+m+1) / Gamma(apb+n+1)
                coeff *= apb + n + 1.0 + j
            acc = acc + coeff * half**m
        return acc if acc.ndim else float(acc)

    def deriv(self, n, y, order: int = 1):
        """Exact derivative via the shifted-parameter identity.

        d/dy P_n^(a,b) = (n+a+b+1)/2 * P_{n-1}^(a+1,b+1).  n is one degree, or
        a 1-d array of degrees whose rows the result holds, all read from one
        table of the shifted basis; rows of degree n < order are zeros.
        """
        shifted = self._shifted.get(order)
        if shifted is None:  # kept, so its coefficient table is built once
            shifted = self._shifted[order] = JacobiBasis(self.alpha + order, self.beta + order)
        n = np.asarray(n)
        factor = np.ones(n.shape)
        for j in range(order):
            factor *= (n + self.alpha + self.beta + 1.0 + j) / 2.0
        y = np.asarray(y, dtype=float)
        lower = n - order
        top = int(lower.max(initial=0))
        table = shifted.eval_table(top, y).reshape((top + 1,) + y.shape)
        per_degree = n.shape + (1,) * y.ndim
        rows = np.where((lower < 0).reshape(per_degree), 0.0,
                        table[np.maximum(lower, 0)] * factor.reshape(per_degree))
        return rows if rows.ndim else float(rows)

    # -- scalars ------------------------------------------------------------

    def endpoint_max(self, n: int) -> float:
        """max(|P_n(1)|, |P_n(-1)|); equals max over [-1,1] for alpha,beta >= -1/2."""
        # not the value at max(alpha, beta): lgamma rounding can order close ones either way
        return max(_endpoint_value(n, self.alpha), _endpoint_value(n, self.beta))

    def norm_sq(self, n: int) -> float:
        """h_n, the squared L^2 norm against (1-y)^alpha (1+y)^beta on [-1, 1]."""
        apb = self.alpha + self.beta
        if n == 0 and apb + 1.0 == 0.0:
            # h_0 = 2^(alpha+beta+1) B(alpha+1, beta+1) = B(alpha+1, beta+1); the general
            # form's log(2n+alpha+beta+1) and lgamma(n+alpha+beta+1) sit at their poles here
            log_h = log_beta(self.alpha + 1.0, self.beta + 1.0)
        else:
            log_h = ((apb + 1.0) * math.log(2.0)
                     + math.lgamma(n + self.alpha + 1.0)
                     + math.lgamma(n + self.beta + 1.0)
                     - math.log(2.0 * n + apb + 1.0)
                     - math.lgamma(n + 1.0)
                     - math.lgamma(n + apb + 1.0))
        try:
            value = math.exp(log_h)
        except OverflowError:
            value = math.inf
        return self._representable("squared norm", n, value)

    def shifted_norm_sq(self, n: int) -> float:
        """Squared norm of P_n(2s-1) against s^beta (1-s)^alpha on [0, 1]."""
        value = 2.0 ** (-self.alpha - self.beta - 1.0) * self.norm_sq(n)
        return self._representable("shifted squared norm", n, value)

    def _representable(self, what: str, n: int, value: float) -> float:
        """value, a norm every caller divides by, unless it left the positive floats."""
        if 0.0 < value < math.inf:
            return value
        raise DomainError(f"{what} of P_{n} for (alpha, beta) = ({self.alpha!r}, {self.beta!r}) "
                          f"{'underflows' if value == 0.0 else 'overflows'} a float")

    # -- the differential operator ------------------------------------------

    def operator_apply(self, n, y):
        """The Jacobi operator (1-y^2) d^2 + [beta-alpha-(alpha+beta+2)y] d on P_n.

        n is one degree, or a 1-d array of degrees whose rows the result holds.
        """
        y = np.asarray(y, dtype=float)
        d1 = self.deriv(n, y, 1)
        d2 = self.deriv(n, y, 2)
        return (1.0 - y * y) * d2 + (
            self.beta - self.alpha - (self.alpha + self.beta + 2.0) * y
        ) * d1

    def operator_residual(self, n_max: int, y_grid) -> np.ndarray:
        """max |J[P_n] + n(n+alpha+beta+1) P_n| over a 1-d grid, for n = 0..n_max.

        P_n is an eigenfunction of the operator with eigenvalue
        -n(n+alpha+beta+1), so each entry vanishes to round-off.  Three tables
        serve every degree: this basis's and those of its order-1 and order-2
        shifted bases.
        """
        y = np.asarray(y_grid, dtype=float)
        n = np.arange(n_max + 1)
        lam = n * (n + self.alpha + self.beta + 1.0)
        res = self.operator_apply(n, y) + lam[:, None] * self.eval_table(n_max, y)
        return np.max(np.abs(res), axis=1)


class QuadratureRule(NamedTuple):
    """Gauss rule on [0, 1]: nodes/weights integrating g(s) s^beta (1-s)^alpha
    exactly for polynomial g of degree <= 2m - 1."""

    nodes: np.ndarray
    weights: np.ndarray


def gauss_jacobi_rule(m: int, basis: JacobiBasis) -> QuadratureRule:
    """m-point Gauss-Jacobi rule on [0, 1] from the bidiagonal factor of its Jacobi matrix.

    It reads the kept rule of (m, alpha, beta), whose nodes and weights are
    read-only, since every caller shares them.  A rule with a weight that
    underflows to zero or a subnormal is refused.
    """
    if m < 1:
        raise DomainError(f"rule size must be >= 1, got {m!r}")
    nodes, weights = _gauss_jacobi(m, basis.alpha, basis.beta)
    return QuadratureRule(nodes=nodes, weights=weights)


def _chain_sequence(m: int, a: float, b: float) -> tuple:
    """zeta_{2k+1} for k = 0..m-1 and zeta_{2k} for k = 1..m-1, of s^b (1-s)^a on [0, 1].

    The unit Jacobi matrix has diagonal zeta_{2k} + zeta_{2k+1} (zeta_0 = 0) and
    off-diagonal sqrt(zeta_{2k-1} zeta_{2k}): it is B B^T for the lower
    bidiagonal B with diagonal sqrt(zeta_{2k+1}) and subdiagonal sqrt(zeta_{2k}).
    """
    apb = a + b
    k = np.arange(1, m, dtype=float)
    odd = np.empty(m)
    odd[0] = (b + 1.0) / (apb + 2.0)
    odd[1:] = (k + b + 1.0) * (k + apb + 1.0) / ((2.0 * k + apb + 1.0) * (2.0 * k + apb + 2.0))
    even = k * (k + a) / ((2.0 * k + apb) * (2.0 * k + apb + 1.0))
    return odd, even


def _christoffel_sums(s: np.ndarray, diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """sum_{k <= len(off)} q_k(s)^2 for the orthonormal q_k of a Jacobi matrix.

    q_0 = 1 and s q_k = off[k] q_{k+1} + diag[k] q_k + off[k-1] q_{k-1}: one
    array step per degree over every point of s.
    """
    total, prev, cur, e_prev = np.ones_like(s), np.zeros_like(s), np.ones_like(s), 0.0
    for d, e in zip(diag, off):
        prev, cur, e_prev = cur, ((s - d) * cur - e_prev * prev) / e, e
        total += cur * cur
    return total


# One `verify all` builds rules of one size (m = 120): on one basis, or on two
# when --alpha or --beta names a pair other than that of h.
@functools.lru_cache(maxsize=4)
def _gauss_jacobi(m: int, a: float, b: float) -> tuple:
    """Read-only nodes and weights of the m-point rule for s^b (1-s)^a on [0, 1].

    The Jacobi matrix of the weight is B B^T, B the lower bidiagonal factor of
    `_chain_sequence`, whose zeta are all positive for a, b > -1.  The nodes
    are the squared singular values of B, which LAPACK's dqds finds to high
    relative accuracy; up to m = 128 numpy's `svd` without vectors stays on
    unblocked, scalar code and wakes no BLAS thread, where a dense `eigh` of
    the same size does.  The weights are the [-1, 1] weight mass
    2^(a+b+1) B(a+1, b+1) over the Christoffel sums at the nodes, times
    2^(-a-b-1); a rule with one that underflows is refused.
    """
    apb = a + b
    try:
        mu0 = math.exp((apb + 1.0) * math.log(2.0) + log_beta(a + 1.0, b + 1.0))
    except OverflowError:
        raise DomainError(f"the weight mass of the {m}-point rule for (alpha, beta) = "
                          f"({a!r}, {b!r}) overflows a float") from None
    odd, even = _chain_sequence(m, a, b)
    factor = np.diag(np.sqrt(odd)) + np.diag(np.sqrt(even), 1)  # B^T, upper bidiagonal
    try:
        nodes = np.linalg.svd(factor, compute_uv=False)[::-1] ** 2
    except np.linalg.LinAlgError as exc:  # pragma: no cover - dqds on a positive bidiagonal is tame
        raise DomainError(f"quadrature singular values failed for m={m}, "
                          f"(alpha, beta)=({a}, {b}): {exc}") from exc
    diag = odd.copy()
    diag[1:] += even
    weights = mu0 / _christoffel_sums(nodes, diag, np.sqrt(odd[:-1] * even)) * 2.0 ** (-apb - 1.0)
    lost = int(np.count_nonzero(weights < np.finfo(float).tiny))
    if lost:
        raise DomainError(f"the {m}-point unit-domain rule for (alpha, beta) = ({a!r}, {b!r}) "
                          f"has {lost} weights that underflow to zero or a subnormal")
    for array in (nodes, weights):
        array.flags.writeable = False
    return nodes, weights
