"""Finite-difference residuals of the null-state PDEs and conformal Ward identities.

The system lives on strictly increasing coordinate tuples.  One index iota may
carry an anomalous weight h; every other point carries theta_1.  Residuals are
reported relative to the largest single constituent term, because a true
solution produces exactly the catastrophic cancellation the residual measures.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable, Optional

import numpy as np

from . import findiff
from .errors import DomainError, PreconditionError
from .exponents import check_kappa, leg_weight

STEP_FACTOR = 1e-4  # stencil step as a fraction of the minimum gap; < 1/4 keeps the wings in it
# sampled columns, B (1 + 4M), from which a batch's jet and terms are arrays;
# the row loop on Python floats is faster below about 100 at M = 2, 5 and 8
BATCH_COLUMNS = 100
SQUARE_MAX = math.sqrt(sys.float_info.max)  # the largest double whose square is finite


def _min_gaps(X: np.ndarray) -> np.ndarray:
    """The minimum gap of each row of a (B, M) array of configurations.

    PointConfig and `batch_residuals` both refuse rows here, with the same
    text: fewer than two coordinates, a coordinate that is not finite, a span
    that overflows, or coordinates that are not strictly increasing.
    """
    if X.ndim != 2 or X.shape[1] < 2:
        raise DomainError("a configuration needs at least two coordinates")
    ok = np.isfinite(X).all(axis=1)
    if not ok.all():
        raise DomainError(f"coordinates must be finite, got {_first_bad(X, ok)!r}")
    # x_M - x_1 bounds every gap of increasing coordinates, so np.diff below
    # cannot overflow on any row that passes the next check
    with np.errstate(over="ignore"):
        ok = np.abs(X[:, -1] - X[:, 0]) < math.inf
    if not ok.all():
        raise DomainError(
            f"coordinates must be finite and so must their span, got {_first_bad(X, ok)!r}"
        )
    gaps = np.diff(X, axis=1)
    ok = (gaps > 0.0).all(axis=1)
    if not ok.all():
        raise DomainError(f"coordinates must be strictly increasing, got {_first_bad(X, ok)!r}")
    return gaps.min(axis=1)


def _first_bad(X: np.ndarray, ok: np.ndarray) -> tuple:
    return tuple(X[np.argmin(ok)].tolist())


class PointConfig:
    """Strictly increasing coordinates x_1 < x_2 < ... < x_M.

    `array` holds the coordinates as one read-only float64 array.  Equality,
    hash and repr read `coords` alone.
    """

    __slots__ = ("coords", "M", "min_gap", "array")

    def __init__(self, coords):
        xs = np.array(coords, dtype=float)  # a copy: the caller's array stays writeable
        self.min_gap = _min_gaps(xs[None]).item()
        xs.flags.writeable = False
        self.coords = tuple(xs.tolist())
        self.M = len(self.coords)
        self.array = xs

    def __repr__(self) -> str:
        return f"PointConfig(coords={self.coords!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.coords,))

    @classmethod
    def of(cls, *xs) -> "PointConfig":
        return cls(tuple(xs))

    def x(self, i: int) -> float:
        """1-based coordinate access matching the math."""
        if not 1 <= i <= self.M:
            raise DomainError(f"index {i} outside 1..{self.M}")
        return self.coords[i - 1]


class WeightAssignment:
    """theta_1 everywhere except the anomalous index iota, which carries h."""

    __slots__ = ("kappa", "iota", "h", "theta1")

    def __init__(self, kappa: float, iota: int, h: float):
        check_kappa(kappa)
        if iota < 1:
            raise DomainError(f"iota must be a 1-based index, got {iota!r}")
        self.kappa = kappa
        self.iota = iota
        self.h = h
        self.theta1 = leg_weight(1, kappa)

    @property
    def homogeneous(self) -> bool:
        return self.h == self.theta1

    def weight(self, i: int) -> float:
        return self.h if i == self.iota else self.theta1

    @classmethod
    def one_leg(cls, kappa: float, M: int) -> "WeightAssignment":
        """All points carry theta_1 (the unmodified system)."""
        return cls(kappa=kappa, iota=M, h=leg_weight(1, kappa))


class ResidualReport:
    __slots__ = ("equation", "residual", "scale", "step")

    def __init__(self, equation: str, residual: float, scale: float, step: float):
        self.equation = equation
        self.residual = residual
        self.scale = scale
        self.step = step

    @property
    def relative(self) -> float:
        return abs(self.residual) / max(self.scale, 1e-300)


class CandidateFunction:
    """An evaluable scalar field on strictly increasing configurations.

    F maps one configuration, shape (M,), to a float and a batch, the columns of
    an (M, B) array, to a (B,) array.  func must be pure and must accept both;
    xs[k] is a scalar or a length-B array, so numpy arithmetic serves both.  A
    batch result of any other shape than (B,) raises DomainError.  grad/second,
    when provided, are exact partial derivatives used only as stencil-validation
    oracles.
    """

    __slots__ = ("name", "func", "arity", "grad", "second")

    def __init__(
        self,
        name: str,
        func: Callable[[np.ndarray], float],
        arity: Optional[int] = None,
        grad: Optional[Callable[[np.ndarray, int], float]] = None,
        second: Optional[Callable[[np.ndarray, int], float]] = None,
    ):
        self.name = name
        self.func = func
        self.arity = arity
        self.grad = grad
        self.second = second

    def __call__(self, coords):
        xs = np.asarray(coords, dtype=float)
        if xs.ndim not in (1, 2) or self.arity not in (None, len(xs)):
            M = self.arity or "M"
            raise DomainError(f"{self.name} takes shape ({M},) or ({M}, B), got {xs.shape}")
        if xs.ndim == 1:
            return float(self.func(xs))
        vals = np.asarray(self.func(xs), dtype=float)
        if vals.shape != xs.shape[1:]:
            raise DomainError(f"{self.name} returned shape {vals.shape} for a batch {xs.shape}")
        return vals


# -- stencils -----------------------------------------------------------------


@functools.lru_cache(maxsize=16)  # building it costs more than a one-row stencil's set-up
def _wing_pattern(M: int) -> np.ndarray:
    """(M, 1 + 4M) step multiples: column 1 + 4k + s moves x_k by (-2, -1, 1, 2)[s] steps.

    The zeros carry the signs of 0 * (-2, -1, 1, 2), and column 0 is -0.0, so
    x + pattern * h leaves every unmoved coordinate bit for bit as it is.
    """
    wings = (np.eye(M)[:, :, None] * [-2.0, -1.0, 1.0, 2.0]).reshape(M, 4 * M)
    pattern = np.concatenate([np.full((M, 1), -0.0), wings], axis=1)
    pattern.setflags(write=False)
    return pattern


def _stencil(F, X: np.ndarray, hs: list, arrays: bool) -> tuple:
    """F and all its first and second partials at each row of X, from one F call.

    X is a (B, M) array of configurations and hs their B steps.  Row b owns
    1 + 4M columns of the batch: x first, then x with x_k moved by -2h, -h, +h,
    +2h for k = 1..M.  Returns the jet (F, first partials, second partials),
    indexed [b] and [b][k - 1]: as lists of Python floats, or with `arrays` as
    float64 arrays of shape (B,), (B, M) and (B, M), whose elements are the
    lists' floats bit for bit.  Every equation of the system reads its partials
    from here, and the pde suite's `stencil_vs_analytic` checks them against
    exact partials.
    """
    B, M = X.shape
    n = 1 + 4 * M
    h = np.array(hs)
    # (M, B, 1 + 4M): coordinate, row, sample
    cols = X.T[:, :, None] + _wing_pattern(M)[:, None, :] * h[:, None]
    vals = F(cols.reshape(M, B * n))
    if arrays:
        vals = vals.reshape(B, n)
        f0, wings = vals[:, 0], vals[:, 1:].reshape(B, M, 4).transpose(2, 0, 1)
        with np.errstate(over="ignore", invalid="ignore"):  # as Python floats take inf
            return (f0, findiff.first(wings, h[:, None]),
                    findiff.second(f0[:, None], wings, h[:, None]))
    vals = vals.tolist()
    fs, grads, seconds = [], [], []
    for b, h in enumerate(hs):
        f0 = vals[b * n]
        wings = [vals[b * n + 1 + 4 * k : b * n + 5 + 4 * k] for k in range(M)]
        fs.append(f0)
        grads.append([findiff.first(w, h) for w in wings])
        seconds.append([findiff.second(f0, w, h) for w in wings])
    return fs, grads, seconds


# -- residuals ----------------------------------------------------------------


def system_residuals(F, config: PointConfig, weights: WeightAssignment) -> list[ResidualReport]:
    """All available null-state equations plus the three Ward identities.

    The null-state equation centered on x_j ("null_state[j]") is
    kappa/4 d_j^2 F + sum_{k != j} [d_k F/(x_k - x_j) - w_k F/(x_k - x_j)^2]
    with w_k = weights.weight(k); there is none on the anomalous index unless
    h = theta_1.  Every equation reads from one shared set of 1 + 4M samples of
    F with step STEP_FACTOR * min_gap.  Each residual is the sum of its terms
    (`_fsum`), reported against the largest |term|.  This is `batch_residuals`
    on one row, refused where it refuses a row (`_residuals`).
    """
    return _residuals(F, config.array[None], [config.min_gap], weights)[0]


def batch_residuals(F, X, weights: WeightAssignment) -> list[list[ResidualReport]]:
    """`system_residuals` at each row of a (B, M) array of configurations.

    A row is refused as PointConfig refuses it, then as `_residuals` does.
    The B (1 + 4M) stencil samples go to F in one call.  Below BATCH_COLUMNS
    of them the rows are assembled one by one on Python floats, from there on
    as float64 arrays by the same operations; either way each row is
    `system_residuals` on its configuration bit for bit.
    """
    X = np.asarray(X, dtype=float)
    return _residuals(F, X, _min_gaps(X).tolist(), weights)


def _fsum(terms: list) -> float:
    """The correctly rounded sum of the terms, or NaN if they hold both +inf and -inf.

    math.fsum, except where a partial sum of finite terms overflows it: then
    their exact sum in integer units of 2**-1074, rounded once.
    """
    try:
        return math.fsum(terms)
    except ValueError:  # +inf and -inf
        return math.nan
    except OverflowError:
        if not all(map(math.isfinite, terms)):
            return _fsum([t for t in terms if not math.isfinite(t)])
    units = sum(n * ((1 << 1074) // d) for n, d in map(float.as_integer_ratio, terms))
    try:
        return units / (1 << 1074)
    except OverflowError:
        return math.inf if units > 0 else -math.inf


def _residuals(F, X: np.ndarray, gaps: list, weights: WeightAssignment) -> list:
    """The reports of every row of X, whose minimum gaps are `gaps`.

    Before F is called, the first row is refused on which the row loop's floats
    would raise: a square of a coordinate or span that overflows (libm's pow,
    as x**2 takes it, overflows where x * x does), or 12 h h, the second
    partials' denominator, at 0 (so too where h or gap**2 is).  From
    BATCH_COLUMNS sampled columns on, the jet and terms are arrays.
    """
    B, M = X.shape
    if weights.iota > M:
        raise DomainError(f"iota={weights.iota} outside 1..{M}")
    xss, hs = X.tolist(), [STEP_FACTOR * gap for gap in gaps]
    for xs, h, gap in zip(xss, hs, gaps):
        lo, hi = xs[0], xs[-1]  # -lo, hi and hi - lo bound every |x_k| and |x_k - x_j|
        if -lo > SQUARE_MAX or hi > SQUARE_MAX or hi - lo > SQUARE_MAX:
            raise DomainError(f"x = {tuple(xs)!r} has a coordinate or span beyond "
                              f"{SQUARE_MAX!r}, whose square overflows")
        if 12.0 * h * h == 0.0:
            raise PreconditionError(
                f"stencil step {h!r} of minimum gap {gap!r} gives 12*step*step = 0.0")
    ws = [weights.weight(k) for k in range(1, M + 1)]
    js = [j for j in range(M) if weights.homogeneous or j + 1 != weights.iota]
    names = [f"null_state[{j + 1}]" for j in js]
    names += ["ward_translation", "ward_dilation", "ward_special_conformal"]
    quarter = weights.kappa / 4.0
    arrays = B * (1 + 4 * M) >= BATCH_COLUMNS
    jet = _stencil(F, X, hs, arrays)
    if arrays:
        groups = _batch_terms(X, *jet, np.array(ws), js, quarter)
        scales = np.concatenate([_scales(g).reshape(B, -1) for g in groups], axis=1)
        nulls, trans, dil, conf = (g.tolist() for g in groups)
        return [
            [ResidualReport(name, _fsum(terms), scale, h)
             for name, terms, scale in zip(names, [*n, t, d, c], row_scales)]
            for n, t, d, c, row_scales, h in zip(nulls, trans, dil, conf, scales.tolist(), hs)
        ]
    rows = []
    for xs, fval, grad, second, h in zip(xss, *jet, hs):
        potentials = [-w * fval for w in ws]
        equations = []
        for j in js:
            xj = xs[j]
            terms = [quarter * second[j]]
            for k in range(M):
                if k != j:
                    dx = xs[k] - xj
                    terms.append(grad[k] / dx)
                    terms.append(potentials[k] / dx**2)
            equations.append(terms)
        equations += [
            grad,
            [x * g for x, g in zip(xs, grad)] + [w * fval for w in ws],
            [x**2 * g for x, g in zip(xs, grad)] + [2.0 * w * x * fval for w, x in zip(ws, xs)],
        ]
        rows.append([
            ResidualReport(name, _fsum(terms), max(map(abs, terms), default=0.0), h)
            for name, terms in zip(names, equations)
        ])
    return rows


def _batch_terms(X, fval, grad, second, ws, js, quarter):
    """The row loop's terms as arrays, each element by the loop's own operations.

    Returns the null-state terms (B, len(js), 2M - 1) and the translation
    (B, M), dilation (B, 2M) and special conformal (B, 2M) terms, each last
    axis in the loop's order.  Squares are libm's pow, as Python's x**2 takes
    them: numpy's x * x differs in the last bit on about one double in a
    thousand.
    """
    B, M = X.shape
    ks = np.array([[k for k in range(M) if k != j] for j in js])  # (len(js), M - 1)
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats take inf
        dx = X[:, ks] - X[:, js, None]
        potentials = -ws * fval[:, None]
        pairs = np.stack([grad[:, ks] / dx, potentials[:, ks] / np.float_power(dx, 2.0)],
                         axis=-1)
        nulls = np.concatenate([quarter * second[:, js, None], pairs.reshape(B, len(js), -1)],
                               axis=-1)
        f = fval[:, None]
        return (nulls, grad, np.concatenate([X * grad, ws * f], axis=1),
                np.concatenate([np.float_power(X, 2.0) * grad, 2.0 * ws * X * f], axis=1))


def _scales(terms: np.ndarray) -> np.ndarray:
    """max(map(abs, t)) of each last-axis row t: NaN only where t's first term is."""
    scale = np.fmax.reduce(np.abs(terms), axis=-1)
    scale[np.isnan(terms[..., 0])] = np.nan
    return scale


# -- builtin candidates ---------------------------------------------------------


def builtin_n1(kappa: float) -> CandidateFunction:
    """The two-point solution (x2 - x1)^(-2 theta_1), unique up to scale."""
    return builtin_power_product({(1, 2): -2.0 * leg_weight(1, kappa)}, 2, name="n1")


def builtin_power_product(mu: dict, M: int, name: str = "power") -> CandidateFunction:
    """Product field prod_{i<j} (x_j - x_i)^mu[i,j] with exact derivatives.

    mu maps 1-based ordered pairs (i, j) with i < j to exponents.  A batch of
    a field whose two or more pairs share one exponent takes one gathered
    subtract, one power and one in-order product over the pairs, bit for bit
    the pair loop (1.0 * p = p); one configuration, whose scalar powers can
    round otherwise, and mixed exponents take the loop.
    """
    for (i, j) in mu:
        if not (1 <= i < j <= M):
            raise DomainError(f"exponent key {(i, j)!r} is not an ordered pair within 1..{M}")
    pairs = [((i - 1, j - 1), float(e)) for (i, j), e in mu.items()]
    shared = pairs[0][1] if len(pairs) > 1 and len({e for _, e in pairs}) == 1 else None
    lower = np.array([i for (i, _), _ in pairs], dtype=int)
    upper = np.array([j for (_, j), _ in pairs], dtype=int)

    def func(xs):
        with np.errstate(over="ignore"):  # the checks name an infinite product; no warning
            if shared is not None and xs.ndim == 2:
                return np.multiply.reduce((xs[upper] - xs[lower]) ** shared, axis=0)
            acc = 1.0
            for (i, j), e in pairs:
                acc *= (xs[j] - xs[i]) ** e
        return acc

    def dlog(xs, k0):
        total = 0.0
        for (i, j), e in pairs:
            if k0 == j:
                total += e / (xs[j] - xs[i])
            elif k0 == i:
                total -= e / (xs[j] - xs[i])
        return total

    def d2log(xs, k0):
        total = 0.0
        for (i, j), e in pairs:
            if k0 in (i, j):
                total -= e / (xs[j] - xs[i]) ** 2
        return total

    def grad(xs, k):
        return func(xs) * dlog(xs, k - 1)

    def second(xs, k):
        lg = dlog(xs, k - 1)
        return func(xs) * (lg * lg + d2log(xs, k - 1))

    return CandidateFunction(name=name, func=func, arity=M, grad=grad, second=second)


def parse_power_spec(spec: str, M: int | None) -> CandidateFunction:
    """Parse the compact grammar 'i,j=value;i,j=value' into a power product.

    The product takes M points or, if M is None, as many as its largest index;
    a spec that names no pair, or one pair twice, is refused.
    """
    mu = {}
    for piece in spec.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        try:
            key, value = piece.split("=")
            i_s, j_s = key.split(",")
            pair, exponent = (int(i_s), int(j_s)), float(value)
        except ValueError as exc:
            raise DomainError(f"bad exponent spec {piece!r}; expected 'i,j=value'") from exc
        if pair in mu:
            raise DomainError(f"exponent spec {spec!r} names the pair {pair} twice")
        mu[pair] = exponent
    if not mu:
        raise DomainError(f"exponent spec {spec!r} names no pair; expected 'i,j=value;...'")
    if M is None:
        M = max(max(pair) for pair in mu)
    return builtin_power_product(mu, M, name=f"power:{spec}")


def resolve_candidate(name: str, kappa: float, M: int | None = None) -> CandidateFunction:
    """Look up a named builtin: 'n1', 'one', or 'power:<mu-spec>'.

    A power product takes M points, or without M as many as its largest index.
    """
    if name == "n1":
        return builtin_n1(kappa)
    if name == "one":
        return CandidateFunction(
            name="one",
            func=lambda xs: np.ones_like(xs[0]),
            grad=lambda xs, k: 0.0,
            second=lambda xs, k: 0.0,
        )
    if name.startswith("power:"):
        return parse_power_spec(name[len("power:"):], M)
    raise DomainError(f"unknown candidate {name!r}")
