"""Finite-difference residuals of the null-state PDEs and conformal Ward identities.

The system lives on strictly increasing coordinate tuples.  One index iota may
carry an anomalous weight h; every other point carries theta_1.  Residuals are
reported relative to the largest single constituent term, because a true
solution produces exactly the catastrophic cancellation the residual measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import findiff
from .errors import DomainError, PreconditionError
from .exponents import check_kappa, leg_weight

STEP_FACTOR = 1e-4  # stencil step as a fraction of the minimum gap


@dataclass(frozen=True)
class PointConfig:
    """Strictly increasing coordinates x_1 < x_2 < ... < x_M."""

    coords: tuple
    min_gap: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        xs = np.asarray(self.coords, dtype=float)
        if xs.ndim != 1 or xs.size < 2:
            raise DomainError("a configuration needs at least two coordinates")
        if not np.all(np.isfinite(xs)):
            raise DomainError(f"coordinates must be finite, got {self.coords!r}")
        # x_M - x_1 bounds every gap of increasing coordinates, so np.diff below
        # cannot overflow on any configuration that passes the next check
        if abs(float(xs[-1]) - float(xs[0])) == math.inf:
            raise DomainError(
                f"coordinates must be finite and so must their span, got {self.coords!r}"
            )
        gaps = np.diff(xs)
        if not np.all(gaps > 0.0):
            raise DomainError(f"coordinates must be strictly increasing, got {self.coords!r}")
        object.__setattr__(self, "coords", tuple(float(x) for x in xs))
        object.__setattr__(self, "min_gap", float(np.min(gaps)))

    @classmethod
    def of(cls, *xs) -> "PointConfig":
        return cls(tuple(xs))

    @property
    def M(self) -> int:
        return len(self.coords)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.coords, dtype=float)

    def x(self, i: int) -> float:
        """1-based coordinate access matching the math."""
        if not 1 <= i <= self.M:
            raise DomainError(f"index {i} outside 1..{self.M}")
        return self.coords[i - 1]


@dataclass(frozen=True)
class WeightAssignment:
    """theta_1 everywhere except the anomalous index iota, which carries h."""

    kappa: float
    iota: int
    h: float
    theta1: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_kappa(self.kappa)
        if self.iota < 1:
            raise DomainError(f"iota must be a 1-based index, got {self.iota!r}")
        object.__setattr__(self, "theta1", leg_weight(1, self.kappa))

    @property
    def homogeneous(self) -> bool:
        return self.h == self.theta1

    def weight(self, i: int) -> float:
        return self.h if i == self.iota else self.theta1

    @classmethod
    def one_leg(cls, kappa: float, M: int) -> "WeightAssignment":
        """All points carry theta_1 (the unmodified system)."""
        return cls(kappa=kappa, iota=M, h=leg_weight(1, kappa))


@dataclass(frozen=True)
class ResidualReport:
    equation: str
    residual: float
    scale: float
    step: float

    @property
    def relative(self) -> float:
        return abs(self.residual) / max(self.scale, 1e-300)


@dataclass(frozen=True)
class CandidateFunction:
    """An evaluable scalar field on strictly increasing configurations.

    F maps one configuration, shape (M,), to a float and a batch, the columns of
    an (M, B) array, to a (B,) array.  func must be pure and must accept both;
    xs[k] is a scalar or a length-B array, so numpy arithmetic serves both.  A
    batch result of any other shape than (B,) raises DomainError.  grad/second,
    when provided, are exact partial derivatives used only as stencil-validation
    oracles.
    """

    name: str
    func: Callable[[np.ndarray], float]
    arity: Optional[int] = None
    grad: Optional[Callable[[np.ndarray, int], float]] = None
    second: Optional[Callable[[np.ndarray, int], float]] = None

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


def _stencil(F, config: PointConfig, h: float) -> tuple[float, list, list]:
    """F and all its first and second partials at config, from one batch of 1 + 4M samples.

    Column 0 is x; columns 1+4k..4+4k move x_k by -2h, -h, +h, +2h.  Every
    equation of the system reads its partials from them, and the pde suite's
    `stencil_vs_analytic` checks them against exact partials.
    """
    M = config.M
    cols = np.repeat(config.array[:, None], 1 + 4 * M, axis=1)
    cols[:, 1:] += (np.eye(M)[:, :, None] * [-2.0 * h, -h, h, 2.0 * h]).reshape(M, -1)
    vals = F(cols).tolist()
    f0, wings = vals[0], [vals[1 + 4 * k : 5 + 4 * k] for k in range(M)]
    return f0, [findiff.first(w, h) for w in wings], [findiff.second(f0, w, h) for w in wings]


# -- residuals ----------------------------------------------------------------


def system_residuals(F, config: PointConfig, weights: WeightAssignment) -> list[ResidualReport]:
    """All available null-state equations plus the three Ward identities.

    The null-state equation centered on x_j ("null_state[j]") is
    kappa/4 d_j^2 F + sum_{k != j} [d_k F/(x_k - x_j) - w_k F/(x_k - x_j)^2]
    with w_k = weights.weight(k); there is none on the anomalous index unless
    h = theta_1.  Every equation reads from one shared set of 1 + 4M samples of
    F with step STEP_FACTOR * min_gap.  Each residual is the fsum of its terms,
    reported against the largest |term|.
    """
    M = config.M
    if weights.iota > M:
        raise DomainError(f"iota={weights.iota} outside 1..{M}")
    gap = config.min_gap
    h = STEP_FACTOR * gap
    if not 0.0 < 4.0 * h < gap:
        raise PreconditionError(f"stencil step {h!r} must satisfy 0 < 4*step < minimum gap {gap!r}")
    fval, grads, seconds = _stencil(F, config, h)
    xs = config.coords
    ws = [weights.weight(k) for k in range(1, M + 1)]
    equations = []
    for j in range(M):
        if j + 1 == weights.iota and not weights.homogeneous:
            continue
        terms = [weights.kappa / 4.0 * seconds[j]]
        for k in range(M):
            if k != j:
                dx = xs[k] - xs[j]
                terms += (grads[k] / dx, -ws[k] * fval / dx**2)
        equations.append((f"null_state[{j + 1}]", terms))
    equations += [
        ("ward_translation", grads),
        ("ward_dilation", [x * g for x, g in zip(xs, grads)] + [w * fval for w in ws]),
        ("ward_special_conformal",
         [x**2 * g for x, g in zip(xs, grads)] + [2.0 * w * x * fval for w, x in zip(ws, xs)]),
    ]
    return [
        ResidualReport(name, math.fsum(terms), max((abs(t) for t in terms), default=0.0), h)
        for name, terms in equations
    ]


# -- builtin candidates ---------------------------------------------------------


def builtin_n1(kappa: float) -> CandidateFunction:
    """The two-point solution (x2 - x1)^(-2 theta_1), unique up to scale."""
    return builtin_power_product({(1, 2): -2.0 * leg_weight(1, kappa)}, 2, name="n1")


def builtin_power_product(mu: dict, M: int, name: str = "power") -> CandidateFunction:
    """Product field prod_{i<j} (x_j - x_i)^mu[i,j] with exact derivatives.

    mu maps 1-based ordered pairs (i, j) with i < j to exponents.
    """
    for (i, j) in mu:
        if not (1 <= i < j <= M):
            raise DomainError(f"exponent key {(i, j)!r} is not an ordered pair within 1..{M}")
    pairs = [((i - 1, j - 1), float(e)) for (i, j), e in mu.items()]

    def func(xs):
        acc = 1.0
        with np.errstate(over="ignore"):  # the checks name an infinite product; no warning
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


def parse_power_spec(spec: str, M: int) -> CandidateFunction:
    """Parse the compact grammar 'i,j=value;i,j=value' into a power product."""
    mu = {}
    for piece in spec.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        try:
            key, value = piece.split("=")
            i_s, j_s = key.split(",")
            mu[(int(i_s), int(j_s))] = float(value)
        except ValueError as exc:
            raise DomainError(f"bad exponent spec {piece!r}; expected 'i,j=value'") from exc
    return builtin_power_product(mu, M, name=f"power:{spec}")


def resolve_candidate(name: str, kappa: float, M: int | None = None) -> CandidateFunction:
    """Look up a named builtin: 'n1', 'one', or 'power:<mu-spec>'."""
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
        if M is None:
            raise DomainError("power candidates need the configuration size M")
        return parse_power_spec(name[len("power:"):], M)
    raise DomainError(f"unknown candidate {name!r}")
