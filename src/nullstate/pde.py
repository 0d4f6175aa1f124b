"""Finite-difference residuals of the null-state PDEs and conformal Ward identities.

The system lives on strictly increasing coordinate tuples.  One index iota may
carry an anomalous weight h; every other point carries theta_1.  Residuals are
reported relative to the largest single constituent term, because a true
solution produces exactly the catastrophic cancellation the residual measures.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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

    def __post_init__(self):
        xs = np.asarray(self.coords, dtype=float)
        if xs.ndim != 1 or xs.size < 2:
            raise DomainError("a configuration needs at least two coordinates")
        if not np.all(np.diff(xs) > 0.0):
            raise DomainError(f"coordinates must be strictly increasing, got {self.coords!r}")
        object.__setattr__(self, "coords", tuple(float(x) for x in xs))

    @classmethod
    def of(cls, *xs) -> "PointConfig":
        return cls(tuple(xs))

    @property
    def M(self) -> int:
        return len(self.coords)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.coords, dtype=float)

    @property
    def min_gap(self) -> float:
        return float(np.min(np.diff(self.array)))

    def x(self, i: int) -> float:
        """1-based coordinate access matching the math."""
        if not 1 <= i <= self.M:
            raise DomainError(f"index {i} outside 1..{self.M}")
        return self.coords[i - 1]

    def replace(self, i: int, value: float) -> "PointConfig":
        xs = list(self.coords)
        xs[i - 1] = float(value)
        return PointConfig(tuple(xs))

    def translated(self, c: float) -> "PointConfig":
        return PointConfig(tuple(x + c for x in self.coords))


@dataclass(frozen=True)
class WeightAssignment:
    """theta_1 everywhere except the anomalous index iota, which carries h."""

    kappa: float
    iota: int
    h: float

    def __post_init__(self):
        check_kappa(self.kappa)
        if self.iota < 1:
            raise DomainError(f"iota must be a 1-based index, got {self.iota!r}")

    @property
    def theta1(self) -> float:
        return leg_weight(1, self.kappa)

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

    func maps a coordinate array to a float and must be pure.  grad/second,
    when provided, are exact partial derivatives used only as
    stencil-validation oracles.
    """

    name: str
    func: Callable[[np.ndarray], float]
    arity: Optional[int] = None
    grad: Optional[Callable[[np.ndarray, int], float]] = None
    second: Optional[Callable[[np.ndarray, int], float]] = None

    def __call__(self, coords) -> float:
        xs = np.asarray(coords, dtype=float)
        if self.arity is not None and xs.size != self.arity:
            raise DomainError(f"{self.name} expects {self.arity} coordinates, got {xs.size}")
        return float(self.func(xs))


# -- stencils -----------------------------------------------------------------


def _stencil_step(config: PointConfig, step: float | None) -> float:
    h = STEP_FACTOR * config.min_gap if step is None else float(step)
    if 4.0 * h >= config.min_gap:
        raise PreconditionError(
            f"stencil of step {h!r} would leave the increasing region "
            f"(minimum gap {config.min_gap!r})"
        )
    return h


def _stencil(F, config: PointConfig, h: float) -> tuple[float, list, list]:
    """F and all its first and second partials at config, from 1 + 4M calls of F.

    The samples are F(x), F(x +- h e_k) and F(x +- 2h e_k); every equation of
    the system reads its partials from them.
    """
    xs = config.array

    def at(i, t):
        ys = xs.copy()
        ys[i] = t
        return F(ys)

    fval = F(xs)
    wings = [findiff.wings(functools.partial(at, i), xs[i], h) for i in range(config.M)]
    return fval, [findiff.first(w, h) for w in wings], [findiff.second(fval, w, h) for w in wings]


# -- residuals ----------------------------------------------------------------


def null_state_residual(
    F,
    config: PointConfig,
    weights: WeightAssignment,
    j: int,
    step: float | None = None,
) -> ResidualReport:
    """Residual of the null-state PDE centered on x_j.

    kappa/4 d_j^2 F + sum_{k != j, iota} [d_k F/(x_k - x_j) - theta_1 F/(x_k - x_j)^2]
    + d_iota F/(x_iota - x_j) - h F/(x_iota - x_j)^2.

    With h = theta_1 this is the unmodified equation and j = iota is allowed;
    otherwise the system provides no equation centered on the anomalous point.
    """
    M = config.M
    if not 1 <= j <= M:
        raise DomainError(f"j must lie in 1..{M}, got {j!r}")
    if j == weights.iota and not weights.homogeneous:
        raise PreconditionError("no null-state equation is centered on the anomalous index")
    h = _stencil_step(config, step)
    return _null_state(config, weights, j, h, _stencil(F, config, h))


def _null_state(config, weights, j, h, stencil) -> ResidualReport:
    fval, grads, seconds = stencil
    xj = config.x(j)
    terms = [weights.kappa / 4.0 * seconds[j - 1]]
    for k in range(1, config.M + 1):
        if k == j:
            continue
        dx = config.x(k) - xj
        terms.append(grads[k - 1] / dx)
        terms.append(-weights.weight(k) * fval / dx**2)
    residual = math.fsum(terms)
    scale = max(abs(t) for t in terms)
    return ResidualReport(equation=f"null_state[{j}]", residual=residual, scale=scale, step=h)


def ward_residuals(
    F,
    config: PointConfig,
    weights: WeightAssignment,
    step: float | None = None,
) -> tuple[ResidualReport, ResidualReport, ResidualReport]:
    """Residuals of the translation, dilation, and special-conformal identities."""
    if weights.iota > config.M:
        raise DomainError(f"iota={weights.iota} outside 1..{config.M}")
    h = _stencil_step(config, step)
    return _ward(config, weights, h, _stencil(F, config, h))


def _ward(config, weights, h, stencil) -> tuple[ResidualReport, ResidualReport, ResidualReport]:
    M = config.M
    fval, grads, _ = stencil

    t1 = list(grads)
    w1 = math.fsum(t1)

    t2 = [config.x(k) * grads[k - 1] for k in range(1, M + 1)]
    t2 += [weights.weight(k) * fval for k in range(1, M + 1)]
    w2 = math.fsum(t2)

    t3 = [config.x(k) ** 2 * grads[k - 1] for k in range(1, M + 1)]
    t3 += [2.0 * weights.weight(k) * config.x(k) * fval for k in range(1, M + 1)]
    w3 = math.fsum(t3)

    def report(name, total, terms):
        return ResidualReport(
            equation=name,
            residual=total,
            scale=max((abs(t) for t in terms), default=0.0),
            step=h,
        )

    return (
        report("ward_translation", w1, t1),
        report("ward_dilation", w2, t2),
        report("ward_special_conformal", w3, t3),
    )


def system_residuals(
    F,
    config: PointConfig,
    weights: WeightAssignment,
    step: float | None = None,
) -> list[ResidualReport]:
    """All available null-state equations plus the three Ward identities.

    Every equation reads from one shared set of 1 + 4M samples of F.
    """
    h = _stencil_step(config, step)
    if weights.iota > config.M:
        raise DomainError(f"iota={weights.iota} outside 1..{config.M}")
    stencil = _stencil(F, config, h)
    reports = []
    for j in range(1, config.M + 1):
        if j == weights.iota and not weights.homogeneous:
            continue
        reports.append(_null_state(config, weights, j, h, stencil))
    reports.extend(_ward(config, weights, h, stencil))
    return reports


def two_point_ward_solvable(h1: float, h2: float, tol: float = 1e-12) -> tuple[bool, float]:
    """Whether the two-point Ward system admits a nonzero solution.

    Translation plus dilation covariance force F = A (x2 - x1)^(-h1-h2); the
    special-conformal identity applied to that ansatz leaves the residual
    -(h1 - h2)(x2 - x1) F, so a nonzero solution exists iff h1 = h2.  Returns
    (solvable, witness) with witness = h1 - h2.
    """
    witness = h1 - h2
    return abs(witness) <= tol, witness


# -- builtin candidates ---------------------------------------------------------


def builtin_n1(kappa: float) -> CandidateFunction:
    """The two-point solution (x2 - x1)^(-2 theta_1), unique up to scale."""
    check_kappa(kappa)
    th1 = leg_weight(1, kappa)
    p = -2.0 * th1

    def func(xs):
        return (xs[1] - xs[0]) ** p

    def grad(xs, k):
        s = xs[1] - xs[0]
        d = p * s ** (p - 1.0)
        return d if k == 2 else -d

    def second(xs, k):
        s = xs[1] - xs[0]
        return p * (p - 1.0) * s ** (p - 2.0)

    return CandidateFunction(name="n1", func=func, arity=2, grad=grad, second=second)


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
            func=lambda xs: 1.0,
            grad=lambda xs, k: 0.0,
            second=lambda xs, k: 0.0,
        )
    if name.startswith("power:"):
        if M is None:
            raise DomainError("power candidates need the configuration size M")
        return parse_power_spec(name[len("power:"):], M)
    raise DomainError(f"unknown candidate {name!r}")
