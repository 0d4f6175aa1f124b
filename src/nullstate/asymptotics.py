"""Interval-collapse asymptotics: exponent fits, two-leg tests, scaling-law scans.

Collapse means sending x_i to x_{i-1}; the effective weight of the collapsing
pair is h when i is the anomalous index or its right neighbor, theta_1
otherwise.  "Limit equals zero" is operationalized through the fitted exponent
with a margin, never through magnitude thresholds, because the fields are scale
invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateFitError, DomainError, PreconditionError
from .exponents import delta_minus, delta_plus, kpz, leg_weight
from .pde import CandidateFunction, PointConfig, WeightAssignment, builtin_power_product

FIT_DECADES = 8
FIT_TOP_FRACTION = 1e-2  # largest delta as a fraction of the available room
TWO_LEG_TOL = 1e-3  # two-leg margin above delta_minus, on top of 3 fit stderr
STDERR_MAX = 0.01  # a two-leg fit with a larger stderr is indeterminate
DECOMPOSITION_MIN_GAP = 0.05  # smallest exponent gap that separates the two channels
SLOPE_TOL = 0.005  # pair scans: a per-level sup slope below -SLOPE_TOL is divergent


@dataclass(frozen=True)
class CollapseSpec:
    """Which interval collapses (x_i -> x_{i-1}) under which weight assignment."""

    i: int
    weights: WeightAssignment

    def __post_init__(self):
        if self.i < 2:
            raise DomainError(f"collapse index must be >= 2, got {self.i!r}")

    @property
    def effective_weight(self) -> float:
        if self.i in (self.weights.iota, self.weights.iota + 1):
            return self.weights.h
        return self.weights.theta1

    def exponents(self):
        return kpz(self.effective_weight, self.weights.kappa)


def collapse_room(config: PointConfig, i: int) -> float:
    """Upper limit for the collapse displacement delta at index i."""
    if i < config.M:
        return config.x(i + 1) - config.x(i - 1)
    if i >= 3:
        return config.x(i - 1) - config.x(i - 2)
    return 1.0


def default_delta_grid(config: PointConfig, i: int) -> np.ndarray:
    """Log-spaced displacements spanning FIT_DECADES decades below the room.

    The top of the grid sits two decades under the room so neighboring terms of
    the expansion stay subdominant; effective displacements are recomputed after
    coordinate rounding by the samplers, so the small end is safe.
    """
    room = collapse_room(config, i)
    top = FIT_TOP_FRACTION * room
    return np.geomspace(top * 10.0 ** (-FIT_DECADES), top, FIT_DECADES + 1)


def _batch(config: PointConfig, moves: dict) -> np.ndarray:
    """Batch columns of config with x_i set to moves[i]; each must stay strictly increasing."""
    cols = np.repeat(config.array[:, None], np.broadcast(*moves.values()).size, axis=1)
    for i, values in moves.items():
        cols[i - 1] = values
    bad = cols[:, ~np.all(np.diff(cols, axis=0) > 0.0, axis=0)]
    if bad.size:
        raise PreconditionError(f"configuration {bad[:, 0].tolist()!r} is not strictly increasing")
    return cols


def _collapse_samples(F, config: PointConfig, i: int, deltas) -> tuple[np.ndarray, np.ndarray]:
    """(effective deltas, F values) with x_i placed at x_{i-1} + delta."""
    cols = _batch(config, {i: config.x(i - 1) + deltas})
    return cols[i - 1] - cols[i - 2], F(cols)


@dataclass
class ExponentEstimate:
    p_hat: float
    stderr: float


def collapse_exponent(F, config: PointConfig, spec: CollapseSpec) -> ExponentEstimate:
    """Least-squares slope of log |F| against log delta along the collapse."""
    eff, vals = _collapse_samples(F, config, spec.i, default_delta_grid(config, spec.i))
    keep = np.isfinite(vals) & (vals != 0.0)
    if np.count_nonzero(keep) < 3:
        raise DegenerateFitError(
            f"candidate vanished or diverged on the collapse grid at i={spec.i}"
        )
    lx = np.log(eff[keep])
    ly = np.log(np.abs(vals[keep]))
    design = np.column_stack([lx, np.ones_like(lx)])
    sol, *_ = np.linalg.lstsq(design, ly, rcond=None)
    resid = ly - design @ sol
    rss = float(resid @ resid)
    dof = max(lx.size - 2, 1)
    cov00 = np.linalg.inv(design.T @ design)[0, 0]
    stderr = math.sqrt(max(rss / dof * cov00, 0.0))
    return ExponentEstimate(p_hat=float(sol[0]), stderr=stderr)


@dataclass
class TwoLegResult:
    is_two_leg: bool
    indeterminate: bool
    estimate: ExponentEstimate


def two_leg_test(F, config: PointConfig, spec: CollapseSpec) -> TwoLegResult:
    """True iff the minus-rescaled collapse limit vanishes.

    Operationalized as p_hat > delta_minus(d) + (3 stderr + TWO_LEG_TOL).  A
    fit with stderr above STDERR_MAX is flagged indeterminate.
    """
    est = collapse_exponent(F, config, spec)
    threshold = spec.exponents().delta_minus + (3.0 * est.stderr + TWO_LEG_TOL)
    return TwoLegResult(
        is_two_leg=bool(est.p_hat > threshold),
        indeterminate=bool(est.stderr > STDERR_MAX),
        estimate=est,
    )


@dataclass
class EllLimitRecord:
    limit: float
    converged: bool


def _sequence_limit(vals: np.ndarray) -> tuple[float, bool]:
    diffs = np.diff(vals)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = diffs[1:] / diffs[:-1]
    ratios = ratios[np.isfinite(ratios)]
    if diffs.size == 0 or abs(diffs[-1]) <= 1e-13 * max(abs(vals[-1]), 1.0):
        return float(vals[-1]), True
    if ratios.size and abs(ratios[-1]) < 0.9:
        r = ratios[-1]
        return float(vals[-1] + diffs[-1] * r / (1.0 - r)), True
    return float(vals[-1]), False


def ell_limit(F, config: PointConfig, spec: CollapseSpec) -> EllLimitRecord:
    """Extrapolated limit of H = delta^(-delta_minus(d)) F as the interval closes."""
    deltas = default_delta_grid(config, spec.i)[::-1]  # decreasing
    eff, vals = _collapse_samples(F, config, spec.i, deltas)
    limit, converged = _sequence_limit(eff ** (-spec.exponents().delta_minus) * vals)
    return EllLimitRecord(limit=limit, converged=converged)


@dataclass
class DecompositionFit:
    A: float
    B: float


def one_interval_decomposition_fit(F, config: PointConfig, spec: CollapseSpec) -> DecompositionFit:
    """Fit F ~ A delta^dm + B delta^dp along the collapse (weighted least squares).

    Rows are scaled by delta^(-dm) so the small-delta samples are not drowned;
    requires the exponent gap to exceed DECOMPOSITION_MIN_GAP for an
    identifiable fit.
    """
    pair = spec.exponents()
    if pair.gap <= DECOMPOSITION_MIN_GAP:
        raise PreconditionError(
            f"exponent gap {pair.gap!r} too small to separate the two channels"
        )
    eff, vals = _collapse_samples(F, config, spec.i, default_delta_grid(config, spec.i))
    scaled = vals * eff ** (-pair.delta_minus)
    design = np.column_stack([np.ones_like(eff), eff**pair.gap])
    sol, *_ = np.linalg.lstsq(design, scaled, rcond=None)
    return DecompositionFit(A=float(sol[0]), B=float(sol[1]))


# -- two-interval scans ---------------------------------------------------------


def _level_slope(levels: np.ndarray, sups: np.ndarray) -> float:
    keep = np.isfinite(sups) & (sups > 0.0)
    if np.count_nonzero(keep) < 2:
        return 0.0
    slope, _ = np.polyfit(np.log(levels[keep]), np.log(sups[keep]), 1)
    return float(slope)


@dataclass
class PairScanResult:
    sup_ratio: float
    rows: list  # (delta, eps, |F|, ratio)
    delta_slope: float
    eps_slope: float
    divergent: bool
    eps_exponent: Optional[float] = None


def far_pair_bound_scan(
    F,
    config: PointConfig,
    weights: WeightAssignment,
    j: int,
) -> PairScanResult:
    """Sup of |F| / (delta^dp(theta1) eps^dp(h)) over a non-adjacent pair collapse.

    The j-interval (x_{j-1}, x_j) closes with length delta and the anomalous
    interval (x_{iota-1}, x_iota) with length eps.  A negative log-log slope of
    the per-level sup marks the normalized ratio as divergent.
    """
    iota = weights.iota
    if j < 2 or j > config.M:
        raise DomainError(f"j must lie in 2..{config.M}")
    if j in (iota - 1, iota, iota + 1):
        raise PreconditionError("intervals must be neither adjacent nor identical")
    if iota < 2:
        raise PreconditionError("the anomalous interval needs iota >= 2")
    dp1 = delta_plus(weights.theta1, weights.kappa)
    dph = delta_plus(weights.h, weights.kappa)
    deltas = np.geomspace(1e-6, 1e-2, 5) * collapse_room(config, j)
    epsilons = np.geomspace(1e-6, 1e-2, 5) * collapse_room(config, iota)
    grid_d, grid_e = np.meshgrid(deltas, epsilons, indexing="ij")  # rows: delta-major
    moves = {j: config.x(j - 1) + grid_d.ravel(), iota: config.x(iota - 1) + grid_e.ravel()}
    cols = _batch(config, moves)
    d_eff = cols[j - 1] - cols[j - 2]
    e_eff = cols[iota - 1] - cols[iota - 2]
    vals = np.abs(F(cols))
    ratio = vals / (d_eff**dp1 * e_eff**dph)
    rows = list(zip(d_eff.tolist(), e_eff.tolist(), vals.tolist(), ratio.tolist()))
    sup = np.fmax.reduce(ratio, initial=0.0)  # fmax skips NaN ratios, as max(sup, r) did
    grid = ratio.reshape(grid_d.shape)
    delta_sups = np.fmax.reduce(grid, axis=1, initial=0.0)
    eps_sups = np.fmax.reduce(grid, axis=0, initial=0.0)
    d_slope = _level_slope(deltas, delta_sups)
    e_slope = _level_slope(epsilons, eps_sups)
    return PairScanResult(
        sup_ratio=float(sup),
        rows=rows,
        delta_slope=d_slope,
        eps_slope=e_slope,
        divergent=bool(d_slope < -SLOPE_TOL or e_slope < -SLOPE_TOL),
    )


def adjacent_pair_bound_scan(
    F,
    config: PointConfig,
    weights: WeightAssignment,
) -> PairScanResult:
    """Sup of |F| / (delta^dp(theta1) eps^dp(h) (eps-delta)^dp(h)) on the triangle.

    Configuration shape: x_{iota-1} = x_{iota-2} + delta, x_iota = x_{iota-2} + eps
    with delta = f eps for f = 0.1, 0.2, ..., 0.9.  Also reports the fitted
    eps-exponent at the middle fraction, which recovers
    lambda_0 - dp(theta1) - dp(h) = dp(h) for fields of the optimal-bound shape.
    """
    iota = weights.iota
    if iota < 3 or iota > config.M:
        raise PreconditionError("adjacent-pair geometry needs 3 <= iota <= M")
    dp1 = delta_plus(weights.theta1, weights.kappa)
    dph = delta_plus(weights.h, weights.kappa)
    epsilons = np.geomspace(1e-6, 1e-2, 7) * collapse_room(config, iota)
    fractions = np.linspace(0.1, 0.9, 9)
    grid_e, grid_f = np.meshgrid(epsilons, fractions, indexing="ij")  # rows: eps-major
    base = config.x(iota - 2)
    moves = {iota - 1: base + (grid_f * grid_e).ravel(), iota: base + grid_e.ravel()}
    cols = _batch(config, moves)
    d_eff = cols[iota - 2] - base
    e_eff = cols[iota - 1] - base
    vals = np.abs(F(cols))
    ratio = vals / (d_eff**dp1 * e_eff**dph * (e_eff - d_eff) ** dph)
    rows = list(zip(d_eff.tolist(), e_eff.tolist(), vals.tolist(), ratio.tolist()))
    sup = np.fmax.reduce(ratio, initial=0.0)
    eps_sups = np.fmax.reduce(ratio.reshape(grid_e.shape), axis=1, initial=0.0)
    mid = slice(int(np.argmin(np.abs(fractions - 0.5))), None, len(fractions))
    mid_eps = e_eff[mid]
    mid_vals = vals[mid] / (d_eff[mid] ** dp1 * (mid_eps - d_eff[mid]) ** dph)
    e_slope = _level_slope(epsilons, eps_sups)
    keep = mid_vals > 0.0
    eps_exponent = None
    if np.count_nonzero(keep) >= 2:
        fit, _ = np.polyfit(np.log(mid_eps[keep]), np.log(mid_vals[keep]), 1)
        eps_exponent = float(fit)
    return PairScanResult(
        sup_ratio=float(sup),
        rows=rows,
        delta_slope=0.0,
        eps_slope=e_slope,
        divergent=bool(e_slope < -SLOPE_TOL),
        eps_exponent=eps_exponent,
    )


# -- manufactured fields ----------------------------------------------------------


def manufactured_two_leg(kappa: float, M: int, i: int, gamma: float) -> CandidateFunction:
    """Pure power with exponent delta_minus(theta_1) + gamma on the i-th interval."""
    dm = delta_minus(leg_weight(1, kappa), kappa)
    return builtin_power_product({(i - 1, i): dm + gamma}, M, name=f"collapse-power[{dm + gamma}]")


def manufactured_two_term(
    kappa: float, M: int, i: int, d: float, A: float, B: float
) -> CandidateFunction:
    """A delta^dm(d) + B delta^dp(d) with delta = x_i - x_{i-1}."""
    pair = kpz(d, kappa)

    def func(xs):
        delta = xs[i - 1] - xs[i - 2]
        return A * delta**pair.delta_minus + B * delta**pair.delta_plus

    return CandidateFunction(name=f"two-term[{A},{B}]", func=func, arity=M)


def manufactured_far_pair(
    kappa: float, h: float, M: int, j: int, iota: int, violating: bool = False
) -> CandidateFunction:
    """delta^e1 eps^dp(h) with e1 = dp(theta1) (bounded) or dm(theta1) (violating)."""
    th1 = leg_weight(1, kappa)
    e1 = delta_minus(th1, kappa) if violating else delta_plus(th1, kappa)
    mu = {(j - 1, j): e1, (iota - 1, iota): delta_plus(h, kappa)}
    tag = "violating" if violating else "bounded"
    return builtin_power_product(mu, M, name=f"far-pair:{tag}")


def manufactured_adjacent(
    kappa: float, h: float, M: int, iota: int, shape: str = "normalized"
) -> CandidateFunction:
    """Adjacent-pair test fields on the triangle geometry.

    "normalized": delta^dp(theta1) (eps-delta)^dp(h) eps^dp(h), the optimal-bound
    shape (its eps power is lambda_0 - dp(theta1) - dp(h)); "weak-eps": the eps
    power weakened by 1/2, which the scan must flag divergent.
    """
    dp1 = delta_plus(leg_weight(1, kappa), kappa)
    dph = delta_plus(h, kappa)
    eps_power = dph - 0.5 if shape == "weak-eps" else dph
    if shape not in ("normalized", "weak-eps"):
        raise DomainError(f"unknown adjacent shape {shape!r}")
    mu = {
        (iota - 2, iota - 1): dp1,
        (iota - 1, iota): dph,
        (iota - 2, iota): eps_power,
    }
    return builtin_power_product(mu, M, name=f"adjacent:{shape}")
