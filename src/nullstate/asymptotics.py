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
from .exponents import delta_minus, delta_plus, gap, kpz, leg_weight
from .pde import CandidateFunction, PointConfig, WeightAssignment, builtin_power_product

FIT_DECADES = 8
FIT_TOP_FRACTION = 1e-2  # largest delta as a fraction of the available room


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


def default_delta_grid(config: PointConfig, i: int, decades: int = FIT_DECADES) -> np.ndarray:
    """Log-spaced displacements spanning `decades` decades below the room.

    The top of the grid sits two decades under the room so neighboring terms of
    the expansion stay subdominant; effective displacements are recomputed after
    coordinate rounding by the samplers, so the small end is safe.
    """
    room = collapse_room(config, i)
    top = FIT_TOP_FRACTION * room
    return np.geomspace(top * 10.0 ** (-decades), top, decades + 1)


def _collapse_samples(F, config: PointConfig, i: int, deltas) -> tuple[np.ndarray, np.ndarray]:
    """(effective deltas, F values) with x_i placed at x_{i-1} + delta."""
    anchor = config.x(i - 1)
    room = collapse_room(config, i)
    eff, vals = [], []
    for delta in np.asarray(deltas, dtype=float):
        if not 0.0 < delta < room:
            raise PreconditionError(
                f"delta {delta!r} outside the open collapse range (0, {room!r})"
            )
        xs = config.array
        xs[i - 1] = anchor + delta
        eff.append(xs[i - 1] - anchor)
        vals.append(F(xs))
    return np.array(eff), np.array(vals)


@dataclass
class ExponentEstimate:
    p_hat: float
    stderr: float
    deltas: np.ndarray
    values: np.ndarray
    rss: float

    def margin(self, tol: float = 1e-3) -> float:
        return 3.0 * self.stderr + tol


def collapse_exponent(
    F,
    config: PointConfig,
    spec: CollapseSpec,
    deltas=None,
) -> ExponentEstimate:
    """Least-squares slope of log |F| against log delta along the collapse."""
    if deltas is None:
        deltas = default_delta_grid(config, spec.i)
    eff, vals = _collapse_samples(F, config, spec.i, deltas)
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
    return ExponentEstimate(
        p_hat=float(sol[0]), stderr=stderr, deltas=eff[keep], values=vals[keep], rss=rss
    )


@dataclass
class TwoLegResult:
    is_two_leg: bool
    indeterminate: bool
    estimate: ExponentEstimate
    threshold: float


def two_leg_test(
    F,
    config: PointConfig,
    spec: CollapseSpec,
    tol: float = 1e-3,
    deltas=None,
    stderr_max: float = 0.01,
) -> TwoLegResult:
    """True iff the minus-rescaled collapse limit vanishes.

    Operationalized as p_hat > delta_minus(d) + (3 stderr + tol).  A fit with
    stderr above stderr_max is flagged indeterminate.
    """
    est = collapse_exponent(F, config, spec, deltas=deltas)
    dm = spec.exponents().delta_minus
    threshold = dm + est.margin(tol)
    return TwoLegResult(
        is_two_leg=bool(est.p_hat > threshold),
        indeterminate=bool(est.stderr > stderr_max),
        estimate=est,
        threshold=threshold,
    )


@dataclass(frozen=True)
class RescaledFunction:
    """delta^(-exponent) F along the collapse of interval i."""

    F: CandidateFunction
    config: PointConfig
    i: int
    exponent: float

    def __call__(self, delta: float) -> float:
        anchor = self.config.x(self.i - 1)
        xs = self.config.array
        xs[self.i - 1] = anchor + delta
        eff = xs[self.i - 1] - anchor
        return eff ** (-self.exponent) * self.F(xs)


@dataclass
class EllLimitRecord:
    deltas: np.ndarray
    values: np.ndarray
    limit: float
    converged: bool
    tail_ratios: np.ndarray
    slice_limits: Optional[np.ndarray] = None
    slice_uniformity: Optional[np.ndarray] = None


def _sequence_limit(vals: np.ndarray) -> tuple[float, bool, np.ndarray]:
    diffs = np.diff(vals)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = diffs[1:] / diffs[:-1]
    ratios = ratios[np.isfinite(ratios)]
    if diffs.size == 0 or abs(diffs[-1]) <= 1e-13 * max(abs(vals[-1]), 1.0):
        return float(vals[-1]), True, ratios
    if ratios.size and abs(ratios[-1]) < 0.9:
        r = ratios[-1]
        return float(vals[-1] + diffs[-1] * r / (1.0 - r)), True, ratios
    return float(vals[-1]), False, ratios


def ell_limit(
    F,
    config: PointConfig,
    spec: CollapseSpec,
    deltas=None,
    slice_index: int | None = None,
    slice_values=None,
) -> EllLimitRecord:
    """Extrapolated limit of H = delta^(-delta_minus(d)) F as the interval closes.

    With slice_index set, the limit is recorded along that coordinate's values
    and the uniformity proxy reports sup |H(delta) - H_limit| per delta.
    """
    if deltas is None:
        deltas = default_delta_grid(config, spec.i)[::-1]  # decreasing
    deltas = np.asarray(deltas, dtype=float)
    dm = spec.exponents().delta_minus
    rescaled = RescaledFunction(F=F, config=config, i=spec.i, exponent=dm)
    vals = np.array([rescaled(d) for d in deltas])
    limit, converged, ratios = _sequence_limit(vals)

    slice_limits = slice_uniformity = None
    if slice_index is not None:
        if slice_values is None:
            raise DomainError("slice_values required with slice_index")
        slice_values = np.asarray(slice_values, dtype=float)
        table = np.empty((slice_values.size, deltas.size))
        limits = np.empty(slice_values.size)
        for a, v in enumerate(slice_values):
            cfg = config.replace(slice_index, float(v))
            rs = RescaledFunction(F=F, config=cfg, i=spec.i, exponent=dm)
            table[a] = [rs(d) for d in deltas]
            limits[a], _, _ = _sequence_limit(table[a])
        slice_limits = limits
        slice_uniformity = np.max(np.abs(table - limits[:, None]), axis=0)
    return EllLimitRecord(
        deltas=deltas,
        values=vals,
        limit=limit,
        converged=converged,
        tail_ratios=ratios,
        slice_limits=slice_limits,
        slice_uniformity=slice_uniformity,
    )


@dataclass
class DecompositionFit:
    A: float
    B: float
    residual: float


def one_interval_decomposition_fit(
    F,
    config: PointConfig,
    spec: CollapseSpec,
    deltas=None,
    min_gap: float = 0.05,
) -> DecompositionFit:
    """Fit F ~ A delta^dm + B delta^dp along the collapse (weighted least squares).

    Rows are scaled by delta^(-dm) so the small-delta samples are not drowned;
    requires the exponent gap to exceed min_gap for an identifiable fit.
    """
    pair = spec.exponents()
    if pair.gap <= min_gap:
        raise PreconditionError(
            f"exponent gap {pair.gap!r} too small to separate the two channels"
        )
    if deltas is None:
        deltas = default_delta_grid(config, spec.i)
    eff, vals = _collapse_samples(F, config, spec.i, deltas)
    scaled = vals * eff ** (-pair.delta_minus)
    design = np.column_stack([np.ones_like(eff), eff**pair.gap])
    sol, *_ = np.linalg.lstsq(design, scaled, rcond=None)
    resid = scaled - design @ sol
    return DecompositionFit(A=float(sol[0]), B=float(sol[1]), residual=float(np.abs(resid).max()))


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
    split_sups: Optional[dict] = None


def far_pair_bound_scan(
    F,
    config: PointConfig,
    weights: WeightAssignment,
    j: int,
    deltas=None,
    epsilons=None,
    slope_tol: float = 0.005,
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
    if deltas is None:
        deltas = np.geomspace(1e-6, 1e-2, 5) * collapse_room(config, j)
    if epsilons is None:
        epsilons = np.geomspace(1e-6, 1e-2, 5) * collapse_room(config, iota)
    rows = []
    sup = 0.0
    delta_sups = np.zeros(len(deltas))
    eps_sups = np.zeros(len(epsilons))
    for a, delta in enumerate(deltas):
        for b, eps in enumerate(epsilons):
            xs = config.array
            xs[j - 1] = xs[j - 2] + delta
            xs[iota - 1] = xs[iota - 2] + eps
            d_eff = xs[j - 1] - xs[j - 2]
            e_eff = xs[iota - 1] - xs[iota - 2]
            val = abs(F(xs))
            ratio = val / (d_eff**dp1 * e_eff**dph)
            rows.append((d_eff, e_eff, val, ratio))
            sup = max(sup, ratio)
            delta_sups[a] = max(delta_sups[a], ratio)
            eps_sups[b] = max(eps_sups[b], ratio)
    d_slope = _level_slope(np.asarray(deltas), delta_sups)
    e_slope = _level_slope(np.asarray(epsilons), eps_sups)
    return PairScanResult(
        sup_ratio=float(sup),
        rows=rows,
        delta_slope=d_slope,
        eps_slope=e_slope,
        divergent=bool(d_slope < -slope_tol or e_slope < -slope_tol),
    )


def adjacent_pair_bound_scan(
    F,
    config: PointConfig,
    weights: WeightAssignment,
    epsilons=None,
    fractions=None,
    slope_tol: float = 0.005,
) -> PairScanResult:
    """Sup of |F| / (delta^dp(theta1) eps^dp(h) (eps-delta)^dp(h)) on the triangle.

    Configuration shape: x_{iota-1} = x_{iota-2} + delta, x_iota = x_{iota-2} + eps
    with 0 < delta < eps.  Also reports the per-regime sups of the split form
    (delta below or above eps/2) and the fitted eps-exponent at the middle
    fraction, which recovers lambda_0 - dp(theta1) - dp(h) = dp(h) for fields of
    the optimal-bound shape.
    """
    iota = weights.iota
    if iota < 3 or iota > config.M:
        raise PreconditionError("adjacent-pair geometry needs 3 <= iota <= M")
    dp1 = delta_plus(weights.theta1, weights.kappa)
    dph = delta_plus(weights.h, weights.kappa)
    if epsilons is None:
        epsilons = np.geomspace(1e-6, 1e-2, 7) * collapse_room(config, iota)
    if fractions is None:
        fractions = np.linspace(0.1, 0.9, 9)
    fractions = np.asarray(fractions, dtype=float)
    if np.any((fractions <= 0.0) | (fractions >= 1.0)):
        raise DomainError("fractions must lie strictly inside (0, 1)")
    rows = []
    sup = 0.0
    eps_sups = np.zeros(len(epsilons))
    split = {"inner": 0.0, "outer": 0.0}
    mid_idx = int(np.argmin(np.abs(fractions - 0.5)))
    mid_vals = np.zeros(len(epsilons))
    mid_eps = np.zeros(len(epsilons))
    for b, eps in enumerate(np.asarray(epsilons, dtype=float)):
        for a, frac in enumerate(fractions):
            delta = frac * eps
            xs = config.array
            base = xs[iota - 3]
            xs[iota - 2] = base + delta
            xs[iota - 1] = base + eps
            d_eff = xs[iota - 2] - base
            e_eff = xs[iota - 1] - base
            val = abs(F(xs))
            ratio = val / (d_eff**dp1 * e_eff**dph * (e_eff - d_eff) ** dph)
            rows.append((d_eff, e_eff, val, ratio))
            sup = max(sup, ratio)
            eps_sups[b] = max(eps_sups[b], ratio)
            key = "inner" if d_eff < e_eff / 2.0 else "outer"
            split[key] = max(split[key], ratio)
            if a == mid_idx:
                mid_vals[b] = val / (d_eff**dp1 * (e_eff - d_eff) ** dph)
                mid_eps[b] = e_eff
    e_slope = _level_slope(np.asarray(epsilons), eps_sups)
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
        divergent=bool(e_slope < -slope_tol),
        eps_exponent=eps_exponent,
        split_sups=split,
    )


# -- manufactured fields ----------------------------------------------------------


def manufactured_collapse_power(
    kappa: float, M: int, i: int, exponent: float, prefactor=None
) -> CandidateFunction:
    """(x_i - x_{i-1})^exponent, optionally times a smooth prefactor g(x_1)."""
    base = builtin_power_product({(i - 1, i): exponent}, M, name=f"collapse-power[{exponent}]")
    if prefactor is None:
        return base

    def func(xs):
        return prefactor(xs[0]) * base.func(xs)

    return CandidateFunction(name=base.name + "*g", func=func, arity=M)


def manufactured_two_leg(kappa: float, M: int, i: int, gamma: float) -> CandidateFunction:
    """Pure power with exponent delta_minus(theta_1) + gamma on the i-th interval."""
    dm = delta_minus(leg_weight(1, kappa), kappa)
    return manufactured_collapse_power(kappa, M, i, dm + gamma)


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
