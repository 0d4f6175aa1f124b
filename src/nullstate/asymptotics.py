"""Interval-collapse asymptotics: exponent fits, two-leg tests, scaling-law scans.

Collapse means sending x_i to x_{i-1}; the effective weight of the collapsing
pair is h when i is the anomalous index or its right neighbor, theta_1
otherwise.  Along the collapse F ~ A delta^delta_minus + B delta^delta_plus,
and the interval is two-leg when the limit A vanishes.  The fields are scale
invariant, so "A vanishes" is judged against A's standard error and the
round-off of the samples, never an absolute threshold; a field the two-channel
model does not describe is judged by its fitted log-log exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import findiff
from .errors import DegenerateFitError, DomainError, PreconditionError
from .exponents import delta_minus, delta_plus, kpz, leg_weight
from .pde import CandidateFunction, PointConfig, WeightAssignment, builtin_power_product

FIT_DECADES = 8
FIT_TOP_FRACTION = 1e-2  # largest delta as a fraction of the available room
TWO_LEG_TOL = 1e-3  # two-leg margin above delta_minus, on top of 3 fit stderr
STDERR_MAX = 0.01  # a two-leg fit with a larger stderr is indeterminate
MODEL_TOL = 1e-8  # a channel fit with a smaller misfit decides the two-leg verdict by its A
A_ROUNDOFF = 1e-12  # |A| below this fraction of max |delta^(-delta_minus) F| is round-off
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


def _collapse_samples(F, config: PointConfig, i: int) -> tuple[np.ndarray, np.ndarray]:
    """(effective deltas, F values) with x_i at x_{i-1} + delta on the default
    grid, dropping samples where F is zero or not finite (at least 3 must stay)."""
    cols = _batch(config, {i: config.x(i - 1) + default_delta_grid(config, i)})
    eff, vals = cols[i - 1] - cols[i - 2], F(cols)
    keep = np.isfinite(vals) & (vals != 0.0)
    if np.count_nonzero(keep) < 3:
        raise DegenerateFitError(f"candidate vanished or diverged on the collapse grid at i={i}")
    return eff[keep], vals[keep]


@dataclass
class ExponentEstimate:
    p_hat: float
    stderr: float


def _slope_fit(eff: np.ndarray, vals: np.ndarray) -> ExponentEstimate:
    _, p_hat, _, stderr, _ = findiff.line_fit(np.log(eff), np.log(np.abs(vals)))
    return ExponentEstimate(p_hat=p_hat, stderr=stderr)


def collapse_exponent(F, config: PointConfig, spec: CollapseSpec) -> ExponentEstimate:
    """Least-squares slope of log |F| against log delta along the collapse."""
    return _slope_fit(*_collapse_samples(F, config, spec.i))


@dataclass
class ChannelFit:
    A: float  # the collapse limit of delta^(-delta_minus) F
    B: float
    stderr_A: float
    misfit: float  # rms residual over max |delta^(-delta_minus) F|


def _channel_fit(eff: np.ndarray, scaled: np.ndarray, gap: float) -> ChannelFit:
    A, B, stderr_A, _, rms = findiff.line_fit(eff**gap, scaled)
    return ChannelFit(A=A, B=B, stderr_A=stderr_A, misfit=rms / float(np.max(np.abs(scaled))))


def collapse_channels(F, config: PointConfig, spec: CollapseSpec) -> ChannelFit:
    """Fit delta^(-delta_minus) F = A + B delta^gap along the collapse.

    A is the collapse limit and B the delta_plus channel.  Both exponents are
    known, so the fit needs any gap above zero; at gap 0 the second channel
    is delta^delta_minus log delta and DegenerateFitError is raised.
    """
    pair = spec.exponents()
    eff, vals = _collapse_samples(F, config, spec.i)
    return _channel_fit(eff, vals * eff ** (-pair.delta_minus), pair.gap)


@dataclass
class TwoLegResult:
    is_two_leg: bool
    indeterminate: bool
    channels: ChannelFit


def two_leg_test(F, config: PointConfig, spec: CollapseSpec) -> TwoLegResult:
    """True iff the minus-rescaled collapse limit vanishes.

    One set of samples feeds two fits.  If the two-channel fit describes F
    (misfit <= MODEL_TOL), two-leg iff |A| <= 3 stderr_A + A_ROUNDOFF max
    |delta^(-delta_minus) F|.  Otherwise the log-log slope decides: two-leg iff
    p_hat > delta_minus + (3 stderr + TWO_LEG_TOL), indeterminate if its
    stderr exceeds STDERR_MAX.
    """
    pair = spec.exponents()
    eff, vals = _collapse_samples(F, config, spec.i)
    scaled = vals * eff ** (-pair.delta_minus)
    fit = _channel_fit(eff, scaled, pair.gap)
    if fit.misfit <= MODEL_TOL:
        floor = 3.0 * fit.stderr_A + A_ROUNDOFF * float(np.max(np.abs(scaled)))
        return TwoLegResult(is_two_leg=abs(fit.A) <= floor, indeterminate=False, channels=fit)
    est = _slope_fit(eff, vals)
    threshold = pair.delta_minus + (3.0 * est.stderr + TWO_LEG_TOL)
    return TwoLegResult(is_two_leg=est.p_hat > threshold,
                        indeterminate=est.stderr > STDERR_MAX, channels=fit)


# -- two-interval scans ---------------------------------------------------------


def _log_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Slope of log y on log x over the finite positive y; NaN (not flat) if under two."""
    keep = np.isfinite(y) & (y > 0.0)
    if np.count_nonzero(keep) < 2:
        return math.nan
    return findiff.line_fit(np.log(x[keep]), np.log(y[keep]))[1]


@dataclass
class PairScanResult:
    sup_ratio: float
    rows: list  # (delta, eps, |F|, ratio)
    delta_slope: float  # log-log slopes of the per-level sups, NaN if not measured
    eps_slope: float
    eps_exponent: Optional[float] = None

    @property
    def divergent(self) -> bool:
        return self.delta_slope < -SLOPE_TOL or self.eps_slope < -SLOPE_TOL

    @property
    def bounded(self) -> bool:
        """Not divergent, with a finite sup and both slopes measured."""
        return not self.divergent and all(
            map(math.isfinite, (self.sup_ratio, self.delta_slope, self.eps_slope)))


def _pair_scan(F, config: PointConfig, closing, offsets, normaliser) -> tuple:
    """Rows (delta, eps, |F|, ratio), the sup ratio and the sups per grid row and column.

    closing = ((i, a), (k, b)) sets x_i = x_a + offsets[0] and x_k = x_b + offsets[1]
    over one level grid; delta = x_i - x_a, eps = x_k - x_b after rounding, and ratio =
    |F| / normaliser(delta, eps).  Every sup skips NaN ratios; a sup of no number is NaN.
    """
    (i, a), (k, b) = closing
    cols = _batch(config, {i: config.x(a) + offsets[0].ravel(),
                           k: config.x(b) + offsets[1].ravel()})
    d_eff, e_eff = cols[i - 1] - cols[a - 1], cols[k - 1] - cols[b - 1]
    vals = np.abs(F(cols))
    ratio = vals / normaliser(d_eff, e_eff)
    rows = list(zip(d_eff.tolist(), e_eff.tolist(), vals.tolist(), ratio.tolist()))
    grid = ratio.reshape(offsets[0].shape)
    sup = np.fmax.reduce
    return rows, float(sup(ratio)), sup(grid, axis=1), sup(grid, axis=0)


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
    rows, sup, delta_sups, eps_sups = _pair_scan(
        F, config, ((j, j - 1), (iota, iota - 1)),
        np.meshgrid(deltas, epsilons, indexing="ij"),  # rows: delta-major
        lambda d, e: d**dp1 * e**dph)
    return PairScanResult(sup_ratio=sup, rows=rows, delta_slope=_log_slope(deltas, delta_sups),
                          eps_slope=_log_slope(epsilons, eps_sups))


def adjacent_pair_bound_scan(
    F,
    config: PointConfig,
    weights: WeightAssignment,
) -> PairScanResult:
    """Sup of |F| / (delta^dp(theta1) eps^dp(h) (eps-delta)^dp(h)) on the triangle.

    Configuration shape: x_{iota-1} = x_{iota-2} + delta, x_iota = x_{iota-2} + eps
    with delta = f eps for f = 0.1, 0.2, ..., 0.9.  Only eps is a level axis, so
    the delta slope is 0.  Also reports the fitted eps-exponent at the middle
    fraction, which recovers lambda_0 - dp(theta1) - dp(h) = dp(h) for fields of
    the optimal-bound shape.
    """
    iota = weights.iota
    if iota < 3 or iota > config.M:
        raise PreconditionError("adjacent-pair geometry needs 3 <= iota <= M")
    dp1 = delta_plus(weights.theta1, weights.kappa)
    dph = delta_plus(weights.h, weights.kappa)
    epsilons = np.geomspace(1e-6, 1e-2, 7) * collapse_room(config, iota)
    fractions = np.linspace(0.1, 0.9, 9)
    grid_e, grid_f = np.meshgrid(epsilons, fractions, indexing="ij")  # rows: eps-major
    rows, sup, eps_sups, _ = _pair_scan(
        F, config, ((iota - 1, iota - 2), (iota, iota - 2)), (grid_f * grid_e, grid_e),
        lambda d, e: d**dp1 * e**dph * (e - d) ** dph)
    mid = slice(int(np.argmin(np.abs(fractions - 0.5))), None, len(fractions))
    d, e, vals, _ = np.array(rows[mid]).T
    return PairScanResult(sup_ratio=sup, rows=rows, delta_slope=0.0,
                          eps_slope=_log_slope(epsilons, eps_sups),
                          eps_exponent=_log_slope(e, vals / (d**dp1 * (e - d) ** dph)))


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
