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
from typing import NamedTuple, Optional

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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# The pair scans' level grids, as fractions of the collapse room; each call
# scales them by collapse_room.  Module constants, read-only.
FAR_PAIR_LEVELS = _read_only(np.geomspace(1e-6, 1e-2, 5))  # delta and eps levels
ADJACENT_EPS_LEVELS = _read_only(np.geomspace(1e-6, 1e-2, 7))
ADJACENT_FRACTIONS = _read_only(np.linspace(0.1, 0.9, 9))  # delta = f eps
_MID_FRACTION = int(np.argmin(np.abs(ADJACENT_FRACTIONS - 0.5)))  # the eps-exponent fit's f
# the column axes tiled over every row of the flat, row-major grids
_FAR_PAIR_COLUMNS = _read_only(np.tile(FAR_PAIR_LEVELS, FAR_PAIR_LEVELS.size))
_ADJACENT_COLUMNS = _read_only(np.tile(ADJACENT_FRACTIONS, ADJACENT_EPS_LEVELS.size))


class CollapseSpec:
    """Which interval collapses (x_i -> x_{i-1}) under which weight assignment."""

    __slots__ = ("i", "weights")

    def __init__(self, i: int, weights: WeightAssignment):
        if i < 2:
            raise DomainError(f"collapse index must be >= 2, got {i!r}")
        self.i = i
        self.weights = weights

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
    coordinate rounding by the samplers, so the small end is safe.  The grid is
    np.geomspace(start, top, FIT_DECADES + 1), bit for bit: the arithmetic
    np.geomspace does for two positive float64 ends, without its argument
    handling (it also sets the last log to log10(top), which top then overwrites).
    """
    room = collapse_room(config, i)
    top = FIT_TOP_FRACTION * room
    start = top * 10.0 ** (-FIT_DECADES)
    if start == 0.0:
        raise DomainError(f"the collapse grid at i={i} needs a displacement of {top!r} * "
                          f"1e-{FIT_DECADES}, which underflows to 0")
    ls, le = np.log10(start), np.log10(top)
    y = np.arange(FIT_DECADES + 1.0) * ((le - ls) / FIT_DECADES) + ls
    grid = 10.0 ** y
    grid[0], grid[-1] = start, top
    return grid


def _batch(config: PointConfig, moves: dict) -> np.ndarray:
    """Batch columns of config with x_i set to moves[i]; each must stay strictly increasing.

    The moves are 1-D arrays of one length, the number of columns.  config's
    own rows already increase, so only a moved row and its neighbours are
    compared.
    """
    cols = np.empty((config.M, max(map(len, moves.values()))))
    cols[...] = config.array[:, None]
    for i, values in moves.items():
        cols[i - 1] = values
    ok = True
    # gap g lies between rows g - 1 and g (0-based): the moved row i - 1 bounds gaps i - 1 and i
    for g in {g for i in moves for g in (i - 1, i) if 0 < g < config.M}:
        ok = ok & (cols[g] > cols[g - 1])
    if np.count_nonzero(ok) < ok.size:
        raise PreconditionError(
            f"configuration {cols[:, np.argmin(ok)].tolist()!r} is not strictly increasing")
    return cols


def _collapse_samples(F, config: PointConfig, i: int) -> tuple[np.ndarray, np.ndarray]:
    """(effective deltas, F values) with x_i at x_{i-1} + delta on the default
    grid, dropping samples where F is zero or not finite (at least 3 must stay)."""
    cols = _batch(config, {i: config.x(i - 1) + default_delta_grid(config, i)})
    eff, vals = cols[i - 1] - cols[i - 2], F(cols)
    keep = np.isfinite(vals) & (vals != 0.0)
    kept = np.count_nonzero(keep)
    if kept == keep.size:  # no gather needed
        return eff, vals
    if kept < 3:
        raise DegenerateFitError(f"candidate vanished or diverged on the collapse grid at i={i}")
    return eff[keep], vals[keep]


class ExponentEstimate(NamedTuple):
    p_hat: float
    stderr: float


def _slope_fit(eff: np.ndarray, vals: np.ndarray) -> ExponentEstimate:
    _, p_hat, _, stderr, _ = findiff.line_fit(np.log(eff), np.log(np.abs(vals)))
    return ExponentEstimate(p_hat=p_hat, stderr=stderr)


def collapse_exponent(F, config: PointConfig, spec: CollapseSpec) -> ExponentEstimate:
    """Least-squares slope of log |F| against log delta along the collapse."""
    return _slope_fit(*_collapse_samples(F, config, spec.i))


class ChannelFit(NamedTuple):
    A: float  # the collapse limit of delta^(-delta_minus) F
    B: float
    stderr_A: float
    misfit: float  # rms residual over max |delta^(-delta_minus) F|


def _channels(F, config: PointConfig, spec: CollapseSpec) -> tuple:
    """(pair, eff, vals, peak, fit): the collapse samples, peak = max |scaled| and
    the fit of scaled = delta^(-delta_minus) F by A + B delta^gap, misfit rms / peak."""
    pair = spec.exponents()
    eff, vals = _collapse_samples(F, config, spec.i)
    scaled = vals * eff ** (-pair.delta_minus)
    peak = float(np.maximum.reduce(np.abs(scaled)))
    A, B, stderr_A, _, rms = findiff.line_fit(eff**pair.gap, scaled)
    return pair, eff, vals, peak, ChannelFit(A=A, B=B, stderr_A=stderr_A, misfit=rms / peak)


def collapse_channels(F, config: PointConfig, spec: CollapseSpec) -> ChannelFit:
    """Fit delta^(-delta_minus) F = A + B delta^gap along the collapse.

    A is the collapse limit and B the delta_plus channel.  Both exponents are
    known, so the fit needs any gap above zero; at gap 0 the second channel
    is delta^delta_minus log delta and DegenerateFitError is raised.
    """
    return _channels(F, config, spec)[-1]


class TwoLegResult(NamedTuple):
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
    pair, eff, vals, peak, fit = _channels(F, config, spec)
    if fit.misfit <= MODEL_TOL:
        floor = 3.0 * fit.stderr_A + A_ROUNDOFF * peak
        return TwoLegResult(is_two_leg=abs(fit.A) <= floor, indeterminate=False, channels=fit)
    est = _slope_fit(eff, vals)
    threshold = pair.delta_minus + (3.0 * est.stderr + TWO_LEG_TOL)
    return TwoLegResult(is_two_leg=est.p_hat > threshold,
                        indeterminate=est.stderr > STDERR_MAX, channels=fit)


# -- two-interval scans ---------------------------------------------------------


def _log_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Slope of log y on log x over the finite positive y; NaN (not flat) if under two."""
    keep = np.isfinite(y) & (y > 0.0)
    kept = np.count_nonzero(keep)
    if kept < 2:
        return math.nan
    if kept < keep.size:
        x, y = x[keep], y[keep]
    return findiff.line_fit(np.log(x), np.log(y))[1]


class PairScanResult(NamedTuple):
    sup_ratio: float
    samples: tuple  # arrays (delta, eps, |F|, ratio), one entry per grid point
    delta_slope: float  # log-log slopes of the per-level sups, NaN if not measured
    eps_slope: float
    eps_exponent: Optional[float] = None

    @property
    def rows(self) -> list:
        """(delta, eps, |F|, ratio) per grid point, as Python floats; built on each read."""
        return list(zip(*(a.tolist() for a in self.samples)))

    @property
    def divergent(self) -> bool:
        return self.delta_slope < -SLOPE_TOL or self.eps_slope < -SLOPE_TOL

    @property
    def bounded(self) -> bool:
        """Not divergent, with a finite sup and both slopes measured."""
        return not self.divergent and all(
            map(math.isfinite, (self.sup_ratio, self.delta_slope, self.eps_slope)))


def _pair_scan(F, config: PointConfig, closing, offsets, shape, normaliser) -> tuple:
    """Samples (delta, eps, |F|, ratio), the sup ratio and the sups per grid row
    and column.

    closing = ((i, a), (k, b)) sets x_i = x_a + offsets[0] and x_k = x_b + offsets[1],
    both flat over a level grid of the given shape, row-major; delta = x_i - x_a,
    eps = x_k - x_b after rounding, and ratio = |F| / normaliser(delta, eps).  Every
    sup skips NaN ratios; a sup of no number is NaN.
    """
    (i, a), (k, b) = closing
    cols = _batch(config, {i: config.x(a) + offsets[0], k: config.x(b) + offsets[1]})
    d_eff, e_eff = cols[i - 1] - cols[a - 1], cols[k - 1] - cols[b - 1]
    vals = np.abs(F(cols))
    ratio = vals / normaliser(d_eff, e_eff)
    grid = ratio.reshape(shape)
    sup = np.fmax.reduce
    return (d_eff, e_eff, vals, ratio), float(sup(ratio)), sup(grid, axis=1), sup(grid, axis=0)


def far_pair_bound_scan(
    F,
    config: PointConfig,
    weights: WeightAssignment,
    j: int,
) -> PairScanResult:
    """Sup of |F| / (delta^dp(theta1) eps^dp(h)) over a non-adjacent pair collapse.

    The j-interval (x_{j-1}, x_j) closes with length delta and the anomalous
    interval (x_{iota-1}, x_iota) with length eps, each over FAR_PAIR_LEVELS of
    its room.  A negative log-log slope of the per-level sup marks the
    normalized ratio as divergent.
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
    n = FAR_PAIR_LEVELS.size
    eps_room = collapse_room(config, iota)
    deltas, epsilons = FAR_PAIR_LEVELS * collapse_room(config, j), FAR_PAIR_LEVELS * eps_room
    samples, sup, delta_sups, eps_sups = _pair_scan(
        F, config, ((j, j - 1), (iota, iota - 1)),
        (np.repeat(deltas, n), _FAR_PAIR_COLUMNS * eps_room), (n, n),  # rows: delta-major
        lambda d, e: d**dp1 * e**dph)
    return PairScanResult(sup_ratio=sup, samples=samples,
                          delta_slope=_log_slope(deltas, delta_sups),
                          eps_slope=_log_slope(epsilons, eps_sups))


def adjacent_pair_bound_scan(
    F,
    config: PointConfig,
    weights: WeightAssignment,
) -> PairScanResult:
    """Sup of |F| / (delta^dp(theta1) eps^dp(h) (eps-delta)^dp(h)) on the triangle.

    Configuration shape: x_{iota-1} = x_{iota-2} + delta, x_iota = x_{iota-2} + eps
    with eps over ADJACENT_EPS_LEVELS of the room and delta = f eps for f in
    ADJACENT_FRACTIONS (0.1, 0.2, ..., 0.9).  Only eps is a level axis, so the
    delta slope is 0.  Also reports the fitted eps-exponent at the middle
    fraction, which recovers lambda_0 - dp(theta1) - dp(h) = dp(h) for fields of
    the optimal-bound shape.
    """
    iota = weights.iota
    if iota < 3 or iota > config.M:
        raise PreconditionError("adjacent-pair geometry needs 3 <= iota <= M")
    dp1 = delta_plus(weights.theta1, weights.kappa)
    dph = delta_plus(weights.h, weights.kappa)
    shape = (ADJACENT_EPS_LEVELS.size, ADJACENT_FRACTIONS.size)  # rows: eps-major
    epsilons = ADJACENT_EPS_LEVELS * collapse_room(config, iota)
    eps_flat = np.repeat(epsilons, shape[1])
    samples, sup, eps_sups, _ = _pair_scan(
        F, config, ((iota - 1, iota - 2), (iota, iota - 2)),
        (_ADJACENT_COLUMNS * eps_flat, eps_flat), shape,
        lambda d, e: d**dp1 * e**dph * (e - d) ** dph)
    d, e, vals = (v[_MID_FRACTION::shape[1]] for v in samples[:3])
    return PairScanResult(sup_ratio=sup, samples=samples, delta_slope=0.0,
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
