"""Central-difference stencils used by the residual evaluators.

The fourth-order five-point formulas are written once, as functions of the
samples, so a caller that needs several derivatives at one point samples it
once: `wings` gives the four off-centre samples, `first` and `second` combine
them (with the centre value for `second`).  The Richardson-refined forms
read the six samples at `refined_points`: the step-h wings and x -+ h/2, the
step-h/2 stencil taking its outer samples, x -+ h, from the step-h wings.  A
caller that evaluates its function on many points at once samples those
abscissae itself and hands the values to `refined_first` / `refined_second`.
"""

from __future__ import annotations


def wings(f, x: float, h: float) -> tuple[float, float, float, float]:
    """f at x - 2h, x - h, x + h, x + 2h: the off-centre samples of the stencil."""
    return f(x - 2 * h), f(x - h), f(x + h), f(x + 2 * h)


def first(w, h: float) -> float:
    """Fourth-order first derivative from the wing samples of step h."""
    m2, m1, p1, p2 = w
    return (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h)


def second(f0: float, w, h: float) -> float:
    """Fourth-order second derivative from the centre value and the wing samples."""
    m2, m1, p1, p2 = w
    return (-p2 + 16.0 * p1 - 30.0 * f0 + 16.0 * m1 - m2) / (12.0 * h * h)


def d1(f, x: float, h: float) -> float:
    """Fourth-order first derivative."""
    return first(wings(f, x, h), h)


def d2(f, x: float, h: float) -> float:
    """Fourth-order second derivative."""
    return second(f(x), wings(f, x, h), h)


def richardson(coarse: float, fine: float, order: int) -> float:
    """Extrapolate two estimates at steps h and h/2 of a scheme of given order."""
    factor = 2.0**order
    return (factor * fine - coarse) / (factor - 1.0)


def refined_points(x: float, h: float) -> tuple[float, ...]:
    """x - 2h, x - h, x + h, x + 2h, x - h/2, x + h/2: the samples the refined forms read."""
    return x - 2 * h, x - h, x + h, x + 2 * h, x - h / 2.0, x + h / 2.0


def _coarse_fine(samples) -> tuple:
    """The step-h and step-h/2 wings within the six `refined_points` samples."""
    m2, m1, p1, p2, mh, ph = samples
    return (m2, m1, p1, p2), (m1, mh, ph, p1)


def refined_first(samples, h: float) -> float:
    """Richardson-refined fourth-order first derivative (effective order six)."""
    coarse, fine = _coarse_fine(samples)
    return richardson(first(coarse, h), first(fine, h / 2.0), order=4)


def refined_second(f0: float, samples, h: float) -> float:
    """Richardson-refined fourth-order second derivative, from the centre value too."""
    coarse, fine = _coarse_fine(samples)
    return richardson(second(f0, coarse, h), second(f0, fine, h / 2.0), order=4)


def extrapolated(f, x: float, h: float) -> tuple[float, float, float]:
    """(f(x), d1, d2), both derivatives Richardson-refined, from seven samples of f."""
    f0 = f(x)
    samples = [f(p) for p in refined_points(x, h)]
    return f0, refined_first(samples, h), refined_second(f0, samples, h)
