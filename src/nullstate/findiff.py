"""Finite differences and least-squares lines: the package's one toolkit for both.

Nothing here samples a function: a caller evaluates it on the abscissae, as
one array where it can, and hands the values over; every combination works
elementwise on floats and arrays alike.  `first` and `second` are the
fourth-order five-point formulas, from the four off-centre samples (the wings,
at x - 2h, x - h, x + h, x + 2h), `second` with the centre value too.  The
Richardson-refined forms read the six samples at `refined_points`: the step-h
wings and x -+ h/2, the step-h/2 stencil taking its outer samples, x -+ h, from
the step-h wings.  `line_fit` is every least-squares line the package fits.
"""

from __future__ import annotations

import math

from .errors import DegenerateFitError


def first(w, h):
    """Fourth-order first derivative from the wing samples of step h."""
    m2, m1, p1, p2 = w
    return (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h)


def second(f0, w, h):
    """Fourth-order second derivative from the centre value and the wing samples."""
    m2, m1, p1, p2 = w
    return (-p2 + 16.0 * p1 - 30.0 * f0 + 16.0 * m1 - m2) / (12.0 * h * h)


def richardson(coarse, fine, order: int):
    """Extrapolate two estimates at steps h and h/2 of a scheme of given order."""
    factor = 2.0**order
    return (factor * fine - coarse) / (factor - 1.0)


def refined_points(x, h) -> tuple:
    """x - 2h, x - h, x + h, x + 2h, x - h/2, x + h/2: the samples the refined forms read."""
    return x - 2 * h, x - h, x + h, x + 2 * h, x - h / 2.0, x + h / 2.0


def _coarse_fine(samples) -> tuple:
    """The step-h and step-h/2 wings within the six `refined_points` samples."""
    m2, m1, p1, p2, mh, ph = samples
    return (m2, m1, p1, p2), (m1, mh, ph, p1)


def refined_first(samples, h):
    """Richardson-refined fourth-order first derivative (effective order six)."""
    coarse, fine = _coarse_fine(samples)
    return richardson(first(coarse, h), first(fine, h / 2.0), order=4)


def refined_second(f0, samples, h):
    """Richardson-refined fourth-order second derivative, from the centre value too."""
    coarse, fine = _coarse_fine(samples)
    return richardson(second(f0, coarse, h), second(f0, fine, h / 2.0), order=4)


# sum of |weights| of `refined_second` at h = 1: each sample takes its weight's sign
REFINED_SECOND_GAIN = refined_second(-1.0, (1.0, -1.0, -1.0, 1.0, 1.0, 1.0), 1.0)


def line_fit(x, y) -> tuple[float, float, float, float, float]:
    """Least squares y = a + b x on centered x: (a, b, stderr a, stderr b, rms residual)."""
    xm, ym = x.mean(), y.mean()
    xc = x - xm
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise DegenerateFitError(f"every fit abscissa equals {float(xm)!r} (an exponent gap of 0?)")
    b = float(xc @ (y - ym)) / sxx
    resid = y - ym - b * xc
    rss = float(resid @ resid)
    s2 = rss / (x.size - 2) if x.size > 2 else math.inf  # a line through 2 points: no stderr
    return (float(ym - b * xm), b, math.sqrt(s2 * (1.0 / x.size + xm * xm / sxx)),
            math.sqrt(s2 / sxx), math.sqrt(rss / x.size))
