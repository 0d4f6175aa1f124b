"""Central-difference stencils used by the residual evaluators.

The fourth-order five-point formulas are written once, as functions of the
samples, so a caller that needs several derivatives at one point samples it
once: `wings` gives the four off-centre samples, `first` and `second` combine
them (with the centre value for `second`).
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


def richardson(coarse: float, fine: float, order: int, refine: float = 2.0) -> float:
    """Extrapolate two estimates at steps h and h/refine of a scheme of given order."""
    factor = refine**order
    return (factor * fine - coarse) / (factor - 1.0)


def d1_extrapolated(f, x: float, h: float) -> float:
    """Richardson-refined fourth-order first derivative (effective order six)."""
    return richardson(d1(f, x, h), d1(f, x, h / 2.0), order=4)


def extrapolated(f, x: float, h: float) -> tuple[float, float, float]:
    """(f(x), d1, d2), both derivatives Richardson-refined, from nine samples of f."""
    f0 = f(x)
    coarse, fine = wings(f, x, h), wings(f, x, h / 2.0)
    return (
        f0,
        richardson(first(coarse, h), first(fine, h / 2.0), order=4),
        richardson(second(f0, coarse, h), second(f0, fine, h / 2.0), order=4),
    )
