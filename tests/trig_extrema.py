"""Exact extrema of a TrigPolynomial, a reference for the tests."""

import numpy as np

from pmsdelta.series_core import TrigPolynomial, _horner


def extrema(poly: TrigPolynomial) -> tuple[float, float]:
    """(max, min) of the polynomial over [0, pi].

    In c = cos(theta) the polynomial lives on [-1, 1], so its extrema sit at
    c = +-1 or at a real root of its derivative.  Real parts of every
    derivative root are kept as candidates: a spurious one is still a point of
    [-1, 1], and a double root that the eigenvalue solver splits into a
    near-real pair is not lost.  A constant has no derivative to solve.  A
    leading coefficient tiny next to the others sends a root to infinity;
    such a root lies outside [-1, 1] and is dropped.  Near zero it is too
    rough to decide a factor's positivity.
    """
    if poly.degree == 0:
        return poly.coeffs[0], poly.coeffs[0]
    coeffs = np.asarray(poly.coeffs)
    with np.errstate(all="ignore"):
        roots = np.polynomial.polynomial.polyroots(coeffs[1:] * np.arange(1, coeffs.size)).real
    roots = roots[np.isfinite(roots)]
    nodes = np.concatenate(([-1.0, 1.0], np.clip(roots, -1.0, 1.0)))
    values = _horner(poly.coeffs, nodes)
    return float(values.max()), float(values.min())
