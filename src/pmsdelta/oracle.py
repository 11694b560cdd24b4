"""Independent ground-truth numerics: the AGM, and a fit of exponential decay.

Every exact reference rests on three primitives: the arithmetic-geometric
mean as the integral of 1/sqrt(R) over [0, pi] for R linear in cos(theta),
and the two quadrature rules of the quadrature module.  A factor quadratic
in cos(theta) or cos^2(theta) reaches the AGM through one Gauss step
(DLMF 19.8, 19.29); the quadratures are left to factors of higher degree,
where the integral is hyperelliptic, so the closed forms, the pendulum and
the precession load this module and not the quadrature rules.  Beside the
AGM: a fit of exponential decay.
Standard-library Python, deliberately self-contained: it imports nothing
from the expansion engine, nor the engine from it, so that the series
machinery is checked against arithmetic it does not share.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from . import _names
from .errors import DegenerateFit, DomainError

__all__ = _names(__name__)


class FitResult(NamedTuple):
    alpha: float
    beta: float
    residual: float


def elliptic_k(m: float) -> float:
    """Complete elliptic integral K(m), parameter convention.

    K(m) = integral over [0, pi/2] of dalpha / sqrt(1 - m sin^2 alpha); with
    theta = 2 alpha, R = 1 - m sin^2(theta/2) runs from 1 to 1 - m, so K(m)
    is half of _agm_integral(1, 1 - m).  The parameter (not the modulus)
    multiplies sin^2 alpha.  Any m < 1 is admissible, including negative
    values and -inf, where K is 0; K diverges as m -> 1.
    """
    if not m < 1.0:
        raise DomainError(f"elliptic_k requires m < 1, got {m!r}")
    return 0.5 * _agm_integral(1.0, 1.0 - m)[0]


def _agm_integral(
    end_0: float,
    end_pi: float,
    gap_0: float | None = None,
    gap_pi: float | None = None,
) -> tuple[float, float]:
    """Integral of dtheta/sqrt(R) over [0, pi] for R linear in cos(theta).

    R = alpha + beta cos(theta) is given by its end values R(0) = end_0 and
    R(pi) = end_pi, both positive, and the integral is
    pi / agm(sqrt(R(0)), sqrt(R(pi))) (DLMF 19.8).  Returns that integral and
    its excess over pi.  The AGM runs twice over: on x, y and, in deviation
    form, on p = 1 - x and q = 1 - y, with q' = (p + q - p q)/(1 + y').  So
    the excess is pi p/x and never subtracts pi.  gap_0 = 1 - R(0) and
    gap_pi = 1 - R(pi), when given exactly, keep its digits for R close to
    1; they default to 1 - R.  An infinite end value gives the limit 0.

    A factor quadratic in cos(theta) or cos^2(theta) comes here too: with
    t = tan(theta/2) or t = tan(theta) its integral is one over the whole
    t axis of 1/sqrt(A + B t^2 + C t^4), and one Gauss step on the roots in
    t^2 makes that this integral at the end values (sqrt(AC) + B/2)/2 and
    sqrt(AC) (DLMF 19.8, and 19.29 for the reduction).  The oscillators'
    _quadratic_agm forms them.
    """
    x, y = math.sqrt(end_0), math.sqrt(end_pi)
    p = (1.0 - end_0 if gap_0 is None else gap_0) / (1.0 + x)
    q = (1.0 - end_pi if gap_pi is None else gap_pi) / (1.0 + y)
    # p and q bracket the limit as x and y do, and their gap is |x - y|.
    # Once x and y agree to 2 ulp that gap is about 4e-16 x; each step
    # squares it, so two more put it below the rounding of any p > 1e-40.
    # The test is written so that x = y = inf, where x - y is NaN, counts.
    extra = 2
    while extra:
        if not abs(x - y) > 2.0 * math.ulp(x):
            extra -= 1
        x, y = 0.5 * (x + y), math.sqrt(x * y)
        p, q = 0.5 * (p + q), (p + q - p * q) / (1.0 + y)
    return math.pi / x, math.pi * p / x


def fit_log_linear(points: Sequence[tuple[float, float]]) -> FitResult:
    """Ordinary least squares of ln(err) against n for err = exp(-alpha - beta n).

    points holds finite (n, err) pairs with err > 0.  Returns the fitted alpha
    and beta (so the fitted line is -alpha - beta*n) and the RMS residual in
    ln space.  The closed form of the two-parameter fit, slope
    sum (n - n_mean)(y - y_mean) / sum (n - n_mean)^2 with y = ln(err), is
    summed with math.fsum.  Raises DegenerateFit when every n coincides.
    """
    if len(points) < 2:
        raise DomainError("need at least 2 points to fit")
    ns = [float(n) for n, _ in points]
    errs = [float(e) for _, e in points]
    if not all(0.0 < e < math.inf and math.isfinite(n) for n, e in zip(ns, errs)):
        raise DomainError("all n must be finite and all err values positive and finite")
    if all(n == ns[0] for n in ns):
        raise DegenerateFit("all abscissae are equal")
    ys = [math.log(e) for e in errs]
    n_mean, y_mean = math.fsum(ns) / len(ns), math.fsum(ys) / len(ys)
    dn = [n - n_mean for n in ns]
    slope = math.fsum(d * (y - y_mean) for d, y in zip(dn, ys)) / math.fsum(d * d for d in dn)
    resid = math.fsum((y - y_mean - slope * d) ** 2 for d, y in zip(dn, ys))
    return FitResult(
        alpha=slope * n_mean - y_mean, beta=-slope, residual=math.sqrt(resid / len(ys))
    )
