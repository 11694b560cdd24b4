"""Independent ground-truth numerics.

Adaptive quadrature, the complete elliptic integral via the arithmetic-geometric
mean, a bracketing root finder, and least-squares fitting of exponential decay.
Everything here is deliberately self-contained so that the series machinery in
the rest of the package is checked against arithmetic it does not share.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .errors import (
    DegenerateFit,
    DomainError,
    NonFiniteIntegrand,
    NoSignChange,
    ToleranceNotMet,
)

__all__ = [
    "QuadratureResult",
    "FitResult",
    "integrate",
    "elliptic_k",
    "find_root",
    "fit_log_linear",
]

# Embedded low/high order Gauss-Legendre pair, one panel evaluation each:
# the nodes and weights of numpy.polynomial.legendre.leggauss(7) and (15),
# which are machine-exact, written out so that importing the oracle does not
# load numpy.  15 points integrate polynomials through degree 29.
_LOW_NODES = (
    -0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
    0.4058451513773972, 0.7415311855993945, 0.9491079123427586,
)
_LOW_WEIGHTS = (
    0.12948496616886973, 0.27970539148927687, 0.3818300505051187,
    0.4179591836734693, 0.3818300505051187, 0.27970539148927687,
    0.12948496616886973,
)
_HIGH_NODES = (
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272,
    -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
    -0.20119409399743451, 0.0, 0.20119409399743451, 0.3941513470775634,
    0.5709721726085388, 0.7244177313601701, 0.8482065834104272,
    0.9372733924007058, 0.9879925180204854,
)
_HIGH_WEIGHTS = (
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
    0.13957067792615444, 0.16626920581699398, 0.1861610000155622,
    0.1984314853271116, 0.2025782419255613, 0.1984314853271116,
    0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
)
_PANEL_COST = len(_LOW_NODES) + len(_HIGH_NODES)


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of one adaptive integration.

    value:          the integral estimate from the high-order rule.
    error_estimate: accumulated |high - low| over accepted panels; at most the
                    requested tolerance on success.
    evaluations:    number of integrand calls spent.
    """

    value: float
    error_estimate: float
    evaluations: int


class FitResult(NamedTuple):
    alpha: float
    beta: float
    residual: float


# Error estimates below this multiple of the panel's |f| integral are
# indistinguishable from rounding noise in the two rules; such panels are
# accepted rather than split forever.
_NOISE_FLOOR = 8.0 * 2.0 ** -52


def _panel(
    f: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float, float]:
    """High-order estimate, embedded error, and |f| scale for one panel."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    low = 0.0
    for node, weight in zip(_LOW_NODES, _LOW_WEIGHTS):
        low += weight * f(center + half * node)
    high = 0.0
    scale = 0.0
    for node, weight in zip(_HIGH_NODES, _HIGH_WEIGHTS):
        x = center + half * node
        y = f(x)
        if not math.isfinite(y):
            raise NonFiniteIntegrand(f"integrand is not finite at x={x!r}")
        high += weight * y
        scale += weight * abs(y)
    return half * high, abs(half * (high - low)), half * scale


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    abs_tol: float = 1e-12,
    max_evals: int = 10**6,
    rel_tol: float = 0.0,
) -> QuadratureResult:
    """Integrate f over [a, b] to max(abs_tol, rel_tol * |integral|).

    Globally adaptive bisection with an embedded low/high order rule per
    panel: the panel with the worst error estimate is split first, until the
    accumulated estimate drops below the tolerance, taken against the running
    estimate of the integral.  Deterministic: the refinement order and the
    final left-to-right summation depend only on the inputs.

    Raises ToleranceNotMet when the accumulated error estimate cannot be
    brought below the tolerance (evaluation budget exhausted, or panels
    pinned at the floating-point resolution limit) and NonFiniteIntegrand if
    f returns NaN or infinity at a node.
    """
    if not a < b:
        raise DomainError(f"integration interval needs a < b, got [{a!r}, {b!r}]")
    if abs_tol <= 0.0:
        raise DomainError("abs_tol must be positive")
    if not rel_tol >= 0.0:
        raise DomainError("rel_tol must be nonnegative")

    evals = _PANEL_COST
    first = _panel(f, a, b)
    # Max-heap on the error estimate: always refine the worst panel.
    live = [(-first[1], a, b) + first]
    err_total = first[1]
    value_total = first[0]
    frozen: list[tuple[float, float, float]] = []  # (lo, value, error)
    while live and err_total > max(abs_tol, rel_tol * abs(value_total)):
        neg_err, lo, hi, value, err, scale = heapq.heappop(live)
        mid = 0.5 * (lo + hi)
        if err <= _NOISE_FLOOR * scale or mid <= lo or mid >= hi:
            # Rounding noise or the resolution limit: splitting cannot
            # reduce this estimate any further.
            frozen.append((lo, value, err))
            continue
        if evals + 2 * _PANEL_COST > max_evals:
            frozen.append((lo, value, err))
            break
        evals += 2 * _PANEL_COST
        left = _panel(f, lo, mid)
        right = _panel(f, mid, hi)
        err_total += left[1] + right[1] - err
        value_total += left[0] + right[0] - value
        heapq.heappush(live, (-left[1], lo, mid) + left)
        heapq.heappush(live, (-right[1], mid, hi) + right)

    panels = frozen + [(lo, value, err) for _, lo, _, value, err, _ in live]
    panels.sort(key=lambda rec: rec[0])
    total = 0.0
    comp = 0.0
    err_sum = 0.0
    for _, value, err in panels:  # Kahan over panels, left to right
        y = value - comp
        t = total + y
        comp = (t - total) - y
        total = t
        err_sum += err
    tol = max(abs_tol, rel_tol * abs(total))
    if err_sum > tol:
        raise ToleranceNotMet(
            f"error estimate {err_sum:.3e} above tolerance {tol:.3e} "
            f"after {evals} evaluations"
        )
    return QuadratureResult(value=total, error_estimate=err_sum, evaluations=evals)


def elliptic_k(m: float) -> float:
    """Complete elliptic integral K(m), parameter convention.

    K(m) = integral over [0, pi/2] of dalpha / sqrt(1 - m sin^2 alpha), computed
    by arithmetic-geometric mean iteration: K(m) = pi / (2 agm(1, sqrt(1-m))).
    The parameter (not the modulus) multiplies sin^2 alpha.  Any m < 1 is
    admissible, including negative values; K diverges as m -> 1.
    """
    if not m < 1.0:
        raise DomainError(f"elliptic_k requires m < 1, got {m!r}")
    return math.pi / (2.0 * _agm(1.0, math.sqrt(1.0 - m)))


def _agm(x: float, y: float) -> float:
    """Arithmetic-geometric mean of x, y > 0, iterated to 2 ulp agreement."""
    while abs(x - y) > 2.0 * math.ulp(x):
        x, y = 0.5 * (x + y), math.sqrt(x * y)
    return x


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
    1; they default to 1 - R.
    """
    x, y = math.sqrt(end_0), math.sqrt(end_pi)
    p = (1.0 - end_0 if gap_0 is None else gap_0) / (1.0 + x)
    q = (1.0 - end_pi if gap_pi is None else gap_pi) / (1.0 + y)
    # p and q bracket the limit as x and y do, and their gap is |x - y|.
    # Once x and y agree to 2 ulp that gap is about 4e-16 x; each step
    # squares it, so two more put it below the rounding of any p > 1e-40.
    extra = 2
    while extra:
        if abs(x - y) <= 2.0 * math.ulp(x):
            extra -= 1
        x, y = 0.5 * (x + y), math.sqrt(x * y)
        p, q = 0.5 * (p + q), (p + q - p * q) / (1.0 + y)
    return math.pi / x, math.pi * p / x


def find_root(
    g: Callable[[float], float], lo: float, hi: float, tol: float = 1e-14
) -> float:
    """Root of g on [lo, hi] by Brent's method.

    Requires a sign change on the bracket (NoSignChange otherwise).  Inverse
    quadratic and secant steps are used when they behave, with bisection as the
    fallback, so convergence is guaranteed.  Returns x once the bracket width
    falls below tol plus a machine-precision floor.
    """
    a, b = float(lo), float(hi)
    fa, fb = g(a), g(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise NoSignChange(f"g({lo!r}) and g({hi!r}) have the same sign")

    c, fc = a, fa
    d = e = b - a
    for _ in range(200):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * math.ulp(abs(b)) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p = 2.0 * xm * s
                q = 1.0 - s
            else:  # inverse quadratic
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = g(b)
    return b


def fit_log_linear(points: Sequence[tuple[float, float]]) -> FitResult:
    """Ordinary least squares of ln(err) against n for err = exp(-alpha - beta n).

    points holds (n, err) pairs with err > 0.  Returns the fitted alpha and
    beta (so the fitted line is -alpha - beta*n) and the RMS residual in
    ln space.  Raises DegenerateFit when every n coincides.
    """
    import numpy as np

    if len(points) < 2:
        raise DomainError("need at least 2 points to fit")
    ns = np.array([float(n) for n, _ in points])
    errs = np.array([float(e) for _, e in points])
    if np.any(errs <= 0.0):
        raise DomainError("all err values must be positive")
    if np.all(ns == ns[0]):
        raise DegenerateFit("all abscissae are equal")
    y = np.log(errs)
    design = np.vstack([np.ones_like(ns), ns]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    rms = math.sqrt(float(np.mean(resid * resid)))
    return FitResult(alpha=-float(coef[0]), beta=-float(coef[1]), residual=rms)
