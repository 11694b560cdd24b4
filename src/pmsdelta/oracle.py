"""Independent ground-truth numerics.

Every exact reference rests on three primitives: adaptive quadrature, the
trapezoidal rule for a periodic integrand, and the arithmetic-geometric
mean as the integral of 1/sqrt(R) over [0, pi] for R linear in cos(theta).
A factor quadratic in cos(theta) or cos^2(theta) reaches the AGM through
one Gauss step (DLMF 19.8, 19.29); the quadratures are left to factors of
higher degree, where the integral is hyperelliptic.  A function of
cos^2(theta) that is analytic in a strip about the real axis takes the
trapezoidal rule, which converges geometrically there; a narrower strip
takes the adaptive rule.  The trapezoidal rule passes cos^2(theta) and
sin^2(theta) to its integrand from a cached table per level, made once by
math.cos and math.sin, so a sample computes no node.  Beside them: a fit of
exponential decay.
Standard-library Python, deliberately self-contained: it imports nothing
from the expansion engine, nor the engine from it, so that the series
machinery is checked against arithmetic it does not share.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from . import _names
from .errors import DegenerateFit, DomainError, NonFiniteIntegrand, ToleranceNotMet

__all__ = _names(__name__)

# Embedded Gauss-Kronrod rule, the 21-point Kronrod extension of the
# 10-point Gauss-Legendre rule (QUADPACK's QK21): the Gauss nodes are the
# zeros of P_10, the 11 Kronrod-only nodes the zeros of the Stieltjes
# polynomial E_11 (Laurie, Math. Comp. 66 (1997) 1133), and both weight sets
# interpolatory.  Each literal is the correctly rounded double of the value
# at 50 digits, written out so that importing the oracle does not load
# numpy.  The Gauss weights are zero at the Kronrod-only nodes, so one pass
# over the 21 nodes gives both sums.  21 points integrate polynomials
# through degree 31, and 10 through degree 19.
_NODES = (
    -0.9956571630258081, -0.9739065285171717, -0.9301574913557082,
    -0.8650633666889845, -0.7808177265864169, -0.6794095682990244,
    -0.5627571346686047, -0.4333953941292472, -0.2943928627014602,
    -0.14887433898163122, 0.0, 0.14887433898163122, 0.2943928627014602,
    0.4333953941292472, 0.5627571346686047, 0.6794095682990244,
    0.7808177265864169, 0.8650633666889845, 0.9301574913557082,
    0.9739065285171717, 0.9956571630258081,
)
_KRONROD_WEIGHTS = (
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
    0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
    0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
    0.14773910490133849, 0.1494455540029169, 0.14773910490133849,
    0.14277593857706009, 0.13470921731147334, 0.12349197626206584,
    0.10938715880229764, 0.0931254545836976, 0.07503967481091996,
    0.054755896574351995, 0.032558162307964725, 0.011694638867371874,
)
_GAUSS_WEIGHTS = (
    0.0, 0.06667134430868814, 0.0, 0.1494513491505806, 0.0,
    0.21908636251598204, 0.0, 0.26926671930999635, 0.0, 0.29552422471475287,
    0.0, 0.29552422471475287, 0.0, 0.26926671930999635, 0.0,
    0.21908636251598204, 0.0, 0.1494513491505806, 0.0, 0.06667134430868814,
    0.0,
)
_PANEL_COST = len(_NODES)


class QuadratureResult(NamedTuple):
    """Outcome of one integration.

    value:          the integral estimate: from the Kronrod rule K21 in
                    integrate, from the finest level in _periodic_trapezoid.
    error_estimate: accumulated |K21 - G10| over accepted panels, or the
                    difference of the last two trapezoidal levels; at most
                    the requested tolerance on success.
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
    """Kronrod estimate, embedded error, and |f| scale for one panel.

    The 21 weighted samples of the Kronrod sum are added with math.fsum, so
    the panel value is their correctly rounded sum; the Gauss sum, which
    only enters the error estimate, and the scale are plain sums.
    """
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    terms = []
    gauss = 0.0
    scale = 0.0
    for node, kronrod_weight, gauss_weight in zip(_NODES, _KRONROD_WEIGHTS, _GAUSS_WEIGHTS):
        x = center + half * node
        y = f(x)
        if not math.isfinite(y):
            raise NonFiniteIntegrand(f"integrand is not finite at x={x!r}")
        terms.append(kronrod_weight * y)
        gauss += gauss_weight * y
        scale += kronrod_weight * abs(y)
    try:
        kronrod = math.fsum(terms)
    except OverflowError:  # an intermediate partial sum left the float range
        kronrod = math.inf
    value, err = half * kronrod, abs(half * (kronrod - gauss))
    if not (math.isfinite(value) and math.isfinite(err)):
        raise NonFiniteIntegrand(f"panel [{lo!r}, {hi!r}] leaves the float range")
    return value, err, half * scale


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    abs_tol: float = 1e-12,
    max_evals: int = 10**6,
    rel_tol: float = 0.0,
) -> QuadratureResult:
    """Integrate f over [a, b] to max(abs_tol, rel_tol * |integral|).

    Globally adaptive bisection with the embedded G10/K21 rule per panel:
    the panel with the worst error estimate is split first, until the
    accumulated estimate drops below the tolerance, taken against the running
    estimate of the integral.  The panel values and error estimates are
    summed with math.fsum, so each is the correctly rounded sum, whatever
    the order of the panels.

    Raises ToleranceNotMet when the accumulated error estimate cannot be
    brought below the tolerance (evaluation budget exhausted, or panels
    pinned at the floating-point resolution limit), and NonFiniteIntegrand
    if f returns NaN or infinity at a node or a panel value, an error
    estimate or their sum leaves the float range.
    """
    import heapq

    if not a < b:
        raise DomainError(f"integration interval needs a < b, got [{a!r}, {b!r}]")
    if not abs_tol > 0.0:
        raise DomainError("abs_tol must be positive")
    if not rel_tol >= 0.0:
        raise DomainError("rel_tol must be nonnegative")

    evals = _PANEL_COST
    first = _panel(f, a, b)
    # Max-heap on the error estimate: always refine the worst panel.
    live = [(-first[1], a, b) + first]
    err_total = first[1]
    value_total = first[0]
    frozen: list[tuple[float, float]] = []  # (value, error)
    while live and err_total > max(abs_tol, rel_tol * abs(value_total)):
        neg_err, lo, hi, value, err, scale = heapq.heappop(live)
        mid = 0.5 * (lo + hi)
        if err <= _NOISE_FLOOR * scale or mid <= lo or mid >= hi:
            # Rounding noise or the resolution limit: splitting cannot
            # reduce this estimate any further.
            frozen.append((value, err))
            continue
        if evals + 2 * _PANEL_COST > max_evals:
            frozen.append((value, err))
            break
        evals += 2 * _PANEL_COST
        left = _panel(f, lo, mid)
        right = _panel(f, mid, hi)
        err_total += left[1] + right[1] - err
        value_total += left[0] + right[0] - value
        heapq.heappush(live, (-left[1], lo, mid) + left)
        heapq.heappush(live, (-right[1], mid, hi) + right)

    panels = frozen + [(value, err) for _, _, _, value, err, _ in live]
    try:
        total = math.fsum(value for value, _ in panels)
        err_sum = math.fsum(err for _, err in panels)
    except OverflowError:
        raise NonFiniteIntegrand("the integral leaves the float range") from None
    tol = max(abs_tol, rel_tol * abs(total))
    if err_sum > tol:
        raise ToleranceNotMet(
            f"error estimate {err_sum:.3e} above tolerance {tol:.3e} "
            f"after {evals} evaluations"
        )
    return QuadratureResult(value=total, error_estimate=err_sum, evaluations=evals)


# 2 pi to 76 decimals, as an integer over 10^76: less than 1e-76 from 2 pi.
_TWO_PI_NUMERATOR = 62831853071795864769252867665590057683943387987502116419498891846156328125724
_TWO_PI_DENOMINATOR = 10**76

# The first trapezoidal level samples [0, pi/2] at the ends of this many panels.
_FIRST_PANELS = 8


def _times_two_pi(high: float, low: float) -> float:
    """2 pi (high + low), rounded once.

    high + low is an exact ratio of integers, and its product with the
    76-decimal 2 pi is one integer quotient, which Python rounds correctly,
    sign and subnormals included.  That 2 pi has a relative error below
    2e-77, so only a product that close to a tie can round the wrong way.
    """
    (a, b), (c, d) = high.as_integer_ratio(), low.as_integer_ratio()
    return (a * d + c * b) * _TWO_PI_NUMERATOR / (b * d * _TWO_PI_DENOMINATOR)


@lru_cache(maxsize=17)
def _trapezoid_level(panels: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(cos^2(theta), sin^2(theta)) at the nodes the trapezoidal level of this
    many panels on [0, pi/2] adds, as two tuples.

    The first level, _FIRST_PANELS panels, takes both ends, 0 and pi/2, then
    its inner nodes pi/2 j/panels; each later level takes the midpoints
    pi/2 (2 j + 1)/panels, j < panels/2, of the level before.  Each value is
    math.cos or math.sin of that node, squared.  A level of n nodes holds 2n
    floats in tuples, about 64n bytes.  The 17 levels through 2^19 panels,
    the finest that max_evals = 10**6 reaches, hold 2^19 + 1 nodes, about
    34 MB; the even-power periods use the levels through 128 panels, 129
    nodes and about 8 KB.  A larger max_evals reaches finer levels, and the
    cache keeps the 17 used last.
    """
    quarter = 0.5 * math.pi
    if panels == _FIRST_PANELS:
        thetas = [0.0, quarter, *(quarter * j / panels for j in range(1, panels))]
    else:
        thetas = [quarter * (2 * j + 1) / panels for j in range(panels // 2)]
    cosines, sines = map(math.cos, thetas), map(math.sin, thetas)
    return tuple([v * v for v in cosines]), tuple([v * v for v in sines])


def _periodic_trapezoid(
    f: Callable[[float, float], float], rel_tol: float, max_evals: int = 10**6
) -> QuadratureResult:
    """Integral of f(cos^2(theta), sin^2(theta)) over [0, 2 pi] by the
    trapezoidal rule.

    Such an integrand is even about theta = 0 and about theta = pi/2, and
    pi-periodic, so the integral is 2 pi times its mean, and the trapezoidal
    mean over a period folds onto the nodes of [0, pi/2], the two ends at
    half weight.  Where f is analytic in the strip |Im theta| < d, the rule
    with n panels on [0, pi/2] errs by about exp(-4 d n) (Trefethen &
    Weideman, SIAM Review 56 (2014) 385).  The panel count starts at
    _FIRST_PANELS and doubles, each level reusing every earlier sample, until
    two successive means agree to rel_tol of the later one; that difference
    is about the coarser level's error, and the finer level's is about its
    square.  f takes c = cos^2(theta) and s = sin^2(theta) at each node from
    the level's cached table (_trapezoid_level), so no sample computes its
    node.  The samples are summed with math.fsum, to a sum and its rounding
    error, and 2 pi times their exact sum is one integer quotient
    (_times_two_pi), which Python rounds correctly, so the value is rounded
    once after the samples.

    Raises ToleranceNotMet when the next level would exceed max_evals
    samples, and NonFiniteIntegrand when a mean is not finite.
    """
    panels = _FIRST_PANELS
    samples = list(map(f, *_trapezoid_level(panels)))
    samples[0] *= 0.5  # the two ends, theta = 0 and pi/2
    samples[1] *= 0.5

    def level_mean() -> float:
        try:
            mean = math.fsum(samples) / panels
        except (OverflowError, ValueError):  # inf - inf, or a partial sum overflowed
            mean = math.nan
        if not math.isfinite(mean):
            raise NonFiniteIntegrand(f"the trapezoidal mean over {panels} panels is not finite")
        return mean

    mean = level_mean()
    while True:
        if len(samples) + panels > max_evals:
            raise ToleranceNotMet(
                f"no two trapezoidal levels agree to {rel_tol:.1e} within {max_evals} evaluations"
            )
        panels *= 2
        samples += map(f, *_trapezoid_level(panels))
        previous, mean = mean, level_mean()
        if abs(mean - previous) <= rel_tol * abs(mean):
            break
    # The sum of the samples as total + residual, each correctly rounded.
    total = mean * panels
    residual = math.fsum([*samples, -total])
    return QuadratureResult(
        value=_times_two_pi(total, residual) / panels,
        error_estimate=2.0 * math.pi * abs(mean - previous),
        evaluations=len(samples),
    )


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
