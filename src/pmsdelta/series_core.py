"""Core expansion machinery for turning-point integrals.

An integral I = int dx / sqrt(Q(x)) between simple zeros x- < x+ of Q is
rewritten against a harmonic reference Q0 = omega^2 (x - x-)(x+ - x).  The
substitution x = m + h cos(theta), with m the midpoint and h the half-width,
turns the ratio Delta = (Q - Q0)/Q0 into a polynomial in cos(theta), and the
binomial series of 1/sqrt(1 + Delta) turns I into a sum of exact trigonometric
moments.  The reference frequency omega is a free parameter; picking it so the
partial sum is stationary (equivalently, so the last retained term vanishes)
is what makes the truncated series accurate.

The moments are theta-means of Delta^n.  Delta^n is a polynomial of degree
deg(Delta)*n in cos(theta), and the trapezoid rule on m equispaced nodes over
[0, pi] is exact for every cos(k theta) with k < 2m (Trefethen and Weideman,
SIAM Review 56 (2014) 385).  So Delta is sampled once on enough nodes, its
powers are elementwise products of the samples, and each mean is exact up to
rounding, with no cancellation between monomial coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import DomainError, NonPositiveMean, OrderTooHigh, ToleranceNotMet
from .oracle import find_root

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MAX_ORDER",
    "TrigPolynomial",
    "IntegrandSpec",
    "SeriesExpansion",
    "half_binomial",
    "cos_moment",
    "delta_of",
    "term",
    "expand",
    "pms_derivative_check",
    "pms_first_order",
    "pms_solve",
]

# Expansion orders beyond this are refused: the binomial weights and the
# polynomial degrees grow without buying accuracy at 64-bit precision.
MAX_ORDER = 64


def _check_order(order: int) -> None:
    """Refuse a negative expansion order, or one above MAX_ORDER."""
    if order < 0:
        raise DomainError("order must be >= 0")
    if order > MAX_ORDER:
        raise OrderTooHigh(f"order {order} exceeds the cap of {MAX_ORDER}")


@lru_cache(maxsize=None)
def _positivity_grid() -> "np.ndarray":
    """512 theta nodes on [0, pi], built on first use: only specs need numpy."""
    import numpy as np

    return np.linspace(0.0, math.pi, 512)


@lru_cache(maxsize=None)
def half_binomial(n: int) -> float:
    """Generalized binomial coefficient (-1/2 choose n).

    Equals (-1)^n C(2n, n) / 4^n; computed as an exact rational and rounded
    once, so the value is correct to the last bit.
    """
    if n < 0:
        raise DomainError("half_binomial requires n >= 0")
    sign = -1 if n % 2 else 1
    return float(Fraction(sign * math.comb(2 * n, n), 4**n))


@lru_cache(maxsize=None)
def cos_moment(k: int) -> float:
    """Exact moment integral of cos^k(theta) over [0, pi].

    Zero for odd k by symmetry; pi * C(k, k/2) / 2^k for even k.
    """
    if k < 0:
        raise DomainError("cos_moment requires k >= 0")
    if k % 2:
        return 0.0
    return math.pi * float(Fraction(math.comb(k, k // 2), 2**k))


def _trimmed(coeffs: Sequence[float]) -> tuple[float, ...]:
    out = list(float(c) for c in coeffs)
    while len(out) > 1 and out[-1] == 0.0:
        out.pop()
    if not out:
        out = [0.0]
    return tuple(out)


@dataclass(frozen=True)
class TrigPolynomial:
    """Finite expansion sum_k c_k cos^k(theta), an even function of theta.

    Coefficients are stored in the monomial cos^k basis because factor
    functions of polynomial potentials arise there directly.  Trailing zero
    coefficients are trimmed on construction, so the last stored coefficient
    is nonzero unless this is the zero polynomial.
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Sequence[float]):
        object.__setattr__(self, "coeffs", _trimmed(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    def evaluate(self, theta):
        """Value at theta; accepts a scalar or an ndarray.

        A real scalar stays in pure Python: math.cos, then Horner's rule in
        the order of numpy's polyval, so it gives the same bits as the array
        path without numpy's per-call overhead.  A non-finite scalar raises
        DomainError.
        """
        if isinstance(theta, (int, float)):
            if not math.isfinite(theta):
                raise DomainError(f"theta must be finite, got {theta!r}")
            x = math.cos(theta)
            value = 0.0
            for c in reversed(self.coeffs):
                value = c + value * x
            return value
        import numpy as np

        return np.polynomial.polynomial.polyval(np.cos(theta), self.coeffs)

    def integral(self) -> float:
        """Exact integral over [0, pi] via the cos^k moments."""
        return math.fsum(c * cos_moment(k) for k, c in enumerate(self.coeffs))

    def mean(self) -> float:
        """Average over [0, pi]."""
        return self.integral() / math.pi

    def scaled(self, factor: float) -> "TrigPolynomial":
        return TrigPolynomial([factor * c for c in self.coeffs])

    def shifted(self, constant: float) -> "TrigPolynomial":
        out = list(self.coeffs)
        out[0] += constant
        return TrigPolynomial(out)


@dataclass(frozen=True)
class IntegrandSpec:
    """One turning-point integral, ready for expansion.

    x_minus, x_plus: the simple zeros bracketing the motion.
    factor:          R(theta), the smooth factor of Q after the cosine
                     substitution, as a TrigPolynomial.
    omega:           reference frequency of the harmonic comparison term,
                     positive and finite.

    The factor is checked to be strictly positive on a 512-point theta grid.
    This is the package's one generic positivity check: the families build
    their specs here rather than sampling the factor again.
    """

    x_minus: float
    x_plus: float
    factor: TrigPolynomial
    omega: float

    def __post_init__(self):
        if not self.x_minus < self.x_plus:
            raise DomainError(
                f"turning points must satisfy x_minus < x_plus, "
                f"got ({self.x_minus!r}, {self.x_plus!r})"
            )
        if not 0.0 < self.omega < math.inf:
            raise DomainError(f"omega must be positive and finite, got {self.omega!r}")
        if not (self.factor.evaluate(_positivity_grid()) > 0.0).all():
            raise DomainError("factor polynomial is not strictly positive on [0, pi]")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.x_minus + self.x_plus)

    @property
    def half_width(self) -> float:
        return 0.5 * (self.x_plus - self.x_minus)

    def with_omega(self, omega: float) -> "IntegrandSpec":
        return IntegrandSpec(self.x_minus, self.x_plus, self.factor, omega)


@dataclass(frozen=True)
class SeriesExpansion:
    """Terms I_0..I_N and compensated partial sums S_0..S_N at a fixed omega."""

    omega: float
    terms: tuple[float, ...]
    partial_sums: tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.terms) - 1

    @property
    def value(self) -> float:
        """Highest-order partial sum."""
        return self.partial_sums[-1]


def delta_of(spec: IntegrandSpec) -> TrigPolynomial:
    """Relative deviation Delta(theta) = factor/omega^2 - 1 from the reference."""
    return spec.factor.scaled(1.0 / spec.omega**2).shifted(-1.0)


def _series_terms(spec: IntegrandSpec, order: int) -> "np.ndarray":
    """Terms I_0..I_N from Delta sampled on the trapezoid nodes theta_j = j pi/m.

    m = deg(Delta)*N//2 + 1 makes the rule exact for Delta^n, n <= N.  The
    mean (p_0/2 + p_1 + ... + p_(m-1) + p_m/2)/m of all-ones samples is
    exactly 1.0, so I_0 is pi/omega to the last bit.
    """
    _check_order(order)
    import numpy as np

    delta = delta_of(spec)
    m = delta.degree * order // 2 + 1
    samples = delta.evaluate(np.linspace(0.0, math.pi, m + 1))
    powers = np.empty((order + 1, m + 1))
    powers[0] = 1.0
    powers[1:] = samples
    np.cumprod(powers, axis=0, out=powers)
    means = (0.5 * (powers[:, 0] + powers[:, -1]) + powers[:, 1:-1].sum(axis=1)) / m
    weights = [half_binomial(n) * math.pi for n in range(order + 1)]
    return np.asarray(weights) * means / spec.omega


def term(spec: IntegrandSpec, n: int) -> float:
    """n-th series term: (-1/2 choose n)/omega times the moment of Delta^n.

    Shares the sampled engine with expand(); term(spec, 0) is pi/omega for
    every spec.  Orders above MAX_ORDER are refused.
    """
    return float(_series_terms(spec, n)[-1])


def _kahan_sums(terms: Sequence[float]) -> tuple[float, ...]:
    sums = []
    total = 0.0
    comp = 0.0
    for t in terms:
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s
        sums.append(total)
    return tuple(sums)


def expand(spec: IntegrandSpec, order: int) -> SeriesExpansion:
    """All terms and partial sums through the requested order.

    Delta is sampled once and all its powers come from one cumulative product
    over the samples, so the cost is O(N^2 deg(Delta)) flops in a handful of
    array operations.  Orders above MAX_ORDER are refused.
    """
    terms = _series_terms(spec, order).tolist()
    return SeriesExpansion(
        omega=spec.omega, terms=tuple(terms), partial_sums=_kahan_sums(terms)
    )


def _pair_sum(xi: float, order: int) -> float:
    """Pair sum sum_{j<=order} (-1)^j hb(j) hb(2j) xi^(2j).

    It is the series for Delta = xi cos(k theta): the theta-mean of cos^(2j)
    is (-1)^j hb(j) and odd powers average to zero, so only even terms
    survive, and pair j is the Delta-order-2j term times omega/pi.  The
    quartic, cubic and precession families all reduce to it at their
    stationary frequencies.  Pair indices above MAX_ORDER are refused.
    """
    _check_order(order)
    return math.fsum(
        (-1.0) ** j * half_binomial(j) * half_binomial(2 * j) * xi ** (2 * j)
        for j in range(order + 1)
    )


def pms_derivative_check(spec: IntegrandSpec, order: int) -> float:
    """Analytic derivative of the order-N partial sum with respect to omega.

    Equals -(2N+1) I_N / omega, so stationarity of S_N in omega is the same
    statement as the vanishing of the last retained term.  Callers compare
    this against a finite difference of expand().
    """
    return -(2 * order + 1) * term(spec, order) / spec.omega


def pms_first_order(factor: TrigPolynomial) -> float:
    """Stationary reference frequency at first order.

    The first correction term vanishes exactly when omega^2 equals the
    theta-average of the factor polynomial, so the optimal omega is the
    square root of that mean.
    """
    mean = factor.mean()
    if mean <= 0.0:
        raise NonPositiveMean(
            f"factor mean {mean!r} is not positive; no real stationary frequency"
        )
    return math.sqrt(mean)


def pms_solve(
    spec_family: Callable[[float], IntegrandSpec],
    order: int,
    bracket: tuple[float, float],
) -> float:
    """Stationary omega at an odd order, found by bracketing I_N(omega) = 0.

    spec_family maps a candidate omega to the corresponding IntegrandSpec.
    The bracket must straddle a sign change of the order-N term.  The root
    is refined to machine-adjacent floats and then required to satisfy
    |I_N| < 1e-12 * pi/omega.
    """
    if order < 0 or order % 2 == 0:
        raise DomainError(f"stationarity is solved at odd orders, got {order}")
    lo, hi = bracket
    if not 0.0 < lo < hi:
        raise DomainError(f"bracket must satisfy 0 < lo < hi, got {bracket!r}")

    def last_term(omega: float) -> float:
        return term(spec_family(omega), order)

    root = find_root(last_term, lo, hi, tol=0.0)
    residual = abs(last_term(root))
    ceiling = 1e-12 * math.pi / root
    if residual > ceiling:
        raise ToleranceNotMet(
            f"|I_{order}| = {residual:.3e} at omega = {root!r} exceeds {ceiling:.3e}"
        )
    return root


def _extrema(poly: TrigPolynomial) -> tuple[float, float]:
    """(max, min) of the polynomial over [0, pi].

    In c = cos(theta) the polynomial lives on [-1, 1], so its extrema sit at
    c = +-1 or at a real root of its derivative.  Real parts of every
    derivative root are kept as candidates: a spurious one is still a point of
    [-1, 1], and a double root that the eigenvalue solver splits into a
    near-real pair is not lost.  A constant has no derivative to solve.  A
    leading coefficient tiny next to the others sends a root to infinity;
    such a root lies outside [-1, 1] and is dropped.
    """
    if poly.degree == 0:
        return poly.coeffs[0], poly.coeffs[0]
    import numpy as np

    coeffs = np.asarray(poly.coeffs)
    with np.errstate(all="ignore"):
        roots = np.polynomial.polynomial.polyroots(coeffs[1:] * np.arange(1, coeffs.size)).real
    roots = roots[np.isfinite(roots)]
    nodes = np.concatenate(([-1.0, 1.0], np.clip(roots, -1.0, 1.0)))
    values = np.polynomial.polynomial.polyval(nodes, coeffs)
    return float(values.max()), float(values.min())

