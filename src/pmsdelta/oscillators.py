"""Oscillator families: turning points, stationary frequencies, period series.

Each family factors E - V(x) = R(x) (x - x-)(x+ - x) between its turning
points x- < x+ and maps R onto a polynomial in cos(theta); an OscillatorModel
holds the three and hands them to the expansion engine as one IntegrandSpec.
The period is sqrt(2) times the expanded integral.  Closed forms are provided
where the series collapses to a known hypergeometric-style sum, together with
exact reference periods computed through the independent oracle: the AGM
wherever R is at most quadratic in cos(theta) or cos^2(theta); for the even
powers K >= 4, the trapezoidal rule on their periodic integrand, or the
adaptive quadrature near the separatrix.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping

from . import _names
from .errors import BarrierCrossed, DomainError, NoPeriodicMotion, _warn_divergent
from .oracle import _agm_integral, _periodic_trapezoid, integrate
from .series_core import (
    MAX_EXPONENT,
    IntegrandSpec,
    TrigPolynomial,
    _check_order,
    _pair_sum,
    expand,
    half_binomial,
    pms_first_order,
)

__all__ = _names(__name__)


@dataclass(frozen=True)
class OscillatorModel:
    """A potential family's parameters with the motion they describe.

    Each classmethod constructor checks every parameter and factors E - V
    between the turning points once, into x_minus, x_plus and the factor R,
    so a model that exists always has a factor.  rho is the dimensionless
    anharmonicity mu A^(2K-2) for the even-power families (and the
    equivalent quantity for Taylor-truncated pendula); it is NaN for
    families where no single such combination exists.  energy is set for
    the cubic families, where the turning points imply it, and None for the
    even families and the pendulum, which are parametrized by amplitude.
    """

    params: Mapping[str, float]
    x_minus: float
    x_plus: float
    factor: TrigPolynomial
    rho: float = math.nan
    energy: float | None = None

    def spec_at(self) -> IntegrandSpec:
        """IntegrandSpec at the factor's first-order stationary frequency;
        IntegrandSpec.with_omega moves it to any other."""
        return IntegrandSpec(self.x_minus, self.x_plus, self.factor, pms_first_order(self.factor))

    @classmethod
    def duffing(cls, mu: float, amplitude: float) -> "OscillatorModel":
        """V(x) = x^2/2 + mu x^4/4 at the given amplitude."""
        return cls.even_power(2, mu, amplitude)

    @classmethod
    def sextic(cls, mu: float, amplitude: float) -> "OscillatorModel":
        """V(x) = x^2/2 + mu x^6/6 at the given amplitude."""
        return cls.even_power(3, mu, amplitude)

    @classmethod
    def even_power(cls, K: int, mu: float, amplitude: float) -> "OscillatorModel":
        """V(x) = x^2/2 + mu x^(2K)/(2K) at the given amplitude."""
        K = _check_exponent(K)
        mu, amplitude = float(mu), float(amplitude)
        if not 0.0 < amplitude < math.inf:
            raise DomainError(f"amplitude must be positive and finite, got {amplitude!r}")
        try:
            rho = mu * amplitude ** (2 * K - 2)
        except OverflowError:
            raise DomainError(
                f"rho = mu A^(2K-2) overflows at mu = {mu!r}, A = {amplitude!r}"
            ) from None
        rho = _check_rho(rho)
        return cls({"K": K, "mu": mu}, -amplitude, amplitude, _even_factor(K, rho), rho)

    @classmethod
    def cubic(cls, x_minus: float, x_plus: float) -> "OscillatorModel":
        """V(x) = x^2/2 + mu x^3/3, parametrized by its turning points.

        The pair (x-, x+) fixes both the cubic strength mu and the energy:
        mu = -(3/2)(x- + x+)/(x+^2 + x+ x- + x-^2) and E = V at either end.
        The factor is [(R(0) + R(pi))/2, (R(0) - R(pi))/2] from its end values.
        """
        (end_0, end_pi), mu, energy = _cubic_factor(x_minus, x_plus)
        x_minus, x_plus = float(x_minus), float(x_plus)
        factor = TrigPolynomial([0.5 * (end_0 + end_pi), 0.5 * (end_0 - end_pi)])
        return cls(
            {"mu": mu, "x_minus": x_minus, "x_plus": x_plus},
            x_minus, x_plus, factor, energy=energy,
        )

    @classmethod
    def quartic_cubic(
        cls, a2: float, a3: float, a4: float, x_minus: float, x_plus: float
    ) -> "OscillatorModel":
        """V(x) = a2 x^2 + a3 x^3 + a4 x^4 between the given turning points.

        The two points must sit at equal potential; the shared value is the
        energy of the motion.  The factor's positivity is decided exactly, by
        _quartic_cubic_agm_args, because a positivity grid misses a dip below
        zero between its nodes: a factor that is not positive is a barrier.
        """
        a2, a3, a4, x_minus, x_plus = map(float, (a2, a3, a4, x_minus, x_plus))
        if not all(map(math.isfinite, (a2, a3, a4, x_minus, x_plus))):
            raise DomainError("quartic-cubic coefficients and turning points must be finite")
        if not x_minus < x_plus:
            raise DomainError("need x_minus < x_plus")
        try:
            v_lo, v_hi = (a2 * x * x + a3 * x**3 + a4 * x**4 for x in (x_minus, x_plus))
        except OverflowError:
            v_lo = v_hi = math.inf
        if not math.isfinite(v_lo + v_hi):
            raise DomainError(
                f"V overflows at the turning points ({x_minus!r}, {x_plus!r})"
            )
        scale = max(abs(v_lo), abs(v_hi), 1e-300)
        if abs(v_lo - v_hi) > 1e-12 * scale:
            raise DomainError(
                f"turning points are not at equal potential: "
                f"V(x_minus) = {v_lo!r}, V(x_plus) = {v_hi!r}"
            )
        s = x_minus + x_plus
        p = x_minus * x_plus
        b0 = a2 + a3 * s + a4 * (s * s - p)
        b1 = a3 + a4 * s
        m = 0.5 * s
        h = 0.5 * (x_plus - x_minus)
        factor = TrigPolynomial(
            [b0 + b1 * m + a4 * m * m, (b1 + 2.0 * a4 * m) * h, a4 * h * h]
        )
        if not all(map(math.isfinite, factor.coeffs)):
            raise DomainError("the factor polynomial overflows")
        _quartic_cubic_agm_args(factor)
        return cls(
            {"a2": a2, "a3": a3, "a4": a4, "x_minus": x_minus, "x_plus": x_plus},
            x_minus, x_plus, factor, energy=0.5 * (v_lo + v_hi),
        )

    @classmethod
    def pendulum(cls, amplitude: float, taylor_order: int) -> "OscillatorModel":
        """V(x) = 1 - cos(x), truncated at the given Taylor order in x.

        Order 2 is the harmonic oscillator and order 4 the quartic family with
        mu = -1/6, so both factor through _even_factor.  Order 4 has its
        barrier at A = sqrt(6), where rho = -A^2/6 reaches -1; an amplitude at
        or past it raises NoPeriodicMotion.
        """
        taylor_order = _check_taylor(taylor_order)
        amplitude = _check_pendulum_amplitude(amplitude)
        a2 = amplitude * amplitude
        if taylor_order == 6:
            rho = math.nan
            c4, c6 = a2 / 24.0, a2 * a2 / 720.0
            factor = TrigPolynomial([0.5 - c4 + c6, 0.0, c6 - c4, 0.0, c6])
        else:
            rho = 0.0 if taylor_order == 2 else -a2 / 6.0
            if not rho > -1.0:
                raise NoPeriodicMotion(
                    f"pendulum amplitude {amplitude!r} is not below the Taylor-4 "
                    f"barrier sqrt(6) = {math.sqrt(6.0)!r}: no periodic motion"
                )
            factor = _even_factor(2, rho)
        return cls({"taylor_order": taylor_order}, -amplitude, amplitude, factor, rho)


def _check_taylor(taylor_order: int) -> int:
    if taylor_order not in (2, 4, 6):
        raise DomainError(f"taylor_order must be 2, 4 or 6, got {taylor_order!r}")
    return int(taylor_order)


def _check_pendulum_amplitude(amplitude: float) -> float:
    amplitude = float(amplitude)
    if not 0.0 < amplitude < math.pi:
        raise DomainError(f"pendulum amplitude must lie in (0, pi), got {amplitude!r}")
    return amplitude


def _check_exponent(K: int) -> int:
    if not 2 <= K <= MAX_EXPONENT or int(K) != K:
        raise DomainError(
            f"even-power exponent K must be an integer in [2, {MAX_EXPONENT}], got {K!r}"
        )
    return int(K)


def _check_rho(rho: float) -> float:
    """rho as a float, refused unless -1 < rho < inf.

    rho = inf is the strong-coupling limit, which only the general even-power
    entry points expand (as sqrt(rho) T); elsewhere inf would come out as NaN.
    """
    rho = float(rho)
    if not rho > -1.0:
        raise NoPeriodicMotion(f"rho must exceed -1 for periodic motion, got {rho!r}")
    if rho == math.inf:
        raise DomainError(
            "rho = inf is the strong-coupling limit; use "
            "even_power_series(K, math.inf, kappa, order) or "
            "even_power_exact_period(K, math.inf) for sqrt(rho) T"
        )
    return rho


def _even_factor(K: int, rho: float) -> TrigPolynomial:
    """Factor polynomial of V = x^2/2 + mu x^(2K)/(2K) at unit amplitude.

    R(theta) = 1/2 + (rho/2K) g(theta), g = sum_{j<K} cos^(2j) theta, is
    strictly positive for every rho > -1.  At rho = inf this returns the
    strong-coupling profile R/rho = g/(2K) instead.
    """
    if rho == math.inf:
        weight, constant = 1.0 / (2.0 * K), 0.0
    else:
        weight, constant = _check_rho(rho) / (2.0 * K), 0.5
    coeffs = [0.0] * (2 * K - 1)
    coeffs[::2] = [weight] * K
    coeffs[0] = constant + weight
    return TrigPolynomial(coeffs)


def _cubic_factor(x_minus: float, x_plus: float) -> tuple[tuple[float, float], float, float]:
    """End values (R(0), R(pi)) of the cubic family's factor, with mu and the energy.

    The points are checked here, once: they must be finite, straddle the
    origin and bracket motion in one well.  R is linear in cos(theta), so its
    ends fix it: omega^2 = (R(0) + R(pi))/2 and
    xi = (R(0) - R(pi))/(R(0) + R(pi)).  With sigma = x+^2 + x+ x- + x-^2,
    R(0) = -x+ (2 x- + x+)/(2 sigma) and R(pi) = -x- (x- + 2 x+)/(2 sigma),
    so the motion stays in one well exactly when 2 x- + x+ <= 0 <= x- + 2 x+.
    Each sum is one correctly rounded sum of exact terms, so its sign is
    exact.  A zero sum is the separatrix, where R vanishes at a turning
    point; a sum of the wrong sign raises BarrierCrossed.

    The ends are ratios of terms of equal degree in the points, formed as
    -(x+/sigma)(2 x- + x+)/2 so that no product overflows.  Where sigma is
    not a normal float they are formed from the points scaled by a power of
    two to a largest magnitude in [1/2, 1).  The scaling is exact, so a pair
    near 1e-160, whose sigma is subnormal, keeps its digits, and every other
    pair its bits.  mu and the energy p^2/(2 sigma), p = x- x+, are scaled
    back; where either leaves the float range, the pair is refused.
    """
    x_minus, x_plus = points = float(x_minus), float(x_plus)
    if not -math.inf < x_minus < 0.0 < x_plus < math.inf:
        raise DomainError(
            f"cubic turning points must be finite and straddle the origin, got {points!r}"
        )
    shift = 0
    sigma = x_plus * x_plus + x_plus * x_minus + x_minus * x_minus
    if not sys.float_info.min <= sigma < math.inf:
        shift = math.frexp(max(-x_minus, x_plus))[1]
        x_minus, x_plus = math.ldexp(x_minus, -shift), math.ldexp(x_plus, -shift)
        sigma = x_plus * x_plus + x_plus * x_minus + x_minus * x_minus
    left, right = 2.0 * x_minus + x_plus, x_minus + 2.0 * x_plus
    if left > 0.0 or right < 0.0:
        end, sign = ("x+", "2 x- + x+ > 0") if left > 0.0 else ("x-", "x- + 2 x+ < 0")
        raise BarrierCrossed(
            f"cubic turning points {points!r} cross the barrier: the factor is "
            f"negative at {end} ({sign}), so the motion is not periodic in a single well"
        )
    p = x_minus * x_plus
    try:
        mu = math.ldexp(-1.5 * (x_minus + x_plus) / sigma, -shift)
        energy = math.ldexp(0.5 * p * (p / sigma), 2 * shift)
    except OverflowError:
        mu = energy = math.inf
    if not 0.0 < energy < math.inf:
        raise DomainError(
            f"cubic turning points {points!r} are out of floating-point range: "
            "mu or the energy leaves it"
        )
    return (-0.5 * (x_plus / sigma) * left, -0.5 * (x_minus / sigma) * right), mu, energy


def _quartic_cubic_agm_args(
    factor: TrigPolynomial,
) -> tuple[float, float, float, tuple[int, int] | None]:
    """_quadratic_agm's arguments for R = r0 + r1 cos(theta) + r2 cos^2(theta),
    or BarrierCrossed unless R > 0 on [0, pi], decided exactly for R as stored.

    t = tan(theta/2) gives A = R(0) and C = R(pi), each one correctly rounded
    sum with an exact sign, and B = 2 (r0 - r2).  Positive ends give
    |r1| < r0 + r2.  Where r2 <= r0, a minimum r0 - r1^2/(4 r2) inside, where
    |r1| <= 2 r2, is then at least r0 - r2, and zero only where an end is.
    Where r2 > r0 (B < 0) the minimum is inside and has the sign of the
    excess AC - B^2/4 = 4 r0 r2 - r1^2, formed exactly in integers as
    (numerator, denominator); _quadratic_agm reads it too.
    """
    r0, r1, r2 = factor.coeffs + (0.0,) * (3 - len(factor.coeffs))
    try:
        end_0, end_pi = math.fsum((r0, r1, r2)), math.fsum((r0, -r1, r2))
    except OverflowError:
        raise DomainError("the factor's end values overflow") from None
    excess = None
    if r2 > r0:
        (n0, d0), (n1, d1), (n2, d2) = (r.as_integer_ratio() for r in (r0, r1, r2))
        excess = (4 * n0 * n2 * d1 * d1 - n1 * n1 * d0 * d2, d0 * d2 * d1 * d1)
    if not min(end_0, end_pi) > 0.0 or (excess is not None and excess[0] <= 0):
        raise BarrierCrossed(
            f"the factor {factor.coeffs!r} reaches zero between the turning points; "
            "the particle crosses a barrier"
        )
    return end_0, 2.0 * (r0 - r2), end_pi, excess


# ---------------------------------------------------------------------------
# Quartic anharmonic family (V = x^2/2 + mu x^4/4)
# ---------------------------------------------------------------------------


def duffing_omega_pms(rho: float) -> float:
    """First-order stationary frequency sqrt((4 + 3 rho)/8)."""
    rho = _check_rho(rho)
    # (1 + 0.75 rho)/2 has the bits of (4 + 3 rho)/8 and no overflow.
    return math.sqrt((1.0 + 0.75 * rho) / 2.0)


def duffing_period_series(rho: float, order: int) -> float:
    """Period partial sum through pair index `order`.

    T = 4 pi / sqrt(4 + 3 rho) * sum_n (-1)^n hb(n) hb(2n) xi^(2n) with
    xi = rho/(4 + 3 rho); hb is the half-integer binomial.  Only even
    expansion terms contribute, so `order` counts pairs: the value equals
    the full expansion truncated at Delta-order 2*order.
    """
    rho = _check_rho(rho)
    order = _check_order(order)
    # 4 + 3 rho overflows past a third of the largest float; a quarter of it,
    # an exact scaling, keeps its bits and stays finite.
    scale = 1.0 + 0.75 * rho
    xi = 0.25 * rho / scale
    prefactor = 2.0 * math.pi / math.sqrt(scale)
    return prefactor * _pair_sum(xi, order)


def duffing_exact_period(rho: float) -> float:
    """Exact period 4/sqrt(1+rho) K(rho/(2(1+rho))): the even-power period at K = 2.

    R = 1/2 + (rho/4)(1 + c) is linear in c = cos^2(theta), and
    even_power_exact_period takes it to the AGM through _quadratic_agm.
    """
    return even_power_exact_period(2, _check_rho(rho))


def duffing_nayfeh_series(rho: float, order: int) -> float:
    """Classic perturbation series of Nayfeh (1981) for the same period.

    T = 2 pi / sqrt(1+rho) * sum_n hb(n)^2 kappa^n with kappa = rho/(2(1+rho)).
    Retained as a comparison: |kappa| reaches 1 for -1 < rho <= -2/3, where
    this sum fails to converge although the motion is perfectly periodic; a
    DivergentExpansion warning says so, and a partial sum that overflows
    raises DomainError.
    """
    rho = _check_rho(rho)
    order = _check_order(order)
    kappa = rho / (2.0 * (1.0 + rho))
    _warn_divergent(abs(kappa), "|kappa| = %.6f >= 1: the comparison series diverges")
    prefactor = 2.0 * math.pi / math.sqrt(1.0 + rho)
    try:
        total = prefactor * math.fsum(
            half_binomial(n) ** 2 * kappa**n for n in range(order + 1)
        )
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(
            f"the comparison series overflows at rho = {rho!r}, order {order}"
        )
    return total


def duffing_b0(order: int) -> float:
    """Strong-coupling frequency coefficient b0 from the order-N partial sum.

    b0^(N) = sqrt(3) / (2 sum_{j<=N} (-1/9)^j hb(j) hb(2j)), the quartic pair
    sum at xi = 1/3; the sequence converges geometrically to the pure-quartic
    limit 2 pi/(sqrt(mu) T).
    """
    order = _check_order(order)
    return math.sqrt(3.0) / (2.0 * _pair_sum(1.0 / 3.0, order))


def virial_omega_check(rho: float) -> tuple[float, float]:
    """Frequency from the virial balance of a trial cosine motion.

    For x(t) = A cos(omega t + phi), requiring the time averages to satisfy
    <xdot^2> = <x^2> + mu <x^4> gives omega^2 = 1 + (3/4) rho.  Returns that
    frequency and its ratio to the first-order stationary frequency; the
    ratio is sqrt(2) identically in rho.
    """
    rho = _check_rho(rho)
    mean_sq = 0.5  # <cos^2> over a period
    mean_quart = 3.0 / 8.0  # <cos^4>
    omega_virial = math.sqrt((mean_sq + rho * mean_quart) / mean_sq)
    return omega_virial, omega_virial / duffing_omega_pms(rho)


# ---------------------------------------------------------------------------
# Quadratic-sextic family (V = x^2/2 + mu x^6/6)
# ---------------------------------------------------------------------------

# Past this rho, the sextic closed forms' lower powers of rho change less
# than 1e-35 of the value, so their leading term is the value to every digit.
_RHO_LEADING = 2.0**128


def sextic_wl_period(rho: float) -> float:
    """Closed-form period approximation of Wu and Li (2001).

    T = 24 pi / sqrt(80 + 50 rho + sqrt(4096 + 5120 rho + 925 rho^2));
    comparison value only.  The inner root is imaginary for rho below about
    -0.97, where the formula gives no period and DomainError is raised.
    """
    rho = _check_rho(rho)
    if rho > _RHO_LEADING:
        # rho^2 would overflow; the leading term is T = 24 pi/sqrt((50 + sqrt 925) rho).
        return 24.0 * math.pi / math.sqrt(50.0 + math.sqrt(925.0)) / math.sqrt(rho)
    inner = 4096.0 + 5120.0 * rho + 925.0 * rho * rho
    if inner < 0.0:
        raise DomainError(f"the Wu-Li closed form has no real value at rho = {rho!r}")
    outer = 80.0 + 50.0 * rho + math.sqrt(inner)
    return 24.0 * math.pi / math.sqrt(outer)


def sextic_t4(rho: float) -> float:
    """Fourth-order closed form of the sextic period series.

    T4 = sqrt(2) pi (6097185 rho^4 + 37821440 rho^3 + 89272320 rho^2
         + 94371840 rho + 37748736) / (2304 (5 rho + 8)^(9/2)).
    The constant term 37748736 is pinned by the harmonic limit T4(0) = 2 pi
    and by term-by-term agreement with sextic_series(rho, 4).
    """
    rho = float(rho)
    if not -1.6 < rho < math.inf:
        raise DomainError(f"requires -8/5 < rho < inf, got {rho!r}")
    if rho > _RHO_LEADING:
        # rho^4 would overflow; the leading term is
        # T4 = sqrt(2) pi 6097185 / (2304 5^(9/2) sqrt(rho)).
        return math.sqrt(2.0) * math.pi * 6097185.0 / (2304.0 * 5.0**4.5) / math.sqrt(rho)
    numerator = (
        6097185.0 * rho**4
        + 37821440.0 * rho**3
        + 89272320.0 * rho**2
        + 94371840.0 * rho
        + 37748736.0
    )
    return math.sqrt(2.0) * math.pi * numerator / (2304.0 * (5.0 * rho + 8.0) ** 4.5)


@lru_cache(maxsize=None)
def _sextic_weight(n: int) -> float:
    """Moment weight J_n: (1/pi) * integral of (8 cos 2t + cos 4t)^n over [0, pi].

    With w = exp(2it), 8 cos 2t + cos 4t = P(w)/(2 w^2) for
    P(w) = w^4 + 8 w^3 + 8 w + 1, so J_n, the constant term of the n-th
    power, is the w^(2n) coefficient of P^n divided by 2^n.  P^n is formed
    exactly as the integer P(2^b)^n: each coefficient is below P(1)^n = 18^n
    < 2^b, so the coefficients sit in disjoint b-bit fields.  The quotient is
    rounded once.
    """
    b = 5 * n + 1
    x = 1 << b
    packed = (x**4 + 8 * x**3 + 8 * x + 1) ** n
    return ((packed >> (2 * n * b)) & (x - 1)) / 2**n


def sextic_series(rho: float, order: int) -> float:
    """Sextic period partial sum through Delta-order `order`.

    T = sum_n 4 sqrt(2) pi / sqrt(5 rho + 8) * hb(n) * [rho/(3(5 rho + 8))]^n
        * J_n, with J_n from _sextic_weight.  Uses the first-order stationary
    frequency at every order.  Agrees term by term with the generic expansion
    of the factor polynomial.
    """
    rho = _check_rho(rho)
    order = _check_order(order)
    # (5 rho + 8)/16, an exact scaling, keeps its bits, and it and three
    # times it stay finite for every finite rho.
    scale = 0.5 + 0.3125 * rho
    xi = 0.0625 * rho / (3.0 * scale)
    prefactor = math.sqrt(2.0) * math.pi / math.sqrt(scale)
    return prefactor * math.fsum(
        half_binomial(n) * xi**n * _sextic_weight(n) for n in range(order + 1)
    )


def sextic_exact_period(rho: float) -> float:
    """Exact sextic period: the even-power period at K = 3, by the AGM.

    R = 1/2 + (rho/6)(1 + c + c^2) is quadratic in c = cos^2(theta).
    """
    return even_power_exact_period(3, _check_rho(rho))


# ---------------------------------------------------------------------------
# General even-power family (V = x^2/2 + mu x^(2K)/(2K))
# ---------------------------------------------------------------------------


def even_power_kappa_pms(K: int) -> float:
    """First-order stationary kappa: mean of the strong-coupling profile.

    kappa = (1/K) sum_{j<K} C(2j, j)/4^j; makes omega^2 = (1 + kappa rho)/2
    the theta-average of the factor polynomial for every rho.  Each ratio is
    an integer quotient, correctly rounded, so 4^j never has to fit a float.
    """
    K = _check_exponent(K)
    return math.fsum(math.comb(2 * j, j) / 4**j for j in range(K)) / K


def even_power_kappa_balanced(K: int) -> float:
    """Kappa at which the deviation polynomial has extrema of equal size.

    With omega^2 = (1 + kappa rho)/2, Delta = rho (g/K - kappa)/(1 + kappa rho)
    for g = sum_{j<K} cos^(2j) theta.  Delta is linear in g, and g is monotone
    in cos^2 theta, from g = 1 at theta = pi/2 to g = K at theta = 0.  Setting
    Delta(g = 1) = -Delta(g = K) gives kappa = (K+1)/(2K) for every rho.  Then
    max |Delta| = |rho| (K-1)/(2K + (K+1) rho) is below 1 for every rho > -1
    and tends to (K-1)/(K+1) at rho = inf.
    """
    K = _check_exponent(K)
    return (K + 1) / (2 * K)


@lru_cache(maxsize=1)
def _even_power_spec(K: int, rho: float, kappa: float) -> IntegrandSpec:
    """The even-power spec at omega^2 = (1 + kappa rho)/2, or kappa/2 at rho = inf.

    Cached for one entry, so a table of orders at fixed (K, rho, kappa)
    builds and checks its spec once.  Callers pass the checked int K and
    floats, which hash; a refused input raises on every call, since a cache
    keeps no exceptions.
    """
    factor = _even_factor(K, rho)
    # At rho = inf the factor is R/rho, so the reference omega^2 is too.
    if rho == math.inf:
        rule, omega_sq = "kappa/2", kappa / 2.0
    else:
        rule, omega_sq = "(1 + kappa rho)/2", (1.0 + kappa * rho) / 2.0
    if omega_sq <= 0.0:
        raise DomainError(f"omega^2 = {rule} = {omega_sq!r} must be positive")
    return IntegrandSpec(-1.0, 1.0, factor, math.sqrt(omega_sq))


def even_power_series(K: int, rho: float, kappa: float, order: int) -> float:
    """Period partial sum for the even-power family at a caller-chosen kappa.

    The reference frequency is omega^2 = (1 + kappa rho)/2.  Returns
    sqrt(2) S_N.  With rho = math.inf the scaled problem is expanded instead
    and the return value is the strong-coupling coefficient estimate
    c0^(N) = lim sqrt(rho) T.  Emits a DivergentExpansion warning when the
    deviation polynomial reaches magnitude 1 somewhere on [0, pi], in which
    case the partial sums are not expected to converge.

    Every cos^(2j) coefficient of Delta with j >= 1 carries the sign of rho
    (all are positive at rho = inf), so Delta is monotone in cos^2(theta) and
    max |Delta| is exact from its values at cos^2 = 0 and cos^2 = 1.

    The spec is reused from the previous call when K, rho and kappa are
    equal, so a table of orders 0..N builds and checks it once; the warning
    and the expansion still come with every call.
    """
    K = _check_exponent(K)
    spec = _even_power_spec(K, float(rho), float(kappa))
    coeffs = spec.delta.coeffs
    _warn_divergent(
        max(abs(coeffs[0]), abs(math.fsum(coeffs))),
        "max |Delta| = %.6f >= 1 at kappa = %r: the expansion need not converge",
        kappa,
    )
    return math.sqrt(2.0) * expand(spec, order).value


def even_power_exact_period(K: int, rho: float) -> float:
    """Exact even-power period: by the AGM for K <= 3, by quadrature beyond.

    R = 1/2 + (rho/2K) g(c), g = sum_{j<K} c^j and c = cos^2(theta).  For
    K <= 3, R = alpha + beta c + gamma c^2 is at most quadratic in c, and
    _quadratic_agm takes the period from A = R(0), B = 2 alpha + beta and
    C = R(pi/2) = alpha.  A = (1 + rho)/2 is formed from rho itself, and
    B = 1 + 3 rho/(2K) and C = 1/2 + rho/(2K) stay above 1/4 for every
    rho > -1, so nothing cancels as rho -> -1.  For K >= 4 the integral is
    hyperelliptic, and _even_power_quadrature gives it: by the trapezoidal
    rule where its integrand is analytic in a strip at least 0.2 wide, by
    the adaptive quadrature nearer the separatrix.

    With rho = math.inf, returns the strong-coupling coefficient
    c0 = lim sqrt(rho) T, from R/rho = g/(2K).
    """
    K = _check_exponent(K)
    rho = float(rho)
    if K > 3:
        return _even_power_quadrature(K, rho)
    if rho == math.inf:
        base, weight, end_0 = 0.0, 1.0 / (2.0 * K), 0.5
    else:
        base, weight, end_0 = 0.5, _check_rho(rho) / (2.0 * K), 0.5 * (1.0 + rho)
    return _quadratic_agm(end_0, 2.0 * base + 3.0 * weight, base + weight)


# Squared half-width d^2 of the strip about the real theta axis from which
# the even-power periods take the trapezoidal rule.  The rule needs about
# 30/d calls (65 at d = 0.41, 513 at d = 0.045), and d = 0.2 gives 150,
# about what the adaptive rule spends on a peak of that width (147 calls
# at d = 0.26, 42 more for each halving of d).
_TRAPEZOID_MIN_STRIP_SQ = 0.04


def _even_power_integrand(K: int, rho: float) -> Callable[[float], float]:
    """theta -> 1/sqrt(2R) for the even-power factor R.

    The period, sqrt(2) times the integral of 1/sqrt(R) over [0, pi], is the
    integral of this over [0, 2 pi], with no factor sqrt(2) to round.
    2R = 1 + (rho/K) g(c), g = sum_{j<K} c^j and c = cos^2(theta), is summed
    from terms of one sign: as written for rho >= 0, as g/K (that is, 2R/rho)
    at rho = inf, and for rho < 0 as
    2R = (1 + rho) + (|rho|/K) u sum_{l<K-1} (K-1-l) c^l, u = sin^2(theta),
    because g - K = -u sum_l (K-1-l) c^l.  There 2R(0) = 1 + rho is formed
    from rho itself.  Summed from the cos^k coefficients, it carries about
    1e-16 of absolute noise, which is all of R as 1 + rho -> 0.  (Powers of u
    would do as well for small K, but their binomial coefficients alternate
    in sign and cancel as K grows.)
    """
    if rho == math.inf:
        base, weight, coeffs = 0.0, 1.0 / K, (1.0,) * K
    elif _check_rho(rho) >= 0.0:
        base, weight, coeffs = 1.0, rho / K, (1.0,) * K
    else:
        base, weight = 1.0 + rho, -rho / K
        coeffs = tuple(float(K - 1 - l) for l in range(K - 1))
    with_u = rho < 0.0
    top, rest = coeffs[-1], coeffs[-2::-1]

    def integrand(theta: float) -> float:
        c = math.cos(theta)
        c *= c
        acc = top
        for coeff in rest:
            acc = coeff + acc * c
        if with_u:
            u = math.sin(theta)
            acc *= u * u
        return 1.0 / math.sqrt(base + weight * acc)

    return integrand


def _even_power_quadrature(K: int, rho: float) -> float:
    """Even-power period, any K, as the integral of 1/sqrt(2R) over [0, 2 pi].

    The integrand of _even_power_integrand is analytic in a strip
    |Im theta| < d.  For rho < 0 the zero of R nearest the real axis lies
    about sqrt(2 (1 + rho)/(|rho| (K - 1))) from it, and for large K the
    zeros near the roots of unity in c lie about sqrt(pi/K) from it.  Where
    the smaller of the two, d, is at least 0.2, _periodic_trapezoid gives the
    period, in 17-129 calls.  Elsewhere (near the separatrix, and for K above
    about 78) the integrand peaks at theta = 0 with a width of about d, the
    trapezoidal rule would need about 30/d calls, and integrate, which
    bisects towards the peak at about 42 calls per halving of d, spends
    fewer: it integrates over [0, pi/2], and the period is four times that,
    exactly.  The choice is made from K and rho before any sample is taken.
    The tolerance is 1e-14 of the integral either way.
    """
    f = _even_power_integrand(K, rho)
    strip_sq = math.pi / K
    if rho < 0.0:
        strip_sq = min(strip_sq, 2.0 * (1.0 + rho) / (-rho * (K - 1)))
    if strip_sq >= _TRAPEZOID_MIN_STRIP_SQ:
        return _periodic_trapezoid(f, rel_tol=1e-14).value
    return 4.0 * integrate(f, 0.0, 0.5 * math.pi, abs_tol=1e-300, rel_tol=1e-14).value


def _quadratic_agm(
    end_0: float, middle: float, end_far: float, excess: tuple[int, int] | None = None
) -> float:
    """Period sqrt(2) x (integral of dtheta/sqrt(R) over [0, pi]) for a quadratic R.

    R is quadratic in cos^2(theta) or in cos(theta).  The substitution
    t = tan(theta) or t = tan(theta/2) turns the integral into twice
    integral_0^inf dt/sqrt(A + B t^2 + C t^4), with A = end_0 = R(0),
    B = middle and C = end_far = R(pi/2) or R(pi).  One Gauss step on the
    roots in t^2, real or complex conjugate, makes that pi/(2 agm(sqrt(e0),
    sqrt(e1))), e0 = (sqrt(AC) + B/2)/2 and e1 = sqrt(AC) (DLMF 19.8, and
    19.29 for the reduction).  So the period is pi/agm(sqrt(e0/2),
    sqrt(e1/2)), one _agm_integral call: halving is exact, where a factor
    sqrt(2) would round twice.  sqrt(AC) is formed as sqrt(A) sqrt(C), which
    does not overflow.

    For B < 0, sqrt(AC) + B/2 cancels as R nears zero inside the interval.
    There the caller passes excess = AC - B^2/4 exactly, as a pair of
    integers (numerator, denominator), and the sum is formed as
    excess/(sqrt(AC) - B/2), whose terms share a sign.  That quotient is one
    integer division, correctly rounded.  A well whose AGM end values are
    not normal floats, which would underflow or overflow, raises DomainError.
    """
    root = math.sqrt(end_0) * math.sqrt(end_far)
    if middle >= 0.0:
        half_sum = root + 0.5 * middle
    else:
        numerator, denominator = excess
        top, bottom = (root - 0.5 * middle).as_integer_ratio()
        half_sum = numerator * bottom / (denominator * top)
    e0, e1 = 0.25 * half_sum, 0.5 * root
    if not (sys.float_info.min <= e0 < math.inf and sys.float_info.min <= e1 < math.inf):
        raise DomainError(f"the AGM end values {e0!r} and {e1!r} leave the normal float range")
    return _agm_integral(e0, e1)[0]


# ---------------------------------------------------------------------------
# Cubic family (V = x^2/2 + mu x^3/3) and the general quartic-cubic potential
# ---------------------------------------------------------------------------


def cubic_series(x_minus: float, x_plus: float, order: int) -> float:
    """Cubic-well period partial sum through pair index `order`.

    T = sqrt(2) pi/omega * sum_j (-1)^j hb(j) hb(2j) xi^(2j), the same
    coefficient pattern as the quartic family, with omega and xi read from
    the factor's end values: omega^2 = (R(0) + R(pi))/2, so
    sqrt(2) pi/omega = 2 pi/sqrt(R(0) + R(pi)), and
    xi = (R(0) - R(pi))/(R(0) + R(pi)).  Odd expansion terms vanish
    identically at the stationary frequency, so `order` counts pairs.  On the
    separatrix |xi| = 1, max |Delta| = |xi| reaches 1, and the terms still
    sum, with a DivergentExpansion warning.
    """
    order = _check_order(order)
    (end_0, end_pi), _, _ = _cubic_factor(x_minus, x_plus)
    total = end_0 + end_pi
    xi = (end_0 - end_pi) / total
    _warn_divergent(abs(xi), "|xi| = %.6f >= 1: the cubic series need not converge")
    return 2.0 * math.pi / math.sqrt(total) * _pair_sum(xi, order)


def cubic_exact_period(x_minus: float, x_plus: float) -> float:
    """Exact cubic-well period sqrt(2) pi / agm(sqrt(R(0)), sqrt(R(pi))).

    R is linear in cos(theta) and positive between its end values.  On the
    separatrix R vanishes at a turning point and the period is infinite,
    which raises NoPeriodicMotion.
    """
    (end_0, end_pi), _, _ = _cubic_factor(x_minus, x_plus)
    if not min(end_0, end_pi) > 0.0:
        raise NoPeriodicMotion(
            f"({x_minus!r}, {x_plus!r}) lies on the separatrix: the period is infinite"
        )
    return math.sqrt(2.0) * _agm_integral(end_0, end_pi)[0]


def quartic_cubic_pms(
    a2: float, a3: float, a4: float, x_minus: float, x_plus: float
) -> tuple[float, float, float]:
    """Stationary frequency and leading periods for V = a2 x^2 + a3 x^3 + a4 x^4.

    Returns (omega, T0, T2): the first-order stationary frequency, the
    zeroth-order period sqrt(2) pi/omega, and the second-order period
    sqrt(2) (I0 + I2) from the generic expansion.  A factor that is not
    positive between the turning points raises NoPeriodicMotion.
    """
    spec = OscillatorModel.quartic_cubic(a2, a3, a4, x_minus, x_plus).spec_at()
    series = expand(spec, 2)
    t0 = math.sqrt(2.0) * series.terms[0]
    t2 = math.sqrt(2.0) * series.value
    return spec.omega, t0, t2


def quartic_cubic_exact_period(
    a2: float, a3: float, a4: float, x_minus: float, x_plus: float
) -> float:
    """Exact period of the quartic-cubic potential by the AGM.

    R = r0 + r1 cos(theta) + r2 cos^2(theta) is quadratic in cos(theta);
    _quartic_cubic_agm_args gives _quadratic_agm its end values and, where
    B < 0, the exact excess 4 r0 r2 - r1^2, so a well whose factor nearly
    vanishes between the turning points keeps its digits.  The model's
    constructor runs the same exact test, so this refuses exactly the wells
    the model refuses.
    """
    factor = OscillatorModel.quartic_cubic(a2, a3, a4, x_minus, x_plus).factor
    return _quadratic_agm(*_quartic_cubic_agm_args(factor))


# ---------------------------------------------------------------------------
# Simple pendulum (V = 1 - cos x)
# ---------------------------------------------------------------------------


def pendulum_exact(amplitude: float) -> float:
    """Exact pendulum period 4 K(sin^2(A/2)) via the AGM oracle.

    Computed as 2 pi / agm(1, cos(A/2)) (DLMF 19.8.5), from the end values 1
    and cos^2(A/2): the complementary modulus cos(A/2) keeps its digits as
    A -> pi, where sin^2(A/2) rounds to 1.
    """
    amplitude = _check_pendulum_amplitude(amplitude)
    return 2.0 * _agm_integral(1.0, math.cos(0.5 * amplitude) ** 2)[0]


def pendulum_approx(amplitude: float, taylor_order: int, series_order: int) -> float:
    """Pendulum period from a Taylor-truncated potential, expanded to order N.

    The potential 1 - cos(x) is truncated at x^taylor_order (2, 4 or 6), the
    factor polynomial is formed between the turning points +-A, and the
    generic expansion is summed through Delta-order series_order at the
    first-order stationary frequency.  Truncation at order 2 gives 2 pi for
    every amplitude; order 4 is the quartic family with mu = -1/6.  As in
    even_power_series, a table of orders at one amplitude and truncation
    builds its spec once.
    """
    series_order = _check_order(series_order)
    taylor_order = _check_taylor(taylor_order)
    spec = _pendulum_spec(float(amplitude), taylor_order)
    return math.sqrt(2.0) * expand(spec, series_order).value


@lru_cache(maxsize=1)
def _pendulum_spec(amplitude: float, taylor_order: int) -> IntegrandSpec:
    """The truncated pendulum's spec at its first-order stationary frequency,
    cached for one entry like _even_power_spec."""
    return OscillatorModel.pendulum(amplitude, taylor_order).spec_at()
