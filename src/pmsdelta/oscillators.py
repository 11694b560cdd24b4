"""Oscillator families: turning points, stationary frequencies, period series.

Each family factors E - V(x) = R(x) (x - x-)(x+ - x) between its turning
points, maps R onto a polynomial in cos(theta), and hands the result to the
expansion engine.  The period is sqrt(2) times the expanded integral.  Closed
forms are provided where the series collapses to a known hypergeometric-style
sum, together with exact reference periods computed through the independent
oracle.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

from .errors import (
    BarrierCrossed,
    DivergentExpansion,
    DomainError,
    NoPeriodicMotion,
)
from .oracle import _agm_integral, integrate
from .series_core import (
    MAX_EXPONENT,
    IntegrandSpec,
    TrigPolynomial,
    _check_order,
    _extrema,
    _pair_sum,
    expand,
    half_binomial,
    pms_first_order,
)

__all__ = [
    "OscillatorModel",
    "TurningPoints",
    "turning_points",
    "duffing_omega_pms",
    "duffing_period_series",
    "duffing_exact_period",
    "duffing_nayfeh_series",
    "duffing_b0",
    "virial_omega_check",
    "sextic_wl_period",
    "sextic_t4",
    "sextic_series",
    "sextic_exact_period",
    "even_power_series",
    "even_power_exact_period",
    "even_power_kappa_pms",
    "even_power_kappa_balanced",
    "cubic_series",
    "cubic_exact_period",
    "quartic_cubic_pms",
    "quartic_cubic_exact_period",
    "pendulum_exact",
    "pendulum_approx",
]


@dataclass(frozen=True)
class TurningPoints:
    """Turning points with the factor polynomial of the motion between them.

    rho is the dimensionless anharmonicity mu * A^(2K-2) for the even-power
    families (and the equivalent quantity for Taylor-truncated pendula); it is
    NaN for families where no single such combination exists.
    """

    x_minus: float
    x_plus: float
    factor: TrigPolynomial
    rho: float = field(default=math.nan)

    def spec_at(self, omega: float | None = None) -> IntegrandSpec:
        """IntegrandSpec at the given reference frequency.

        Defaults to the first-order stationary frequency of the factor.
        """
        if omega is None:
            omega = pms_first_order(self.factor)
        return IntegrandSpec(self.x_minus, self.x_plus, self.factor, omega)


@dataclass(frozen=True)
class OscillatorModel:
    """A potential family's parameters with the motion they describe.

    Each classmethod constructor checks every parameter and factors E - V
    between the turning points once, into `points`, so a model that exists
    always has a factor.  Exactly one of amplitude or energy is set: the even
    families and the pendulum are parametrized by amplitude, the cubic
    families by the energy implied by their turning points.
    """

    params: Mapping[str, float]
    points: TurningPoints
    amplitude: float | None = None
    energy: float | None = None

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
        points = TurningPoints(-amplitude, amplitude, _even_factor(K, rho), rho)
        return cls({"K": K, "mu": mu}, points, amplitude=amplitude)

    @classmethod
    def cubic(cls, x_minus: float, x_plus: float) -> "OscillatorModel":
        """V(x) = x^2/2 + mu x^3/3, parametrized by its turning points.

        The pair (x-, x+) fixes both the cubic strength mu and the energy:
        mu = -(3/2)(x- + x+)/(x+^2 + x+ x- + x-^2) and E = V at either end.
        """
        x_minus, x_plus = _cubic_points(x_minus, x_plus)
        factor, _, mu, energy, _ = _cubic_factor(x_minus, x_plus)
        return cls(
            {"mu": mu, "x_minus": x_minus, "x_plus": x_plus},
            TurningPoints(x_minus, x_plus, factor),
            energy=energy,
        )

    @classmethod
    def quartic_cubic(
        cls, a2: float, a3: float, a4: float, x_minus: float, x_plus: float
    ) -> "OscillatorModel":
        """V(x) = a2 x^2 + a3 x^3 + a4 x^4 between the given turning points.

        The two points must sit at equal potential; the shared value is the
        energy of the motion.  The factor's minimum over [0, pi] is taken
        exactly, because a positivity grid misses a dip below zero between
        its nodes: a factor that is not positive is a barrier crossing.
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
        _, lowest = _extrema(factor)
        if not lowest > 0.0:
            raise BarrierCrossed(
                f"factor falls to {lowest!r} between the turning points; "
                "the particle crosses a barrier"
            )
        return cls(
            {"a2": a2, "a3": a3, "a4": a4, "x_minus": x_minus, "x_plus": x_plus},
            TurningPoints(x_minus, x_plus, factor),
            energy=0.5 * (v_lo + v_hi),
        )

    @classmethod
    def pendulum(cls, amplitude: float, taylor_order: int) -> "OscillatorModel":
        """V(x) = 1 - cos(x), truncated at the given Taylor order in x.

        Order 2 is the harmonic oscillator and order 4 the quartic family with
        mu = -1/6, so both factor through _even_factor.
        """
        if taylor_order not in (2, 4, 6):
            raise DomainError(f"taylor_order must be 2, 4 or 6, got {taylor_order!r}")
        amplitude = _check_pendulum_amplitude(amplitude)
        a2 = amplitude * amplitude
        if taylor_order == 6:
            rho = math.nan
            c4, c6 = a2 / 24.0, a2 * a2 / 720.0
            factor = TrigPolynomial([0.5 - c4 + c6, 0.0, c6 - c4, 0.0, c6])
        else:
            rho = 0.0 if taylor_order == 2 else -a2 / 6.0
            factor = _even_factor(2, rho)
        return cls(
            {"taylor_order": int(taylor_order)},
            TurningPoints(-amplitude, amplitude, factor, rho),
            amplitude=amplitude,
        )


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


def _cubic_factor(
    x_minus: float, x_plus: float
) -> tuple[TrigPolynomial, float, float, float, tuple[float, float]]:
    """Factor polynomial in theta for the cubic family, with xi, mu, the energy
    and the factor's end values R(0) and R(pi).

    Validates that the pair brackets single-well periodic motion: the points
    lie on either side of the origin, the third zero of the cubic lies
    outside [x-, x+], and equivalently the energy stays below the barrier top.
    The factor, xi, the end values and the barrier test mu^2 E are ratios of
    terms of equal degree in the points.  Where sigma = x+^2 + x+ x- + x-^2
    is not a normal float, or x+^2 + 4 x+ x- + x-^2 overflows, they are
    formed from the points scaled by a power of two to a largest magnitude in
    [1/2, 1).  The scaling is exact, so a pair near 1e-160, whose sigma is
    subnormal, keeps its digits, and every other pair its bits.  mu and the
    energy are scaled back; where either leaves the float range, the pair is
    refused.  The energy p^2/(2 sigma) is formed as p (p/sigma)/2 with
    |p/sigma| <= 1.  The end values R(0) = -x+ (2 x- + x+)/(2 sigma) and
    R(pi) = -x- (x- + 2 x+)/(2 sigma) are formed from the points, not summed
    from the factor's coefficients, so they keep their digits as R(0) -> 0 at
    the separatrix.
    """
    x_minus, x_plus = points = _cubic_points(x_minus, x_plus)
    shift = 0
    try:
        p, sigma, denom = _cubic_sums(x_minus, x_plus)
    except OverflowError:
        sigma = math.inf
    if not (sys.float_info.min <= sigma < math.inf and math.isfinite(denom)):
        shift = math.frexp(max(-x_minus, x_plus))[1]
        x_minus, x_plus = math.ldexp(x_minus, -shift), math.ldexp(x_plus, -shift)
        p, sigma, denom = _cubic_sums(x_minus, x_plus)
    s = x_minus + x_plus
    mu_scaled = -1.5 * s / sigma
    energy_scaled = 0.5 * p * (p / sigma)
    try:
        mu = math.ldexp(mu_scaled, -shift)
        energy = math.ldexp(energy_scaled, 2 * shift)
    except OverflowError:
        mu = energy = math.inf
    if s != 0.0:
        # Strict checks: the separatrix itself (third zero AT a turning point)
        # still factors cleanly, though the period there is infinite.
        third_zero = -p / s
        if x_minus < third_zero < x_plus:
            raise BarrierCrossed(
                f"the third zero {math.ldexp(third_zero, shift)!r} of the cubic lies "
                f"inside {points!r}: the energy exceeds the barrier and the motion "
                "is not periodic in a single well"
            )
        # E > 1/(6 mu^2), the barrier top, on the scaled values: mu^2 E is
        # scale-free, and mu^2 may underflow at the inputs' own scale.
        if 6.0 * mu_scaled * (mu_scaled * energy_scaled) > 1.0:
            raise BarrierCrossed(
                f"energy {energy!r} exceeds the barrier top 1/(6 mu^2), mu = {mu!r}"
            )
    if not 0.0 < energy < math.inf:
        raise DomainError(
            f"cubic turning points {points!r} are out of floating-point range: "
            "mu or the energy leaves it"
        )
    b0 = -p / (2.0 * sigma)
    b1 = -s / (2.0 * sigma)
    m = 0.5 * (x_minus + x_plus)
    h = 0.5 * (x_plus - x_minus)
    factor = TrigPolynomial([b0 + b1 * m, b1 * h])
    if denom >= 0.0:
        raise NoPeriodicMotion(
            "no real stationary frequency for this turning-point pair"
        )
    xi = (x_plus**2 - x_minus**2) / denom
    ends = (
        -x_plus * (2.0 * x_minus + x_plus) / (2.0 * sigma),
        -x_minus * (x_minus + 2.0 * x_plus) / (2.0 * sigma),
    )
    return factor, xi, mu, energy, ends


def _cubic_sums(x_minus: float, x_plus: float) -> tuple[float, float, float]:
    """p = x- x+, sigma = x+^2 + p + x-^2 and x+^2 + 4p + x-^2."""
    p = x_minus * x_plus
    return p, x_plus**2 + p + x_minus**2, x_plus**2 + 4.0 * p + x_minus**2


def _cubic_points(x_minus: float, x_plus: float) -> tuple[float, float]:
    x_minus, x_plus = float(x_minus), float(x_plus)
    if not -math.inf < x_minus < 0.0 < x_plus < math.inf:
        raise DomainError(
            f"cubic turning points must be finite and straddle the origin, got "
            f"({x_minus!r}, {x_plus!r})"
        )
    return x_minus, x_plus


def turning_points(model: OscillatorModel) -> TurningPoints:
    """Turning points and factor polynomial of a model, built with the model."""
    return model.points


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
    """Exact period 4/sqrt(1+rho) K(rho/(2(1+rho))) via the AGM oracle.

    R = 1/2 + (rho/4)(1 + cos^2(theta)) is linear in cos(2 theta), so the
    period sqrt(2) x (the integral of 1/sqrt(R)) is pi / agm(sqrt(R(0)/2),
    sqrt(R(pi/2)/2)), from R(0) = (1 + rho)/2 and R(pi/2) = (2 + rho)/4 formed
    from rho: halving is exact, where a factor sqrt(2) would round twice.
    """
    rho = _check_rho(rho)
    return _agm_integral(0.25 * (1.0 + rho), 0.125 * (2.0 + rho))[0]


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
    if abs(kappa) >= 1.0:
        warnings.warn(
            f"|kappa| = {abs(kappa):.6f} >= 1: the comparison series diverges",
            DivergentExpansion,
            stacklevel=2,
        )
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
    """Exact sextic period: the even-power period at K = 3."""
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


def _even_power_spec(K: int, rho: float, kappa: float) -> IntegrandSpec:
    factor = _even_factor(K, rho)
    # At rho = inf the factor is R/rho, so the reference omega^2 is too.
    omega_sq = kappa / 2.0 if rho == math.inf else (1.0 + kappa * rho) / 2.0
    if omega_sq <= 0.0:
        raise DomainError(
            f"omega^2 = (1 + kappa rho)/2 = {omega_sq!r} must be positive"
        )
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
    """
    K = _check_exponent(K)
    spec = _even_power_spec(K, rho, kappa)
    coeffs = spec.delta.coeffs
    max_dev = max(abs(coeffs[0]), abs(math.fsum(coeffs)))
    if max_dev >= 1.0:
        warnings.warn(
            f"max |Delta| = {max_dev:.6f} >= 1 at kappa = {kappa!r}: "
            "the expansion need not converge",
            DivergentExpansion,
            stacklevel=2,
        )
    return math.sqrt(2.0) * expand(spec, order).value


def even_power_exact_period(K: int, rho: float) -> float:
    """Exact even-power period by adaptive quadrature of sqrt(2)/sqrt(R).

    R = 1/2 + (rho/2K) g(c), g = sum_{j<K} c^j and c = cos^2(theta), depends
    on theta through c alone, so the integral over [0, pi] is twice the one
    over [0, pi/2].  R is summed from terms of one sign.  For rho >= 0 that
    is the form above.  For rho < 0 it is
    R = (1 + rho)/2 + (|rho|/2K) u sum_{l<K-1} (K-1-l) c^l, u = sin^2(theta),
    because g - K = -u sum_l (K-1-l) c^l.  There R(0) = (1 + rho)/2 is formed
    from rho itself.  Summed from the cos^k coefficients, R(0) carries about
    1e-16 of absolute noise, which is all of R as 1 + rho -> 0.  (Powers of u
    would do as well for small K, but their binomial coefficients alternate
    in sign and cancel as K grows.)  The tolerance is 1e-14 of the integral.

    With rho = math.inf, returns the strong-coupling coefficient
    c0 = lim sqrt(rho) T, from R/rho = g/(2K).
    """
    K = _check_exponent(K)
    rho = float(rho)
    if rho == math.inf:
        base, weight, coeffs = 0.0, 1.0 / (2.0 * K), (1.0,) * K
    elif _check_rho(rho) >= 0.0:
        base, weight, coeffs = 0.5, rho / (2.0 * K), (1.0,) * K
    else:
        base, weight = 0.5 * (1.0 + rho), -rho / (2.0 * K)
        coeffs = tuple(float(K - 1 - l) for l in range(K - 1))
    with_u = rho < 0.0

    def integrand(theta: float) -> float:
        c = math.cos(theta) ** 2
        acc = 0.0
        for coeff in reversed(coeffs):
            acc = coeff + acc * c
        if with_u:
            acc *= math.sin(theta) ** 2
        return 1.0 / math.sqrt(base + weight * acc)

    result = integrate(integrand, 0.0, 0.5 * math.pi, abs_tol=1e-300, rel_tol=1e-14)
    return 2.0 * math.sqrt(2.0) * result.value


# ---------------------------------------------------------------------------
# Cubic family (V = x^2/2 + mu x^3/3) and the general quartic-cubic potential
# ---------------------------------------------------------------------------


def cubic_series(x_minus: float, x_plus: float, order: int) -> float:
    """Cubic-well period partial sum through pair index `order`.

    T = sqrt(2) pi/omega * sum_j (-1)^j hb(j) hb(2j) xi^(2j) with
    xi = (x+^2 - x-^2)/(x+^2 + 4 x+ x- + x-^2); the same coefficient pattern
    as the quartic family.  Odd expansion terms vanish identically at the
    stationary frequency, so `order` counts pairs.
    """
    order = _check_order(order)
    factor, xi, _, _, _ = _cubic_factor(x_minus, x_plus)
    omega = pms_first_order(factor)
    return math.sqrt(2.0) * math.pi / omega * _pair_sum(xi, order)


def cubic_exact_period(x_minus: float, x_plus: float) -> float:
    """Exact cubic-well period sqrt(2) pi / agm(sqrt(R(0)), sqrt(R(pi))).

    R is linear in cos(theta) and positive between its end values.  On the
    separatrix R vanishes at a turning point and the period is infinite,
    which raises NoPeriodicMotion.
    """
    *_, (end_0, end_pi) = _cubic_factor(x_minus, x_plus)
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
    spec = OscillatorModel.quartic_cubic(a2, a3, a4, x_minus, x_plus).points.spec_at()
    series = expand(spec, 2)
    t0 = math.sqrt(2.0) * series.terms[0]
    t2 = math.sqrt(2.0) * series.value
    return spec.omega, t0, t2


def quartic_cubic_exact_period(
    a2: float, a3: float, a4: float, x_minus: float, x_plus: float
) -> float:
    """Exact period of the quartic-cubic potential: sqrt(2) times the
    adaptive quadrature of 1/sqrt(R) over [0, pi].

    R is quadratic in cos(theta), the one factor here with no closed form in
    use.  Raises NoPeriodicMotion on the same inputs as quartic_cubic_pms.
    """
    factor = OscillatorModel.quartic_cubic(a2, a3, a4, x_minus, x_plus).points.factor

    def integrand(theta: float) -> float:
        return 1.0 / math.sqrt(factor.evaluate(theta))

    return math.sqrt(2.0) * integrate(integrand, 0.0, math.pi, abs_tol=1e-13).value


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
    every amplitude; order 4 is the quartic family with mu = -1/6.
    """
    series_order = _check_order(series_order)
    points = OscillatorModel.pendulum(amplitude, taylor_order).points
    return math.sqrt(2.0) * expand(points.spec_at(), series_order).value
