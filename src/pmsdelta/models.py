"""Spec-built families: the oscillators that the sampled engine expands.

Each family factors E - V(x) = R(x) (x - x-)(x+ - x) between its turning
points x- < x+ and maps R onto a polynomial in cos(theta); an OscillatorModel
holds the three and hands them to the expansion engine as one IntegrandSpec.
The period is sqrt(2) times the expanded integral.  Here are the series
that only the engine sums: the general even power at a caller-chosen kappa,
the Taylor-truncated pendulum and the quartic-cubic well, with the exact
quartic-cubic period, which checks its factor the way the model does.  The
closed forms, the kappa rules and every other exact period are in
oscillators, which loads neither this module nor the engine.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Mapping, NamedTuple

from . import _names
from .constants import _check_order
from .errors import BarrierCrossed, DomainError, NoPeriodicMotion, _warn_divergent
from .oscillators import (
    _check_exponent,
    _check_pendulum_amplitude,
    _check_rho,
    _cubic_factor,
    _quadratic_agm,
)
from .series_core import IntegrandSpec, TrigPolynomial, expand, pms_first_order

__all__ = _names(__name__)


class OscillatorModel(NamedTuple):
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
# General even-power family (V = x^2/2 + mu x^(2K)/(2K))
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# General quartic-cubic potential (V = a2 x^2 + a3 x^3 + a4 x^4)
# ---------------------------------------------------------------------------


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
# Taylor-truncated pendulum (V = 1 - cos x, truncated)
# ---------------------------------------------------------------------------


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
