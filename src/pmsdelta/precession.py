"""Relativistic perihelion precession via the cubic turning-point machinery.

The radial angle swept between perihelion and aphelion is an integral over
the inverse radius z between z- = 1/r+ and z+ = 1/r-, with a cubic under the
square root.  The quadratic part factors against the turning points exactly
as for the oscillators, leaving the linear factor R(z) = 1 - 2GM(z + z- + z+)
to expand.  Everything is in geometrized length units: GM stands for
(G/c^2) * M and is a length.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import (
    BeyondCritical,
    DivergentExpansion,
    DomainError,
    ThirdRootInsideInterval,
)
from .oracle import find_root
from .series_core import TrigPolynomial, _pair_sum, _reference_integral

__all__ = [
    "OrbitParams",
    "precession_series",
    "precession_exact",
    "critical_semimajor_axis",
]


@dataclass(frozen=True)
class OrbitParams:
    """Keplerian orbit geometry in geometrized units.

    GM:      (G/c^2) * M, in meters.
    a:       semimajor axis, meters.
    epsilon: eccentricity in [0, 1).

    Derived: r+- = a(1 +- epsilon), z_minus = 1/r_plus, z_plus = 1/r_minus,
    and the semilatus rectum L = a(1 - epsilon^2) with 1/L = (z+ + z-)/2.
    """

    GM: float
    a: float
    epsilon: float

    def __post_init__(self):
        if not self.GM >= 0.0:
            raise DomainError(f"GM must be nonnegative, got {self.GM!r}")
        if not self.a > 0.0:
            raise DomainError(f"semimajor axis must be positive, got {self.a!r}")
        if not 0.0 <= self.epsilon < 1.0:
            raise DomainError(
                f"eccentricity must lie in [0, 1), got {self.epsilon!r}"
            )

    @property
    def z_minus(self) -> float:
        """Inverse aphelion distance 1/(a(1+eps))."""
        return 1.0 / (self.a * (1.0 + self.epsilon))

    @property
    def z_plus(self) -> float:
        """Inverse perihelion distance 1/(a(1-eps))."""
        return 1.0 / (self.a * (1.0 - self.epsilon))

    @property
    def semilatus_rectum(self) -> float:
        """a(1 - epsilon^2), equal to 2/(z+ + z-) and still defined for a = inf."""
        return self.a * (1.0 - self.epsilon**2)

    @property
    def L(self) -> float:
        """Alias for the semilatus rectum."""
        return self.semilatus_rectum

    def factor(self) -> TrigPolynomial:
        """R(theta) = 1 - 2GM (z(theta) + z- + z+) after the cosine substitution."""
        mid = 0.5 * (self.z_minus + self.z_plus)
        half = 0.5 * (self.z_plus - self.z_minus)
        return TrigPolynomial(
            [1.0 - 2.0 * self.GM * (mid + self.z_minus + self.z_plus),
             -2.0 * self.GM * half]
        )


def _omega(orbit: OrbitParams) -> float:
    omega_sq = 1.0 - 6.0 * orbit.GM / orbit.semilatus_rectum
    if omega_sq <= 0.0:
        raise BeyondCritical(
            f"semilatus rectum {orbit.semilatus_rectum!r} does not exceed "
            f"6 GM = {6.0 * orbit.GM!r}: no real reference frequency"
        )
    return math.sqrt(omega_sq)


def precession_series(orbit: OrbitParams, order: int) -> float:
    """Perihelion precession per orbit, radians, through pair index `order`.

    Delta phi = 2 pi [ (1/omega) sum_j (-1)^j hb(j) hb(2j) xi^(2j) - 1 ]
    with omega = sqrt(1 - 6GM/L) and
    xi = GM (z+ - z-) / (3 GM (z+ + z-) - 1).  At order 0 this is the classic
    leading formula 2 pi (1/omega - 1); a circular orbit has xi = 0 and the
    series terminates there exactly.
    """
    if order < 0:
        raise DomainError("order must be >= 0")
    omega = _omega(orbit)
    denom = 3.0 * orbit.GM * (orbit.z_plus + orbit.z_minus) - 1.0
    xi = orbit.GM * (orbit.z_plus - orbit.z_minus) / denom
    if abs(xi) >= 1.0:
        warnings.warn(
            f"|xi| = {abs(xi):.6f} >= 1: the precession series need not converge",
            DivergentExpansion,
            stacklevel=2,
        )
    return 2.0 * math.pi * (_pair_sum(xi, order) / omega - 1.0)


def precession_exact(orbit: OrbitParams) -> float:
    """Perihelion precession per orbit, radians, by adaptive quadrature.

    Evaluates 2 * integral over [0, pi] of dtheta / sqrt(R(theta)) minus
    2 pi.  Requires the linear factor to stay positive across the interval;
    otherwise the third zero of the underlying cubic has entered [z-, z+]
    (the semimajor axis is below critical) and ThirdRootInsideInterval is
    raised rather than splitting the integral there.
    """
    factor = orbit.factor()
    coeffs = factor.coeffs
    minimum = coeffs[0] + (coeffs[1] if len(coeffs) > 1 else 0.0)  # theta = 0
    if minimum <= 0.0:
        raise ThirdRootInsideInterval(
            f"factor reaches {minimum!r} at the perihelion end: semimajor axis "
            f"{orbit.a!r} is below the critical value for GM = {orbit.GM!r}, "
            f"eccentricity {orbit.epsilon!r}"
        )
    return 2.0 * _reference_integral(factor) - 2.0 * math.pi


def critical_semimajor_axis(GM: float, epsilon: float) -> float:
    """Smallest regular semimajor axis for the given mass and eccentricity.

    Below the returned value the third zero z3 = 1/(2GM) - z- - z+ of the
    radial cubic enters [z-, z+] and the precession integral ceases to be
    regular.  Found by bracketing z3 = z+ in a; the closed-form equivalent
    is a_c = 2GM [2/(1-eps) + 1/(1+eps)].
    """
    if not GM > 0.0:
        raise DomainError(f"GM must be positive, got {GM!r}")
    if not 0.0 <= epsilon < 1.0:
        raise DomainError(f"eccentricity must lie in [0, 1), got {epsilon!r}")

    def gap(a: float) -> float:
        z_minus = 1.0 / (a * (1.0 + epsilon))
        z_plus = 1.0 / (a * (1.0 - epsilon))
        return 1.0 / (2.0 * GM) - z_minus - 2.0 * z_plus

    lo = 2.0 * GM
    hi = 8.0 * GM / (1.0 - epsilon)
    return find_root(gap, lo, hi, tol=0.0)
