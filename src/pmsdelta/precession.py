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
from .oracle import _agm_integral, find_root
from .series_core import _check_order, _pair_sum

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
    _check_order(order)
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


def _factor_ends(orbit: OrbitParams) -> tuple[float, float, float, float]:
    """R and 1 - R at theta = 0 and theta = pi, each rounded once.

    1 - R(0) = 2GM (2 z+ + z-) = 2GM (3 + eps)/L and
    1 - R(pi) = 2GM (z+ + 2 z-) = 2GM (3 - eps)/L, with L = a(1 - eps^2),
    are exact rationals in the float inputs, and so are R(0) and R(pi):
    each is one integer quotient, which Python rounds correctly.  Returns
    (R(0), R(pi), 1 - R(0), 1 - R(pi)).  An infinite a with finite GM is the
    Newtonian limit R = 1; an infinite GM puts every a below critical.

    Raises ThirdRootInsideInterval unless R(0) > 0: the third zero of the
    underlying cubic has entered [z-, z+], and the semimajor axis is below
    critical.  The sign is found on the integers, before any quotient that
    would overflow far below critical is formed.
    """
    GM, a, eps = orbit.GM, orbit.a, orbit.epsilon
    if GM == math.inf:
        ends = None
    elif a == math.inf:
        ends = 1.0, 1.0, 0.0, 0.0
    else:
        (gn, gd), (an, ad), (en, ed) = (x.as_integer_ratio() for x in (GM, a, eps))
        common = 2 * gn * ad * ed
        denom = gd * an * (ed * ed - en * en)
        gap_0, gap_pi = common * (3 * ed + en), common * (3 * ed - en)
        ends = (
            (denom - gap_0) / denom, (denom - gap_pi) / denom,
            gap_0 / denom, gap_pi / denom,
        ) if gap_0 < denom else None
    if ends is None:
        raise ThirdRootInsideInterval(
            "the factor is not positive at the perihelion end: semimajor axis "
            f"{a!r} is below the critical value for GM = {GM!r}, eccentricity {eps!r}"
        )
    return ends


def precession_exact(orbit: OrbitParams) -> float:
    """Perihelion precession per orbit, radians, from the AGM closed form.

    Delta phi = 2 * integral over [0, pi] of dtheta / sqrt(R(theta)) - 2 pi
    for R linear in cos(theta), which is 2 pi (1 - M)/M with M the AGM of
    sqrt(R(0)) and sqrt(R(pi)).  The AGM runs in deviation form from the
    exact 1 - R at each end, so a weak-field orbit keeps its digits and
    2 pi is never subtracted.  Requires R(0) > 0; otherwise the semimajor
    axis is below critical and ThirdRootInsideInterval is raised.
    """
    return 2.0 * _agm_integral(*_factor_ends(orbit))[1]


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
