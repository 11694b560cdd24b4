"""Relativistic perihelion precession via the cubic turning-point machinery.

The radial angle swept between perihelion and aphelion is an integral over
the inverse radius z between z- = 1/r+ and z+ = 1/r-, with a cubic under the
square root.  The quadratic part factors against the turning points exactly
as for the oscillators, leaving the linear factor R(z) = 1 - 2GM(z + z- + z+)
to expand.  Everything is in geometrized length units: GM stands for
(G/c^2) * M and is a length.

The series is the pair sum of constants and the exact value the AGM of
oracle, so the precession loads neither the oscillator families nor the
expansion engine.
"""

from __future__ import annotations

import math

from . import _names
from .constants import _Record, _check_order, _pair_sum
from .errors import BeyondCritical, DomainError, ThirdRootInsideInterval, _warn_divergent
from .oracle import _agm_integral

__all__ = _names(__name__)


class OrbitParams(_Record):
    """Keplerian orbit geometry in geometrized units.

    GM:      (G/c^2) * M, in meters.
    a:       semimajor axis, meters.
    epsilon: eccentricity in [0, 1).

    Derived: r+- = a(1 +- epsilon), z_minus = 1/r_plus, z_plus = 1/r_minus,
    and the semilatus rectum L = a(1 - epsilon^2) with 1/L = (z+ + z-)/2.
    """

    __slots__ = _fields = ("GM", "a", "epsilon")
    GM: float
    a: float
    epsilon: float

    def __init__(self, GM: float, a: float, epsilon: float):
        if not GM >= 0.0:
            raise DomainError(f"GM must be nonnegative, got {GM!r}")
        if not a > 0.0:
            raise DomainError(f"semimajor axis must be positive, got {a!r}")
        if not 0.0 <= epsilon < 1.0:
            raise DomainError(
                f"eccentricity must lie in [0, 1), got {epsilon!r}"
            )
        object.__setattr__(self, "GM", GM)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "epsilon", epsilon)

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


def _gm_over_l(orbit: OrbitParams) -> tuple[int, int, int, int]:
    """(g, d, en, ed): GM/L = g/d and eps = en/ed, with d and ed positive.

    Exact in the finite float inputs, L = a(1 - eps^2) included, so a
    quantity built from them and rounded once is correctly rounded.
    """
    (gn, gd), (an, ad), (en, ed) = (
        v.as_integer_ratio() for v in (orbit.GM, orbit.a, orbit.epsilon)
    )
    return gn * ad * ed * ed, gd * an * (ed * ed - en * en), en, ed


def _omega(orbit: OrbitParams) -> tuple[float, float, float]:
    """x = 6GM/L, the reference frequency omega = sqrt(1 - x), and xi.

    xi = 2 eps (GM/L)/(6 GM/L - 1) = (R(0) - R(pi))/(R(0) + R(pi)) is the
    factor's relative swing about its mean.  x, 1 - x and xi are exact
    rationals in the float inputs, each rounded once, so omega carries only
    the rounding of its square root and nothing cancels next to the
    critical axis.  An infinite a with finite GM is the Newtonian limit
    x = xi = 0; an infinite GM leaves no real frequency.
    """
    if orbit.GM < math.inf:
        if orbit.a == math.inf:
            return 0.0, 1.0, 0.0
        g, d, en, ed = _gm_over_l(orbit)
        if 6 * g < d:
            return 6 * g / d, math.sqrt((d - 6 * g) / d), 2 * g * en / (ed * (6 * g - d))
    raise BeyondCritical(
        f"semilatus rectum {orbit.semilatus_rectum!r} does not exceed "
        f"6 GM = {6.0 * orbit.GM!r}: no real reference frequency"
    )


def precession_series(orbit: OrbitParams, order: int) -> float:
    """Perihelion precession per orbit, radians, through pair index `order`.

    Delta phi = 2 pi [ (1/omega) sum_j (-1)^j hb(j) hb(2j) xi^(2j) - 1 ]
    with omega = sqrt(1 - x), x = 6GM/L, and
    xi = GM (z+ - z-)/(3 GM (z+ + z-) - 1) = 2 g eps_n/(eps_d (6 g - d)),
    where GM/L = g/d and eps = eps_n/eps_d are the inputs as integer ratios.
    x, omega and xi come from one `_omega` call, each from one rounded
    integer quotient, so an orbit next to the critical axis at low
    eccentricity keeps its digits.  At order 0 this is the classic leading
    formula 2 pi (1/omega - 1); a circular orbit has xi = 0 and the series
    terminates there exactly.  Below the critical axis, while x < 1, the
    series is still summed, with a DivergentExpansion warning at |xi| >= 1.

    It is evaluated as 2 pi [x/(omega (1 + omega)) + (S - 1)/omega], with
    1/omega - 1 = x/(omega (1 + omega)) and S - 1 the pair sum from j = 1,
    so a weak-field orbit, where S/omega is close to 1, keeps its digits.
    """
    order = _check_order(order)
    x, omega, xi = _omega(orbit)
    _warn_divergent(abs(xi), "|xi| = %.6f >= 1: the precession series need not converge")
    return 2.0 * math.pi * (x / (omega * (1.0 + omega)) + _pair_sum(xi, order, first=1) / omega)


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
        g, d, en, ed = _gm_over_l(orbit)
        denom = d * ed
        gap_0, gap_pi = 2 * g * (3 * ed + en), 2 * g * (3 * ed - en)
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
    """Critical semimajor axis a_c = 2GM (3 + eps)/(1 - eps^2), rounded down.

    At and below it the third zero of the radial cubic lies in [z-, z+] and
    the precession integral is not regular.  a_c is 1 - R(0) at a = 1, one
    integer quotient in the float inputs, rounded down so that a float a is
    regular exactly when a > a_c.  Beyond the float range, a_c is inf.
    """
    if not GM > 0.0:
        raise DomainError(f"GM must be positive, got {GM!r}")
    try:
        g, d, en, ed = _gm_over_l(OrbitParams(GM=GM, a=1.0, epsilon=epsilon))
        num, den = 2 * g * (3 * ed + en), d * ed
        a_c = num / den
    except OverflowError:
        return math.inf
    an, ad = a_c.as_integer_ratio()
    return math.nextafter(a_c, 0.0) if an * den > num * ad else a_c
