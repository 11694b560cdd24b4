"""Tests for the perihelion-precession module."""

import math
import random
from fractions import Fraction

import warnings

import pytest
from hypothesis import given, settings, strategies as st

from pmsdelta.constants import DEFAULT_ECCENTRICITY, DEFAULT_GM, MAX_ORDER
from pmsdelta.errors import (
    BeyondCritical,
    DivergentExpansion,
    DomainError,
    PmsDeltaError,
    ThirdRootInsideInterval,
)
from pmsdelta.precession import (
    OrbitParams,
    critical_semimajor_axis,
    precession_exact,
    precession_series,
)
from pmsdelta.quadrature import integrate


def test_orbit_params_derived_quantities():
    orbit = OrbitParams(GM=1.0, a=100.0, epsilon=0.5)
    assert orbit.z_minus == pytest.approx(1.0 / 150.0, rel=1e-15)
    assert orbit.z_plus == pytest.approx(1.0 / 50.0, rel=1e-15)
    # 1/L = (z+ + z-)/2 = a(1 - eps^2) inverted.
    assert orbit.semilatus_rectum == pytest.approx(100.0 * 0.75, rel=1e-14)
    assert not hasattr(orbit, "L")  # one public name per quantity
    assert OrbitParams(GM=1.0, a=math.inf, epsilon=0.5).semilatus_rectum == math.inf


def test_orbit_params_validation():
    with pytest.raises(DomainError):
        OrbitParams(GM=1.0, a=-5.0, epsilon=0.1)
    with pytest.raises(DomainError):
        OrbitParams(GM=1.0, a=5.0, epsilon=1.0)
    with pytest.raises(DomainError):
        OrbitParams(GM=1.0, a=5.0, epsilon=-0.2)
    with pytest.raises(DomainError):
        OrbitParams(GM=-1.0, a=5.0, epsilon=0.2)


def test_newtonian_limit_is_zero():
    orbit = OrbitParams(GM=0.0, a=300.0, epsilon=0.3)
    assert precession_series(orbit, 8) == 0.0
    assert precession_exact(orbit) == pytest.approx(0.0, abs=1e-12)


def test_circular_orbit_closed_form():
    # eps = 0 makes xi vanish, so every order returns the leading formula.
    orbit = OrbitParams(GM=DEFAULT_GM, a=300.0, epsilon=0.0)
    expected = 2.0 * math.pi * (1.0 / math.sqrt(1.0 - 6.0 * DEFAULT_GM / 300.0) - 1.0)
    assert expected == pytest.approx(1.1869842273544848, rel=1e-12)
    for order in (0, 1, 5):
        assert precession_series(orbit, order) == pytest.approx(expected, rel=1e-15)
    assert precession_exact(orbit) == pytest.approx(expected, rel=1e-11)


def test_series_improves_toward_exact():
    a_c = critical_semimajor_axis(DEFAULT_GM, DEFAULT_ECCENTRICITY)
    orbit = OrbitParams(GM=DEFAULT_GM, a=1.5 * a_c, epsilon=DEFAULT_ECCENTRICITY)
    exact = precession_exact(orbit)
    errors = [
        abs(precession_series(orbit, order) - exact) / abs(exact)
        for order in range(7)
    ]
    for worse, better in zip(errors, errors[1:]):
        assert better < worse
    assert errors[0] == pytest.approx(8.82e-3, rel=1e-2)
    assert errors[2] == pytest.approx(1.06e-6, rel=1e-2)
    assert errors[6] < 1e-12


def test_exact_refuses_subcritical():
    a_c = critical_semimajor_axis(DEFAULT_GM, DEFAULT_ECCENTRICITY)
    orbit = OrbitParams(GM=DEFAULT_GM, a=0.95 * a_c, epsilon=DEFAULT_ECCENTRICITY)
    with pytest.raises(ThirdRootInsideInterval):
        precession_exact(orbit)
    # Far below critical 2GM (3 + eps)/L exceeds the float range; the sign of
    # R(0) is decided before that quotient is formed.
    with pytest.raises(ThirdRootInsideInterval):
        precession_exact(OrbitParams(GM=1.0, a=1e-308, epsilon=0.0))
    with pytest.raises(ThirdRootInsideInterval):
        precession_exact(OrbitParams(GM=math.inf, a=1e-308, epsilon=0.9999999999999999))


def test_series_still_evaluable_slightly_below_critical():
    # xi passes 1 in magnitude right at the critical axis, so evaluating
    # below it is flagged as extrapolation but still returns a finite value.
    a_c = critical_semimajor_axis(DEFAULT_GM, DEFAULT_ECCENTRICITY)
    orbit = OrbitParams(GM=DEFAULT_GM, a=0.98 * a_c, epsilon=DEFAULT_ECCENTRICITY)
    with pytest.warns(DivergentExpansion):
        value = precession_series(orbit, 4)
    assert math.isfinite(value)
    assert value > 0.0


def test_series_beyond_critical_frequency():
    # Push a low enough that 6GM >= L and the reference frequency is lost.
    orbit = OrbitParams(GM=14.62725, a=80.0, epsilon=0.0)
    with pytest.raises(BeyondCritical):
        precession_series(orbit, 2)


def test_divergence_warning_when_xi_large():
    # Between L = 6GM and the critical axis, xi can exceed 1 in magnitude.
    GM = 14.62725
    eps = DEFAULT_ECCENTRICITY
    a_c = critical_semimajor_axis(GM, eps)
    lo = 6.0 * GM / (1.0 - eps * eps)
    a = 0.5 * (lo + a_c)
    orbit = OrbitParams(GM=GM, a=a, epsilon=eps)
    with pytest.warns(DivergentExpansion):
        precession_series(orbit, 3)


def test_critical_axis_matches_closed_form():
    GM = DEFAULT_GM
    eps = DEFAULT_ECCENTRICITY
    computed = critical_semimajor_axis(GM, eps)
    closed = 2.0 * GM * (2.0 / (1.0 - eps) + 1.0 / (1.0 + eps))
    assert computed == pytest.approx(closed, rel=1e-13)
    assert computed == pytest.approx(101.46683122925656, rel=1e-12)


def _is_regular(GM, a, eps):
    try:
        precession_exact(OrbitParams(GM=GM, a=a, epsilon=eps))
    except ThirdRootInsideInterval:
        return False
    return True


def test_critical_axis_is_the_exact_quotient_rounded_down():
    # a_c is the largest float not above 2GM (3 + eps)/(1 - eps^2), so the
    # float test a > a_c agrees with precession_exact's exact one on both
    # sides of the critical axis.
    rng = random.Random(11)
    for _ in range(500):
        GM, eps = 10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(0.0, 0.99)
        exact = 2 * Fraction(GM) * (3 + Fraction(eps)) / (1 - Fraction(eps) ** 2)
        a_c = critical_semimajor_axis(GM, eps)
        assert Fraction(a_c) <= exact < Fraction(math.nextafter(a_c, math.inf))
        for a in (a_c, math.nextafter(a_c, math.inf)):
            assert (a > a_c) == _is_regular(GM, a, eps), (GM, eps, a)


def test_critical_axis_beyond_the_float_range_is_infinite():
    assert critical_semimajor_axis(math.inf, 0.2) == math.inf
    assert critical_semimajor_axis(1e307, 0.99) == math.inf
    tiny = critical_semimajor_axis(1e-320, DEFAULT_ECCENTRICITY)
    assert 0.0 < tiny < 1e-318


def test_critical_axis_circular():
    assert critical_semimajor_axis(2.0, 0.0) == pytest.approx(12.0, rel=1e-13)


def test_critical_axis_rejections():
    with pytest.raises(DomainError):
        critical_semimajor_axis(0.0, 0.3)
    with pytest.raises(DomainError):
        critical_semimajor_axis(1.0, 1.0)


def test_exact_diverges_approaching_critical():
    GM = DEFAULT_GM
    eps = DEFAULT_ECCENTRICITY
    a_c = critical_semimajor_axis(GM, eps)
    values = [
        precession_exact(OrbitParams(GM=GM, a=f * a_c, epsilon=eps))
        for f in (1.5, 1.1, 1.01)
    ]
    assert values[0] < values[1] < values[2]
    assert values[2] > 2.0  # radians per orbit: strong-field regime


def _mp_precession(GM, a, eps):
    """2 * integral of dtheta/sqrt(R) - 2 pi at 50 digits, by tanh-sinh with
    breakpoints clustered at theta = 0, where R dips near the critical axis."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        GM, a, eps = map(mpmath.mpf, (GM, a, eps))
        z_minus, z_plus = 1 / (a * (1 + eps)), 1 / (a * (1 - eps))
        mid, half = (z_plus + z_minus) / 2, (z_plus - z_minus) / 2

        def f(theta):
            return 1 / mpmath.sqrt(1 - 2 * GM * (mid + half * mpmath.cos(theta) + z_minus + z_plus))

        points = [0] + [mpmath.mpf(10) ** -k for k in range(8, 0, -1)] + [mpmath.pi]
        return 2 * mpmath.quad(f, points) - 2 * mpmath.pi


@pytest.mark.parametrize(
    "GM, a_over_critical, eps",
    [
        (DEFAULT_GM, 1.0 + 1e-5, DEFAULT_ECCENTRICITY),
        (DEFAULT_GM, 1.0 + 1e-8, DEFAULT_ECCENTRICITY),
        (DEFAULT_GM, 1.3, DEFAULT_ECCENTRICITY),
    ],
)
def test_exact_near_critical_matches_mpmath(GM, a_over_critical, eps):
    # The quadrature raised ToleranceNotMet at a_c (1 + 1e-5) and closer.
    a = a_over_critical * critical_semimajor_axis(GM, eps)
    reference = _mp_precession(GM, a, eps)
    value = precession_exact(OrbitParams(GM=GM, a=a, epsilon=eps))
    assert abs(value - reference) <= 1e-15 * reference


def _mp_precession_series(GM, a, eps, order):
    """2 pi (S/omega - 1) through pair index `order`, at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        GM, a, eps = map(mpmath.mpf, (GM, a, eps))
        z_minus, z_plus = 1 / (a * (1 + eps)), 1 / (a * (1 - eps))
        omega = mpmath.sqrt(1 - 6 * GM / (a * (1 - eps**2)))
        xi = GM * (z_plus - z_minus) / (3 * GM * (z_plus + z_minus) - 1)
        pair_sum = sum(
            (-1) ** j * mpmath.binomial(-0.5, j) * mpmath.binomial(-0.5, 2 * j) * xi ** (2 * j)
            for j in range(order + 1)
        )
        return 2 * mpmath.pi * (pair_sum / omega - 1)


@pytest.mark.parametrize("eps, excess", [(1e-6, 1e-6), (1e-8, 1e-9), (1e-3, 1e-12)])
def test_series_near_critical_low_eccentricity_keeps_digits(eps, excess):
    # xi = GM (z+ - z-)/(3 GM (z+ + z-) - 1) formed from float z+- loses
    # digits to both differences here; as one integer quotient it does not.
    GM = DEFAULT_GM
    a = critical_semimajor_axis(GM, eps) * (1.0 + excess)
    orbit = OrbitParams(GM=GM, a=a, epsilon=eps)
    for order in (0, 2, 6):
        reference = _mp_precession_series(GM, a, eps, order)
        assert abs(precession_series(orbit, order) - reference) <= 1e-15 * reference


@pytest.mark.parametrize("GM, a, eps", [(1476.6, 5.7909e10, 0.2056), (DEFAULT_GM, 1e8, 0.2506)])
def test_exact_weak_field_keeps_digits(GM, a, eps):
    # Mercury: 2 int dtheta/sqrt(R) - 2 pi kept 9 of 17 digits when the
    # integral was formed first and 2 pi subtracted, and the series kept 10
    # when it formed S/omega and subtracted 1.
    orbit = OrbitParams(GM=GM, a=a, epsilon=eps)
    reference = _mp_precession(GM, a, eps)
    assert abs(precession_exact(orbit) - reference) <= 1e-14 * reference
    for order in (0, 2, 6):
        reference = _mp_precession_series(GM, a, eps, order)
        assert abs(precession_series(orbit, order) - reference) <= 1e-14 * reference


@pytest.mark.parametrize("a_over_critical", [1.3, 15.0])
def test_exact_matches_quadrature(a_over_critical):
    GM, eps = DEFAULT_GM, DEFAULT_ECCENTRICITY
    orbit = OrbitParams(GM=GM, a=a_over_critical * critical_semimajor_axis(GM, eps), epsilon=eps)
    mid = 0.5 * (orbit.z_plus + orbit.z_minus)
    half = 0.5 * (orbit.z_plus - orbit.z_minus)

    def integrand(theta):
        z = mid + half * math.cos(theta)
        return 1.0 / math.sqrt(1.0 - 2.0 * GM * (z + orbit.z_minus + orbit.z_plus))

    quadrature = integrate(integrand, 0.0, math.pi, abs_tol=1e-300, rel_tol=1e-14).value
    agm = math.pi + 0.5 * precession_exact(orbit)
    assert agm == pytest.approx(quadrature, rel=1e-14)


def test_weak_field_leading_order_dominates():
    # As GM shrinks, order 0 already captures the full answer.
    for GM in (1e-3, 1e-5):
        orbit = OrbitParams(GM=GM, a=300.0, epsilon=0.4)
        exact = precession_exact(orbit)
        leading = precession_series(orbit, 0)
        assert leading == pytest.approx(exact, rel=50.0 * GM)


@st.composite
def orbit_arguments(draw):
    """(GM, a, epsilon) over the whole float range, half of them with a
    drawn from the critical axis a_c upwards."""
    GM = draw(st.floats(min_value=0.0))
    epsilon = draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    if GM > 0.0 and draw(st.booleans()):
        a = critical_semimajor_axis(GM, epsilon) * (1.0 + draw(st.floats(0.0, 1.0)))
    else:
        a = draw(st.floats(min_value=0.0, exclude_min=True))
    return GM, a, epsilon


@settings(derandomize=True, deadline=None, max_examples=50)
@given(
    arguments=orbit_arguments(),
    order=st.one_of(st.integers(0, MAX_ORDER), st.integers(0, MAX_ORDER).map(float)),
)
def test_precession_entry_points_are_finite_or_refuse(arguments, order):
    # Every orbit gives a finite precession or a package error, never a NaN,
    # an infinity or a stray exception.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DivergentExpansion)
        for function, args in ((precession_series, (order,)), (precession_exact, ())):
            try:
                value = function(OrbitParams(*arguments), *args)
            except PmsDeltaError:
                continue
            assert math.isfinite(value)
