"""Tests for the perihelion-precession module."""

import math

import pytest

from pmsdelta.constants import DEFAULT_ECCENTRICITY, DEFAULT_GM
from pmsdelta.errors import (
    BeyondCritical,
    DivergentExpansion,
    DomainError,
    ThirdRootInsideInterval,
)
from pmsdelta.precession import (
    OrbitParams,
    critical_semimajor_axis,
    precession_exact,
    precession_series,
)


def test_orbit_params_derived_quantities():
    orbit = OrbitParams(GM=1.0, a=100.0, epsilon=0.5)
    assert orbit.z_minus == pytest.approx(1.0 / 150.0, rel=1e-15)
    assert orbit.z_plus == pytest.approx(1.0 / 50.0, rel=1e-15)
    # 1/L = (z+ + z-)/2 = a(1 - eps^2) inverted.
    assert orbit.semilatus_rectum == pytest.approx(100.0 * 0.75, rel=1e-14)
    assert orbit.L == orbit.semilatus_rectum
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


def test_weak_field_leading_order_dominates():
    # As GM shrinks, order 0 already captures the full answer.
    for GM in (1e-3, 1e-5):
        orbit = OrbitParams(GM=GM, a=300.0, epsilon=0.4)
        exact = precession_exact(orbit)
        leading = precession_series(orbit, 0)
        assert leading == pytest.approx(exact, rel=50.0 * GM)
