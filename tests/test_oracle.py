"""Checks for the ground-truth numerics: quadrature, AGM, roots, fitting."""

import math

import numpy as np
import pytest

from pmsdelta.errors import (
    DegenerateFit,
    DomainError,
    NonFiniteIntegrand,
    NoSignChange,
    ToleranceNotMet,
)
from pmsdelta import oracle
from pmsdelta.oracle import elliptic_k, find_root, fit_log_linear, integrate


def test_gauss_legendre_literals_are_leggauss():
    for n, nodes, weights in (
        (7, oracle._LOW_NODES, oracle._LOW_WEIGHTS),
        (15, oracle._HIGH_NODES, oracle._HIGH_WEIGHTS),
    ):
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(np.array(nodes).view(np.uint64), ref_nodes.view(np.uint64))
        assert np.array_equal(
            np.array(weights).view(np.uint64), ref_weights.view(np.uint64)
        )


def test_integrate_known_values():
    cases = [
        (math.sin, 0.0, math.pi, 2.0),
        (lambda x: 4.0 / (1.0 + x * x), 0.0, 1.0, math.pi),
        (lambda x: math.cos(x) ** 4, 0.0, math.pi, 3.0 * math.pi / 8.0),
        (math.exp, -1.0, 2.0, math.e**2 - math.e**-1),
    ]
    for f, a, b, exact in cases:
        res = integrate(f, a, b, abs_tol=1e-13)
        err = abs(res.value - exact)
        print(f"integral over [{a:g}, {b:g}]: {res.value:.15f}  |err| = {err:.2e}")
        assert err < 1e-12
        assert res.error_estimate <= 1e-13
        assert res.evaluations >= 22


def test_integrate_polynomials_near_exact():
    # A single 15-point panel already integrates degree <= 29 exactly;
    # adaptivity must not spoil that beyond roundoff.
    rng = np.random.default_rng(7)
    for deg in range(13):
        coeffs = rng.uniform(-2.0, 2.0, size=deg + 1)
        poly = np.polynomial.Polynomial(coeffs)
        exact = float(poly.integ()(1.5) - poly.integ()(-0.5))
        res = integrate(lambda x: float(poly(x)), -0.5, 1.5, abs_tol=1e-13)
        assert abs(res.value - exact) < 1e-12, f"degree {deg}"


def test_integrate_rejects_bad_interval_and_tolerance():
    with pytest.raises(DomainError):
        integrate(math.sin, 1.0, 1.0)
    with pytest.raises(DomainError):
        integrate(math.sin, 2.0, 1.0)
    with pytest.raises(DomainError):
        integrate(math.sin, 0.0, 1.0, abs_tol=0.0)


def test_integrate_stops_on_relative_tolerance():
    # 1e20 sin x: an absolute 1e-12 sits below the rounding noise of the
    # integral, 2e20; 1e-13 of it does not.
    f = lambda x: 1e20 * math.sin(x)
    with pytest.raises(ToleranceNotMet):
        integrate(f, 0.0, math.pi, abs_tol=1e-12)
    res = integrate(f, 0.0, math.pi, abs_tol=1e-12, rel_tol=1e-13)
    assert res.error_estimate <= 1e-13 * res.value
    assert res.value == pytest.approx(2e20, rel=1e-14)
    # The relative criterion stops refinement early: fewer evaluations than
    # an absolute tolerance of the same size.
    loose = integrate(math.exp, 0.0, 1.0, abs_tol=1e-300, rel_tol=1e-6)
    tight = integrate(math.exp, 0.0, 1.0, abs_tol=1e-13)
    assert loose.error_estimate <= 1e-6 * loose.value
    assert loose.evaluations <= tight.evaluations
    with pytest.raises(DomainError):
        integrate(math.sin, 0.0, 1.0, rel_tol=-1e-3)


def test_integrate_relative_tolerance_still_raises():
    # Neither criterion can be met: the budget or the singularity wins.
    with pytest.raises(ToleranceNotMet):
        integrate(math.sin, 0.0, math.pi, abs_tol=1e-300, rel_tol=1e-300, max_evals=100)
    with pytest.raises((ToleranceNotMet, NonFiniteIntegrand)):
        integrate(lambda x: 1.0 / x, 0.0, 1.0, abs_tol=1e-300, rel_tol=1e-12, max_evals=10**4)


@pytest.mark.parametrize("end_0, end_pi", [(1.0, 1.0), (0.5, 2.0), (1e-9, 0.3), (3.0, 1e-12)])
def test_agm_integral_matches_mpmath(end_0, end_pi):
    mpmath = pytest.importorskip("mpmath")
    integral, excess = oracle._agm_integral(end_0, end_pi)
    with mpmath.workdps(50):
        reference = mpmath.pi / mpmath.agm(mpmath.sqrt(end_0), mpmath.sqrt(end_pi))
        assert abs(integral - reference) <= 1e-15 * reference
        assert abs(excess - (reference - mpmath.pi)) <= 1e-15 * reference


def test_agm_integral_excess_keeps_digits_near_one():
    # R = 1 - g at both ends with g = 1e-12: the excess is about pi g/2,
    # and pi/M - pi would keep only four of its digits.
    mpmath = pytest.importorskip("mpmath")
    gap_0, gap_pi = 3e-12, 1e-12
    _, excess = oracle._agm_integral(1.0 - gap_0, 1.0 - gap_pi, gap_0, gap_pi)
    with mpmath.workdps(50):
        one = mpmath.mpf(1)
        m = mpmath.agm(mpmath.sqrt(one - gap_0), mpmath.sqrt(one - gap_pi))
        reference = mpmath.pi / m - mpmath.pi
        assert abs(excess - reference) <= 1e-15 * reference


def test_integrate_budget_exhaustion():
    with pytest.raises(ToleranceNotMet):
        integrate(math.sin, 0.0, math.pi, abs_tol=1e-30, max_evals=100)


def test_integrate_endpoint_singularity_not_silently_accepted():
    with pytest.raises((ToleranceNotMet, NonFiniteIntegrand)):
        integrate(lambda x: 1.0 / x, 0.0, 1.0, abs_tol=1e-12, max_evals=10**5)


def test_integrate_flags_nan():
    with pytest.raises(NonFiniteIntegrand):
        integrate(lambda x: float("nan"), 0.0, 1.0)


def test_elliptic_k_special_values():
    assert elliptic_k(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
    # K(1/2) to machine precision (AGM is quadratically convergent).
    assert elliptic_k(0.5) == pytest.approx(1.8540746773013719, abs=1e-15)
    print(f"K(0.5) = {elliptic_k(0.5):.16f}")


@pytest.mark.parametrize("m", [-4.5, -1.0, -0.5, 0.1, 0.3, 0.5, 0.7, 0.9, 0.9999])
def test_elliptic_k_matches_quadrature(m):
    def f(alpha):
        return 1.0 / math.sqrt(1.0 - m * math.sin(alpha) ** 2)

    res = integrate(f, 0.0, math.pi / 2.0, abs_tol=1e-13)
    assert elliptic_k(m) == pytest.approx(res.value, abs=5e-13)


def test_elliptic_k_domain():
    with pytest.raises(DomainError):
        elliptic_k(1.0)
    with pytest.raises(DomainError):
        elliptic_k(1.5)


def test_find_root_basic():
    root = find_root(lambda x: x * x - 2.0, 0.0, 2.0, tol=1e-15)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-14)
    root = find_root(math.cos, 1.0, 2.0, tol=1e-15)
    assert root == pytest.approx(math.pi / 2.0, abs=1e-14)
    print(f"root of cos on [1, 2] = {root:.16f}")


def test_find_root_endpoint_hits():
    assert find_root(lambda x: x, 0.0, 1.0) == 0.0
    assert find_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_find_root_requires_sign_change():
    with pytest.raises(NoSignChange):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_find_root_hard_bracket():
    # Steep function whose root sits close to one end of the bracket.
    g = lambda x: math.tanh(50.0 * (x - 0.99))
    assert find_root(g, 0.0, 1.0, tol=1e-14) == pytest.approx(0.99, abs=1e-12)


def test_fit_log_linear_exact_decay():
    pts = [(n, math.exp(-1.0 - 2.0 * n)) for n in range(1, 9)]
    fit = fit_log_linear(pts)
    print(f"fit: alpha = {fit.alpha:.12f}, beta = {fit.beta:.12f}, rms = {fit.residual:.2e}")
    assert fit.alpha == pytest.approx(1.0, abs=1e-12)
    assert fit.beta == pytest.approx(2.0, abs=1e-12)
    assert fit.residual < 1e-13


def test_fit_log_linear_noisy_decay():
    rng = np.random.default_rng(42)
    noise = rng.normal(0.0, 0.05, size=12)
    pts = [(n, math.exp(-0.3 - 1.7 * n + noise[i])) for i, n in enumerate(range(1, 13))]
    fit = fit_log_linear(pts)
    assert fit.beta == pytest.approx(1.7, abs=0.1)
    assert fit.residual < 0.1


def test_fit_log_linear_rejects_bad_input():
    with pytest.raises(DomainError):
        fit_log_linear([(1, 0.5)])
    with pytest.raises(DomainError):
        fit_log_linear([(1, 0.5), (2, -0.1)])
    with pytest.raises(DegenerateFit):
        fit_log_linear([(3, 0.5), (3, 0.25)])
