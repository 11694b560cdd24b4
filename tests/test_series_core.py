"""Checks for the expansion engine: moments, terms, stationarity, balancing."""

import math
from fractions import Fraction

import numpy as np
import pytest

from pmsdelta.errors import (
    AlreadyBalanced,
    DomainError,
    NonPositiveMean,
    NoSignChange,
    OrderTooHigh,
)
from pmsdelta.oracle import elliptic_k, integrate
from pmsdelta.series_core import (
    MAX_ORDER,
    IntegrandSpec,
    TrigPolynomial,
    _extrema,
    cos_moment,
    delta_of,
    expand,
    half_binomial,
    kappa_balance,
    pms_derivative_check,
    pms_first_order,
    pms_solve,
    term,
    trig_multiply,
)


def duffing_spec(rho, omega=None):
    """Quartic-anharmonic factor at unit amplitude; omega defaults to stationary."""
    factor = TrigPolynomial([0.5 + rho / 4.0, 0.0, rho / 4.0])
    if omega is None:
        omega = math.sqrt((4.0 + 3.0 * rho) / 8.0)
    return IntegrandSpec(-1.0, 1.0, factor, omega)


def test_half_binomial_values():
    assert half_binomial(0) == 1.0
    assert half_binomial(1) == -0.5
    assert half_binomial(2) == 0.375
    for n in range(MAX_ORDER + 1):
        direct = (-1.0) ** n * math.comb(2 * n, n) / 4.0**n
        assert half_binomial(n) == pytest.approx(direct, rel=1e-15)
    with pytest.raises(DomainError):
        half_binomial(-1)


def test_cos_moment_values():
    assert cos_moment(0) == math.pi
    assert cos_moment(1) == 0.0
    assert cos_moment(2) == pytest.approx(math.pi / 2.0, abs=1e-16)
    with pytest.raises(DomainError):
        cos_moment(-2)


@pytest.mark.parametrize("k", range(0, 41))
def test_cos_moment_matches_quadrature(k):
    res = integrate(lambda th: math.cos(th) ** k, 0.0, math.pi, abs_tol=1e-13)
    assert cos_moment(k) == pytest.approx(res.value, abs=1e-12)


def test_trig_multiply():
    one = TrigPolynomial([1.0])
    cos1 = TrigPolynomial([0.0, 1.0])
    assert trig_multiply(one, cos1).coeffs == (0.0, 1.0)
    assert trig_multiply(cos1, cos1).coeffs == (0.0, 0.0, 1.0)
    p = TrigPolynomial([1.0, 1.0])
    assert (p * p).coeffs == (1.0, 2.0, 1.0)


def test_trig_polynomial_basics():
    p = TrigPolynomial([1.0, 0.0, 2.0, 0.0])  # trailing zero trimmed
    assert p.coeffs == (1.0, 0.0, 2.0)
    assert p.degree == 2
    assert not p.is_zero
    assert TrigPolynomial([0.0, 0.0]).is_zero
    # Even in theta.
    assert p.evaluate(0.7) == pytest.approx(p.evaluate(-0.7), abs=1e-15)
    # Value agrees with direct evaluation.
    assert p.evaluate(0.3) == pytest.approx(1.0 + 2.0 * math.cos(0.3) ** 2, abs=1e-14)


def test_harmonic_conversion_round_trip():
    # cos(2 theta) = 2 cos^2 theta - 1.
    p = TrigPolynomial.from_harmonics([0.0, 0.0, 1.0])
    assert p.coeffs == pytest.approx((-1.0, 0.0, 2.0), abs=1e-15)
    q = TrigPolynomial([0.25, -1.5, 0.0, 3.0])
    back = TrigPolynomial.from_harmonics(q.to_harmonics())
    assert back.coeffs == pytest.approx(q.coeffs, abs=1e-14)
    theta = np.linspace(0.0, math.pi, 7)
    harm = q.to_harmonics()
    by_harmonics = sum(a * np.cos(k * theta) for k, a in enumerate(harm))
    assert np.allclose(q.evaluate(theta), by_harmonics, atol=1e-14)


def test_spec_validation():
    factor = TrigPolynomial([1.0])
    with pytest.raises(DomainError):
        IntegrandSpec(1.0, 1.0, factor, 1.0)
    with pytest.raises(DomainError):
        IntegrandSpec(2.0, 1.0, factor, 1.0)
    with pytest.raises(DomainError):
        IntegrandSpec(-1.0, 1.0, factor, 0.0)
    with pytest.raises(DomainError):
        IntegrandSpec(-1.0, 1.0, TrigPolynomial([-1.0, 0.0, 2.0]), 1.0)
    # Same factor accepted once tagged as non-regular.
    spec = IntegrandSpec(-1.0, 1.0, TrigPolynomial([-1.0, 0.0, 2.0]), 1.0, regular=False)
    assert spec.half_width == 1.0 and spec.midpoint == 0.0


def test_delta_of():
    omega = 1.3
    flat = IntegrandSpec(-1.0, 1.0, TrigPolynomial([omega**2]), omega)
    assert delta_of(flat).is_zero
    doubled = IntegrandSpec(-1.0, 1.0, TrigPolynomial([2.0 * omega**2]), omega)
    assert delta_of(doubled).coeffs == pytest.approx((1.0,), abs=1e-15)
    # Quartic case at the stationary frequency: deviation is cos(2 theta)/7.
    dev = delta_of(duffing_spec(1.0))
    assert dev.coeffs == pytest.approx((-1.0 / 7.0, 0.0, 2.0 / 7.0), abs=1e-15)
    assert dev.to_harmonics() == pytest.approx((0.0, 0.0, 1.0 / 7.0), abs=1e-15)


def test_term_zeroth_is_pi_over_omega():
    for spec in (duffing_spec(0.5), duffing_spec(10.0), duffing_spec(-0.9)):
        assert term(spec, 0) == math.pi / spec.omega


def test_term_first_vanishes_at_stationary_omega():
    for rho in (0.25, 1.0, 7.0, -0.5):
        spec = duffing_spec(rho)
        assert abs(term(spec, 1)) < 1e-14 * term(spec, 0)


def test_term_second_order_closed_form():
    spec = duffing_spec(1.0)
    expected = (math.pi / spec.omega) * (3.0 / 8.0) * 0.5 * (1.0 / 49.0)
    assert term(spec, 2) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("case", range(5))
def test_term_matches_quadrature_on_random_factors(case):
    rng = np.random.default_rng(1000 + case)
    deg = int(rng.integers(0, 7))
    coeffs = rng.uniform(-1.0, 1.0, size=deg + 1)
    coeffs[0] = rng.uniform(0.5, 2.0)
    factor = TrigPolynomial(coeffs)
    grid_min = float(np.min(factor.evaluate(np.linspace(0.0, math.pi, 512))))
    if grid_min <= 0.05:
        factor = factor.shifted(0.05 - grid_min)
    omega = float(rng.uniform(0.6, 1.8))
    spec = IntegrandSpec(-1.0, 1.0, factor, omega)
    dev = delta_of(spec)
    for n in range(7):
        analytic = term(spec, n)
        # The certification floor of the error estimate scales with the
        # integrand magnitude, which grows like |delta|_max^n here.
        res = integrate(
            lambda th: half_binomial(n) / omega * float(dev.evaluate(th)) ** n,
            0.0,
            math.pi,
            abs_tol=1e-12,
        )
        assert analytic == pytest.approx(res.value, rel=1e-10, abs=1e-12), f"n={n}"


def test_expand_harmonic_case():
    spec = IntegrandSpec(-1.0, 1.0, TrigPolynomial([4.0]), 2.0)
    series = expand(spec, 10)
    assert series.terms[0] == math.pi / 2.0
    assert all(t == 0.0 for t in series.terms[1:])
    assert all(s == math.pi / 2.0 for s in series.partial_sums)
    assert series.order == 10 and series.value == math.pi / 2.0


def test_expand_duffing_against_elliptic():
    rho = 10.0
    series = expand(duffing_spec(rho), 30)
    period = math.sqrt(2.0) * series.value
    exact = 4.0 / math.sqrt(1.0 + rho) * elliptic_k(rho / (2.0 * (1.0 + rho)))
    assert period == pytest.approx(exact, rel=1e-10)
    # Odd terms vanish at the stationary frequency, so S1 = S0 up to roundoff.
    assert series.partial_sums[1] == pytest.approx(series.partial_sums[0], rel=1e-14)


def test_expand_order_limits():
    spec = duffing_spec(1.0)
    with pytest.raises(DomainError):
        expand(spec, -1)
    with pytest.raises(OrderTooHigh):
        expand(spec, MAX_ORDER + 1)
    with pytest.raises(OrderTooHigh):
        term(spec, MAX_ORDER + 1)
    assert expand(spec, MAX_ORDER).order == MAX_ORDER


def even_power_spec(big_k, rho, kappa):
    """Even-power spec at unit amplitude with omega^2 = (1 + kappa rho)/2.

    rho = inf gives the strong-coupling problem scaled by 1/rho.
    """
    if math.isinf(rho):
        coeffs = [1.0 / (2 * big_k) if k % 2 == 0 else 0.0 for k in range(2 * big_k - 1)]
        omega_sq = kappa / 2.0
    else:
        coeffs = [rho / (2 * big_k) if k % 2 == 0 else 0.0 for k in range(2 * big_k - 1)]
        coeffs[0] += 0.5
        omega_sq = (1.0 + kappa * rho) / 2.0
    return IntegrandSpec(-1.0, 1.0, TrigPolynomial(coeffs), math.sqrt(omega_sq))


def mpmath_term(spec, n):
    """hb(n) pi/omega times the theta-mean of Delta^n, at 50 digits.

    Uses the same float coefficients and omega as the package, and the
    trapezoid rule on m = deg*n//2 + 1 intervals, which is exact for the
    polynomial Delta^n.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        coeffs = [mpmath.mpf(c) for c in reversed(spec.factor.coeffs)]
        omega = mpmath.mpf(spec.omega)
        m = spec.factor.degree * n // 2 + 1
        total = mpmath.mpf(0)
        for j in range(m + 1):
            delta = mpmath.polyval(coeffs, mpmath.cos(mpmath.pi * j / m)) / omega**2 - 1
            total += delta**n / (2 if j in (0, m) else 1)
        hb = Fraction((-1) ** n * math.comb(2 * n, n), 4**n)
        return hb.numerator * mpmath.pi * total / (hb.denominator * m * omega)


HIGH_ORDER_CASES = {
    "K5-strong-balanced": (5, math.inf, 0.6),
    "K3-rho-0.9-pms": (3, -0.9, 0.625),
    "K2-rho-0.9-pms": (2, -0.9, 0.75),
}


@pytest.mark.parametrize("order", [32, 48, 64])
@pytest.mark.parametrize("case", sorted(HIGH_ORDER_CASES))
def test_high_order_terms_match_mpmath(case, order):
    spec = even_power_spec(*HIGH_ORDER_CASES[case])
    reference = mpmath_term(spec, order)
    assert abs(term(spec, order) - reference) <= 1e-13 * abs(reference)
    assert abs(expand(spec, order).terms[-1] - reference) <= 1e-13 * abs(reference)


def test_omega_independence_of_limit():
    # Two admissible reference frequencies reach the same value.
    a = expand(duffing_spec(1.0, omega=math.sqrt(0.8)), 40).value
    b = expand(duffing_spec(1.0, omega=math.sqrt(0.875)), 40).value
    assert a == pytest.approx(b, abs=1e-8)


def test_pms_derivative_analytic_value():
    spec = IntegrandSpec(-1.0, 1.0, TrigPolynomial([1.69]), 1.3)
    assert pms_derivative_check(spec, 0) == pytest.approx(-math.pi / 1.69, rel=1e-14)


def test_pms_derivative_matches_finite_difference():
    rho, omega, order = 2.0, 1.0, 3
    h = 1e-5 * omega
    s_plus = expand(duffing_spec(rho, omega + h), order).value
    s_minus = expand(duffing_spec(rho, omega - h), order).value
    fd = (s_plus - s_minus) / (2.0 * h)
    analytic = pms_derivative_check(duffing_spec(rho, omega), order)
    assert fd == pytest.approx(analytic, rel=1e-6)


def test_pms_derivative_zero_at_stationary_odd_order():
    spec = duffing_spec(3.0)
    assert abs(pms_derivative_check(spec, 3)) < 1e-13


def test_pms_first_order_closed_forms():
    for rho in (0.0, 0.5, 4.0, -0.9):
        factor = TrigPolynomial([0.5 + rho / 4.0, 0.0, rho / 4.0])
        assert pms_first_order(factor) == pytest.approx(
            math.sqrt((4.0 + 3.0 * rho) / 8.0), rel=1e-14
        )
    for rho in (0.0, 1.0, 10.0):
        factor = TrigPolynomial([0.5 + rho / 6.0, 0.0, rho / 6.0, 0.0, rho / 6.0])
        assert pms_first_order(factor) == pytest.approx(
            math.sqrt(5.0 * rho + 8.0) / 4.0, rel=1e-14
        )
    assert pms_first_order(TrigPolynomial([2.25])) == 1.5
    with pytest.raises(NonPositiveMean):
        pms_first_order(TrigPolynomial([-1.0]))


def test_pms_solve_duffing():
    root = pms_solve(lambda w: duffing_spec(4.0, w), 1, (0.5, 3.0))
    assert root == pytest.approx(math.sqrt(2.0), rel=1e-12)
    # The third-order condition lands on the same frequency.
    root3 = pms_solve(lambda w: duffing_spec(4.0, w), 3, (0.5, 3.0))
    assert root3 == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_pms_solve_rejects_even_order_and_bad_bracket():
    with pytest.raises(DomainError):
        pms_solve(lambda w: duffing_spec(1.0, w), 2, (0.5, 3.0))
    with pytest.raises(DomainError):
        pms_solve(lambda w: duffing_spec(1.0, w), 1, (0.0, 3.0))
    with pytest.raises(NoSignChange):
        pms_solve(lambda w: duffing_spec(1.0, w), 1, (2.0, 3.0))


def even_power_deviation(big_k):
    """Strong-coupling deviation family for V ~ x^(2K): Delta = g/(K kappa) - 1."""

    def family(kappa):
        coeffs = [0.0] * (2 * big_k - 1)
        for j in range(big_k):
            coeffs[2 * j] = 1.0 / (big_k * kappa)
        return TrigPolynomial(coeffs).shifted(-1.0)

    return family


def exact_value(poly, c):
    """Polynomial value at c in rational arithmetic, rounded once."""
    return float(sum(Fraction(a) * Fraction(c) ** k for k, a in enumerate(poly.coeffs)))


def test_extrema_cos2theta_profile():
    poly = TrigPolynomial.from_harmonics([0.0, 0.0, 0.3])  # 0.3 cos(2 theta)
    hi, lo = _extrema(poly)
    assert hi == exact_value(poly, 1.0)
    assert lo == exact_value(poly, 0.0)
    assert (hi, lo) == pytest.approx((0.3, -0.3), abs=1e-16)


def test_extrema_k5_strong_coupling_at_kappa_06():
    poly = even_power_deviation(5)(0.6)
    hi, lo = _extrema(poly)
    # Extremes at theta = 0 (c = 1) and theta = pi/2 (c = 0).
    assert abs(hi - exact_value(poly, 1.0)) <= math.ulp(hi)
    assert lo == exact_value(poly, 0.0)
    assert (hi, lo) == pytest.approx((2.0 / 3.0, -2.0 / 3.0), abs=1e-15)


def test_kappa_balance_k5():
    family = even_power_deviation(5)
    kappa_b = kappa_balance(family, (0.4, 0.9))
    assert kappa_b == pytest.approx(0.6, abs=1e-10)
    # Balanced: extrema of equal magnitude, both below 1.
    grid = np.linspace(0.0, math.pi, 4001)
    vals = family(kappa_b).evaluate(grid)
    assert np.max(np.abs(vals)) == pytest.approx(2.0 / 3.0, abs=1e-9)
    # The first-order stationary kappa overshoots: |Delta| tops 1.
    kappa_pms = sum(math.comb(2 * j, j) / 4.0**j for j in range(5)) / 5.0
    assert kappa_pms == pytest.approx(63.0 / 128.0, rel=1e-15)
    vals_pms = family(kappa_pms).evaluate(grid)
    assert np.max(np.abs(vals_pms)) > 1.0


def test_kappa_balance_degenerate_case():
    # Deviation proportional to cos(2 theta) is balanced for every kappa.
    def family(kappa):
        return TrigPolynomial.from_harmonics([0.0, 0.0, kappa / (1.0 + kappa)])

    with pytest.warns(AlreadyBalanced):
        kappa = kappa_balance(family, (0.2, 0.8))
    assert kappa == pytest.approx(0.5, abs=1e-15)


def test_kappa_balance_constant_family():
    # A constant Delta has no derivative roots; its extrema are the constant.
    assert _extrema(TrigPolynomial([0.25])) == (0.25, 0.25)
    kappa = kappa_balance(lambda k: TrigPolynomial([k - 0.5]), (0.0, 1.0))
    assert kappa == 0.5


def test_kappa_balance_no_sign_change():
    family = even_power_deviation(5)
    with pytest.raises(NoSignChange):
        kappa_balance(family, (0.7, 0.9))
