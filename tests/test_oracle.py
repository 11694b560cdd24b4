"""Checks for the ground-truth numerics: quadrature, AGM, fitting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmsdelta.errors import DegenerateFit, DomainError, NonFiniteIntegrand, ToleranceNotMet
from pmsdelta import oracle
from pmsdelta.oracle import elliptic_k, fit_log_linear, integrate


def _newton_zeros(mpmath, coeffs, guesses):
    """Zeros of the polynomial sum coeffs[k] x^k, by Newton from each guess."""
    slope = [k * c for k, c in enumerate(coeffs)][1:]
    zeros = []
    for x in guesses:
        for _ in range(100):
            step = mpmath.polyval(coeffs[::-1], x) / mpmath.polyval(slope[::-1], x)
            x -= step
            if abs(step) < mpmath.mpf(10) ** -45:
                break
        zeros.append(x)
    return zeros


def _interpolatory_weights(mpmath, nodes):
    """Weights w with sum_i w_i P_k(x_i) = integral of P_k over [-1, 1], k < n."""
    n = len(nodes)
    system = mpmath.matrix([[mpmath.legendre(k, x) for x in nodes] for k in range(n)])
    return list(mpmath.lu_solve(system, mpmath.matrix([2] + [0] * (n - 1))))


def test_gauss_kronrod_literals_are_correctly_rounded():
    # G10/K21 derived at 50 digits (Laurie, Math. Comp. 66 (1997) 1133): the
    # Gauss nodes by Newton on P_10; the Kronrod-only nodes as the zeros of
    # the Stieltjes polynomial E_11, the odd monic polynomial orthogonal to
    # every degree <= 10 under the weight P_10, one between each pair of
    # neighbouring Gauss nodes and the ends; interpolatory weights.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        mpf = mpmath.mpf
        p_prev, p10 = [mpf(1)], [mpf(0), mpf(1)]
        for m in range(1, 10):
            nxt = [mpf(0)] + [mpf(2 * m + 1) / (m + 1) * c for c in p10]
            for k, c in enumerate(p_prev):
                nxt[k] -= mpf(m) / (m + 1) * c
            p_prev, p10 = p10, nxt
        gauss = sorted(
            _newton_zeros(
                mpmath, p10, [mpmath.cos(mpmath.pi * (k - 0.25) / 10.5) for k in range(1, 11)]
            )
        )

        def moment(m):  # integral of x^m P_10(x) over [-1, 1]
            return mpmath.fsum(2 * c / (k + m + 1) for k, c in enumerate(p10) if (k + m) % 2 == 0)

        odd = (1, 3, 5, 7, 9)
        lower = mpmath.lu_solve(
            mpmath.matrix([[moment(k + j) for j in odd] for k in odd]),
            mpmath.matrix([-moment(k + 11) for k in odd]),
        )
        e11 = [mpf(0)] * 11 + [mpf(1)]
        for j, c in zip(odd, lower):
            e11[j] = c
        ends = [mpf(-1)] + gauss + [mpf(1)]
        kronrod = _newton_zeros(mpmath, e11, [(a + b) / 2 for a, b in zip(ends, ends[1:])])
        assert all(a < x < b for a, x, b in zip(ends, kronrod, ends[1:]))
        nodes = sorted(gauss + kronrod)
        kronrod_weights = _interpolatory_weights(mpmath, nodes)
        gauss_weights = _interpolatory_weights(mpmath, gauss)

        assert oracle._NODES == tuple(float(x) for x in nodes)
        assert oracle._KRONROD_WEIGHTS == tuple(float(w) for w in kronrod_weights)
        expected_gauss = [0.0] * 21
        expected_gauss[1::2] = [float(w) for w in gauss_weights]
        assert oracle._GAUSS_WEIGHTS == tuple(expected_gauss)
        assert oracle._PANEL_COST == 21


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
        assert res.evaluations >= oracle._PANEL_COST


def test_integrate_polynomials_near_exact():
    # A single 21-point Kronrod panel already integrates degree <= 31 exactly;
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
    # A NaN tolerance compares false with everything, so no error estimate
    # could ever be checked against it.
    with pytest.raises(DomainError, match="abs_tol"):
        integrate(lambda x: x**-0.5 if x > 0 else 0.0, 0.0, 1.0, abs_tol=math.nan)


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


def test_integrate_overflow_is_typed():
    # One panel whose estimate leaves the float range.
    with pytest.raises(NonFiniteIntegrand):
        integrate(lambda x: 1e308, 0.0, 4.0)
    # Finite panels whose sum leaves it: math.fsum's OverflowError is typed.
    with pytest.raises(NonFiniteIntegrand):
        integrate(lambda x: 6e307 * (0.5 + 0.5 * math.cos(15.0 * x)), 0.0, 8.0, max_evals=10**4)


def test_two_pi_numerator_is_within_1e_76_of_two_pi():
    mpmath = pytest.importorskip("mpmath")
    assert oracle._TWO_PI_DENOMINATOR == 10**76
    with mpmath.workdps(90):
        scaled = mpmath.mpf(oracle._TWO_PI_NUMERATOR) / mpmath.mpf(10) ** 76
        assert abs(scaled - 2 * mpmath.pi) < mpmath.mpf("1e-76")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    x=st.one_of(
        st.floats(min_value=1e-300, max_value=1e300), st.floats(min_value=-1e300, max_value=-1e-300)
    ),
    t=st.floats(min_value=-1.0, max_value=1.0),
)
def test_times_two_pi_is_correctly_rounded(x, t):
    mpmath = pytest.importorskip("mpmath")
    low = t * math.ulp(x)
    with mpmath.workdps(50):
        exact = 2 * mpmath.pi * (mpmath.mpf(x) + mpmath.mpf(low))
        assert oracle._times_two_pi(x, low) == float(exact)


@pytest.mark.parametrize("s", [0.5, 3.0, 30.0])
def test_periodic_trapezoid_matches_a_closed_form(s):
    # The integral of 1/(1 + s cos^2(theta)) over [0, 2 pi] is
    # 2 pi/sqrt(1 + s); its poles lie asinh(1/sqrt(s)) from the real axis.
    mpmath = pytest.importorskip("mpmath")
    nodes = []

    def f(c, u):
        nodes.append((c, u))
        return 1.0 / (1.0 + s * c)

    result = oracle._periodic_trapezoid(f, rel_tol=1e-14)
    with mpmath.workdps(50):
        exact = 2 * mpmath.pi / mpmath.sqrt(1 + mpmath.mpf(s))
        assert abs(result.value - exact) <= 1e-15 * exact
    assert result.error_estimate <= 1e-14 * result.value
    # Each level reuses every earlier sample: the nodes are those of the
    # finest level on [0, pi/2], each taken once, at cos^2 and sin^2 of it.
    panels = result.evaluations - 1
    assert panels in (16, 32, 64, 128)
    assert len(nodes) == result.evaluations == len(set(nodes))
    grid = [0.5 * math.pi * j / panels for j in range(panels + 1)]
    assert sorted(nodes, reverse=True) == [
        (pytest.approx(math.cos(t) ** 2, rel=0.0, abs=1e-15),
         pytest.approx(math.sin(t) ** 2, rel=0.0, abs=1e-15))
        for t in grid
    ]


def test_trapezoid_levels_square_cos_and_sin_of_their_nodes():
    # The first level takes both ends and its inner nodes, each later level
    # the midpoints of the one before, with the node expressions of the
    # rule's theta form, so each value is the square of math.cos or math.sin
    # of the same float.
    quarter = 0.5 * math.pi
    thetas = {8: [0.0, quarter, *(quarter * j / 8 for j in range(1, 8))]}
    for panels in (16, 32, 64, 128, 1024):
        thetas[panels] = [quarter * (2 * j + 1) / panels for j in range(panels // 2)]
    for panels, nodes in thetas.items():
        cs, ss = oracle._trapezoid_level(panels)
        assert cs == tuple(math.cos(t) * math.cos(t) for t in nodes)
        assert ss == tuple(math.sin(t) * math.sin(t) for t in nodes)
        assert oracle._trapezoid_level(panels) is oracle._trapezoid_level(panels)


def test_periodic_trapezoid_budget_and_non_finite_values():
    # Poles 1e-3 from the real axis would need about 15000 samples.
    with pytest.raises(ToleranceNotMet):
        oracle._periodic_trapezoid(
            lambda c, u: 1.0 / (1.0 + 1e6 * c), rel_tol=1e-14, max_evals=1000
        )
    for f in (
        lambda c, u: math.nan,
        lambda c, u: 1e308,  # the sum leaves the float range
        lambda c, u: math.inf if c == 1.0 else -math.inf,
    ):
        with pytest.raises(NonFiniteIntegrand):
            oracle._periodic_trapezoid(f, rel_tol=1e-14)


def test_elliptic_k_special_values():
    assert elliptic_k(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
    # K(1/2) to machine precision (AGM is quadratically convergent).
    assert elliptic_k(0.5) == pytest.approx(1.8540746773013719, abs=1e-15)
    print(f"K(0.5) = {elliptic_k(0.5):.16f}")
    assert elliptic_k(-math.inf) == 0.0


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
    with pytest.raises(DomainError):
        elliptic_k(math.nan)


def test_elliptic_k_matches_mpmath_across_its_range():
    mpmath = pytest.importorskip("mpmath")
    ms = [-(10.0**k) for k in np.linspace(-6.0, 6.0, 49)]
    ms += [1.0 - 10.0**-k for k in np.linspace(0.0, 12.0, 49)]
    with mpmath.workdps(50):
        for m in ms:
            reference = mpmath.ellipk(mpmath.mpf(m))
            assert abs(elliptic_k(m) - reference) <= 1e-15 * reference, m


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
    with pytest.raises(DomainError):
        fit_log_linear([(1, 0.5), (2, math.inf)])
    with pytest.raises(DomainError):
        fit_log_linear([(1, 0.5), (math.inf, 0.25)])
    with pytest.raises(DegenerateFit):
        fit_log_linear([(3, 0.5), (3, 0.25)])
