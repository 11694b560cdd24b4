"""Checks for the expansion engine: moments, terms, stationarity, extrema."""

import contextlib
import json
import math
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pmsdelta.errors import DomainError, NonPositiveMean, OrderTooHigh
from pmsdelta.oracle import elliptic_k, integrate
from pmsdelta import series_core
from pmsdelta.oscillators import (
    OscillatorModel,
    _even_power_spec,
    even_power_kappa_balanced,
    even_power_kappa_pms,
    even_power_series,
    pendulum_approx,
)
from pmsdelta.series_core import (
    MAX_ORDER,
    IntegrandSpec,
    TrigPolynomial,
    _horner,
    _node_cosines,
    _positivity_cosines,
    _term_weights,
    cos_moment,
    expand,
    half_binomial,
    pms_derivative_check,
    pms_first_order,
    term,
)
from trig_extrema import extrema


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
    for n in range(513):
        assert half_binomial(n) == float(Fraction((-1) ** n * math.comb(2 * n, n), 4**n)), n
    with pytest.raises(DomainError):
        half_binomial(-1)


def test_cos_moment_values():
    assert cos_moment(0) == math.pi
    assert cos_moment(1) == 0.0
    assert cos_moment(2) == pytest.approx(math.pi / 2.0, abs=1e-16)
    for k in range(0, 513, 2):
        assert cos_moment(k) == math.pi * float(Fraction(math.comb(k, k // 2), 2**k)), k
    with pytest.raises(DomainError):
        cos_moment(-2)


@pytest.mark.parametrize("k", range(0, 41))
def test_cos_moment_matches_quadrature(k):
    res = integrate(lambda th: math.cos(th) ** k, 0.0, math.pi, abs_tol=1e-13)
    assert cos_moment(k) == pytest.approx(res.value, abs=1e-12)


def test_trig_polynomial_basics():
    p = TrigPolynomial([1.0, 0.0, 2.0, 0.0])  # trailing zero trimmed
    assert p.coeffs == (1.0, 0.0, 2.0)
    assert p.degree == 2
    assert TrigPolynomial([0.0, 0.0]).coeffs == (0.0,)
    assert TrigPolynomial([]).coeffs == (0.0,)
    # Even in theta.
    assert p.evaluate(0.7) == pytest.approx(p.evaluate(-0.7), abs=1e-15)
    # Value agrees with direct evaluation.
    assert p.evaluate(0.3) == pytest.approx(1.0 + 2.0 * math.cos(0.3) ** 2, abs=1e-14)


def test_scalar_evaluate_matches_array_path_bitwise():
    # The scalar path (math.cos, Horner in Python), the array path and the
    # positivity check's cached grid must each give numpy's polyval to the
    # bit, signed zeros included.
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, math.pi, 512)
    theta = np.concatenate(([0.0, math.pi / 2.0, math.pi], rng.uniform(0.0, math.pi, 1000), grid))
    for degree in range(13):
        p = TrigPolynomial(rng.uniform(-2.0, 2.0, degree + 1))
        reference = np.polynomial.polynomial.polyval(np.cos(theta), p.coeffs).view(np.uint64)
        scalar = np.array([p.evaluate(float(t)) for t in theta])
        assert np.array_equal(scalar.view(np.uint64), reference)
        assert np.array_equal(p.evaluate(theta).view(np.uint64), reference)
        on_grid = _horner(p.coeffs, _positivity_cosines())
        assert np.array_equal(on_grid.view(np.uint64), reference[-grid.size:])


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_scalar_evaluate_rejects_non_finite_theta(theta):
    with pytest.raises(DomainError):
        TrigPolynomial([1.0, 0.5]).evaluate(theta)


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
    spec = IntegrandSpec(-1.0, 1.0, factor, 1.0)
    assert (spec.x_minus, spec.x_plus, spec.factor, spec.omega) == (-1.0, 1.0, factor, 1.0)


@pytest.mark.parametrize("omega", [math.inf, -math.inf, math.nan, -1.0])
def test_spec_requires_finite_positive_omega(omega):
    with pytest.raises(DomainError):
        IntegrandSpec(-1.0, 1.0, TrigPolynomial([1.0]), omega)
    with pytest.raises(DomainError):
        IntegrandSpec(-1.0, 1.0, TrigPolynomial([1.0]), 1.0).with_omega(omega)


def test_positivity_product_verdict_matches_horner_on_grid():
    # The spec's check, a coefficient bound or else Horner on the grid, must
    # give the verdict that Horner on the grid gives.
    rng = np.random.default_rng(11)
    verdicts = set()
    for case in range(400):
        degree = case % 13
        coeffs = rng.uniform(-1.0, 1.0, degree + 1)
        coeffs[0] += rng.uniform(0.0, 2.0)
        factor = TrigPolynomial(coeffs)
        positive = bool((_horner(factor.coeffs, _positivity_cosines()) > 0.0).all())
        verdicts.add(positive)
        if positive:
            IntegrandSpec(-1.0, 1.0, factor, 1.0)
        else:
            with pytest.raises(DomainError, match="not strictly positive"):
                IntegrandSpec(-1.0, 1.0, factor, 1.0)
    assert verdicts == {True, False}


def test_factor_non_positive_at_one_grid_node_is_refused():
    cosines = _positivity_cosines()
    a = float(cosines[200])
    factors = [
        TrigPolynomial([1.0, -1.0]),  # 1 - cos: zero at theta = 0 only
        TrigPolynomial([1.0, 1.0]),  # 1 + cos: zero at theta = pi only
        TrigPolynomial([a * a - 1e-8, -2.0 * a, 1.0]),  # (cos - a)^2 - 1e-8
    ]
    for factor in factors:
        assert int((_horner(factor.coeffs, cosines) <= 0.0).sum()) == 1
        with pytest.raises(DomainError, match="not strictly positive"):
            IntegrandSpec(-1.0, 1.0, factor, 1.0)


@contextlib.contextmanager
def grid_calls():
    """A list that gains an entry each time a spec takes its factor on the grid."""
    calls = []
    grid = series_core._positivity_cosines
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series_core, "_positivity_cosines", lambda: calls.append(1) or grid())
        yield calls


@st.composite
def factors_near_the_bound(draw):
    """Coefficients of degree 0-12 whose odd and even (k >= 2) terms each
    share a drawn sign, with c_0 a few rounding margins from where the bound
    c_0 - sum_{k odd} |c_k| + sum_{k even >= 2} min(c_k, 0) is zero."""
    degree = draw(st.integers(0, 12))
    signs = draw(st.sampled_from((-1.0, 1.0))), draw(st.sampled_from((-1.0, 1.0)))
    scale = draw(st.sampled_from((1e-300, 1e-8, 1.0, 1e8, 1e300)))
    sizes = draw(st.lists(st.floats(0.0, 1.0), min_size=degree, max_size=degree))
    rest = [scale * signs[k % 2] * size for k, size in enumerate(sizes)]  # c_1, c_2, ...
    at_zero = sum(map(abs, rest[0::2])) - sum(min(c, 0.0) for c in rest[1::2])
    margin = 1e-15 * (degree + 1) * max(at_zero + sum(map(abs, rest)), scale)
    gap = draw(st.floats(-3.0, 3.0) | st.floats(-1e6, 1e6))
    return [at_zero + gap * margin, *rest]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(factors_near_the_bound())
@example([1.0, 0.5, -0.25])
@example([1.0 - 1e-15, 0.5, -0.5])
def test_a_factor_the_bound_accepts_is_positive(coeffs):
    factor = TrigPolynomial(coeffs)
    with grid_calls() as calls:
        try:
            IntegrandSpec(-1.0, 1.0, factor, 1.0)
            accepted = True
        except DomainError:
            accepted = False
    on_grid = _horner(factor.coeffs, _positivity_cosines())
    if calls:
        # The bound did not decide: the grid did.
        assert accepted == bool((on_grid > 0.0).all())
        return
    # The bound accepted: it is positive in exact arithmetic, and so is R on
    # the spec's grid, on a finer one, and at its exact minimum.
    c = [Fraction(x) for x in factor.coeffs]
    assert c[0] - sum(map(abs, c[1::2])) + sum(min(x, 0) for x in c[2::2]) > 0
    fine = np.cos(np.linspace(0.0, math.pi, 2**16))
    assert (on_grid > 0.0).all() and (_horner(factor.coeffs, fine) > 0.0).all()
    assert extrema(factor)[1] > 0.0


@pytest.mark.parametrize(
    "coeffs, positive",
    [
        ([1.0, -1.0], False),  # bound 1 - 1 = 0; R = 0 at theta = 0
        ([1.0, 0.0, -1.0], False),  # bound 1 - 1 = 0; R = 0 at theta = 0 and pi
        ([1e-3, 0.0, 1.0, 0.0, -1.0], True),  # bound < 0; R = 1e-3 + c^2 (1 - c^2)
        # c_3 is odd, so it counts as -0.5: as an even term it would count as
        # 0 and the bound would accept a factor with R(pi) = -0.1.
        ([0.4, 0.0, 0.0, 0.5], False),
    ],
)
def test_factors_the_bound_leaves_to_the_grid(coeffs, positive):
    factor = TrigPolynomial(coeffs)
    with grid_calls() as calls:
        if positive:
            IntegrandSpec(-1.0, 1.0, factor, 1.0)
        else:
            with pytest.raises(DomainError, match="not strictly positive"):
                IntegrandSpec(-1.0, 1.0, factor, 1.0)
    assert len(calls) == 1


def _quartic_cubic_cell(a2, a4, x_minus, x_plus):
    """The quartic-cubic well through the turning points, V(x-) = V(x+)."""
    a3 = -(a2 * (x_plus**2 - x_minus**2) + a4 * (x_plus**4 - x_minus**4)) / (
        x_plus**3 - x_minus**3
    )
    return OscillatorModel.quartic_cubic(a2, a3, a4, x_minus, x_plus)


# The benchmark's cubic cells (x-, x+) and quartic-cubic cells (a2, a4, x-, x+).
CUBIC_CELLS = ((-0.2, 0.15), (-0.5, 0.55), (-0.8, 0.6), (-0.85, 0.9))
QUARTIC_CUBIC_CELLS = (
    (0.5, 0.1, -0.5, 0.6), (0.8, 0.3, -1.0, 0.8), (0.4, 0.2, -0.7, 1.1), (0.9, 0.05, -1.1, 1.0),
)


def test_the_families_take_the_grid_only_near_a_zero_of_the_factor():
    # The specs of the families' usual inputs (both kappa rules for the even
    # powers, the benchmark's cubic and quartic-cubic cells) are accepted by
    # the coefficient bound, with no grid.
    models = [OscillatorModel.pendulum(a, 2) for a in (0.5, 1.5, 3.1)]
    models += [OscillatorModel.pendulum(a, 4) for a in (0.5, 1.5, 2.4)]
    models += [OscillatorModel.pendulum(a, 6) for a in (0.5, 1.5, 2.5, 2.8)]
    models += [OscillatorModel.cubic(*points) for points in CUBIC_CELLS]
    models += [_quartic_cubic_cell(*cell) for cell in QUARTIC_CUBIC_CELLS]
    with grid_calls() as calls:
        for K in (2, 3, 5, 64, 1024):
            for rho in (-1.0 + 1e-9, -0.9, 0.0, 0.5, 3.0, 1e300, math.inf):
                for kappa in (even_power_kappa_pms(K), even_power_kappa_balanced(K)):
                    _even_power_spec.__wrapped__(K, rho, kappa)
        for model in models:
            model.spec_at()
        assert calls == []
        # Near a zero of the factor the bound falls below its margin.
        _even_power_spec.__wrapped__(5, -1.0 + 1e-15, even_power_kappa_pms(5))
        assert len(calls) == 1
        OscillatorModel.pendulum(3.1, 6).spec_at()
        assert len(calls) == 2


def test_cached_tables_are_read_only():
    for table in (
        _positivity_cosines(),
        _node_cosines(17, 2),
        _term_weights(),
    ):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0


def test_a_sweep_over_exponents_stays_within_the_cache_bounds():
    # One node set per factor degree: 69 degrees are more than the cache
    # holds, so the sweep evicts, and the cache does not grow past its bound.
    _node_cosines.cache_clear()
    for K in range(2, 71):
        for n in (1, 2):
            even_power_series(K, math.inf, (K + 1) / (2 * K), n)
    info = _node_cosines.cache_info()
    assert info.misses > info.maxsize
    assert info.currsize <= info.maxsize


@pytest.mark.parametrize(
    "coeffs", [[1.0, math.inf, -math.inf], [math.nan, 0.0, 1.0], [1.0, 0.0, math.inf]]
)
def test_spec_refuses_non_finite_factor_coefficients(coeffs):
    with pytest.raises(DomainError, match="finite"):
        IntegrandSpec(-1.0, 1.0, TrigPolynomial(coeffs), 1.0)


@pytest.mark.parametrize("omega", [1e-200, 1e-160, 1e200])
def test_spec_refuses_omega_whose_square_leaves_the_float_range(omega):
    # 1e-200 squares to 0, 1e-160 to a subnormal whose reciprocal is inf,
    # 1e200 to inf.
    with pytest.raises(DomainError, match="float range"):
        IntegrandSpec(-1.0, 1.0, TrigPolynomial([1.0, 0.0, 1.0]), omega)


def test_spec_refuses_delta_outside_the_float_range():
    with pytest.raises(DomainError, match="float range"):
        expand(IntegrandSpec(-1.0, 1.0, TrigPolynomial([1e300, 0.0, 1e300]), 1e-10), 8)


def test_non_finite_term_raises_domain_error():
    # Delta is about 1e300 on every node, so Delta^2 overflows.
    spec = IntegrandSpec(-1.0, 1.0, TrigPolynomial([1e300, 0.0, 1e300]), 1.0)
    assert math.isfinite(term(spec, 1))
    with pytest.raises(DomainError, match="float range"):
        expand(spec, 8)
    with pytest.raises(DomainError, match="float range"):
        term(spec, 2)


def node_rule_terms(spec):
    """Terms I_0..I_MAX_ORDER by the engine's rule, written out plainly.

    One node set per spec: m = (deg(Delta)/s) MAX_ORDER/2 + 1 midpoint nodes,
    Delta sampled by _horner in c = cos^s(theta) (s = 2 when Delta holds only
    even powers of cos(theta)), and the cumulative product of the samples.
    """
    coeffs = spec.delta.coeffs
    s = 1 if any(coeffs[1::2]) else 2
    m = (len(coeffs) - 1) // s * MAX_ORDER // 2 + 1
    powers = np.empty((MAX_ORDER + 1, m))
    powers[0] = 1.0
    powers[1:] = _horner(coeffs[::s], _node_cosines(m, s))
    np.cumprod(powers, axis=0, out=powers)
    return _term_weights() * (powers.sum(axis=1) / m) / spec.omega


def test_in_place_samples_keep_polyval_bits():
    # The engine's in-place Horner must give the terms that sampling Delta
    # with _horner on the spec's one node set and taking the same cumulative
    # product gives, to the bit, at every order of a fresh spec.
    rng = np.random.default_rng(5)
    specs = [duffing_spec(rho) for rho in (-0.9, 0.5, 10.0)]
    for degree in range(9):
        coeffs = rng.uniform(-0.3, 0.3, degree + 1)
        coeffs[0] = 1.0
        specs.append(IntegrandSpec(-1.0, 1.0, TrigPolynomial(coeffs), 1.05))
        coeffs[1::2] = 0.0
        specs.append(IntegrandSpec(-1.0, 1.0, TrigPolynomial(coeffs), 1.05))
    for spec in specs:
        reference = node_rule_terms(spec)
        for order in (0, 1, 2, 9, 40, MAX_ORDER):
            engine = np.array(expand(spec.with_omega(spec.omega), order).terms)
            assert np.array_equal(engine.view(np.uint64), reference[: order + 1].view(np.uint64))


def test_value_and_partial_sums_are_fsums():
    for spec in (duffing_spec(10.0), duffing_spec(-0.9), duffing_spec(3.0, 1.2)):
        series = expand(spec, 40)
        assert series.value == math.fsum(series.terms)
        sums = series.partial_sums
        assert len(sums) == 41
        for k, partial in enumerate(sums):
            assert partial == math.fsum(series.terms[: k + 1])


def test_delta_of():
    omega = 1.3
    flat = IntegrandSpec(-1.0, 1.0, TrigPolynomial([omega**2]), omega)
    assert flat.delta.coeffs == (0.0,)
    doubled = IntegrandSpec(-1.0, 1.0, TrigPolynomial([2.0 * omega**2]), omega)
    assert doubled.delta.coeffs == pytest.approx((1.0,), abs=1e-15)
    # Quartic case at the stationary frequency: deviation is cos(2 theta)/7.
    dev = duffing_spec(1.0).delta
    assert dev.coeffs == pytest.approx((-1.0 / 7.0, 0.0, 2.0 / 7.0), abs=1e-15)


def test_term_zeroth_is_pi_over_omega():
    # Even factors take the half-range nodes, the generic one the full range.
    generic = IntegrandSpec(-1.0, 1.0, TrigPolynomial([0.9, 0.3, 0.2, -0.1]), 1.1)
    for spec in (duffing_spec(0.5), duffing_spec(10.0), duffing_spec(-0.9), generic):
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
        coeffs[0] += 0.05 - grid_min
        factor = TrigPolynomial(coeffs)
    omega = float(rng.uniform(0.6, 1.8))
    spec = IntegrandSpec(-1.0, 1.0, factor, omega)
    dev = spec.delta
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


@pytest.mark.parametrize("order", [2.5, math.nan, -0.5])
def test_non_integral_order_is_refused(order):
    spec = duffing_spec(1.0)
    for call in (expand, term):
        with pytest.raises(DomainError):
            call(spec, order)


def test_integral_float_order_is_the_int_order():
    spec = duffing_spec(1.0)
    assert term(spec, 2.0) == term(spec, 2)
    assert expand(spec, float(MAX_ORDER)) == expand(spec, MAX_ORDER)
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
    trapezoid rule on m = deg*n//2 + 1 intervals over [0, pi], which is
    exact for the polynomial Delta^n.  The engine takes midpoint nodes, so
    the two share no node.
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
    # Delta in cos^2(theta): half-range nodes.
    "K5-strong-balanced": lambda: even_power_spec(5, math.inf, 0.6),
    "K3-rho-0.9-pms": lambda: even_power_spec(3, -0.9, 0.625),
    "K2-rho-0.9-pms": lambda: even_power_spec(2, -0.9, 0.75),
    "pendulum-taylor6": lambda: OscillatorModel.pendulum(2.5, 6).spec_at(),
    # Odd powers of cos(theta) in Delta: full-range nodes.
    "quartic-cubic": lambda: OscillatorModel.quartic_cubic(
        0.5, 0.1, 0.1, -0.6474066047756843, 0.5812792030865791
    ).spec_at(),
    "cubic-linear": lambda: OscillatorModel.cubic(-1.0, 1.366).spec_at(),
}


@pytest.mark.parametrize("order", [32, 48, 64])
@pytest.mark.parametrize("case", sorted(HIGH_ORDER_CASES))
def test_high_order_terms_match_mpmath(case, order):
    spec = HIGH_ORDER_CASES[case]()
    reference = mpmath_term(spec, order)
    assert abs(term(spec, order) - reference) <= 1e-13 * abs(reference)
    assert abs(expand(spec, order).terms[-1] - reference) <= 1e-13 * abs(reference)


def history_specs():
    """Specs of every shape the families build, each as a factory of fresh
    copies: a fresh spec holds no expansion yet."""
    cases = {}
    for K in (2, 3, 4, 5):
        for rule in ("pms", "balanced"):
            kappa = even_power_kappa_pms(K) if rule == "pms" else even_power_kappa_balanced(K)
            for rho in (-0.9, 0.5, math.inf):
                cases[f"K{K}-{rule}-rho{rho}"] = even_power_spec(K, rho, kappa)
    for taylor in (2, 4, 6):
        cases[f"pendulum-taylor{taylor}"] = OscillatorModel.pendulum(1.7, taylor).spec_at()
    cases["cubic"] = OscillatorModel.cubic(-1.0, 1.366).spec_at()
    cases["quartic-cubic"] = HIGH_ORDER_CASES["quartic-cubic"]()
    assert any(spec.delta.coeffs[1::2] for spec in cases.values())
    return {name: (lambda spec=spec: spec.with_omega(spec.omega)) for name, spec in cases.items()}


HISTORY_SPECS = history_specs()


@pytest.mark.parametrize("case", sorted(HISTORY_SPECS))
def test_terms_do_not_depend_on_the_call_history(case):
    fresh = HISTORY_SPECS[case]
    full = expand(fresh(), MAX_ORDER).terms
    assert all(map(math.isfinite, full))
    rng = np.random.default_rng(len(case))
    shuffled = [int(n) for n in rng.permutation(MAX_ORDER + 1)]
    histories = {
        "ascending": list(range(MAX_ORDER + 1)),
        "descending": list(range(MAX_ORDER, -1, -1)),
        "shuffled": shuffled,
        "mixed": [3, 1, 17, 0, 64, 5],
    }
    for name, orders in histories.items():
        spec = fresh()
        for n in orders:
            assert expand(spec, n).terms == full[: n + 1], (name, n)
        spec = fresh()
        for n in orders:
            assert term(spec, n) == full[n], (name, n)
    # A lone call at each order, and a term read from a spec that expand filled.
    for n in (1, 2, 25, 63):
        assert expand(fresh(), n).terms == full[: n + 1]
        assert term(fresh(), n) == full[n]
    spec = fresh()
    expand(spec, 20)
    assert [term(spec, n) for n in range(MAX_ORDER + 1)] == list(full)


@pytest.mark.parametrize(
    "K, rho, kappa", [(2, 1.0, 0.75), (3, -0.9, 0.625), (5, math.inf, 0.6), (8, 0.5, 0.5625)]
)
def test_a_per_order_table_is_the_partial_sums_of_one_expansion(K, rho, kappa):
    N = 48
    table = [even_power_series(K, rho, kappa, n) for n in range(N + 1)]
    spec = even_power_spec(K, rho, kappa)
    sums = expand(spec, N).partial_sums
    assert table == [math.sqrt(2.0) * s for s in sums]
    pendulum = [pendulum_approx(2.5, 6, n) for n in range(N + 1)]
    sums = expand(OscillatorModel.pendulum(2.5, 6).spec_at(), N).partial_sums
    assert pendulum == [math.sqrt(2.0) * s for s in sums]


@contextlib.contextmanager
def kernel(pure):
    """Runs the engine's pure-Python kernels (pure=True) or its numpy
    kernels, whatever the work and whether numpy is loaded."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series_core, "_pure_fits", lambda work: pure)
        yield


def bits(values):
    return np.array(values, dtype=float).view(np.uint64).tolist()


def kernel_families():
    """{family: factory of its specs} over every family the package builds,
    plus two specs whose terms leave the float range."""
    families = {}
    for K in (2, 3, 4, 5, 8, 16, 64):
        rules = {"pms": even_power_kappa_pms(K), "balanced": even_power_kappa_balanced(K)}
        for rule, kappa in {**rules, "0.3": 0.3}.items():
            families[f"K{K}-{rule}"] = lambda K=K, kappa=kappa: [
                _even_power_spec.__wrapped__(K, rho, kappa)
                for rho in (-0.999, -0.9, 1e-8, 0.5, 3.0, 40.0, 1e6, math.inf)
            ]
    amplitudes = (0.3, 1.0, 2.0, 2.5, 3.0, math.pi - 1e-9)
    families["pendulum"] = lambda: [
        OscillatorModel.pendulum(a, taylor).spec_at()
        for taylor in (2, 4, 6) for a in amplitudes if taylor != 4 or a < math.sqrt(6.0)
    ]
    families["cubic"] = lambda: [OscillatorModel.cubic(*p).spec_at() for p in CUBIC_CELLS]
    families["quartic-cubic"] = lambda: [
        _quartic_cubic_cell(*cell).spec_at() for cell in QUARTIC_CUBIC_CELLS
    ]
    families["overflow"] = lambda: [
        IntegrandSpec(-1.0, 1.0, TrigPolynomial([big, 0.0, big]), 1.0) for big in (1e20, 1e300)
    ]
    return families


KERNEL_FAMILIES = kernel_families()


@pytest.mark.parametrize("family", sorted(KERNEL_FAMILIES))
def test_the_pure_kernel_forms_the_numpy_kernels_terms(family):
    # Same roundings in the same order on the same node table: every term
    # has the same bits, overflow and NaN included, at every order.
    for spec in KERNEL_FAMILIES[family]():
        for order in (1, 2, 7, 24, MAX_ORDER):
            with kernel(pure=True):
                pure = series_core._extend(spec, order)
            with kernel(pure=False):
                vectorized = series_core._extend(spec, order)
            assert bits(pure) == bits(vectorized), (spec, order)


def node_count(spec):
    coeffs = spec.delta.coeffs
    s = 1 if any(coeffs[1::2]) else 2
    return (len(coeffs) - 1) // s * MAX_ORDER // 2 + 1


def test_the_pure_row_sums_are_numpys_pairwise_sums():
    # Every row length to 300, across numpy's blocks of 8 and 128, and every
    # node count the families make up to K = 64.
    counts = {node_count(spec) for family in KERNEL_FAMILIES.values() for spec in family()}
    counts |= {node_count(_even_power_spec.__wrapped__(K, 0.5, 0.5)) for K in range(2, 65)}
    assert max(counts) == 2017
    rng = np.random.default_rng(3)
    for n in sorted(set(range(1, 301)) | counts):
        rows = rng.uniform(-1.0, 1.0, (3, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (3, n))
        assert bits(series_core._row_sums(rows.T.tolist())) == bits(rows.sum(axis=1)), n
    # numpy adds each row onto 0.0, so a row of negative zeros sums to +0.0.
    zeros = np.full((2, 9), -0.0)
    assert bits(series_core._row_sums(zeros.T.tolist())) == bits(zeros.sum(axis=1))


def test_both_positivity_kernels_give_one_verdict():
    rng = np.random.default_rng(13)
    cases = []
    for case in range(200):
        coeffs = rng.uniform(-1.0, 1.0, case % 13 + 1)
        coeffs[0] += rng.uniform(0.0, 2.0)
        cases.append(TrigPolynomial(coeffs).coeffs)
    a = float(_positivity_cosines()[200])
    cases += [(1.0, -1.0), (1.0, 1.0), (a * a - 1e-8, -2.0 * a, 1.0)]
    verdicts = set()
    for coeffs in cases:
        with kernel(pure=True):
            pure = series_core._positive_on_grid(coeffs)
        with kernel(pure=False):
            vectorized = series_core._positive_on_grid(coeffs)
        assert pure == vectorized, coeffs
        verdicts.add(pure)
    assert verdicts == {True, False}
    # Specs that reach the grid take the same verdict by either kernel.
    for pure in (True, False):
        with kernel(pure), grid_calls() as calls:
            _even_power_spec.__wrapped__(5, -1.0 + 1e-15, even_power_kappa_pms(5))
            OscillatorModel.pendulum(math.pi - 1e-9, 6).spec_at()
            with pytest.raises(DomainError, match="not strictly positive"):
                IntegrandSpec(-1.0, 1.0, TrigPolynomial(cases[-1]), 1.0)
        assert len(calls) == (0 if pure else 3)


@pytest.mark.parametrize("case", sorted(HISTORY_SPECS))
def test_a_pure_prefix_extended_by_numpy_is_one_expansion(case):
    fresh = HISTORY_SPECS[case]
    with kernel(pure=False):
        reference = expand(fresh(), MAX_ORDER).partial_sums
    for order in (1, 4, 24):
        spec = fresh()
        with kernel(pure=True):
            expand(spec, order)
        with kernel(pure=False):
            assert bits(expand(spec, MAX_ORDER).partial_sums) == bits(reference), order


def test_the_pure_kernels_run_only_without_numpy_and_within_the_budget(monkeypatch):
    assert not series_core._pure_fits(1)
    monkeypatch.delitem(sys.modules, "numpy")
    monkeypatch.setattr(series_core, "_pure_spent", 0)
    assert series_core._pure_fits(series_core._PURE_BUDGET)
    assert not series_core._pure_fits(series_core._PURE_BUDGET + 1)
    # The calls that run share one budget per process; a call refused adds
    # nothing to it.
    assert series_core._pure_spent == series_core._PURE_BUDGET
    monkeypatch.setattr(series_core, "_pure_spent", series_core._PURE_PROCESS_BUDGET - 10)
    assert not series_core._pure_fits(11)
    assert series_core._pure_fits(10)
    assert not series_core._pure_fits(1)


def test_a_long_loop_without_numpy_loads_it_past_the_process_budget(child_env):
    # 200 expansions at K = 5 through order 64 take about 2.2M element
    # operations.  Without numpy the first of them run in pure Python until
    # the process budget is spent; then the loop loads numpy and keeps it, and
    # prints the same values as a process that loaded numpy first.
    script = textwrap.dedent(
        """
        import json, sys
        if sys.argv[1] == "numpy":
            import numpy
        import pmsdelta
        from pmsdelta import series_core
        kappa = pmsdelta.even_power_kappa_pms(5)
        values = [pmsdelta.even_power_series(5, 0.5 + i / 100, kappa, 64) for i in range(200)]
        assert "numpy" in sys.modules
        print(json.dumps({"spent": series_core._pure_spent, "values": [v.hex() for v in values]}))
        """
    )
    runs = {}
    for mode in ("cold", "numpy"):
        result = subprocess.run(
            [sys.executable, "-c", script, mode], capture_output=True, text=True, env=child_env
        )
        assert result.returncode == 0, result.stderr
        runs[mode] = json.loads(result.stdout)
    assert 0 < runs["cold"]["spent"] <= series_core._PURE_PROCESS_BUDGET
    assert runs["numpy"]["spent"] == 0
    assert len(runs["cold"]["values"]) == 200
    assert runs["cold"]["values"] == runs["numpy"]["values"]


def test_the_node_tables_are_one_source_of_node_values():
    # Both kernels read one table made by math.cos; numpy sees it as a view.
    # The view's values are those np.cos gives on this host.
    for m, s in ((33, 2), (2017, 2), (65, 1)):
        table, view = series_core._node_table(m, s), _node_cosines(m, s)
        assert view.base.obj is table
        theta = (np.arange(m) + 0.5) * (math.pi / (s * m))
        assert bits(view) == bits(np.cos(theta) ** s)
    grid = _positivity_cosines()
    assert grid.base.obj is series_core._positivity_table()
    assert bits(grid) == bits(np.cos(np.linspace(0.0, math.pi, 512)))


def raises_domain_error(spec, n):
    try:
        term(spec, n)
    except DomainError:
        return True
    return False


def test_a_term_past_the_float_range_raises_in_any_call_order():
    # Delta is about 1e20 on every node, so Delta^n overflows part-way.
    def fresh():
        return IntegrandSpec(-1.0, 1.0, TrigPolynomial([1e20, 0.0, 1e20]), 1.0)

    spec = fresh()
    first_bad = next(n for n in range(MAX_ORDER + 1) if raises_domain_error(spec, n))
    assert 10 < first_bad < 20
    good = expand(fresh(), first_bad - 1).terms
    assert all(map(math.isfinite, good))
    rng = np.random.default_rng(7)
    histories = [
        list(range(MAX_ORDER + 1)),
        list(range(MAX_ORDER, -1, -1)),
        [int(n) for n in rng.permutation(MAX_ORDER + 1)],
        [first_bad, first_bad - 1, MAX_ORDER, 0],
    ]
    for orders in histories:
        spec = fresh()
        for n in orders:
            if n < first_bad:
                assert expand(spec, n).terms == good[: n + 1]
                assert term(spec, n) == good[n]
                continue
            for call in (expand, term):
                with pytest.raises(DomainError, match=f"through order {n} leaves the float"):
                    call(spec, n)


def test_a_table_of_orders_forms_the_terms_at_most_twice(monkeypatch):
    formed, samplings = [], []
    extend, nodes = series_core._extend, series_core._node_cosines

    def counting_extend(spec, order):
        formed.append(order)
        return extend(spec, order)

    def counting_nodes(m, s):
        samplings.append(m)
        return nodes(m, s)

    monkeypatch.setattr(series_core, "_extend", counting_extend)
    monkeypatch.setattr(series_core, "_node_cosines", counting_nodes)
    for fresh in (HISTORY_SPECS["K5-pms-rho0.5"], HISTORY_SPECS["cubic"]):
        for N in (1, 2, 30, MAX_ORDER):
            # A fresh spec's first call forms the terms through its own order.
            formed.clear()
            samplings.clear()
            expand(fresh(), N)
            assert formed == [N] and len(samplings) == 1
            # A table from order 0 samples once: order 0 needs no samples,
            # order 1 forms every term, and the later calls only read.
            formed.clear()
            samplings.clear()
            spec = fresh()
            for n in range(N + 1):
                expand(spec, n)
            for n in range(N + 1):
                term(spec, n)
            assert formed == [0, MAX_ORDER] and len(samplings) == 1, (N, formed)
            # A table from order 1 forms through 1, then through MAX_ORDER.
            formed.clear()
            samplings.clear()
            spec = fresh()
            for n in range(1, N + 1):
                expand(spec, n)
            expected = [1] if N == 1 else [1, MAX_ORDER]
            assert formed == expected and len(samplings) == len(expected), (N, formed)


def test_an_expanded_spec_keeps_only_its_terms():
    # At K = 1024 a spec has 32737 nodes, so 30 rows of powers would be
    # 7.9 MB; the spec keeps its 31 terms and nothing else.
    K = 1024
    kappa = even_power_kappa_pms(K)
    expand(_even_power_spec.__wrapped__(K, 0.5, kappa), 1)  # caches the node set
    spec = _even_power_spec.__wrapped__(K, 0.5, kappa)
    tracemalloc.start()
    try:
        expand(spec, 30)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(spec._terms) == 31
    assert retained < 0.1e6, retained


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


def even_power_deviation(big_k):
    """Strong-coupling deviation family for V ~ x^(2K): Delta = g/(K kappa) - 1."""

    def family(kappa):
        coeffs = [0.0] * (2 * big_k - 1)
        for j in range(big_k):
            coeffs[2 * j] = 1.0 / (big_k * kappa)
        coeffs[0] -= 1.0
        return TrigPolynomial(coeffs)

    return family


def exact_value(poly, c):
    """Polynomial value at c in rational arithmetic, rounded once."""
    return float(sum(Fraction(a) * Fraction(c) ** k for k, a in enumerate(poly.coeffs)))


def test_extrema_cos2theta_profile():
    poly = TrigPolynomial([-0.3, 0.0, 0.6])  # 0.3 cos(2 theta)
    hi, lo = extrema(poly)
    assert hi == exact_value(poly, 1.0)
    assert lo == exact_value(poly, 0.0)
    assert (hi, lo) == pytest.approx((0.3, -0.3), abs=1e-16)


def test_extrema_k5_strong_coupling_at_kappa_06():
    poly = even_power_deviation(5)(0.6)
    hi, lo = extrema(poly)
    # Extremes at theta = 0 (c = 1) and theta = pi/2 (c = 0).
    assert abs(hi - exact_value(poly, 1.0)) <= math.ulp(hi)
    assert lo == exact_value(poly, 0.0)
    assert (hi, lo) == pytest.approx((2.0 / 3.0, -2.0 / 3.0), abs=1e-15)


def test_kappa_balance_constant_family():
    # A constant Delta has no derivative roots; its extrema are the constant.
    assert extrema(TrigPolynomial([0.25])) == (0.25, 0.25)

