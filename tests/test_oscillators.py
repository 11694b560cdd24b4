"""Checks for the oscillator families against closed forms and the oracle."""

import functools
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pmsdelta.errors import (
    BarrierCrossed,
    DivergentExpansion,
    DomainError,
    NoPeriodicMotion,
    OrderTooHigh,
    PmsDeltaError,
)
from pmsdelta.constants import MAX_EXPONENT, MAX_ORDER
from pmsdelta.models import (
    OscillatorModel,
    _even_power_spec,
    _pendulum_spec,
    even_power_series,
    pendulum_approx,
    quartic_cubic_exact_period,
    quartic_cubic_pms,
)
from pmsdelta.oracle import elliptic_k
from pmsdelta.oscillators import (
    cubic_exact_period,
    cubic_series,
    duffing_b0,
    duffing_exact_period,
    duffing_nayfeh_series,
    duffing_omega_pms,
    duffing_period_series,
    even_power_exact_period,
    even_power_kappa_balanced,
    even_power_kappa_pms,
    pendulum_exact,
    sextic_exact_period,
    sextic_series,
    sextic_t4,
    sextic_wl_period,
    virial_omega_check,
    _even_power_integrand,
    _even_power_quadrature,
    _in_theta,
    _sextic_weight,
)
from pmsdelta.precession import OrbitParams, precession_series
from pmsdelta.quadrature import integrate
from pmsdelta.series_core import expand, pms_first_order
from trig_extrema import extrema


def test_model_constructors_validate():
    with pytest.raises(DomainError):
        OscillatorModel.duffing(1.0, 0.0)
    with pytest.raises(DomainError):
        OscillatorModel.even_power(1, 1.0, 1.0)
    with pytest.raises(DomainError):
        OscillatorModel.cubic(1.0, 2.0)  # does not straddle the origin
    with pytest.raises(DomainError):
        OscillatorModel.quartic_cubic(0.5, 0.3, 0.1, -1.0, 1.0)  # unequal V
    with pytest.raises(DomainError):
        OscillatorModel.pendulum(1.0, 3)
    with pytest.raises(DomainError):
        OscillatorModel.pendulum(3.5, 4)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NEGATIVE = st.floats(max_value=0.0, exclude_max=True, allow_infinity=False)


def _equal_potential_a2(a3, a4, x_minus, x_plus):
    """a2 that puts V = a2 x^2 + a3 x^3 + a4 x^4 equal at both points."""
    with np.errstate(all="ignore"):
        lo, hi = np.float64(x_minus), np.float64(x_plus)
        return float(-(a3 * (lo**3 - hi**3) + a4 * (lo**4 - hi**4)) / (lo**2 - hi**2))


QUARTIC_CUBIC_ARGS = st.one_of(
    st.tuples(FINITE, FINITE, FINITE, FINITE, FINITE),
    st.tuples(FINITE, FINITE, NEGATIVE, POSITIVE).map(
        lambda a: (_equal_potential_a2(*a), *a)
    ),
)

MODEL_ARGUMENTS = [
    (OscillatorModel.even_power, st.tuples(st.integers(2, 8), FINITE, FINITE)),
    (OscillatorModel.cubic, st.one_of(st.tuples(FINITE, FINITE), st.tuples(NEGATIVE, POSITIVE))),
    (OscillatorModel.quartic_cubic, QUARTIC_CUBIC_ARGS),
    (OscillatorModel.pendulum, st.tuples(FINITE, st.sampled_from((2, 4, 6)))),
]


@pytest.mark.parametrize(
    "build, arguments",
    [pytest.param(b, a, id=b.__name__) for b, a in MODEL_ARGUMENTS],
)
@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_model_constructors_factor_or_refuse(build, arguments, data):
    # Over the whole finite float range a constructor either refuses with a
    # package error or returns a model that already carries its factor.
    args = data.draw(arguments)
    try:
        model = build(*args)
    except PmsDeltaError:
        return
    try:
        spec = model.spec_at()
    except PmsDeltaError:
        return
    assert 0.0 < spec.omega < math.inf


def test_extreme_finite_inputs_raise_typed_errors():
    # Each of these overflowed or divided by an underflowed zero.
    with pytest.raises(DomainError):
        OscillatorModel.duffing(1.0, 1e200)
    with pytest.raises(DomainError):
        quartic_cubic_pms(0.5, 0.0, 0.25, -1e200, 1e200)
    with pytest.raises(DomainError):
        cubic_series(-1e-200, 1e-200, 4)
    with pytest.raises(DomainError):
        cubic_exact_period(-1e200, 1e200)
    # V at the ends is 5.3e307, but b0 = a2 + a4 (s^2 - p) overflows.
    for build in (OscillatorModel.quartic_cubic, quartic_cubic_pms, quartic_cubic_exact_period):
        with pytest.raises(DomainError, match="the factor polynomial overflows"):
            build(1.7e308, 0.0, 1.7e308, -0.5, 0.5)
    # The AGM end values underflow: to zero, which divided by zero, or to
    # subnormals, which put 8.2e-15 of error in sqrt(2) pi/sqrt(a2) unseen.
    # The series refuses both wells for omega, the exact period for its AGM.
    for args in ((5e-324, 1e-300, 1e-10, 0.0, 1e-300), (3e-310, 0.0, 0.0, -1.0, 1.0)):
        with pytest.raises(DomainError, match="out of the float range"):
            quartic_cubic_pms(*args)
        with pytest.raises(DomainError, match="leave the normal float range"):
            quartic_cubic_exact_period(*args)


RHO_FUNCTIONS = [
    duffing_omega_pms,
    duffing_period_series,
    duffing_exact_period,
    virial_omega_check,
    sextic_wl_period,
    sextic_t4,
    sextic_series,
]


@pytest.mark.parametrize("function", RHO_FUNCTIONS, ids=lambda f: f.__name__)
@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    rho=st.floats(min_value=-1.0, exclude_min=True, max_value=sys.float_info.max),
    order=st.integers(0, MAX_ORDER),
)
@example(rho=1e308, order=3).via("overflowed 4 + 3 rho and 5 rho + 8")
@example(rho=1e200, order=0).via("overflowed rho^2")
@example(rho=1e100, order=0).via("overflowed rho^4")
@example(rho=sys.float_info.max, order=MAX_ORDER)
def test_rho_functions_are_finite_or_refuse(function, rho, order):
    # Up to the largest float each closed form returns a finite positive
    # value or a package error; 4 + 3 rho, 5 rho + 8 and rho^k used to
    # overflow into a period of 0, a frequency of inf or an OverflowError.
    args = (rho, order) if function in (duffing_period_series, sextic_series) else (rho,)
    try:
        result = function(*args)
    except PmsDeltaError:
        return
    if function is virial_omega_check:
        omega, ratio = result
        assert 0.0 < omega < math.inf
        assert abs(ratio - math.sqrt(2.0)) <= 4 * math.ulp(math.sqrt(2.0))
    else:
        assert 0.0 < result < math.inf


# Expansion orders as callers pass them: ints, and integral floats such as 4.0.
ORDERS = st.one_of(st.integers(0, MAX_ORDER), st.integers(0, MAX_ORDER).map(float))


def _finite_or_refused(function, *args):
    """function(*args), or None where it raises a package error.  A
    DivergentExpansion warning is allowed; a RuntimeWarning still fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DivergentExpansion)
        try:
            return function(*args)
        except PmsDeltaError:
            return None


@settings(derandomize=True, deadline=None, max_examples=50)
@given(
    K=st.integers(2, 12),
    rho=st.floats(min_value=-1.0, exclude_min=True),
    kappa=st.one_of(
        st.sampled_from((even_power_kappa_pms, even_power_kappa_balanced)), st.floats()
    ),
    order=ORDERS,
)
def test_even_power_entry_points_are_finite_or_refuse(K, rho, kappa, order):
    # rho over (-1, inf], kappa by either rule or any float.
    if callable(kappa):
        kappa = kappa(K)
    series = _finite_or_refused(even_power_series, K, rho, kappa, order)
    assert series is None or math.isfinite(series)
    exact = _finite_or_refused(even_power_exact_period, K, rho)
    assert exact is None or 0.0 < exact < math.inf


@settings(derandomize=True, deadline=None, max_examples=50)
@given(
    amplitude=st.floats(min_value=0.0, max_value=math.pi, exclude_min=True, exclude_max=True),
    taylor_order=st.sampled_from((2, 4, 6)),
    order=ORDERS,
)
def test_pendulum_entry_points_are_finite_or_refuse(amplitude, taylor_order, order):
    approx = _finite_or_refused(pendulum_approx, amplitude, taylor_order, order)
    assert approx is None or math.isfinite(approx)
    assert 0.0 < pendulum_exact(amplitude) < math.inf


def test_extrema_drops_roots_sent_to_infinity():
    # A4 of 1e-320 sends a root of the factor's derivative to infinity; numpy's
    # overflow warning used to escape the extrema search instead of
    # BarrierCrossed.
    with pytest.raises(BarrierCrossed):
        OscillatorModel.quartic_cubic(-3.0, 1.0, 1e-320, -1.0, 2.0)


def test_cubic_energy_does_not_underflow():
    # p^2 = 1.05e-200^2 underflows; p (p/sigma)/2 does not.
    x_minus, x_plus = -1e-100, 1.05e-100
    p = Fraction(x_minus) * Fraction(x_plus)
    sigma = Fraction(x_plus) ** 2 + p + Fraction(x_minus) ** 2
    exact = p * p / (2 * sigma)
    energy = OscillatorModel.cubic(x_minus, x_plus).energy
    assert abs(Fraction(energy) - exact) <= 1e-15 * exact


def test_turning_points_harmonic_duffing():
    model = OscillatorModel.duffing(0.0, 1.0)
    assert (model.x_minus, model.x_plus) == (-1.0, 1.0)
    assert model.factor.coeffs == (0.5,)
    assert model.rho == 0.0
    spec = model.spec_at()
    assert spec.omega == pytest.approx(math.sqrt(0.5), rel=1e-15)


def test_turning_points_cubic_example():
    model = OscillatorModel.cubic(-1.0, 2.0)
    assert model.params["mu"] == pytest.approx(-0.5, rel=1e-15)
    assert model.energy == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert math.isnan(model.rho)
    # Stationary frequency of this configuration is exactly 1/2.
    assert pms_first_order(model.factor) == pytest.approx(0.5, rel=1e-14)


def test_turning_points_rejections():
    with pytest.raises(NoPeriodicMotion):
        OscillatorModel.duffing(-1.2, 1.0)
    with pytest.raises(BarrierCrossed):
        OscillatorModel.cubic(-1.0, 10.0)


def test_quartic_cubic_embeds_duffing():
    qc = OscillatorModel.quartic_cubic(0.5, 0.0, 0.25, -1.0, 1.0)
    duffing = OscillatorModel.duffing(1.0, 1.0)
    assert qc.factor.coeffs == pytest.approx(duffing.factor.coeffs, rel=1e-15)


def test_duffing_omega_pms_values():
    assert duffing_omega_pms(0.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert duffing_omega_pms(4.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert duffing_omega_pms(-0.9) == pytest.approx(math.sqrt(1.3 / 8.0), rel=1e-15)
    with pytest.raises(NoPeriodicMotion):
        duffing_omega_pms(-1.0)


@pytest.mark.parametrize("rho", [0.5, 10.0, -0.9])
def test_duffing_series_converges_to_elliptic(rho):
    series = duffing_period_series(rho, 40)
    exact = duffing_exact_period(rho)
    print(f"rho={rho}: series {series:.12f} vs exact {exact:.12f}")
    assert series == pytest.approx(exact, rel=1e-10)


def test_duffing_series_harmonic():
    for order in (0, 1, 5):
        assert duffing_period_series(0.0, order) == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_duffing_exact_basics():
    assert duffing_exact_period(0.0) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert duffing_exact_period(-0.9) > 2.0 * math.pi  # softening side
    with pytest.raises(DomainError):
        duffing_exact_period(-1.0)


def test_duffing_exact_matches_mpmath_up_to_the_separatrix():
    # R(0) = (1 + rho)/2 is formed from rho, so the period stays right to
    # rounding as rho -> -1.
    mpmath = pytest.importorskip("mpmath")
    rhos = [-1.0 + 10.0**-k for k in np.linspace(0.0, 8.0, 33)]
    rhos += list(10.0 ** np.linspace(-8.0, 4.0, 49))
    with mpmath.workdps(50):
        for rho in rhos:
            r = mpmath.mpf(rho)
            reference = 4 / mpmath.sqrt(1 + r) * mpmath.ellipk(r / (2 * (1 + r)))
            assert abs(duffing_exact_period(rho) - reference) <= 1e-15 * reference, rho


def test_nayfeh_series_convergent_side():
    assert duffing_nayfeh_series(0.0, 5) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert duffing_nayfeh_series(1.0, 40) == pytest.approx(
        duffing_exact_period(1.0), rel=1e-8
    )


def test_nayfeh_series_diverges_where_ours_converges():
    rho = -0.8
    with pytest.warns(DivergentExpansion):
        nayfeh = [duffing_nayfeh_series(rho, n) for n in range(26)]
    ours = [duffing_period_series(rho, n) for n in range(26)]
    nayfeh_steps = [abs(b - a) for a, b in zip(nayfeh, nayfeh[1:])]
    our_steps = [abs(b - a) for a, b in zip(ours, ours[1:])]
    # Increments of the comparison series grow beyond n = 10; ours shrink.
    assert all(b > a for a, b in zip(nayfeh_steps[10:20], nayfeh_steps[11:21]))
    assert our_steps[20] < our_steps[10] < our_steps[2]
    assert ours[25] == pytest.approx(duffing_exact_period(rho), rel=1e-6)


def test_nayfeh_series_overflow_is_typed():
    # kappa = -5e6: kappa^64 overflows, which raises a package error rather
    # than Python's OverflowError.  At rho = 0.5, kappa = 1/6 and no warning.
    with pytest.warns(DivergentExpansion), pytest.raises(DomainError):
        duffing_nayfeh_series(-0.9999999, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(duffing_nayfeh_series(0.5, 64))


def test_duffing_b0():
    assert duffing_b0(0) == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-15)
    reference = 2.0 * math.pi / even_power_exact_period(2, math.inf)
    assert duffing_b0(25) == pytest.approx(reference, rel=1e-12)
    print(f"b0 limit: {duffing_b0(25):.15f} vs oracle {reference:.15f}")


@pytest.mark.parametrize("rho", [0.0, 0.5, 4.0, 100.0, -0.5, -0.9])
def test_virial_ratio_is_sqrt2(rho):
    omega_virial, ratio = virial_omega_check(rho)
    assert omega_virial == pytest.approx(math.sqrt(1.0 + 0.75 * rho), rel=1e-15)
    assert abs(ratio - math.sqrt(2.0)) < 1e-14


def test_sextic_wl_period():
    assert sextic_wl_period(0.0) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert sextic_wl_period(-0.9) == pytest.approx(10.62, abs=5e-3)
    # The published limit is quoted to five significant figures.
    rho = 1e10
    assert math.sqrt(rho) * sextic_wl_period(rho) == pytest.approx(8.4081, abs=5e-5)
    with pytest.raises(DomainError):
        sextic_wl_period(-1.0)


def test_sextic_t4():
    assert sextic_t4(0.0) == pytest.approx(2.0 * math.pi, rel=1e-13)
    assert sextic_t4(-0.9) == pytest.approx(10.67, abs=5e-3)
    rho = 1e10
    assert math.sqrt(rho) * sextic_t4(rho) == pytest.approx(8.41292, abs=2e-5)


def test_sextic_weights_table():
    expected = [1.0, 0.0, 32.5, 48.0, 1632.375, 5240.0, 95540.3125]
    got = [_sextic_weight(n) for n in range(7)]
    assert got == pytest.approx(expected, rel=1e-15)


def test_sextic_series_matches_t4_and_expansion():
    for rho in (-0.9, 0.5, 3.0):
        assert sextic_series(rho, 4) == pytest.approx(sextic_t4(rho), rel=1e-12)
    # Generic-engine cross-check at rho = 1.
    rho = 1.0
    spec = OscillatorModel.sextic(rho, 1.0).spec_at()
    assert spec.omega == pytest.approx(math.sqrt(5.0 * rho + 8.0) / 4.0, rel=1e-15)
    for order in range(11):
        engine = math.sqrt(2.0) * expand(spec, order).value
        assert sextic_series(rho, order) == pytest.approx(engine, rel=1e-12), order
    assert sextic_series(0.0, 3) == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_sextic_exact_period():
    assert sextic_exact_period(0.0) == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert sextic_exact_period(-0.9) == pytest.approx(10.93467798, rel=1e-7)


def test_even_power_embeds_duffing():
    for rho in (0.5, 2.0):
        for pair_order in (0, 1, 3, 10):
            a = even_power_series(2, rho, 0.75, 2 * pair_order)
            b = duffing_period_series(rho, pair_order)
            assert a == pytest.approx(b, rel=1e-12)


def test_even_power_kappa_values():
    assert even_power_kappa_pms(2) == pytest.approx(0.75, rel=1e-15)
    assert even_power_kappa_pms(5) == pytest.approx(63.0 / 128.0, rel=1e-15)
    assert even_power_kappa_balanced(3) == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert even_power_kappa_balanced(5) == pytest.approx(0.6, abs=1e-9)


def test_even_power_kappa_pms_beyond_float_powers_of_four():
    # Each C(2j, j)/4^j is a correctly rounded integer quotient: the same bits
    # as with a float 4.0**j while that fits, and defined past j = 511.
    for K in range(2, 65):
        float_powers = math.fsum(math.comb(2 * j, j) / 4.0**j for j in range(K)) / K
        assert even_power_kappa_pms(K) == float_powers
    exact = sum(Fraction(math.comb(2 * j, j), 4**j) for j in range(513)) / 513
    assert even_power_kappa_pms(513) == pytest.approx(float(exact), rel=1e-15)


@pytest.mark.parametrize("K", [1, 2.5, math.nan, math.inf, -math.inf])
def test_even_power_exponent_must_be_an_integer_of_at_least_two(K):
    for fn, args in (
        (even_power_kappa_pms, ()),
        (even_power_kappa_balanced, ()),
        (even_power_series, (0.5, 0.625, 4)),
        (even_power_exact_period, (0.5,)),
    ):
        with pytest.raises(DomainError):
            fn(K, *args)


def test_even_power_exponent_is_capped():
    assert even_power_kappa_balanced(MAX_EXPONENT) == (MAX_EXPONENT + 1) / (2 * MAX_EXPONENT)
    for K in (MAX_EXPONENT + 1, 10**9):
        for fn, args in (
            (even_power_kappa_pms, ()),
            (even_power_kappa_balanced, ()),
            (even_power_series, (0.5, 0.625, 4)),
            (even_power_exact_period, (0.5,)),
        ):
            with pytest.raises(DomainError, match="1024"):
                fn(K, *args)
        with pytest.raises(DomainError):
            OscillatorModel.even_power(K, 0.5, 1.0)


@pytest.mark.parametrize("K", range(2, 13))
def test_even_power_kappa_balanced_closed_form(K):
    assert even_power_kappa_balanced(K) == (K + 1) / (2 * K)


@pytest.mark.parametrize("rho", [math.inf, 10.0, 0.5, -0.9])
@pytest.mark.parametrize("K", range(2, 13))
def test_even_power_kappa_balanced_equalizes_extrema(K, rho):
    # Exact extrema of Delta: equal and opposite at the balanced kappa.
    spec = _even_power_spec(K, rho, even_power_kappa_balanced(K))
    hi, lo = extrema(spec.delta)
    assert abs(hi + lo) <= 4e-15
    if rho == math.inf:
        assert hi == pytest.approx((K - 1) / (K + 1), abs=2e-15)


NAN_RHO_CALLS = [
    (duffing_period_series, (math.nan, 4)),
    (sextic_series, (math.nan, 4)),
    (duffing_omega_pms, (math.nan,)),
    (duffing_exact_period, (math.nan,)),
    (duffing_nayfeh_series, (math.nan, 4)),
    (virial_omega_check, (math.nan,)),
    (sextic_wl_period, (math.nan,)),
    (sextic_t4, (math.nan,)),
    (sextic_exact_period, (math.nan,)),
    (even_power_series, (3, math.nan, 0.625, 4)),
    (even_power_exact_period, (3, math.nan)),
    (OscillatorModel.duffing, (math.nan, 1.0)),
]


@pytest.mark.parametrize(
    "fn, args", [pytest.param(fn, args, id=fn.__name__) for fn, args in NAN_RHO_CALLS]
)
def test_nan_rho_raises(fn, args):
    with pytest.raises(PmsDeltaError):
        fn(*args)


# rho = inf is the strong-coupling limit; only the even-power entry points
# expand it, everything else refuses it instead of returning NaN or inf.
INF_RHO_CALLS = [
    (duffing_period_series, (math.inf, 4)),
    (sextic_series, (math.inf, 4)),
    (duffing_omega_pms, (math.inf,)),
    (duffing_exact_period, (math.inf,)),
    (duffing_nayfeh_series, (math.inf, 4)),
    (virial_omega_check, (math.inf,)),
    (sextic_wl_period, (math.inf,)),
    (sextic_t4, (math.inf,)),
    (sextic_exact_period, (math.inf,)),
    (OscillatorModel.duffing, (math.inf, 1.0)),
]


@pytest.mark.parametrize(
    "fn, args", [pytest.param(fn, args, id=fn.__name__) for fn, args in INF_RHO_CALLS]
)
def test_inf_rho_raises(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


# Every closed form and engine entry point takes orders 0..MAX_ORDER; the
# quartic, cubic and precession sums count pairs, with the same cap.
ORDER_CALLS = [
    (duffing_period_series, lambda n: (0.5, n)),
    (duffing_nayfeh_series, lambda n: (0.5, n)),
    (duffing_b0, lambda n: (n,)),
    (sextic_series, lambda n: (0.5, n)),
    (even_power_series, lambda n: (3, 0.5, 0.625, n)),
    (cubic_series, lambda n: (-1.0, 1.2, n)),
    (pendulum_approx, lambda n: (1.0, 6, n)),
    (precession_series, lambda n: (OrbitParams(GM=1.0, a=500.0, epsilon=0.25), n)),
]


@pytest.mark.parametrize(
    "fn, args", [pytest.param(fn, args, id=fn.__name__) for fn, args in ORDER_CALLS]
)
def test_order_cap(fn, args):
    at_cap = fn(*args(MAX_ORDER))
    assert math.isfinite(at_cap)
    assert fn(*args(float(MAX_ORDER))) == at_cap
    with pytest.raises(OrderTooHigh):
        fn(*args(MAX_ORDER + 1))
    for order in (-1, 2.5, math.nan):
        with pytest.raises(DomainError):
            fn(*args(order))


def test_even_power_series_rejects_infinite_kappa():
    # kappa = inf makes omega infinite, which would zero every term.
    with pytest.raises(DomainError):
        even_power_series(3, 1.0, math.inf, 4)
    with pytest.raises(DomainError):
        even_power_series(3, math.inf, math.inf, 4)


def test_inf_rho_belongs_to_the_even_power_entry_points():
    with pytest.raises(DomainError, match=r"even_power_series\(K, math.inf"):
        duffing_period_series(math.inf, 4)
    assert math.isfinite(even_power_series(3, math.inf, 0.625, 4))
    assert math.isfinite(even_power_exact_period(3, math.inf))


def test_even_power_strong_coupling_k2_matches_elliptic():
    c0 = even_power_exact_period(2, math.inf)
    assert c0 == pytest.approx(4.0 * elliptic_k(0.5), rel=1e-11)


def test_even_power_divergence_warning_uses_exact_max_delta():
    # K = 2, rho = -0.9: Delta peaks at theta = pi/2, which no even-sized
    # equispaced grid over [0, pi] samples.  1 + kappa rho = 0.55/(2 +- 1e-7)
    # puts that peak 1e-7 above or below 1.
    above = (1.0 - 0.55 / (2.0 + 1e-7)) / 0.9
    below = (1.0 - 0.55 / (2.0 - 1e-7)) / 0.9
    with pytest.warns(DivergentExpansion):
        even_power_series(2, -0.9, above, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        even_power_series(2, -0.9, below, 4)


def test_even_power_k5_divergence_and_balance():
    kappa_pms = even_power_kappa_pms(5)
    with pytest.warns(DivergentExpansion):
        even_power_series(5, math.inf, kappa_pms, 6)
    kappa_b = even_power_kappa_balanced(5)
    c0_exact = even_power_exact_period(5, math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        errors = [
            abs(even_power_series(5, math.inf, kappa_b, order) - c0_exact)
            for order in range(1, 16)
        ]
    print(f"K=5 balanced c0 errors: first {errors[0]:.3e}, last {errors[-1]:.3e}")
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-2 * c0_exact


@functools.lru_cache(maxsize=None)
def _mp_even_period(K, rho):
    """sqrt(2) * integral of dtheta/sqrt(R) at 50 digits, g = sum_{j<K} c^j
    by Horner's rule.  Where 1 + rho <= 0.1, R dips at theta = 0, and
    tanh-sinh runs with breakpoints clustered there; elsewhere the integrand
    is analytic near [0, pi/2], and one Gauss-Legendre pass is enough.  For
    rho > 1, R/rho is integrated, so that 1/2 keeps its digits beside
    rho g/(2K) up to rho = 1e300.  At rho = inf, R/rho = g/(2K) gives the
    strong-coupling coefficient."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        if rho == math.inf:
            scale, base, weight = 1, 0, mpmath.mpf(1) / (2 * K)
        else:
            scale = max(mpmath.mpf(1), mpmath.mpf(rho))
            base, weight = mpmath.mpf(0.5) / scale, mpmath.mpf(rho) / scale / (2 * K)

        def f(theta):
            c = mpmath.cos(theta) ** 2
            g = 0
            for _ in range(K):
                g = g * c + 1
            return 1 / mpmath.sqrt(base + weight * g)

        if rho != math.inf and 1 + rho <= 0.1:
            points = [0] + [mpmath.mpf(10) ** -k for k in range(8, 0, -1)] + [mpmath.pi / 2]
            integral = mpmath.quad(f, points)
        else:
            integral = mpmath.quad(f, [0, mpmath.pi / 2], method="gauss-legendre")
        return 2 * mpmath.sqrt(2 / scale) * integral


@pytest.mark.parametrize(
    "K, rho",
    [(3, -0.9999999), (3, -1.0 + 1e-6), (3, -1.0 + 1e-10), (5, -1.0 + 1e-6),
     (5, -1.0 + 1e-10), (4, -0.5), (5, 30.0)],
)
def test_even_power_exact_matches_mpmath(K, rho):
    # Near the separatrix the cos^k coefficient sum left R(0) = (1 + rho)/2
    # with 1e-16 of absolute noise, and the quadrature raised
    # ToleranceNotMet; (4, -0.5) and (5, 30) cover both sums away from it.
    reference = _mp_even_period(K, rho)
    value = sextic_exact_period(rho) if K == 3 else even_power_exact_period(K, rho)
    assert abs(value - reference) <= 1e-15 * reference


def _count_evaluations(monkeypatch):
    """Route the two quadrature rules through a counting integrand; the
    returned list receives (rule name, integrand calls) for each call of
    either rule."""
    from pmsdelta import quadrature

    counts = []

    def counting(rule):
        def counted_rule(f, *args, **kwargs):
            calls = 0

            def counted(*x):
                nonlocal calls
                calls += 1
                return f(*x)

            result = rule(counted, *args, **kwargs)
            assert result.evaluations == calls
            counts.append((rule.__name__, calls))
            return result

        return counted_rule

    for name in ("integrate", "_periodic_trapezoid"):
        monkeypatch.setattr(quadrature, name, counting(getattr(quadrature, name)))
    return counts


# Cells of the benchmark's oracle sweep at their centres, with the rule that
# serves each and its evaluation budget.  The exact periods of the K <= 3
# cells come from the AGM; the quadrature is checked on every cell all the
# same, as the method that gives K >= 4.  The regular cells take the
# trapezoidal rule.  The two cells at 1 + rho = 1e-6 are the sweep's
# near-singular set: their integrand peaks at theta = 0 with a width of
# about 1e-3, far inside the strip the trapezoidal rule needs, so integrate
# resolves the peak in 23 panels and the trapezoidal rule takes no sample.
EVEN_POWER_PERIOD_CELLS = (
    [("even-power", K, rho, "_periodic_trapezoid", 65) for K in (2, 3, 4, 5)
     for rho in (-0.8, -0.3, 2.0, 40.0, math.inf)]
    + [("sextic", 3, rho, "_periodic_trapezoid", 65)
       for rho in (-0.85, -0.5, -0.2, 0.05, 0.3, 1.0, 3.0, 10.0, 30.0, 90.0)]
    + [("even-power", K, -1.0 + 1e-6, "integrate", 483) for K in (3, 5)]
)
QUARTIC_CUBIC_PERIOD_CELLS = [  # (a2, a4, x-, x+)
    (0.5, 0.1, -0.5, 0.6), (0.8, 0.3, -1.0, 0.8), (0.4, 0.2, -0.7, 1.1), (0.9, 0.05, -1.1, 1.0),
]


@pytest.mark.parametrize("family, K, rho, rule, budget", EVEN_POWER_PERIOD_CELLS)
def test_even_power_quadrature_periods_match_mpmath_within_budget(
    monkeypatch, family, K, rho, rule, budget
):
    counts = _count_evaluations(monkeypatch)
    value = _even_power_quadrature(K, rho)
    reference = _mp_even_period(K, rho)
    assert abs(value - reference) <= 1e-15 * reference
    [(used, calls)] = counts
    assert used == rule and calls <= budget


@pytest.mark.parametrize(
    "family, K, rho",
    [cell[:3] for cell in EVEN_POWER_PERIOD_CELLS if cell[1] <= 3],
)
def test_quadratic_even_power_agm_matches_mpmath(monkeypatch, family, K, rho):
    counts = _count_evaluations(monkeypatch)
    value = sextic_exact_period(rho) if family == "sextic" else even_power_exact_period(K, rho)
    reference = _mp_even_period(K, rho)
    assert abs(value - reference) <= 1e-15 * reference
    assert counts == []


@pytest.mark.parametrize("K", [4, 5, 8, 16, 64])
@pytest.mark.parametrize("rho", [-0.99, -0.9, -0.5, 1e-9, 0.5, 2.0, 40.0, 1e300, math.inf])
def test_even_power_exact_period_matches_mpmath_on_a_grid(K, rho):
    # Both rules, both signs of rho and the strong-coupling limit.  At K = 5,
    # rho = -0.9 a trapezoidal rule stopped at sqrt(1e-14) agreement erred
    # by 2.9e-14.
    reference = _mp_even_period(K, rho)
    assert abs(even_power_exact_period(K, rho) - reference) <= 1e-15 * reference


def _quadrature_by_integrate(K, rho):
    """The period from integrate alone, on the integrand the rules share."""
    f = _in_theta(_even_power_integrand(K, rho))
    return 4.0 * integrate(f, 0.0, 0.5 * math.pi, abs_tol=1e-300, rel_tol=1e-14).value


@settings(derandomize=True, deadline=None, max_examples=50)
@given(
    K=st.integers(min_value=4, max_value=12),
    rho=st.one_of(
        st.floats(min_value=-1.0, max_value=1e300, exclude_min=True), st.just(math.inf)
    ),
)
def test_the_selected_rule_agrees_with_integrate(K, rho):
    value = _even_power_quadrature(K, rho)
    assert 0.0 < value < math.inf
    assert abs(value - _quadrature_by_integrate(K, rho)) <= 2e-15 * value


def test_the_selected_rule_rounds_correctly_at_least_as_often_as_integrate():
    # 120 inputs on both signs of rho, every one on the trapezoidal rule.
    rhos = (
        [-0.85, -0.75, -0.6, -0.45, -0.3, -0.15, -0.05, -1e-3]
        + [10.0 ** (k / 3) for k in range(-9, 10)]
        + [1e6, 1e300, math.inf]
    )
    mpmath = pytest.importorskip("mpmath")
    correct = {"selected": 0, "integrate": 0}
    for K in (4, 5, 6, 8):
        for rho in rhos:
            reference = mpmath.mpf(_mp_even_period(K, rho))
            for name, value in (
                ("selected", _even_power_quadrature(K, rho)),
                ("integrate", _quadrature_by_integrate(K, rho)),
            ):
                correct[name] += abs(value - reference) <= 0.5 * math.ulp(value)
    assert correct["selected"] >= correct["integrate"]


@pytest.mark.parametrize("K", [4, 5, 8, 16, 64, 256, 1024])
def test_the_selected_rule_never_costs_more_than_integrate(monkeypatch, K):
    # The rule is chosen from K and rho before any sample is taken: an input
    # left to integrate spends what integrate spends, and the trapezoidal
    # rule is chosen only where it needs no more calls.
    rhos = (-1.0 + 1e-6, -0.999, -0.99, -0.9, -0.5, 0.5, 2.0, 40.0, math.inf)
    counts = _count_evaluations(monkeypatch)
    for rho in rhos:
        f = _in_theta(_even_power_integrand(K, rho))
        spent = integrate(f, 0.0, 0.5 * math.pi, abs_tol=1e-300, rel_tol=1e-14).evaluations
        counts.clear()
        _even_power_quadrature(K, rho)
        [(rule, calls)] = counts
        assert calls <= spent, (rho, rule)
        if rule == "integrate":
            assert calls == spent, rho


def _theta_even_power_integrand(K, rho):
    """theta -> 1/sqrt(2R), the even-power integrand in its theta form: the
    reference that the (c, s) form must match bit for bit."""
    if rho == math.inf:
        base, weight, coeffs = 0.0, 1.0 / K, (1.0,) * K
    elif rho >= 0.0:
        base, weight, coeffs = 1.0, rho / K, (1.0,) * K
    else:
        base, weight = 1.0 + rho, -rho / K
        coeffs = tuple(float(K - 1 - l) for l in range(K - 1))
    top, rest = coeffs[-1], coeffs[-2::-1]

    def integrand(theta):
        c = math.cos(theta)
        c *= c
        acc = top
        for coeff in rest:
            acc = coeff + acc * c
        if rho < 0.0:
            u = math.sin(theta)
            acc *= u * u
        return 1.0 / math.sqrt(base + weight * acc)

    return integrand


def _theta_trapezoid(f, rel_tol):
    """(value, evaluations) of the periodic trapezoidal rule in its theta
    form, each sample forming its node: the reference for the node tables."""
    from pmsdelta.quadrature import _FIRST_PANELS, _times_two_pi

    quarter = 0.5 * math.pi
    panels = _FIRST_PANELS
    samples = [0.5 * f(0.0), 0.5 * f(quarter)]
    samples += [f(quarter * j / panels) for j in range(1, panels)]
    mean = math.fsum(samples) / panels
    while True:
        samples += [f(quarter * (2 * j + 1) / (2 * panels)) for j in range(panels)]
        panels *= 2
        previous, mean = mean, math.fsum(samples) / panels
        if abs(mean - previous) <= rel_tol * abs(mean):
            break
    total = mean * panels
    residual = math.fsum([*samples, -total])
    return _times_two_pi(total, residual) / panels, len(samples)


def _oracle_sweep_even_power_cells():
    """(K, rho) of every K >= 4 even-power cell in the oracle-sweep plans of
    seeds 1-8, near-singular set included, from the benchmark's generator."""
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    loader = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(workloads)
    cells = []
    for seed in range(1, 9):
        plan = workloads.plan("oracle-sweep", seed)
        for op in plan["pool"] + plan["near_singular"]:
            if op["kind"] == "even_power" and op["args"][0] >= 4:
                cells.append(tuple(op["args"][:2]))
    return cells


THETA_FORM_CELLS = {
    "grid": [(K, rho) for K in (4, 5, 8, 16, 64)
             for rho in (-0.99, -0.9, -0.5, 1e-9, 0.5, 2.0, 40.0, 1e300, math.inf)],
    "near-separatrix": [cell[1:3] for cell in EVEN_POWER_PERIOD_CELLS if cell[3] == "integrate"],
}


@pytest.mark.parametrize("cells", ["oracle-sweep", *THETA_FORM_CELLS])
def test_node_tables_keep_every_bit_of_the_theta_form(monkeypatch, cells):
    # The trapezoidal rule reads cos^2 and sin^2 of its nodes from tables,
    # and integrate takes the (c, s) integrand through _in_theta; both give
    # the theta form's period to the bit, after the same number of calls.
    inputs = _oracle_sweep_even_power_cells() if cells == "oracle-sweep" else THETA_FORM_CELLS[cells]
    assert len(inputs) == {"oracle-sweep": 88, "grid": 45, "near-separatrix": 2}[cells]
    counts = _count_evaluations(monkeypatch)
    rules = set()
    for K, rho in inputs:
        counts.clear()
        value = _even_power_quadrature(K, rho)
        [(rule, calls)] = counts
        rules.add(rule)
        f = _theta_even_power_integrand(K, rho)
        if rule == "_periodic_trapezoid":
            expected, evaluations = _theta_trapezoid(f, rel_tol=1e-14)
        else:
            result = integrate(f, 0.0, 0.5 * math.pi, abs_tol=1e-300, rel_tol=1e-14)
            expected, evaluations = 4.0 * result.value, result.evaluations
        assert value.hex() == expected.hex(), (K, rho)
        assert calls == evaluations, (K, rho)
    # The sweep's cells and the grid take both rules, the near-separatrix
    # cells integrate alone.
    assert rules == ({"integrate"} if cells == "near-separatrix"
                     else {"integrate", "_periodic_trapezoid"})


def _quartic_cubic_args(a2, a4, x_minus, x_plus):
    """(a2, a3, a4, x-, x+) with a3 putting both turning points at one
    potential, as the benchmark does."""
    a3 = -(a2 * (x_plus**2 - x_minus**2) + a4 * (x_plus**4 - x_minus**4)) / (
        x_plus**3 - x_minus**3
    )
    return a2, a3, a4, x_minus, x_plus


@functools.lru_cache(maxsize=None)
def _mp_quartic_cubic_period(a2, a3, a4, x_minus, x_plus):
    """sqrt(2) * integral of dtheta/sqrt(R) at 50 digits, R formed from the
    potential's parameters."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a2_, a3_, a4_, lo, hi = map(mpmath.mpf, (a2, a3, a4, x_minus, x_plus))
        s, p = lo + hi, lo * hi
        # E - V = (x+ - x)(x - x-) R(x), R = b0 + b1 x + a4 x^2.
        b0, b1 = a2_ + a3_ * s + a4_ * (s * s - p), a3_ + a4_ * s

        def f(theta):
            x = (lo + hi) / 2 + (hi - lo) / 2 * mpmath.cos(theta)
            return 1 / mpmath.sqrt(b0 + b1 * x + a4_ * x * x)

        return mpmath.sqrt(2) * mpmath.quad(f, [0, mpmath.pi])


@pytest.mark.parametrize("a2, a4, x_minus, x_plus", QUARTIC_CUBIC_PERIOD_CELLS)
def test_quartic_cubic_periods_match_mpmath_within_budget(a2, a4, x_minus, x_plus):
    # The exact period comes from the AGM; the quadrature, the oracle's method
    # for factors of higher degree, is held to its budget on these cells too.
    args = _quartic_cubic_args(a2, a4, x_minus, x_plus)
    factor = OscillatorModel.quartic_cubic(*args).factor
    calls = 0

    def integrand(theta):
        nonlocal calls
        calls += 1
        return 1.0 / math.sqrt(factor.evaluate(theta))

    result = integrate(integrand, 0.0, math.pi, abs_tol=1e-13)
    value = math.sqrt(2.0) * result.value
    reference = _mp_quartic_cubic_period(*args)
    assert abs(value - reference) <= 1e-15 * reference
    assert result.evaluations == calls <= 147


@pytest.mark.parametrize("a2, a4, x_minus, x_plus", QUARTIC_CUBIC_PERIOD_CELLS)
def test_quartic_cubic_agm_matches_mpmath(a2, a4, x_minus, x_plus):
    args = _quartic_cubic_args(a2, a4, x_minus, x_plus)
    reference = _mp_quartic_cubic_period(*args)
    value = quartic_cubic_exact_period(*args)
    assert abs(value - reference) <= 1e-15 * reference


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    K=st.sampled_from((2, 3)),
    rho=st.one_of(
        st.floats(min_value=-1.0, max_value=1e300, exclude_min=True), st.just(math.inf)
    ),
)
def test_quadratic_even_power_agm_matches_quadrature(K, rho):
    value = even_power_exact_period(K, rho)
    assert 0.0 < value < math.inf
    assert abs(value - _even_power_quadrature(K, rho)) <= 2e-15 * value


def _near_barrier_well(a2):
    """A quartic-cubic well whose factor is least inside (0, pi); the
    factor's minimum falls to zero as a2 rises to about 0.81735."""
    return _quartic_cubic_args(a2, 0.5, -0.3, 1.0)


def _mp_factor_period(coeffs):
    """sqrt(2) * integral of dtheta/sqrt(R) at 50 digits for R with the given
    cos(theta) coefficients, breakpoints clustered where R is least."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        r0, r1, r2 = map(mpmath.mpf, coeffs)
        lowest = mpmath.acos(-r1 / (2 * r2))
        points = sorted(
            {mpmath.mpf(0), mpmath.pi, lowest}
            | {lowest + sign * mpmath.mpf(10) ** -k for k in range(1, 12) for sign in (-1, 1)}
        )

        def f(theta):
            c = mpmath.cos(theta)
            return 1 / mpmath.sqrt(r0 + r1 * c + r2 * c * c)

        return mpmath.sqrt(2) * mpmath.quad(f, [t for t in points if 0 <= t <= mpmath.pi])


def test_quartic_cubic_agm_keeps_digits_up_to_the_barrier():
    # Near the barrier sqrt(AC) + B/2 cancels (B < 0).  Formed directly, it
    # put 1.6e-15 of error in the period at a factor minimum of 3.6e-3 R(0),
    # and 1.3e-4 at 5e-14 R(0).
    # The reference integrates the factor as stored: its own rounding moves
    # the period by more than 1e-15 here, and the AGM is what is checked.
    accepted, refused = 0.8, 0.82
    OscillatorModel.quartic_cubic(*_near_barrier_well(accepted))
    with pytest.raises(BarrierCrossed):
        OscillatorModel.quartic_cubic(*_near_barrier_well(refused))
    while (mid := 0.5 * (accepted + refused)) not in (accepted, refused):
        try:
            OscillatorModel.quartic_cubic(*_near_barrier_well(mid))
            accepted = mid
        except BarrierCrossed:
            refused = mid
    # The exact period runs the model's own exact test: it refuses the first
    # a2 the model refuses and returns at the last one the model accepts.
    with pytest.raises(BarrierCrossed):
        quartic_cubic_exact_period(*_near_barrier_well(refused))
    assert 0.0 < quartic_cubic_exact_period(*_near_barrier_well(accepted)) < math.inf
    for a2, low, high in ((0.81731792, 5e-4, 2e-3), (accepted, 0.0, 1e-13)):
        factor = OscillatorModel.quartic_cubic(*_near_barrier_well(a2)).factor
        r0, r1, r2 = factor.coeffs
        assert r2 > r0  # B = 2 (r0 - r2) < 0
        assert low < extrema(factor)[1] / factor.evaluate(0.0) < high
        reference = _mp_factor_period(factor.coeffs)
        value = quartic_cubic_exact_period(*_near_barrier_well(a2))
        assert abs(value - reference) <= 1e-15 * reference


# Cells of the benchmark's oracle sweep: (x-, x+).
CUBIC_CELLS = [(-0.2, 0.15), (-0.5, 0.55), (-0.8, 0.6), (-0.85, 0.9)]


@pytest.mark.parametrize("x_minus, x_plus", CUBIC_CELLS)
def test_cubic_agm_matches_quadrature(x_minus, x_plus):
    factor = OscillatorModel.cubic(x_minus, x_plus).factor
    quadrature = integrate(
        lambda theta: 1.0 / math.sqrt(factor.evaluate(theta)),
        0.0, math.pi, abs_tol=1e-300, rel_tol=1e-14,
    )
    exact = cubic_exact_period(x_minus, x_plus)
    assert exact == pytest.approx(math.sqrt(2.0) * quadrature.value, rel=1e-14)


def test_cubic_symmetric_is_harmonic():
    assert cubic_series(-1.0, 1.0, 0) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert cubic_series(-1.0, 1.0, 10) == pytest.approx(2.0 * math.pi, rel=1e-14)
    # One ulp from symmetric at 1e150, mu is about 1e-166 and mu^2 underflows
    # to zero, so a barrier test that divides by it raises ZeroDivisionError.
    x_plus = math.nextafter(1e150, math.inf)
    assert cubic_series(-1e150, x_plus, 4) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert cubic_exact_period(-1e150, x_plus) == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_cubic_subnormal_sigma_keeps_digits():
    # sigma = x+^2 + x+ x- + x-^2 is subnormal near 1e-160; the period
    # depends only on x+/x-, so the pair must give the (-1, 1.366) values.
    for order in (0, 4, 12):
        assert cubic_series(-1e-160, 1.366e-160, order) == pytest.approx(
            cubic_series(-1.0, 1.366, order), rel=1e-15
        )
    assert cubic_exact_period(-1e-160, 1.366e-160) == pytest.approx(
        cubic_exact_period(-1.0, 1.366), rel=1e-15
    )


def test_cubic_series_vs_oracle():
    series = cubic_series(-1.0, 1.05, 30)
    exact = cubic_exact_period(-1.0, 1.05)
    print(f"cubic (-1, 1.05): series {series:.12f} vs exact {exact:.12f}")
    assert series == pytest.approx(exact, rel=1e-10)


def test_cubic_rejections():
    with pytest.raises(BarrierCrossed):
        cubic_series(-1.0, 10.0, 4)
    with pytest.raises(DomainError):
        cubic_series(0.5, 1.0, 4)
    with pytest.raises(DomainError):
        cubic_series(-1.0, 1.0, -1)


def test_cubic_rejects_infinite_turning_points():
    with pytest.raises(DomainError):
        cubic_series(-1.0, math.inf, 3)
    with pytest.raises(DomainError):
        OscillatorModel.cubic(-1.0, math.inf)
    with pytest.raises(DomainError):
        cubic_exact_period(-math.inf, 1.0)


def _ulps(x, steps):
    """x moved by `steps` ulps (toward +inf when steps > 0)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


# Pairs drawn at random, on both separatrix lines x+ = -2 x- and
# x- = -2 x+, and within a few ulps of them, scaled by a power of two.
_MAGNITUDE = st.floats(1e-3, 1e3)
_STEPS = st.integers(-4, 4)
CUBIC_PAIRS = st.tuples(
    st.one_of(
        st.tuples(st.floats(-1e3, -1e-3), _MAGNITUDE),
        _MAGNITUDE.map(lambda x: (-x, 2.0 * x)),
        _MAGNITUDE.map(lambda x: (-2.0 * x, x)),
        st.tuples(_MAGNITUDE, _STEPS, _STEPS).map(
            lambda a: (_ulps(-a[0], a[1]), _ulps(2.0 * a[0], a[2]))
        ),
        st.tuples(_MAGNITUDE, _STEPS, _STEPS).map(
            lambda a: (_ulps(-2.0 * a[0], a[1]), _ulps(a[0], a[2]))
        ),
    ),
    st.integers(-500, 500),
).map(lambda a: (math.ldexp(a[0][0], a[1]), math.ldexp(a[0][1], a[1])))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(pair=CUBIC_PAIRS)
@example(pair=(-6.070788974335778, 12.141577948671555))
@example(pair=(-2.2332635753248495, 4.466527150649697))
def test_cubic_single_well_test_is_exact(pair):
    # The float sign tests 2 x- + x+ and x- + 2 x+ must agree with exact
    # arithmetic: BarrierCrossed exactly for crossed pairs; on the
    # separatrix a finite series and no exact period; elsewhere both finite.
    x_minus, x_plus = pair
    left = 2 * Fraction(x_minus) + Fraction(x_plus)
    right = Fraction(x_minus) + 2 * Fraction(x_plus)
    if left > 0 or right < 0:
        with pytest.raises(BarrierCrossed):
            cubic_series(x_minus, x_plus, 6)
        with pytest.raises(BarrierCrossed):
            cubic_exact_period(x_minus, x_plus)
        return
    if left == 0 or right == 0:
        with pytest.warns(DivergentExpansion):
            assert math.isfinite(cubic_series(x_minus, x_plus, 6))
        with pytest.raises(NoPeriodicMotion, match="separatrix"):
            cubic_exact_period(x_minus, x_plus)
    else:
        assert math.isfinite(cubic_series(x_minus, x_plus, 6))
        assert math.isfinite(cubic_exact_period(x_minus, x_plus))


def test_cubic_separatrix_has_no_exact_period():
    # (-1, 2) puts the third zero of the cubic on x+: R vanishes at theta = 0
    # and the period is infinite.  The series still sums its terms.
    with pytest.raises(NoPeriodicMotion, match="separatrix"):
        cubic_exact_period(-1.0, 2.0)
    with pytest.warns(DivergentExpansion):
        assert math.isfinite(cubic_series(-1.0, 2.0, 4))


@pytest.mark.parametrize(
    "separatrix, regular",
    [((-1.0, 2.0), (-1.0, math.nextafter(2.0, 0.0))),
     ((-2.0, 1.0), (math.nextafter(-2.0, 0.0), 1.0)),
     ((-6.070788974335778, 12.141577948671555),
      (-6.070788974335778, math.nextafter(12.141577948671555, 0.0)))],
)
def test_cubic_series_on_the_separatrix_warns_divergent(separatrix, regular):
    # On either separatrix line one end of R is 0, so max |Delta| = |xi| = 1;
    # one ulp inside the well |xi| < 1 and nothing is said.
    with pytest.warns(DivergentExpansion, match=r"\|xi\| = 1\.000000 >= 1"):
        cubic_series(*separatrix, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DivergentExpansion)
        cubic_series(*regular, 6)


def test_quartic_cubic_pms_improves_with_order():
    # Turning points of V = x^2/2 + 0.1 x^3 + 0.1 x^4 at E = 0.2.
    x_minus, x_plus = -0.6474066047756843, 0.5812792030865791
    omega, t0, t2 = quartic_cubic_pms(0.5, 0.1, 0.1, x_minus, x_plus)
    exact = quartic_cubic_exact_period(0.5, 0.1, 0.1, x_minus, x_plus)
    assert omega == pytest.approx(0.7398306531067346, rel=1e-12)
    err0 = abs(t0 - exact) / exact
    err2 = abs(t2 - exact) / exact
    print(f"quartic-cubic: T0 err {err0:.3e}, T2 err {err2:.3e}, exact {exact:.12f}")
    assert err2 < err0
    assert err2 < 1e-3


@pytest.mark.parametrize("a4", [-0.3, -0.4])
def test_quartic_cubic_pms_rejects_barrier_crossing(a4):
    # R = 0.5 + a4 + a4 cos^2: negative at theta = 0 with a positive mean
    # (a4 = -0.3), or with a negative mean (a4 = -0.4).  The exact period
    # refuses the same inputs with the same error.
    with pytest.raises(NoPeriodicMotion):
        quartic_cubic_pms(0.5, 0.0, a4, -1.0, 1.0)
    with pytest.raises(NoPeriodicMotion):
        quartic_cubic_exact_period(0.5, 0.0, a4, -1.0, 1.0)


def test_quartic_cubic_rejects_dip_between_grid_nodes():
    # R = cos^2 - 1e-6 is negative only for |theta - pi/2| < 1e-3, which lies
    # between two nodes of the 512-point positivity grid.
    for fn in (quartic_cubic_pms, quartic_cubic_exact_period):
        with pytest.raises(NoPeriodicMotion):
            fn(-1.000001, 0.0, 1.0, -1.0, 1.0)


def test_quartic_cubic_refuses_factor_whose_ends_overflow():
    # Each coefficient is finite, but R(0) = r0 + r1 + r2 is not: the exact
    # barrier test refuses the well instead of overflowing.
    for fn in (OscillatorModel.quartic_cubic, quartic_cubic_pms, quartic_cubic_exact_period):
        with pytest.raises(DomainError):
            fn(1.5e308, 0.0, 0.8e308, -0.5, 0.5)


def test_quartic_cubic_exact_embeds_cubic_and_duffing():
    # a4 = 0 leaves a factor linear in cos(theta), and a3 = 0 at a2 = 1/2,
    # a4 = 1/4 is Duffing at rho = 1: both have their own AGM references.
    mu = OscillatorModel.cubic(-1.0, 1.05).params["mu"]
    assert quartic_cubic_exact_period(0.5, mu / 3.0, 0.0, -1.0, 1.05) == pytest.approx(
        cubic_exact_period(-1.0, 1.05), rel=1e-14
    )
    assert quartic_cubic_exact_period(0.5, 0.0, 0.25, -1.0, 1.0) == pytest.approx(
        duffing_exact_period(1.0), rel=1e-15
    )


def test_quartic_cubic_embeds_cubic_frequency():
    model = OscillatorModel.cubic(-1.0, 1.05)
    mu = model.params["mu"]
    omega_qc, _, _ = quartic_cubic_pms(0.5, mu / 3.0, 0.0, -1.0, 1.05)
    omega_cubic = pms_first_order(model.factor)
    assert omega_qc == pytest.approx(omega_cubic, rel=1e-14)


def test_pendulum_exact():
    assert pendulum_exact(1e-6) == pytest.approx(2.0 * math.pi, rel=1e-9)
    half_pi = pendulum_exact(math.pi / 2.0)
    assert half_pi == pytest.approx(4.0 * elliptic_k(0.5), rel=1e-15)
    amplitudes = np.linspace(0.1, 3.0, 12)
    periods = [pendulum_exact(a) for a in amplitudes]
    assert all(b > a for a, b in zip(periods, periods[1:]))
    with pytest.raises(DomainError):
        pendulum_exact(math.pi)
    with pytest.raises(DomainError):
        pendulum_exact(0.0)


@pytest.mark.parametrize(
    "amplitude",
    [0.3, 1.0, 2.0, 3.0, math.pi - 1e-6, math.pi - 1e-9]
    + [0.05, 0.7, 1.5, 2.5, 3.1] + [math.pi - 10.0**-k for k in (1, 2, 3, 4, 12, 14, 15)],
)
def test_pendulum_exact_matches_mpmath(amplitude):
    # Near pi, sin^2(A/2) rounds to 1; the complementary modulus cos(A/2)
    # keeps the period to rounding.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        a = mpmath.mpf(amplitude)
        reference = 4 * mpmath.ellipk(mpmath.sin(a / 2) ** 2)
        assert abs(pendulum_exact(amplitude) - reference) <= 1e-15 * reference


def test_pendulum_taylor2_is_flat():
    for amplitude in (0.3, 1.0, 2.5):
        assert pendulum_approx(amplitude, 2, 4) == pytest.approx(
            2.0 * math.pi, rel=1e-14
        )


def test_pendulum_taylor4_leading_formula():
    got = pendulum_approx(1.0, 4, 0)
    assert got == pytest.approx(4.0 * math.sqrt(2.0) * math.pi / math.sqrt(7.0), rel=1e-14)
    for amplitude in (0.25, 0.5, 1.0):
        approx = pendulum_approx(amplitude, 4, 0)
        exact = pendulum_exact(amplitude)
        assert abs(approx - exact) / exact < 3e-3


def test_pendulum_taylor6_improves():
    for amplitude in (0.5, 1.0, 1.5, 2.0):
        exact = pendulum_exact(amplitude)
        err4 = abs(pendulum_approx(amplitude, 4, 0) - exact) / exact
        err6 = abs(pendulum_approx(amplitude, 6, 0) - exact) / exact
        assert err6 < err4, f"A={amplitude}"
    exact = pendulum_exact(2.0)
    err_leading = abs(pendulum_approx(2.0, 6, 0) - exact) / exact
    err_second = abs(pendulum_approx(2.0, 6, 2) - exact) / exact
    print(f"pendulum A=2: order-6 leading err {err_leading:.3e}, second {err_second:.3e}")
    assert err_second < err_leading


def test_pendulum_taylor4_beyond_sqrt6_has_no_periodic_motion():
    # Taylor 4 is the quartic family at rho = -A^2/6, which reaches -1 at
    # A = sqrt(6).  The refusal names the amplitude the caller gave, not rho.
    with pytest.raises(NoPeriodicMotion, match=r"amplitude 2\.6 .* Taylor-4 barrier sqrt\(6\)"):
        pendulum_approx(2.6, 4, 4)
    assert math.isfinite(pendulum_approx(2.4, 4, 4))


def test_pendulum_approx_rejections():
    with pytest.raises(DomainError):
        pendulum_approx(1.0, 3, 0)
    with pytest.raises(DomainError):
        pendulum_approx(3.3, 4, 0)
    with pytest.raises(DomainError):
        pendulum_approx(1.0, 4, -1)


# ---------------------------------------------------------------------------
# Spec reuse: a table of orders builds its spec once and keeps every bit
# ---------------------------------------------------------------------------


def _even_power_uncached(K, rho, kappa, order):
    spec = _even_power_spec.__wrapped__(int(K), float(rho), float(kappa))
    return math.sqrt(2.0) * expand(spec, order).value


def _pendulum_uncached(amplitude, taylor_order, order):
    spec = _pendulum_spec.__wrapped__(float(amplitude), int(taylor_order))
    return math.sqrt(2.0) * expand(spec, order).value


@pytest.mark.parametrize("K", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "rule", [even_power_kappa_pms, even_power_kappa_balanced], ids=["pms", "balanced"]
)
def test_even_power_table_with_a_reused_spec_keeps_every_bit(K, rule):
    # Parameter sets A, B, A: the cache holds B when A comes back.
    kappa = rule(K)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DivergentExpansion)
        for rho in (-0.5, math.inf, -0.5):
            for order in range(33):
                value = even_power_series(K, rho, kappa, order)
                assert value.hex() == _even_power_uncached(K, rho, kappa, order).hex()


@pytest.mark.parametrize("taylor_order", [2, 4, 6])
def test_pendulum_table_with_a_reused_spec_keeps_every_bit(taylor_order):
    for amplitude in (1.3, 2.2, 1.3):
        for order in range(33):
            value = pendulum_approx(amplitude, taylor_order, order)
            assert value.hex() == _pendulum_uncached(amplitude, taylor_order, order).hex()


def test_equal_keys_of_other_types_give_the_floats_bits():
    # Each input is used right after an equal one of another type, so the
    # spec comes from the cache; a 0-d array is accepted as a float, as it
    # was before the cache, rather than failing to hash.
    kappa = even_power_kappa_pms(3)
    for rho in (0.0, -0.0, 0.0, 2, 2.0, np.float64(2.0), np.array(2.0), np.array(-0.0)):
        for K in (3, 3.0, np.int64(3)):
            value = even_power_series(K, rho, np.array(kappa), 6)
            assert value.hex() == _even_power_uncached(3, rho, kappa, 6).hex()
    for amplitude in (1, 1.0, np.float64(1.0), np.array(1.0)):
        for taylor_order in (6, 6.0, np.int64(6), np.array(6)):
            value = pendulum_approx(amplitude, taylor_order, 6)
            assert value.hex() == _pendulum_uncached(1.0, 6, 6).hex()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: even_power_series(3, -1.0, 0.5, 4), NoPeriodicMotion),
        (lambda: even_power_series(3, 2.0, -1.0, 4), DomainError),
        (lambda: even_power_series(3, math.inf, 0.0, 4), DomainError),
        (lambda: pendulum_approx(2.6, 4, 4), NoPeriodicMotion),
    ],
    ids=["rho-minus-one", "omega-squared-negative", "omega-squared-zero-at-inf",
         "pendulum-barrier"],
)
def test_a_refused_input_raises_on_every_call(call, error):
    # A cache keeps no exceptions, so the second call checks again.
    raised = []
    for _ in range(2):
        with pytest.raises(error) as info:
            call()
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]


def test_divergence_warning_comes_with_every_call():
    kappa = even_power_kappa_pms(5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for order in range(6):
            even_power_series(5, math.inf, kappa, order)
    assert [w.category for w in caught] == [DivergentExpansion] * 6
