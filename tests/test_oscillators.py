"""Checks for the oscillator families against closed forms and the oracle."""

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
from pmsdelta.oracle import elliptic_k, integrate
from pmsdelta.oscillators import (
    OscillatorModel,
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
    even_power_series,
    pendulum_approx,
    pendulum_exact,
    quartic_cubic_exact_period,
    quartic_cubic_pms,
    sextic_exact_period,
    sextic_series,
    sextic_t4,
    sextic_wl_period,
    turning_points,
    virial_omega_check,
    _even_power_spec,
    _sextic_weight,
)
from pmsdelta.precession import OrbitParams, precession_series
from pmsdelta.series_core import (
    MAX_EXPONENT,
    MAX_ORDER,
    _extrema,
    delta_of,
    expand,
    pms_first_order,
)


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
    assert turning_points(model) is model.points
    try:
        spec = model.points.spec_at()
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


def test_extrema_drops_roots_sent_to_infinity():
    # A4 of 1e-320 sends a root of the factor's derivative to infinity; numpy's
    # overflow warning used to escape _extrema instead of BarrierCrossed.
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
    pts = turning_points(OscillatorModel.duffing(0.0, 1.0))
    assert (pts.x_minus, pts.x_plus) == (-1.0, 1.0)
    assert pts.factor.coeffs == (0.5,)
    assert pts.rho == 0.0
    spec = pts.spec_at()
    assert spec.omega == pytest.approx(math.sqrt(0.5), rel=1e-15)


def test_turning_points_cubic_example():
    model = OscillatorModel.cubic(-1.0, 2.0)
    assert model.params["mu"] == pytest.approx(-0.5, rel=1e-15)
    assert model.energy == pytest.approx(2.0 / 3.0, rel=1e-15)
    pts = turning_points(model)
    assert math.isnan(pts.rho)
    # Stationary frequency of this configuration is exactly 1/2.
    assert pms_first_order(pts.factor) == pytest.approx(0.5, rel=1e-14)


def test_turning_points_rejections():
    with pytest.raises(NoPeriodicMotion):
        turning_points(OscillatorModel.duffing(-1.2, 1.0))
    with pytest.raises(BarrierCrossed):
        turning_points(OscillatorModel.cubic(-1.0, 10.0))


def test_quartic_cubic_embeds_duffing():
    pts_qc = turning_points(OscillatorModel.quartic_cubic(0.5, 0.0, 0.25, -1.0, 1.0))
    pts_d = turning_points(OscillatorModel.duffing(1.0, 1.0))
    assert pts_qc.factor.coeffs == pytest.approx(pts_d.factor.coeffs, rel=1e-15)


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
    pts = turning_points(OscillatorModel.sextic(rho, 1.0))
    spec = pts.spec_at()
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
    hi, lo = _extrema(delta_of(spec))
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


def _mp_even_period(K, rho):
    """sqrt(2) * integral of dtheta/sqrt(R) at 50 digits, tanh-sinh with
    breakpoints clustered at theta = 0, where R dips as 1 + rho -> 0."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        weight = mpmath.mpf(rho) / (2 * K)

        def f(theta):
            c = mpmath.cos(theta) ** 2
            return 1 / mpmath.sqrt(0.5 + weight * mpmath.fsum(c**j for j in range(K)))

        points = [0] + [mpmath.mpf(10) ** -k for k in range(8, 0, -1)] + [mpmath.pi / 2]
        return 2 * mpmath.sqrt(2) * mpmath.quad(f, points)


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


# Cells of the benchmark's oracle sweep: (x-, x+).
CUBIC_CELLS = [(-0.2, 0.15), (-0.5, 0.55), (-0.8, 0.6), (-0.85, 0.9)]


@pytest.mark.parametrize("x_minus, x_plus", CUBIC_CELLS)
def test_cubic_agm_matches_quadrature(x_minus, x_plus):
    factor = turning_points(OscillatorModel.cubic(x_minus, x_plus)).factor
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
        turning_points(OscillatorModel.cubic(-1.0, math.inf))
    with pytest.raises(DomainError):
        cubic_exact_period(-math.inf, 1.0)


def test_cubic_separatrix_has_no_exact_period():
    # (-1, 2) puts the third zero of the cubic on x+: R vanishes at theta = 0
    # and the period is infinite.  The series still sums its terms.
    with pytest.raises(NoPeriodicMotion, match="separatrix"):
        cubic_exact_period(-1.0, 2.0)
    assert math.isfinite(cubic_series(-1.0, 2.0, 4))


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


def test_quartic_cubic_embeds_cubic_frequency():
    model = OscillatorModel.cubic(-1.0, 1.05)
    mu = model.params["mu"]
    omega_qc, _, _ = quartic_cubic_pms(0.5, mu / 3.0, 0.0, -1.0, 1.05)
    omega_cubic = pms_first_order(turning_points(model).factor)
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
    # A = sqrt(6).
    with pytest.raises(NoPeriodicMotion, match="rho must exceed -1"):
        pendulum_approx(2.6, 4, 4)
    assert math.isfinite(pendulum_approx(2.4, 4, 4))


def test_pendulum_approx_rejections():
    with pytest.raises(DomainError):
        pendulum_approx(1.0, 3, 0)
    with pytest.raises(DomainError):
        pendulum_approx(3.3, 4, 0)
    with pytest.raises(DomainError):
        pendulum_approx(1.0, 4, -1)
