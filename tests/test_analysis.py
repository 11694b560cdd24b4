"""Tests for the convergence-study module."""

import json
import math
import sys
import warnings
from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pmsdelta import analysis
from pmsdelta.analysis import (
    ConvergenceStudy,
    StudyPoint,
    duffing_b0_study,
    duffing_error_vs_rho,
    negative_rho_study,
    precession_error_table,
    sextic_c0_study,
)
from pmsdelta.constants import DEFAULT_ECCENTRICITY, DEFAULT_GM
from pmsdelta.errors import (
    DivergentExpansion,
    DomainError,
    OrderTooHigh,
    PmsDeltaError,
    ThirdRootInsideInterval,
)
from pmsdelta.oracle import elliptic_k
from pmsdelta.oscillators import (
    duffing_b0,
    duffing_exact_period,
    duffing_period_series,
    even_power_kappa_pms,
    even_power_series,
)
from pmsdelta.precession import critical_semimajor_axis
from pmsdelta.series_core import MAX_ORDER


def test_duffing_b0_study_shape():
    study = duffing_b0_study(10)
    assert study.label == "duffing-b0"
    assert len(study.points) == 11
    assert [p.n for p in study.points] == [float(n) for n in range(11)]
    b0_exact = math.pi / (2.0 * elliptic_k(0.5))
    for p in study.points:
        assert p.reference == pytest.approx(b0_exact, rel=1e-12)


@pytest.mark.parametrize(
    "build, labels",
    [
        (lambda: precession_error_table([300.0], [2.0]), ["precession-order2"]),
        (lambda: [duffing_error_vs_rho([1.0], 2.0)], ["duffing-rho-order2"]),
        (
            lambda: negative_rho_study(4.0, -0.9, 8.0),
            ["negative-rho-K4-even", "negative-rho-K4-odd"],
        ),
    ],
    ids=["precession", "duffing-rho", "negative-rho"],
)
def test_study_labels_name_the_checked_integer(build, labels):
    # An integral float is accepted as an order or exponent; the label
    # carries the int the study computed at, not "2.0" or "K4.0".
    assert [study.label for study in build()] == labels


def test_duffing_b0_errors_decrease():
    study = duffing_b0_study(10)
    errs = [p.rel_error for p in study.points]
    for a, b in zip(errs, errs[1:]):
        assert b < a


def test_duffing_b0_fit_slope_value():
    # Pinned regression value for the N = 1..10 window.  The sequence decays
    # roughly like 9^-N with an algebraic prefactor, so the fitted slope sits
    # measurably below ln 9 = 2.197 and the residual is not small.
    study = duffing_b0_study(10)
    assert study.fit is not None
    assert study.fit.beta == pytest.approx(2.3656, rel=1e-4)
    assert study.fit.residual > 0.05


def test_duffing_b0_study_rejects_small_order():
    with pytest.raises(DomainError):
        duffing_b0_study(2)


def test_duffing_rho_sweep_monotone_and_bounded():
    grid = [0.1, 1.0, 10.0, 100.0, 1e4]
    study = duffing_error_vs_rho(grid, order=2)
    assert study.fit is None
    assert [p.n for p in study.points] == grid
    errs = [p.rel_error for p in study.points]
    for a, b in zip(errs, errs[1:]):
        assert b > a
    asymptote = 1.0341087828e-4
    assert errs[-1] < asymptote
    assert errs[-1] > 0.9 * asymptote


def test_duffing_rho_sweep_values_are_frequencies():
    study = duffing_error_vs_rho([1.0], order=2)
    p = study.points[0]
    assert p.value == pytest.approx(
        2.0 * math.pi / duffing_period_series(1.0, 2), rel=1e-15
    )
    assert p.reference == pytest.approx(
        2.0 * math.pi / duffing_exact_period(1.0), rel=1e-15
    )


def test_duffing_rho_sweep_rejections():
    with pytest.raises(DomainError):
        duffing_error_vs_rho([])
    with pytest.raises(DomainError):
        duffing_error_vs_rho([0.5, -1.5])


def test_duffing_rho_sweep_bound_holds_only_for_small_xi():
    # xi = rho/(4 + 3 rho) leaves [-1/3, 1/3] below rho = -2/3: there the
    # error exceeds the rho = inf asymptote and is reported without the bound.
    # At rho = -2/3, xi = -1/3 and the error equals the asymptote.
    study = duffing_error_vs_rho([-0.9, -0.7, -2.0 / 3.0, 0.0, 1.0], order=2)
    errs = [p.rel_error for p in study.points]
    assert errs[0] > errs[1] > 1.0341087828e-4
    assert errs[2] == pytest.approx(1.0341087828e-4, rel=1e-9)
    # From order 14 the asymptote is about an ulp: the errors are rounding.
    for order in (8, 14, 64):
        duffing_error_vs_rho([-2.0 / 3.0, -0.5, 0.1, 1.0, 1e4, 1e8], order=order)


def test_zero_reference_is_refused():
    with pytest.raises(DomainError, match="inf"):
        precession_error_table([300.0, math.inf], orders=[0])
    with pytest.raises(DomainError, match="300"):
        precession_error_table([300.0], orders=[0], GM=0.0)


def test_sextic_c0_study():
    study = sextic_c0_study(16)
    assert study.label == "sextic-c0"
    assert len(study.points) == 17
    assert study.points[0].reference == pytest.approx(8.413092631, abs=1e-8)
    # Fourth-order value matches the closed-form strong-coupling limit.
    assert study.points[4].value == pytest.approx(8.41292, abs=5e-5)
    assert study.fit is not None
    assert study.fit.beta == pytest.approx(0.45457852973113, rel=1e-9)


@pytest.mark.parametrize(
    "study, in_window",
    [(duffing_b0_study, lambda n: n >= 1), (sextic_c0_study, lambda n: n >= 2 and n % 2 == 0)],
)
@pytest.mark.parametrize("max_order", [10, 16])
def test_fit_matches_an_exact_least_squares_fit(study, in_window, max_order):
    mpmath = pytest.importorskip("mpmath")
    result = study(max_order)
    # The fit leaves out errors at the rounding floor, 4 eps and below.
    floor = 4.0 * sys.float_info.epsilon
    window = [p for p in result.points if in_window(p.n) and p.rel_error > floor]
    with mpmath.workdps(50):
        ns = [mpmath.mpf(p.n) for p in window]
        ys = [mpmath.log(p.rel_error) for p in window]
        n_mean, y_mean = sum(ns) / len(ns), sum(ys) / len(ys)
        slope = sum((n - n_mean) * (y - y_mean) for n, y in zip(ns, ys)) / sum(
            (n - n_mean) ** 2 for n in ns
        )
        intercept = y_mean - slope * n_mean
        rms = mpmath.sqrt(sum((y - intercept - slope * n) ** 2 for n, y in zip(ns, ys)) / len(ns))
        for value, reference in zip(result.fit, (-intercept, -slope, rms)):
            assert abs(value - reference) <= 1e-14 * abs(reference)


def _hb(n):
    """The half-integer binomial (-1/2 choose n), exactly."""
    return Fraction((-1) ** n * math.comb(2 * n, n), 4**n)


def _sextic_moment(n):
    """J_n exactly: the w^(2n) coefficient of (w^4 + 8 w^3 + 8 w + 1)^n over 2^n."""
    b = 5 * n + 1
    x = 1 << b
    packed = (x**4 + 8 * x**3 + 8 * x + 1) ** n
    return Fraction((packed >> (2 * n * b)) & (x - 1), 2**n)


def _rate_fit(mpmath, partial_sums, limit, orders):
    """(beta, p) of the least-squares fit ln e_N = a - beta N - p ln N."""
    rows = [[1, -n, -mpmath.log(n)] for n in orders]
    logs = [mpmath.log(abs(partial_sums[n] / limit - 1)) for n in orders]
    (_, beta, p), _ = mpmath.qr_solve(mpmath.matrix(rows), mpmath.matrix(logs))
    return float(beta), float(p)


def test_strong_coupling_series_decay_at_the_papers_rates():
    # Past the window the studies fit, the errors of both strong-coupling
    # sequences decay like N^-1 r^N, at the paper's rates: r = 1/9 for the
    # quartic pair sum and r = 3/5 for the sextic series.  The partial sums
    # are exact rationals, rounded once to 80 and 60 digits.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        total, quartic = Fraction(0), []
        for j in range(61):
            total += Fraction(-1, 9) ** j * _hb(j) * _hb(2 * j)
            quartic.append(mpmath.mpf(total.numerator) / total.denominator)
        limit = mpmath.sqrt(3) * mpmath.ellipk(0.5) / mpmath.pi
        beta, p = _rate_fit(mpmath, quartic, limit, range(15, 61))
        assert abs(beta / math.log(9.0) - 1.0) < 2e-3 and abs(p - 1.0) < 0.1, (beta, p)
        for n in range(21):
            b0 = float(mpmath.sqrt(3) / (2 * quartic[n]))
            assert abs(duffing_b0(n) - b0) <= 2 * math.ulp(b0), n
    with mpmath.workdps(60):
        scale = mpmath.sqrt(2) * mpmath.pi / mpmath.sqrt(mpmath.mpf(5) / 16)
        total, sextic = Fraction(0), []
        for n in range(151):
            total += _hb(n) * Fraction(1, 15) ** n * _sextic_moment(n)
            sextic.append(scale * (mpmath.mpf(total.numerator) / total.denominator))

        def integrand(theta):
            c = mpmath.cos(theta) ** 2
            return 1 / mpmath.sqrt((1 + c + c * c) / 6)

        limit = mpmath.sqrt(2) * mpmath.quad(integrand, [0, mpmath.pi / 2, mpmath.pi])
        beta, p = _rate_fit(mpmath, sextic, limit, range(20, 151, 2))
        assert abs(beta / math.log(5.0 / 3.0) - 1.0) < 2e-3 and abs(p - 1.0) < 0.1, (beta, p)
        kappa = even_power_kappa_pms(3)
        for n in range(21):
            c0 = float(sextic[n])
            assert abs(even_power_series(3, math.inf, kappa, n) - c0) <= 2 * math.ulp(c0), n


def test_negative_rho_study_parity_split():
    even, odd = negative_rho_study(5, rho=-0.9, max_order=16)
    assert even.label == "negative-rho-K5-even"
    assert odd.label == "negative-rho-K5-odd"
    assert [p.n for p in even.points] == [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0]
    assert [p.n for p in odd.points] == [1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0]
    for pe, po in zip(even.points, odd.points):
        assert pe.rel_error <= po.rel_error
    assert even.fit.beta > 0.0
    assert odd.fit.beta > 0.0


def test_negative_rho_study_rejections():
    with pytest.raises(DomainError):
        negative_rho_study(6)
    with pytest.raises(DomainError):
        negative_rho_study(4, max_order=5)


def test_precession_table_orders_improve():
    a_c = critical_semimajor_axis(DEFAULT_GM, DEFAULT_ECCENTRICITY)
    studies = precession_error_table([1.5 * a_c, 2.0 * a_c], orders=[0, 2])
    assert [s.label for s in studies] == ["precession-order0", "precession-order2"]
    # Pinned errors at a = 1.5 a_c with the default constants.  The order
    # argument counts xi^2 pairs, so order 2 carries terms through xi^4.
    assert studies[0].points[0].rel_error == pytest.approx(8.82e-3, rel=1e-2)
    assert studies[1].points[0].rel_error == pytest.approx(1.06e-6, rel=1e-2)
    for s0, s2 in zip(studies[0].points, studies[1].points):
        assert s2.rel_error < s0.rel_error


def test_precession_table_subcritical_propagates():
    a_c = critical_semimajor_axis(DEFAULT_GM, DEFAULT_ECCENTRICITY)
    with pytest.raises(ThirdRootInsideInterval):
        precession_error_table([0.9 * a_c], orders=[0])
    with pytest.raises(ThirdRootInsideInterval):
        precession_error_table([1e-308, 1.0], orders=[0], GM=1.0)


def test_precession_table_rejections():
    with pytest.raises(DomainError):
        precession_error_table([], orders=[0])
    with pytest.raises(DomainError):
        precession_error_table([300.0], orders=[])


@pytest.mark.parametrize(
    "study",
    [
        lambda: duffing_b0_study(70),
        lambda: sextic_c0_study(70),
        lambda: negative_rho_study(5, -0.9, 70),
        lambda: precession_error_table([300.0], orders=[2, 70]),
    ],
    ids=["duffing-b0", "sextic-c0", "negative-rho", "precession"],
)
def test_an_order_above_the_cap_is_refused_before_any_work(monkeypatch, study):
    def no_work(*args):
        raise AssertionError("a study worked before checking its orders")

    for name in ("duffing_b0", "even_power_exact_period", "even_power_series",
                 "precession_exact", "precession_series"):
        monkeypatch.setattr(analysis, name, no_work)
    with pytest.raises(OrderTooHigh, match="^order 70 exceeds the cap of 64$"):
        study()


@pytest.mark.parametrize(
    "study, minimum",
    [
        (lambda: duffing_b0_study(2), 3),
        (lambda: sextic_c0_study(3), 4),
        (lambda: negative_rho_study(5, -0.9, 5), 6),
    ],
    ids=["duffing-b0", "sextic-c0", "negative-rho"],
)
def test_an_order_below_the_minimum_is_refused_before_any_work(monkeypatch, study, minimum):
    def no_work(*args):
        raise AssertionError("a study worked before checking its orders")

    for name in ("duffing_b0", "even_power_exact_period", "even_power_series"):
        monkeypatch.setattr(analysis, name, no_work)
    with pytest.raises(DomainError, match=f"^max_order must be >= {minimum}"):
        study()


def test_a_fit_window_without_two_nonzero_errors_is_named():
    # Near rho = 0 the series meets the reference to the last bit from a low
    # order on, so the even window keeps one nonzero error, or none.
    with pytest.raises(DomainError, match=r"fit window N = 2\.\.10 in steps of 2 holds 1 "):
        negative_rho_study(5, -1e-3, 10)
    with pytest.raises(DomainError, match=r"fit window N = 2\.\.6 in steps of 2 holds 0 "):
        negative_rho_study(4, 1e-9, 6)


def test_csv_round_trip():
    study = duffing_b0_study(4)
    text = study.to_csv()
    lines = text.splitlines()
    assert lines[0] == "n,value,reference,rel_error"
    assert len(lines) == 6
    assert text.endswith("\n")
    assert "\r" not in text
    for line, point in zip(lines[1:], study.points):
        n, value, reference, rel = (float(tok) for tok in line.split(","))
        assert n == point.n
        assert value == point.value
        assert reference == point.reference
        assert rel == point.rel_error


def test_json_round_trip():
    study = sextic_c0_study(6)
    payload = json.loads(study.to_json())
    assert list(payload) == ["label", "points", "fit"]
    assert payload["label"] == "sextic-c0"
    assert len(payload["points"]) == 7
    assert payload["points"][3]["value"] == study.points[3].value
    assert payload["fit"]["beta"] == study.fit.beta


def test_json_fit_null_for_sweeps():
    study = duffing_error_vs_rho([1.0, 2.0])
    payload = json.loads(study.to_json())
    assert payload["fit"] is None


def test_study_is_plain_data():
    point = StudyPoint(n=1.0, value=2.0, reference=2.5, rel_error=0.25)
    study = ConvergenceStudy(label="demo", points=(point,))
    assert study.fit is None
    assert study.to_csv() == "n,value,reference,rel_error\n1,2,2.5,0.25\n"


# Property tests of the studies' library entry points: every input, inside
# its domain or just outside it, gives a study whose numbers are all finite,
# or a typed error.  A refusal at the edge of an order range names the bound.


def assert_finite_study(study):
    assert isinstance(study, ConvergenceStudy)
    assert study.points
    for point in study.points:
        assert all(map(math.isfinite, astuple(point))), point
    if study.fit is not None:
        assert all(map(math.isfinite, study.fit)), study.fit


def max_order_study(study, max_order, minimum):
    """A study over orders 0..max_order, or the refusal that names the range."""
    if max_order < minimum:
        with pytest.raises(DomainError, match=f"^max_order must be >= {minimum}"):
            study(max_order)
    elif max_order > MAX_ORDER:
        with pytest.raises(OrderTooHigh, match=f"cap of {MAX_ORDER}"):
            study(max_order)
    else:
        assert_finite_study(study(max_order))


STUDY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=25)
MAX_ORDERS = st.integers(0, MAX_ORDER + 2)
# rho over (-1, inf], and just outside it.
RHOS = st.one_of(
    st.floats(-1.0, 1e6, exclude_min=True),
    st.floats(-1.0, 1.0).map(lambda u: -1.0 + 10.0 ** (-12 * abs(u))),
    st.sampled_from([-1.0, -1.5, math.inf]),
)


@STUDY_SETTINGS
@given(max_order=MAX_ORDERS)
@example(max_order=2)
@example(max_order=3)
def test_duffing_b0_study_gives_a_finite_study_or_names_its_range(max_order):
    max_order_study(duffing_b0_study, max_order, 3)


@STUDY_SETTINGS
@given(max_order=MAX_ORDERS)
@example(max_order=3)
@example(max_order=4)
def test_sextic_c0_study_gives_a_finite_study_or_names_its_range(max_order):
    max_order_study(sextic_c0_study, max_order, 4)


@STUDY_SETTINGS
@given(K=st.integers(2, 6), rho=RHOS, max_order=st.integers(5, MAX_ORDER + 1))
@example(K=5, rho=-1e-3, max_order=10)
def test_negative_rho_study_gives_finite_studies_or_a_typed_error(K, rho, max_order):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DivergentExpansion)
            studies = negative_rho_study(K, rho, max_order)
    except PmsDeltaError as exc:
        if K in (3, 4, 5) and rho > -1.0 and 6 <= max_order <= MAX_ORDER:
            assert "fit window" in str(exc)
        return
    assert K in (3, 4, 5) and rho > -1.0 and 6 <= max_order <= MAX_ORDER
    for study in studies:
        assert_finite_study(study)


@STUDY_SETTINGS
@given(grid=st.lists(RHOS, min_size=0, max_size=4), order=st.integers(-1, MAX_ORDER + 1))
def test_duffing_error_vs_rho_gives_a_finite_study_or_a_typed_error(grid, order):
    inside = bool(grid) and all(-1.0 < rho < math.inf for rho in grid)
    try:
        study = duffing_error_vs_rho(grid, order)
    except DomainError:
        assert not (inside and 0 <= order <= MAX_ORDER)
        return
    assert inside and 0 <= order <= MAX_ORDER
    assert_finite_study(study)


@STUDY_SETTINGS
@given(
    factors=st.lists(
        st.one_of(
            st.floats(-12.0, 12.0).map(lambda u: 1.0 + 10.0**u),
            st.sampled_from([1.0, 0.9, math.inf]),
        ),
        min_size=0,
        max_size=3,
    ),
    orders=st.lists(st.integers(-1, MAX_ORDER + 1), min_size=0, max_size=3),
    GM=st.floats(1e-3, 10.0),
    eccentricity=st.floats(0.0, 0.95),
)
def test_precession_error_table_gives_finite_studies_or_a_typed_error(
    factors, orders, GM, eccentricity
):
    # a = a_c (1 + 10^u) is regular; a_c itself and below are sub-critical,
    # and a = inf has a zero exact precession.
    a_c = critical_semimajor_axis(GM, eccentricity)
    grid = [a_c * f for f in factors]
    inside = (
        bool(grid) and all(a_c < a < math.inf for a in grid)
        and bool(orders) and all(0 <= n <= MAX_ORDER for n in orders)
    )
    try:
        studies = precession_error_table(grid, orders, GM=GM, eccentricity=eccentricity)
    except PmsDeltaError:
        assert not inside
        return
    assert inside
    assert len(studies) == len(orders)
    for study in studies:
        assert_finite_study(study)
