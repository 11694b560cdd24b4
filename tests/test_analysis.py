"""Tests for the convergence-study module."""

import json
import math

import pytest

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
from pmsdelta.errors import DomainError, ThirdRootInsideInterval
from pmsdelta.oracle import elliptic_k
from pmsdelta.oscillators import duffing_exact_period, duffing_period_series
from pmsdelta.precession import critical_semimajor_axis


def test_duffing_b0_study_shape():
    study = duffing_b0_study(10)
    assert study.label == "duffing-b0"
    assert len(study.points) == 11
    assert [p.n for p in study.points] == [float(n) for n in range(11)]
    b0_exact = math.pi / (2.0 * elliptic_k(0.5))
    for p in study.points:
        assert p.reference == pytest.approx(b0_exact, rel=1e-12)


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


def test_sextic_c0_study():
    study = sextic_c0_study(16)
    assert study.label == "sextic-c0"
    assert len(study.points) == 17
    assert study.points[0].reference == pytest.approx(8.413092631, abs=1e-8)
    # Fourth-order value matches the closed-form strong-coupling limit.
    assert study.points[4].value == pytest.approx(8.41292, abs=5e-5)
    assert study.fit is not None
    assert study.fit.beta == pytest.approx(0.45457852973113, rel=1e-9)


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
