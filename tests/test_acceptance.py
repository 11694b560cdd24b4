"""Acceptance criteria for the package, one test per criterion.

Each test pins its tolerances explicitly.  Two criteria (02 and 05) assert
published asymptotic slopes that the computed sequences demonstrably do not
attain over the prescribed fit windows; they are implemented faithfully and
left failing, with the measured values carried in the assertion messages.
"""

import math
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from pmsdelta.analysis import duffing_b0_study, sextic_c0_study
from pmsdelta.errors import DivergentExpansion
from pmsdelta.oracle import integrate
from pmsdelta.oscillators import (
    OscillatorModel,
    duffing_exact_period,
    duffing_nayfeh_series,
    duffing_period_series,
    even_power_exact_period,
    even_power_kappa_balanced,
    even_power_kappa_pms,
    even_power_series,
    pendulum_approx,
    pendulum_exact,
    sextic_exact_period,
    sextic_t4,
    sextic_wl_period,
    virial_omega_check,
)
from pmsdelta.precession import (
    OrbitParams,
    critical_semimajor_axis,
    precession_exact,
    precession_series,
)
from pmsdelta.series_core import (
    IntegrandSpec,
    TrigPolynomial,
    expand,
    pms_derivative_check,
    term,
)


def test_criterion_01_duffing_exactness_and_runtime():
    started = time.perf_counter()
    for rho in (0.5, 1.0, 10.0, 100.0, -0.9):
        series = duffing_period_series(rho, 30)
        exact = duffing_exact_period(rho)
        rel = abs(series - exact) / exact
        assert rel < 1e-9, f"rho={rho}: relative error {rel:.3e} >= 1e-9"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f} s >= 1 s"


def test_criterion_02_strong_coupling_slope_ln9():
    started = time.perf_counter()
    study = duffing_b0_study(10)
    elapsed = time.perf_counter() - started
    target = math.log(9.0)
    beta = study.fit.beta
    deviation = abs(beta - target) / target
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f} s >= 1 s"
    assert deviation < 0.01, (
        f"fitted beta={beta:.12f} deviates {100.0 * deviation:.2f}% from "
        f"ln 9={target:.12f} (residual RMS {study.fit.residual:.3f} in ln-space); "
        f"the error sequence carries an algebraic 1/N prefactor on top of the "
        f"9^-N decay, so the N=1..10 window fit overshoots the asymptotic slope"
    )


def test_criterion_03_sextic_strong_coupling_limits():
    c0 = even_power_exact_period(3, math.inf)
    assert abs(c0 - 8.413092631) < 1e-8, f"oracle c0={c0!r}"
    t4_limit = math.sqrt(1e12) * sextic_t4(1e12)
    assert abs(t4_limit - 8.41292) < 5e-6, f"fourth-order limit {t4_limit!r}"
    wl_limit = math.sqrt(1e12) * sextic_wl_period(1e12)
    assert abs(wl_limit - 8.4081) < 5e-5, f"comparison-formula limit {wl_limit!r}"


def test_criterion_04_sextic_soft_point():
    exact = sextic_exact_period(-0.9)
    assert exact == pytest.approx(10.93467798, rel=1e-7), f"exact={exact!r}"
    wl = sextic_wl_period(-0.9)
    assert abs(wl - 10.62) < 5e-3, f"comparison formula {wl!r}"
    t4 = sextic_t4(-0.9)
    assert abs(t4 - 10.67) < 5e-3, f"fourth-order value {t4!r}"


def test_criterion_05_sextic_slope_ln_5_3():
    study = sextic_c0_study(16)
    target = math.log(5.0 / 3.0)
    beta = study.fit.beta
    deviation = abs(beta - target) / target
    assert deviation < 0.02, (
        f"fitted beta={beta:.12f} deviates {100.0 * deviation:.1f}% from "
        f"ln(5/3)={target:.12f} (residual RMS {study.fit.residual:.3f} in "
        f"ln-space); the even-order errors carry an N^-1 prefactor and a "
        f"strong parity oscillation, so the even-N window fit sits well below "
        f"the asymptotic slope"
    )


def test_criterion_06_pms_derivative_identity():
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for _ in range(100):
        deg = int(rng.integers(0, 7))
        coeffs = rng.uniform(-1.0, 1.0, size=deg + 1)
        coeffs[0] = rng.uniform(0.5, 2.0)
        factor = TrigPolynomial(coeffs)
        grid_min = float(np.min(factor.evaluate(np.linspace(0.0, math.pi, 512))))
        if grid_min <= 0.05:
            coeffs[0] += 0.05 - grid_min
            factor = TrigPolynomial(coeffs)
        omega = float(rng.uniform(0.6, 1.8))
        order = int(rng.integers(1, 7))
        spec = IntegrandSpec(-1.0, 1.0, factor, omega)

        analytic = pms_derivative_check(spec, order)
        step = 1e-5 * omega
        plus = expand(spec.with_omega(omega + step), order).value
        minus = expand(spec.with_omega(omega - step), order).value
        fd = (plus - minus) / (2.0 * step)
        rel = abs(fd - analytic) / abs(analytic)
        worst = max(worst, rel)
    assert worst < 1e-5, f"worst finite-difference mismatch {worst:.3e}"


def test_criterion_07_odd_terms_vanish_at_stationary_omega():
    specs = []
    specs.append(OscillatorModel.duffing(mu=0.425, amplitude=2.0).spec_at())
    specs.append(OscillatorModel.cubic(-1.0, 1.05).spec_at())
    for spec in specs:
        base = term(spec, 0)
        for n in range(11):
            odd = term(spec, 2 * n + 1)
            assert abs(odd) < 1e-12 * base, f"I_{2 * n + 1}={odd!r} vs I_0={base!r}"


def test_criterion_08_virial_ratio_sqrt2():
    rhos = [-0.9, -0.5, -0.1, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0,
            50.0, 100.0, 200.0, 500.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8]
    assert len(rhos) == 20
    for rho in rhos:
        _, ratio = virial_omega_check(rho)
        assert abs(ratio - math.sqrt(2.0)) <= 1e-14, f"rho={rho}: ratio={ratio!r}"


def test_criterion_09_nonconvergence_witness():
    rho = -0.8
    # |kappa| = 2 here: the comparison series warns that it diverges.
    with pytest.warns(DivergentExpansion):
        comparison = [duffing_nayfeh_series(rho, n) for n in range(22)]
    comparison_steps = [abs(b - a) for a, b in zip(comparison, comparison[1:])]
    for n in range(10, 20):
        assert comparison_steps[n + 1] > comparison_steps[n], (
            f"comparison-series step at n={n + 1} did not grow"
        )
    ours = [duffing_period_series(rho, n) for n in range(22)]
    our_steps = [abs(b - a) for a, b in zip(ours, ours[1:])]
    for n in range(10, 20):
        assert our_steps[n + 1] < our_steps[n], f"our step at n={n + 1} did not shrink"


def test_criterion_10_k5_balancing():
    from pmsdelta.oscillators import _even_power_spec

    def max_abs_delta(kappa: float) -> float:
        spec = _even_power_spec(5, math.inf, kappa)
        grid = np.linspace(0.0, math.pi, 4001)
        return float(np.max(np.abs(spec.delta.evaluate(grid))))

    assert max_abs_delta(even_power_kappa_pms(5)) > 1.0
    kappa_b = even_power_kappa_balanced(5)
    assert max_abs_delta(kappa_b) < 1.0
    reference = even_power_exact_period(5, math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [even_power_series(5, math.inf, kappa_b, n) for n in range(1, 16)]
    errors = [abs(v - reference) for v in values]
    for n, (worse, better) in enumerate(zip(errors, errors[1:]), start=1):
        assert better <= worse, f"error grew from N={n} to N={n + 1}"


def test_criterion_11_precession_accuracy_and_critical_axis():
    GM = 7.425e-30 * 1.97e30
    eps = 0.2506
    a_c = critical_semimajor_axis(GM, eps)
    published = 97.9173
    # Reported, not forced: the closed-form recomputation disagrees with the
    # published critical axis by a few percent; see README.
    print(
        f"critical semimajor axis: computed={a_c:.10f} m, "
        f"published={published} m, discrepancy="
        f"{100.0 * abs(a_c - published) / published:.2f}%"
    )
    closed_form = 2.0 * GM * (2.0 / (1.0 - eps) + 1.0 / (1.0 + eps))
    assert a_c == pytest.approx(closed_form, rel=1e-12)
    for factor in (1.5, 2.0, 3.0, 5.0, 10.0):
        orbit = OrbitParams(GM=GM, a=factor * a_c, epsilon=eps)
        series = precession_series(orbit, 6)
        exact = precession_exact(orbit)
        rel = abs(series - exact) / abs(exact)
        assert rel < 1e-6, f"a={factor} a_c: relative error {rel:.3e}"


def test_criterion_12_pendulum_hierarchy():
    for amplitude in (0.1, 0.25, 0.5, 0.75, 1.0):
        exact = pendulum_exact(amplitude)
        leading4 = 4.0 * math.sqrt(2.0) * math.pi / math.sqrt(8.0 - amplitude**2)
        assert pendulum_approx(amplitude, 4, 0) == pytest.approx(leading4, rel=1e-12)
        assert abs(leading4 - exact) / exact < 3e-3, f"A={amplitude}"
    for amplitude in (0.5, 1.0, 1.5, 2.0):
        exact = pendulum_exact(amplitude)
        err4 = abs(pendulum_approx(amplitude, 4, 0) - exact)
        err6 = abs(pendulum_approx(amplitude, 6, 0) - exact)
        assert err6 < err4, f"A={amplitude}: order-6 leading did not improve"
    exact = pendulum_exact(2.0)
    err_leading = abs(pendulum_approx(2.0, 6, 0) - exact)
    err_second = abs(pendulum_approx(2.0, 6, 2) - exact)
    assert err_second < err_leading, "second-order term did not reduce the error"


def test_criterion_13_determinism_and_suite_runtime(session_start, child_env):
    for argv in (
        ["period", "duffing", "--rho", "1.5", "--order", "6", "--exact"],
        ["convergence", "sextic-c0", "--max-order", "8"],
        ["precession", "--a", "300"],
    ):
        cmd = [sys.executable, "-m", "pmsdelta", *argv]
        first = subprocess.run(cmd, capture_output=True, env=child_env)
        second = subprocess.run(cmd, capture_output=True, env=child_env)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout, f"stdout differs for {argv}"
        assert first.stderr == second.stderr, f"stderr differs for {argv}"
    elapsed = time.perf_counter() - session_start
    assert elapsed < 60.0, f"suite already at {elapsed:.1f} s before this test ended"
