"""Tests of the benchmark itself: inputs, checker and reported metrics.

    python3 -m pytest perfbench/tests
"""

import json
import math
import os
import sys

import mpmath
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import check  # noqa: E402
import layers  # noqa: E402
import reference as R  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

import pmsdelta  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


# ------------------------------------------------------------------ inputs --


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = json.dumps(workloads.plan(workload, 7))
    assert json.dumps(workloads.plan(workload, 7)) == first
    assert json.dumps(workloads.plan(workload, 8)) != first
    order = workloads.round_order(workload, 7, 3, 20)
    assert workloads.round_order(workload, 7, 3, 20) == order
    assert sorted(order) == list(range(20))


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stated_shares_are_kept(seed):
    cli = workloads.cli_plan(seed)["pool"]
    assert sum(op["expect"] != "ok" for op in cli) == 2
    assert ["precession", "--a", "inf"] in [op["argv"] for op in cli]
    near = workloads.oracle_plan(seed)["near_singular"]
    rhos = [op["args"][1] if op["kind"] == "even_power" else op["args"][0]
            for op in near if op["kind"] in ("sextic", "even_power", "duffing")]
    assert len(rhos) == 3 and all(1.0 + rho <= 1e-4 for rho in rhos)
    amplitudes = [op["args"][0] for op in near if op["kind"] == "pendulum"]
    assert all(math.pi - 1e-5 < a < math.pi for a in amplitudes)
    a_c = workloads.critical_axis()
    assert any(op["kind"] == "precession" and a_c < op["args"][0] < a_c * (1 + 1e-4)
               for op in near)


def test_inputs_lie_in_documented_domains():
    for seed in range(5):
        for op in workloads.engine_plan(seed)["pool"] + workloads.oracle_plan(seed)["pool"]:
            if op["kind"] in ("even_power_series", "period_table", "even_power"):
                assert op["args"][1] > -1.0
            if op["kind"] in ("pendulum", "pendulum_approx", "pendulum_table"):
                assert 0.0 < op["args"][0] < math.pi
            if op["kind"] in ("even_power_series", "pendulum_approx"):
                assert 24 <= op["args"][-1] <= pmsdelta.MAX_ORDER


# ----------------------------------------------------------------- checker --


def test_checker_reads_the_known_accuracy_loss():
    # even_power_series(3, -0.9, kappa_pms(3), 64) as the cos^k engine of the
    # seed commit returns it: about 8.3 correct digits.
    seed_commit_value = 10.934678032899429
    ref = R.with_precision(R.even_power_series, 3, -0.9, workloads.kappa_pms(3), 64)[-1]
    assert 7.8 < R.digits(seed_commit_value, ref) < 8.8


@pytest.mark.parametrize("rho", [-0.99999, -0.9, 0.5, 10.0, 1e3])
def test_checker_agrees_with_agm_oracle(rho):
    ref = R.with_precision(R.duffing_exact, rho)
    assert R.digits(pmsdelta.duffing_exact_period(rho), ref) >= 14


@pytest.mark.parametrize("rho", [-0.9, 0.3, 7.0])
def test_sampled_moments_reproduce_closed_forms(rho):
    with mpmath.workdps(R.REF_DPS):
        # Odd terms vanish at the stationary kappa, so even-power K=2 at
        # order 2n is the Duffing pair sum through n; K=3 is the sextic sum.
        quartic = R.even_power_series(2, rho, 0.75, 8)
        duffing = R.duffing_series(rho, 4)
        assert abs(quartic[8] / duffing[4] - 1) < mpmath.mpf(10) ** -40
        sextic = R.even_power_series(3, rho, R.kappa_pms(3), 6)
        assert abs(sextic[6] / R.sextic_series(rho, 6)[6] - 1) < mpmath.mpf(10) ** -40


@pytest.mark.parametrize("rho", [-1 + 1e-5, -0.5, 4.0])
def test_quadrature_reference_matches_elliptic_k(rho):
    with mpmath.workdps(R.REF_DPS):
        assert abs(R.even_power_exact(2, rho) / R.duffing_exact(rho) - 1) < mpmath.mpf(10) ** -40


def test_pendulum_and_precession_references():
    with mpmath.workdps(R.REF_DPS):
        # Small amplitude: 2 pi (1 + A^2/16 + ...).
        assert abs(R.pendulum_exact(1e-4) / (2 * mpmath.pi) - 1 - mpmath.mpf(1e-8) / 16) < 1e-15
        a_c = R.critical_semimajor_axis(workloads.GM, workloads.ECCENTRICITY)
    assert R.digits(pmsdelta.critical_semimajor_axis(workloads.GM, workloads.ECCENTRICITY),
                    a_c) >= 14


def test_cli_checker_flags_contract_breaks():
    ref = check.RefCache()
    op = {"kind": "precession", "argv": ["precession", "--a", "inf"], "expect": "ok"}
    reason, _ = check.check_cli(op, 1, "", "Traceback\nZeroDivisionError: x\n", ref)
    assert reason.startswith("exit 1")
    reject = {"kind": "reject", "argv": ["precession", "--a", "50"], "expect": "exit3"}
    assert check.check_cli(reject, 3, "", "below critical\n", ref) == (None, None)
    assert check.check_cli(reject, 2, "", "bad\n", ref)[0] == "exit 2, expected 3"
    period = {"kind": "period", "expect": "ok",
              "argv": ["period", "duffing", "--rho", "1.0", "--order", "1", "--exact"]}
    reason, _ = check.check_cli(period, 0, "order,period\n0,1\n1,1\n", "", ref)
    assert reason.startswith("contract")


# ----------------------------------------------------------------- metrics --


def _assert_units(metrics, declared):
    assert list(metrics) == [m["name"] for m in declared]
    for spec in declared:
        metric = metrics[spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])


def test_end_to_end_metrics_emitted_with_units():
    result = run.run_workload("engine-high-order", 3, 0.5, trace=False)
    assert result["correct"] and result["attempted"] >= 1
    _assert_units(result["metrics"], SPEC["end_to_end"])


def test_per_layer_metrics_emitted_with_units():
    result = run.run_workload("oracle-sweep", 3, 0.5, trace=True)
    _assert_units(result["metrics"], SPEC["per_layer"])
    assert result["metrics"]["trace.layer_coverage"]["value"] >= 0.9


def test_cli_metrics_and_startup_split():
    result = run.run_workload("cli-cold", 3, 0.1, trace=True)
    _assert_units(result["metrics"], SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("startup.interp_ms", "startup.numpy_import_ms", "startup.pkg_import_ms",
                 "cli.main_ms"):
        assert metrics[name] > 0
    assert metrics["trace.layer_coverage"] >= 0.9


def test_units_table_is_the_declared_per_layer_list():
    assert list(layers.UNITS) == [m["name"] for m in SPEC["per_layer"]]
    assert list(run.E2E_UNITS) == [m["name"] for m in SPEC["end_to_end"]]
