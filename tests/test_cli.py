"""Tests for the command-line interface."""

import argparse
import ast
import contextlib
import errno
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pmsdelta import models, oscillators, precession
from pmsdelta.analysis import negative_rho_study, sextic_c0_study
from pmsdelta.cli import _geometric_grid, build_parser, main
from pmsdelta.errors import DomainError
from pmsdelta.constants import MAX_ORDER
from pmsdelta.models import _even_power_spec, _pendulum_spec

ARCSEC_PER_RAD = 180.0 * 3600.0 / math.pi
ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_period_duffing_harmonic(capsys):
    code, out, err = run_cli(capsys, "period", "duffing", "--rho", "0", "--order", "4")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["order", "period"]
    assert len(rows) == 5
    for row in rows:
        assert float(row[1]) == pytest.approx(2.0 * math.pi, rel=1e-14)


def test_period_sextic_exact_column(capsys):
    code, out, err = run_cli(
        capsys, "period", "sextic", "--rho", "-0.9", "--order", "4", "--exact"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["order", "period", "exact"]
    assert float(rows[0][2]) == pytest.approx(10.93467798, rel=1e-7)
    assert float(rows[4][2]) == float(rows[0][2])


def test_period_pendulum_taylor4_leading(capsys):
    code, out, err = run_cli(
        capsys, "period", "pendulum", "--amplitude", "1", "--taylor", "4",
        "--order", "0",
    )
    assert code == 0
    _, rows = parse_csv(out)
    expected = 4.0 * math.sqrt(2.0) * math.pi / math.sqrt(7.0)
    assert float(rows[0][1]) == pytest.approx(expected, rel=1e-12)


def test_period_cubic(capsys):
    code, out, err = run_cli(
        capsys, "period", "cubic", "--x-minus", "-1", "--x-plus", "1.05",
        "--order", "6", "--exact",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 7
    series_last = float(rows[6][1])
    exact = float(rows[6][2])
    assert series_last == pytest.approx(exact, rel=1e-6)


def test_period_even_power_balanced(capsys):
    code, out, err = run_cli(
        capsys, "period", "even-power", "--exponent", "5", "--rho", "inf",
        "--kappa", "balanced", "--order", "8", "--exact",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[8][2]) == pytest.approx(10.12767687668996, rel=1e-9)
    assert float(rows[8][1]) == pytest.approx(float(rows[8][2]), rel=2e-2)


def test_period_json_format(capsys):
    code, out, err = run_cli(
        capsys, "period", "duffing", "--rho", "2", "--order", "3",
        "--format", "json", "--exact",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == "duffing"
    assert len(payload["rows"]) == 4
    assert payload["rows"][0]["order"] == 0
    assert payload["exact"] == pytest.approx(payload["rows"][3]["period"], rel=1e-3)


def test_period_invalid_rho_exits_2(capsys):
    code, out, err = run_cli(capsys, "period", "duffing", "--rho", "-2", "--order", "2")
    assert code == 2
    assert out == ""
    assert err.strip() != ""
    assert "\n" not in err.strip()
    assert "rho" in err


@pytest.mark.parametrize(
    "model", [["sextic"], ["even-power", "--exponent", "3"]], ids=["sextic", "even-power"]
)
def test_period_without_exact_skips_the_oracle(capsys, model):
    # The oracle cannot reach its tolerance this close to rho = -1; the
    # series table alone does not need it.
    code, out, err = run_cli(capsys, "period", *model, "--rho", "-0.9999999", "--order", "3")
    assert code == 0, err
    header, rows = parse_csv(out)
    assert header == ["order", "period"]
    assert len(rows) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["period", "even-power", "--exponent", "3", "--kappa", "inf"],
        ["period", "even-power", "--exponent", "3", "--rho", "inf", "--kappa", "inf"],
        ["period", "cubic", "--x-minus", "-1", "--x-plus", "inf"],
        ["period", "duffing", "--order", "65"],
        ["convergence", "duffing-b0", "--max-order", "65"],
        ["period", "even-power", "--exponent", "1025", "--order", "1"],
        ["period", "even-power", "--exponent", "1000000000", "--kappa", "0.7"],
        ["convergence", "precession", "--a-max", "inf"],
        ["convergence", "precession", "--GM", "0"],
        ["convergence", "precession", "--points", "4097"],
        ["convergence", "precession", "--orders", ","],
    ],
    ids=[
        "kappa-inf", "kappa-inf-rho-inf", "x-plus-inf", "order-65", "max-order-65",
        "exponent-1025", "exponent-1e9", "zero-reference-a-inf", "zero-reference-GM-0",
        "points-4097", "orders-empty",
    ],
)
def test_non_finite_and_uncapped_inputs_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "\n" not in err.strip()


@pytest.mark.parametrize(
    "orders, message",
    [
        ("1.5", "orders must be comma-separated integers, got '1.5'\n"),
        ("0,x", "orders must be comma-separated integers, got 'x'\n"),
        (",", "orders must name at least one expansion order\n"),
    ],
)
def test_unreadable_orders_exit_2_naming_the_option(capsys, orders, message):
    assert run_cli(capsys, "convergence", "precession", "--orders", orders) == (2, "", message)


@pytest.mark.parametrize("kappa", ["abc", ""])
def test_unreadable_kappa_exits_2_naming_the_option(capsys, kappa):
    assert run_cli(capsys, "period", "even-power", "--kappa", kappa) == (
        2, "", f"kappa must be pms, balanced or a number, got {kappa!r}\n"
    )


def test_a_huge_divergence_margin_keeps_the_warning_one_short_line(capsys):
    # max |Delta| = 5e299 is written in exponent form, not as its 300 digits;
    # the refusal that follows is unchanged.
    code, out, err = run_cli(
        capsys, "period", "even-power", "--exponent", "3", "--rho", "1e300",
        "--kappa", "1e-300", "--order", "3",
    )
    warning, refusal = err.splitlines()
    assert (code, out) == (2, "")
    assert warning == (
        "DivergentExpansion: max |Delta| = 5.000000e+299 >= 1 at kappa = 1e-300: "
        "the expansion need not converge"
    )
    assert len(warning) < 120
    assert refusal == "a term through order 2 leaves the float range at omega = 1.0"


@pytest.mark.parametrize(
    "argv, requested",
    [
        (["period", "duffing", "--order", "100"], 100),
        (["period", "pendulum", "--order", "65"], 65),
        (["convergence", "sextic-c0", "--max-order", "70"], 70),
        (["convergence", "precession", "--orders", "0,2,70"], 70),
    ],
    ids=["period-duffing", "period-pendulum", "sextic-c0", "precession"],
)
def test_an_order_above_the_cap_is_refused_before_any_work(capsys, monkeypatch, argv, requested):
    def no_work(*args):
        raise AssertionError("a command worked before checking its order")

    # Each command and study imports its families when it runs, so the
    # patches are read.
    for module, name in (
        (oscillators, "duffing_period_series"), (models, "pendulum_approx"),
        (oscillators, "even_power_exact_period"), (models, "even_power_series"),
        (precession, "precession_exact"),
    ):
        monkeypatch.setattr(module, name, no_work)
    assert run_cli(capsys, *argv) == (2, "", f"order {requested} exceeds the cap of 64\n")


def _reader(command, option):
    """argv of a run of the command in which the option is read."""
    if command == "period":
        model = {"--exponent": "even-power", "--kappa": "even-power", "--x-minus": "cubic",
                 "--x-plus": "cubic", "--amplitude": "pendulum", "--taylor": "pendulum"}
        return ["period", model.get(option, "duffing")]
    if command == "convergence":
        study = {"--max-order": "duffing-b0", "--rho": "negative-rho",
                 "--exponent": "negative-rho", "--rho-min": "duffing-rho",
                 "--rho-max": "duffing-rho", "--fixed-order": "duffing-rho"}
        return ["convergence", study.get(option, "precession")]
    return ["precession"] + ["--a", "300"] * (option != "--a")


# (command, option) for every option that takes a number, and --kappa.
(_COMMANDS,) = [
    action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)
]
_NUMERIC_OPTIONS = [
    (command, action.option_strings[0])
    for command, parser in _COMMANDS.choices.items()
    for action in parser._actions
    if action.type in (int, float) or action.dest == "kappa"
]


@pytest.mark.parametrize("value", ["-1e-05", "-inf", "-2"])
@pytest.mark.parametrize(
    "command, option", _NUMERIC_OPTIONS, ids=[" ".join(pair) for pair in _NUMERIC_OPTIONS]
)
def test_a_negative_value_may_follow_its_option_as_a_separate_token(command, option, value):
    # argparse alone reads -1e-05 and -inf after an option as options.
    argv = _reader(command, option)
    code, out, _ = _run_in_process([*argv, option, value])
    assert (code, out) == _run_in_process([*argv, f"{option}={value}"])[:2]


def test_unknown_study_exits_2(capsys):
    # argparse refuses an unknown study or model before any command runs.
    for argv in (["convergence", "nonsense-study"], ["period", "nonsense-model"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_convergence_stdout_keeps_csv_clean(capsys):
    code, out, err = run_cli(capsys, "convergence", "duffing-b0", "--max-order", "5")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "value", "reference", "rel_error"]
    assert len(rows) == 6
    assert "fit[duffing-b0]" in err
    assert "ln9=" in err


def test_convergence_out_file_routes_info_to_stdout(capsys, tmp_path):
    target = tmp_path / "study.csv"
    code, out, err = run_cli(
        capsys, "convergence", "duffing-b0", "--max-order", "5", "--out", str(target)
    )
    assert code == 0
    assert err == ""
    assert "fit[duffing-b0]" in out
    header, rows = parse_csv(target.read_text(encoding="utf-8"))
    assert header == ["n", "value", "reference", "rel_error"]
    assert len(rows) == 6


def test_convergence_sextic_json(capsys):
    code, out, err = run_cli(
        capsys, "convergence", "sextic-c0", "--max-order", "6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "sextic-c0"
    assert payload["fit"] is not None
    assert "reference slope" in err


def test_convergence_negative_rho_parity_column(capsys):
    code, out, err = run_cli(
        capsys, "convergence", "negative-rho", "--exponent", "4",
        "--max-order", "8",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "value", "reference", "rel_error", "parity"]
    assert [row[0] for row in rows] == [str(n) for n in range(1, 9)]
    assert [row[4] for row in rows] == ["odd", "even"] * 4
    assert "fit[negative-rho-K4-even]" in err
    assert "fit[negative-rho-K4-odd]" in err


def test_convergence_precession_wide_csv(capsys):
    code, out, err = run_cli(
        capsys, "convergence", "precession", "--a-min", "160", "--a-max", "1000",
        "--points", "4", "--orders", "0,2",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["a", "order0", "order2"]
    assert len(rows) == 4
    for row in rows:
        assert float(row[2]) < float(row[1])


def test_precession_command_units(capsys):
    code_a, out_a, _ = run_cli(capsys, "precession", "--a", "300")
    code_r, out_r, _ = run_cli(capsys, "precession", "--a", "300", "--units", "rad")
    assert code_a == 0 and code_r == 0

    def grab(text, key):
        for line in text.strip().split("\n"):
            if line.startswith(key + "="):
                return line.split("=", 1)[1]
        raise AssertionError(f"{key} missing in {text!r}")

    series_arcsec = float(grab(out_a, "series"))
    series_rad = float(grab(out_r, "series"))
    assert grab(out_a, "units") == "arcsec"
    assert series_arcsec == pytest.approx(series_rad * ARCSEC_PER_RAD, rel=1e-14)
    exact_rad = float(grab(out_r, "exact"))
    assert series_rad == pytest.approx(exact_rad, rel=1e-9)
    # a_c is a length and is not unit-converted.
    assert float(grab(out_a, "a_c")) == float(grab(out_r, "a_c"))


def test_precession_infinite_axis_is_newtonian_limit(capsys):
    code, out, err = run_cli(capsys, "precession", "--a", "inf")
    assert code == 0 and err == ""
    assert out.startswith("series=0\nexact=0\n")


def test_precession_gm_from_mass_product(capsys):
    code, out, _ = run_cli(
        capsys, "precession", "--a", "300", "--mass", "1.97e30",
        "--g-over-c2", "7.425e-30", "--units", "rad",
    )
    code2, out2, _ = run_cli(
        capsys, "precession", "--a", "300", "--GM", "14.62725", "--units", "rad"
    )
    assert code == 0 and code2 == 0
    assert out == out2


def test_precession_below_critical_exits_3(capsys):
    code, out, err = run_cli(capsys, "precession", "--a", "90")
    assert code == 3
    assert out == ""
    assert err.startswith("below critical semimajor axis a_c=")
    quoted = float(err.strip().split("a_c=")[1])
    assert quoted == pytest.approx(101.46683122925656, rel=1e-10)


@pytest.mark.parametrize("series_only", [False, True], ids=["exact", "series-only"])
@pytest.mark.parametrize("a", ["0", "-5"])
def test_precession_nonpositive_axis_exits_2(capsys, a, series_only):
    # An axis that is not positive is refused as an input, with or without
    # --series-only, before it is compared with the critical axis.
    argv = ["precession", "--a", a, *["--series-only"] * series_only]
    assert run_cli(capsys, *argv) == (
        2, "", f"semimajor axis must be positive, got {float(a)!r}\n"
    )


@pytest.mark.parametrize("a", ["20", "50", "100"])
def test_precession_positive_subcritical_axis_still_exits_3(capsys, a):
    assert run_cli(capsys, "precession", "--a", a) == (
        3, "", "below critical semimajor axis a_c=101.46683122925654\n"
    )


def test_precession_tiny_mass_is_finite(capsys):
    code, out, err = run_cli(capsys, "precession", "--a", "300", "--GM", "1e-320")
    assert code == 0, err
    values = dict(line.split("=") for line in out.strip().splitlines())
    for key in ("series", "exact", "a_c"):
        assert math.isfinite(float(values[key])), key


def test_precession_series_only_below_critical(capsys):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, err = run_cli(
            capsys, "precession", "--a", "100", "--series-only"
        )
    assert code == 0
    assert "exact=" not in out
    assert "note=series extrapolated below the critical semimajor axis" in out


def test_warning_prints_one_line(capsys):
    code, out, err = run_cli(capsys, "precession", "--a", "100", "--series-only")
    assert code == 0
    assert err == (
        "DivergentExpansion: |xi| = 1.230794 >= 1: "
        "the precession series need not converge\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["period", "cubic", "--x-minus=-1e-200", "--x-plus=1e-200"],
        ["period", "cubic", "--x-minus=-1e200", "--x-plus=1e200", "--exact"],
    ],
    ids=["underflow", "overflow"],
)
def test_extreme_cubic_turning_points_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "floating-point range" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, expected_err",
    [
        (["period", "cubic", "--x-minus", "-6.070788974335778", "--x-plus", "12.141577948671555"],
         "DivergentExpansion: |xi| = 1.000000 >= 1: the cubic series need not converge\n"),
        (["period", "cubic", "--x-minus", "-2.2332635753248495", "--x-plus", "4.466527150649697",
          "--exact"], ""),
    ],
    ids=["separatrix", "next-to-separatrix"],
)
def test_cubic_pairs_at_the_separatrix_exit_0(capsys, argv, expected_err):
    # x+ = -2 x- exactly, where the series sums with the divergence warning;
    # and 2 x- + x+ = -2^-49, a regular pair.  Rounded barrier tests refused
    # both.
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == expected_err
    _, rows = parse_csv(out)
    assert len(rows) == 5
    assert all(0.0 < float(cell) < math.inf for row in rows for cell in row[1:])


def test_crossed_cubic_pair_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "period", "cubic", "--x-minus", "-6.070788974335777", "--x-plus", "12.141577948671555"
    )
    assert code == 2 and out == ""
    assert "cross the barrier" in err and err.count("\n") == 1


def test_even_power_exponent_past_float_powers_of_four(capsys):
    # The stationary kappa sums C(2j, j)/4^j for j < K; 4.0**512 overflowed.
    code, out, err = run_cli(
        capsys, "period", "even-power", "--exponent", "513", "--rho", "1", "--order", "1"
    )
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    assert len(rows) == 2 and all(math.isfinite(float(row[1])) for row in rows)


def test_duffing_rho_sweep_past_minus_two_thirds(capsys):
    # For rho < -2/3, |xi| > 1/3 and the error may exceed the strong-coupling
    # asymptote; those points are reported, not refused.
    code, out, err = run_cli(
        capsys, "convergence", "duffing-rho", "--rho-min", "-0.9", "--rho-max", "1"
    )
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    assert float(rows[0][0]) == -0.9 and float(rows[0][3]) > 1e-4


@pytest.mark.parametrize(
    "rho_min, rho_max",
    [("-0.999999999", "1"), ("1.43", "121.5"), ("1e-200", "1e200")],
    ids=["linear", "geometric", "geometric-ratio-overflows"],
)
def test_sweep_grid_ends_at_its_bounds(capsys, rho_min, rho_max):
    # lo + 2 step gave 0.99999999999999989 and lo * (hi/lo) 121.50000000000001;
    # hi/lo = 1e400 overflowed and made the middle point inf.
    code, out, err = run_cli(
        capsys, "convergence", "duffing-rho", "--rho-min", rho_min, "--rho-max", rho_max,
        "--points", "3",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert (float(rows[0][0]), float(rows[-1][0])) == (float(rho_min), float(rho_max))


def test_sweep_grid_points_are_finite_where_the_bounds_ratio_overflows():
    # hi/lo = 1e400 made every inner point inf.
    grid = _geometric_grid(1e-200, 1e200, 4)
    assert grid[0] == 1e-200 and grid[-1] == 1e200
    assert grid[1:3] == pytest.approx([10 ** (-200 / 3), 10 ** (200 / 3)], rel=1e-12)


def test_linear_sweep_grid_points_are_finite_where_the_step_overflows(capsys):
    # (hi - lo)/n = inf made the points [nan, inf, 1.7e308], and the sweep
    # refused the first with "got nan", a value never given.
    grid = _geometric_grid(-1.7e308, 1.7e308, 3)
    assert grid == [-1.7e308, 0.0, 1.7e308]
    assert all(math.isfinite(x) for x in _geometric_grid(-1.7e308, 1.7e308, 4))
    code, out, err = run_cli(
        capsys, "convergence", "precession", "--a-min", "-1.7e308", "--a-max", "1.7e308",
        "--points", "3",
    )
    assert (code, out, err) == (2, "", "semimajor axis must be positive, got -1.7e+308\n")


@pytest.mark.parametrize(
    "lo, hi", [(-0.5, math.inf), (-math.inf, 1.0), (math.nan, 1.0)],
    ids=["max-inf", "min-minus-inf", "min-nan"],
)
def test_sweep_grid_refuses_a_non_finite_bound_naming_it(lo, hi):
    # lo + 0 inf made the first point NaN; a NaN bound was refused as out of
    # order.
    message = f"grid bounds must be finite, got {lo!r} and {hi!r}"
    with pytest.raises(DomainError, match=re.escape(message)):
        _geometric_grid(lo, hi, 3)


def test_infinite_sweep_bound_exits_2_naming_it(capsys):
    code, out, err = run_cli(
        capsys, "convergence", "duffing-rho", "--rho-min", "-0.99", "--rho-max", "inf",
        "--points", "3",
    )
    assert (code, out, err) == (2, "", "grid bounds must be finite, got -0.99 and inf\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["convergence", "duffing-rho", "--rho-min", "1", "--rho-max", "1e308", "--points", "3"],
        ["period", "duffing", "--rho", "1e308", "--order", "3", "--exact"],
        ["period", "sextic", "--rho", "1e308", "--order", "3", "--exact"],
    ],
    ids=["duffing-rho", "duffing", "sextic"],
)
def test_huge_rho_exits_0_or_2(capsys, argv):
    # 4 + 3 rho and 5 rho + 8 overflowed here: the series printed periods of
    # 0, and the duffing-rho sweep divided by one.
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 2)
    if code == 2:
        assert out == "" and err.count("\n") == 1
        return
    _, rows = parse_csv(out)
    assert all(0.0 < float(cell) < math.inf for row in rows for cell in row[1:3])


def test_a_table_builds_its_spec_once(capsys):
    # One spec per run of calls at equal parameters: each table below is one
    # cache miss, however many orders it prints.
    _even_power_spec.cache_clear()
    code, _, err = run_cli(capsys, "period", "even-power", "--exponent", "3", "--rho", "2",
                           "--order", "16")
    assert code == 0, err
    assert _even_power_spec.cache_info().misses == 1
    for study in (lambda: sextic_c0_study(16), lambda: negative_rho_study(5, -0.9, 16)):
        _even_power_spec.cache_clear()
        study()
        assert _even_power_spec.cache_info().misses == 1
    _pendulum_spec.cache_clear()
    code, _, err = run_cli(capsys, "period", "pendulum", "--taylor", "6", "--amplitude", "2",
                           "--order", "16")
    assert code == 0, err
    assert _pendulum_spec.cache_info().misses == 1


@pytest.mark.parametrize(
    "rho, kappa, message",
    [
        ("inf", "0", "omega^2 = kappa/2 = 0.0 must be positive"),
        ("2", "-1", "omega^2 = (1 + kappa rho)/2 = -0.5 must be positive"),
    ],
    ids=["rho-inf", "rho-finite"],
)
def test_nonpositive_omega_squared_names_the_formula_used(capsys, rho, kappa, message):
    # At rho = inf the reference is omega^2 = kappa/2, of the factor R/rho.
    code, out, err = run_cli(capsys, "period", "even-power", "--exponent", "3",
                             f"--rho={rho}", f"--kappa={kappa}")
    assert (code, out, err) == (2, "", message + "\n")


def _run_in_process(argv):
    """(exit code, stdout, stderr) of main; argparse's refusals exit too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_holds_its_contract(argv):
    """Run main in-process; it exits 0, 2 or 3, and on 0 prints a table of
    finite numbers, one row per order, else nothing on stdout."""
    code, out, err = _run_in_process(argv)
    assert code in (0, 2, 3), err
    if code != 0:
        assert out == ""
        return
    header, rows = parse_csv(out)
    assert header == ["order", "period"] + ["exact"] * ("--exact" in argv)
    assert [int(row[0]) for row in rows] == list(range(int(argv[argv.index("--order") + 1]) + 1))
    assert all(math.isfinite(float(cell)) for row in rows for cell in row), out


@settings(derandomize=True, deadline=None, max_examples=50)
@given(
    K=st.integers(2, 12),
    rho=st.floats(min_value=-1.0, exclude_min=True),
    kappa=st.one_of(st.sampled_from(("pms", "balanced")), st.floats().map(repr)),
    order=st.integers(0, 64),
    exact=st.booleans(),
)
def test_period_even_power_cli_holds_its_contract(K, rho, kappa, order, exact):
    _cli_holds_its_contract(
        ["period", "even-power", f"--exponent={K}", f"--rho={rho!r}", f"--kappa={kappa}",
         "--order", str(order)] + ["--exact"] * exact
    )


@settings(derandomize=True, deadline=None, max_examples=50)
@given(
    amplitude=st.floats(min_value=0.0, max_value=math.pi, exclude_min=True, exclude_max=True),
    taylor=st.sampled_from((2, 4, 6)),
    order=st.integers(0, 64),
    exact=st.booleans(),
)
def test_period_pendulum_cli_holds_its_contract(amplitude, taylor, order, exact):
    _cli_holds_its_contract(
        ["period", "pendulum", f"--amplitude={amplitude!r}", f"--taylor={taylor}",
         "--order", str(order)] + ["--exact"] * exact
    )


def _options(separate, **values):
    """--name value pairs for main, as two tokens each or as --name=value;
    a float is written with repr."""
    argv = []
    for name, value in values.items():
        option, value = "--" + name.replace("_", "-"), str(value)
        argv += [option, value] if separate else [f"{option}={value}"]
    return argv


def _prints_only_finite_numbers(argv):
    """main exits 0, 2 or 3, and on 0 every number it prints is finite."""
    code, out, err = _run_in_process(argv)
    assert code in (0, 2, 3), err
    if code == 0:
        for token in re.split(r'[\s,=:"\[\]{}]+', out + err):
            try:
                value = float(token)
            except ValueError:
                continue
            assert math.isfinite(value), (token, out, err)


def _grid(lo, hi):
    """(minimum, maximum) of a sweep."""
    return st.lists(st.floats(lo, hi), min_size=2, max_size=2, unique=True).map(sorted)


_ORDERS = st.integers(-1, MAX_ORDER + 2)


# The tests below pass each number as a separate token on half the
# examples, negative values included.
@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    model=st.sampled_from(("duffing", "sextic", "cubic")),
    rho=st.floats(min_value=-1.5),
    x_plus=st.floats(0.0, 20.0),
    ratio=st.floats(0.45, 2.1),
    order=_ORDERS,
    exact=st.booleans(),
    fmt=st.sampled_from(("csv", "json")),
    separate=st.booleans(),
)
def test_period_cli_prints_only_finite_numbers(
    model, rho, x_plus, ratio, order, exact, fmt, separate
):
    # x- = -ratio x+: a single well for ratio in [1/2, 2], the separatrix at
    # either end, a crossed barrier outside.
    values = {"x_minus": -ratio * x_plus, "x_plus": x_plus} if model == "cubic" else {"rho": rho}
    _prints_only_finite_numbers(
        ["period", model, *_options(separate, **values, order=order, format=fmt)]
        + ["--exact"] * exact
    )


_SAME_ORDERS = st.fixed_dictionaries({"max_order": _ORDERS})
_STUDY_OPTIONS = {
    "duffing-b0": _SAME_ORDERS,
    "sextic-c0": _SAME_ORDERS,
    "duffing-rho": st.builds(
        lambda grid, points, fixed_order: {
            "rho_min": grid[0], "rho_max": grid[1], "points": points, "fixed_order": fixed_order,
        },
        _grid(-0.999, 1e4), st.integers(2, 24), _ORDERS,
    ),
    "negative-rho": st.fixed_dictionaries({
        "exponent": st.integers(3, 5),
        "rho": st.floats(-1.0, 0.5, exclude_min=True),
        "max_order": _ORDERS,
    }),
    "precession": st.builds(
        lambda grid, points, GM, eccentricity, orders: {
            "a_min": grid[0], "a_max": grid[1], "points": points, "GM": GM,
            "eccentricity": eccentricity, "orders": ",".join(map(str, orders)),
        },
        _grid(150.0, 1e5), st.integers(2, 24), st.floats(1e-3, 20.0), st.floats(0.0, 0.9),
        st.lists(_ORDERS, min_size=1, max_size=4),
    ),
}


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    study=st.sampled_from(sorted(_STUDY_OPTIONS)).flatmap(
        lambda name: st.tuples(st.just(name), _STUDY_OPTIONS[name])
    ),
    fmt=st.sampled_from(("csv", "json")),
    separate=st.booleans(),
)
def test_convergence_cli_prints_only_finite_numbers(study, fmt, separate):
    name, values = study
    _prints_only_finite_numbers(["convergence", name, *_options(separate, **values, format=fmt)])


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    a=st.floats(min_value=0.0),
    eccentricity=st.floats(0.0, 1.0),
    source=st.one_of(
        st.fixed_dictionaries({"GM": st.floats(0.0, 100.0)}),
        st.fixed_dictionaries({"mass": st.floats(0.0, 1e31)}),
    ),
    order=_ORDERS,
    units=st.sampled_from(("arcsec", "rad")),
    series_only=st.booleans(),
    separate=st.booleans(),
)
def test_precession_cli_prints_only_finite_numbers(
    a, eccentricity, source, order, units, series_only, separate
):
    # The orbit is given by GM, or by the mass times the default G/c^2.
    _prints_only_finite_numbers(
        ["precession", *_options(
            separate, a=a, eccentricity=eccentricity, **source, order=order, units=units,
        )] + ["--series-only"] * series_only
    )


def test_sextic_c0_below_its_minimum_exits_2_naming_it(capsys):
    code, out, err = run_cli(capsys, "convergence", "sextic-c0", "--max-order", "3")
    assert (code, out) == (2, "")
    assert "max_order must be >= 4" in err
    code, out, err = run_cli(capsys, "convergence", "sextic-c0", "--max-order", "4")
    assert code == 0
    assert len(parse_csv(out)[1]) == 5
    assert "fit[sextic-c0]:" in err


def test_a_fit_window_without_two_nonzero_errors_exits_2_naming_it(capsys):
    code, out, err = run_cli(capsys, "convergence", "negative-rho", "--rho", "-1e-3")
    assert (code, out) == (2, "")
    assert "fit window N = 2..10 in steps of 2" in err


def _readme_cli_examples():
    """The `pmsdelta ...` lines of README's `## CLI` code block, as argv lists."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("pmsdelta ")]


@pytest.mark.parametrize("argv", _readme_cli_examples(), ids=" ".join)
def test_readme_cli_examples_run(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    if "--out" in argv:
        table = (tmp_path / argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
    else:
        table = out
    assert table.count("\n") >= 2


def test_module_entry_point_runs(child_env):
    result = subprocess.run(
        [sys.executable, "-m", "pmsdelta", "period", "duffing", "--rho", "1",
         "--order", "2"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("order,period\n")


def _script_target():
    """(module, function) that pyproject.toml's `pmsdelta` command runs."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["pmsdelta"]
    module, name = target.split(":")
    return module, name


# The three ways a process starts the command line.  The installed command
# is run as setuptools' console-script wrapper runs it, so the tests need no
# build of the package.
ENTRIES = ["-m pmsdelta", "-m pmsdelta.cli", "console script"]


def _run_module(child_env, argv, entry="-m pmsdelta", **kwargs):
    """The command line in a child started by `entry`, whose stdout is
    block-buffered, as it is by default when not a terminal, so its flush
    before os._exit writes what is left of the table."""
    if entry == "console script":
        module, name = _script_target()
        start = ["-c", f"import sys; from {module} import {name}; sys.exit({name}())"]
    else:
        start = entry.split()
    env = {name: value for name, value in child_env.items() if name != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, *start, *argv], env=env, **kwargs)


def test_the_installed_command_runs_what_the_module_runs():
    # pyproject's script names the function that `python -m pmsdelta` calls,
    # so the installed command cannot drift from the module's behaviour.
    module, name = _script_target()
    tree = ast.parse((ROOT / "src" / "pmsdelta" / "__main__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name: f"pmsdelta.{node.module}:{alias.name}"
        for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    calls = [
        node.value.func.id for node in tree.body
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
    ]
    assert [imported[call] for call in calls] == [f"{module}:{name}"]


def test_the_module_entry_point_writes_what_main_writes(child_env, tmp_path):
    # `python -m pmsdelta` ends by os._exit once stdout and stderr are
    # flushed: a table larger than any buffer reaches a redirected stdout and
    # an --out file whole.
    argv = ["convergence", "precession", "--points", "4096"]
    code, out, err = _run_in_process(argv)
    assert (code, err) == (0, "") and out.count("\n") == 4097
    with open(tmp_path / "stdout.csv", "wb") as stdout:
        result = _run_module(child_env, argv, stdout=stdout, stderr=subprocess.PIPE)
    assert (result.returncode, result.stderr) == (0, b"")
    assert (tmp_path / "stdout.csv").read_bytes() == out.encode("utf-8")
    in_process = _run_in_process([*argv, "--out", str(tmp_path / "main.csv")])
    result = _run_module(child_env, [*argv, "--out", str(tmp_path / "child.csv")],
                         capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == in_process
    assert (tmp_path / "child.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()
    assert (tmp_path / "child.csv").read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize(
    "argv",
    [
        "period duffing --rho 1 --order 2",
        "precession --a 50",
        "period duffing --rho -2",
        "period pendulum --amplitude 4",
        "convergence duffing-b0 --max-order 1",
        "period no-such-model",
    ],
)
@pytest.mark.parametrize("entry", ENTRIES)
def test_the_module_entry_point_keeps_the_exit_codes(child_env, argv, entry):
    # Exit 0, 3 for a sub-critical orbit, 2 for a violated precondition, and
    # 2 by argparse's own SystemExit, with main's bytes on stdout and stderr,
    # however the process was started.
    result = _run_module(child_env, argv.split(), entry, capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == _run_in_process(argv.split())


def test_a_host_that_runs_the_module_keeps_its_own_exit(child_env):
    # Only `python -m pmsdelta` owns its process and ends it by os._exit; a
    # program that runs the module through runpy, as a profiler or a tracer
    # does, gets SystemExit with the command's code and goes on.
    script = textwrap.dedent(
        """
        import runpy, sys
        sys.argv = ["pmsdelta", "precession", "--a", "50"]
        try:
            runpy.run_module("pmsdelta", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            print(f"host exits after code {exc.code}")
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "host exits after code 3\n"
    assert result.stderr.startswith("below critical semimajor axis")


@pytest.mark.parametrize(
    "argv",
    [
        # The table overflows the stdout buffer, so _emit's write fails.
        "convergence precession --points 4000",
        # The table waits in the buffer, so the flush after main() fails.
        "period duffing --exact",
        # argparse's help waits in the buffer, and it exits by SystemExit.
        "--help",
        "period --help",
    ],
)
@pytest.mark.parametrize("entry", ENTRIES)
def test_a_closed_stdout_exits_1_without_a_traceback(child_env, argv, entry):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = _run_module(
            child_env, argv.split(), entry, stdout=write_end, stderr=subprocess.PIPE
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, b"")


@pytest.mark.parametrize(
    "argv",
    [
        "period duffing --order 2",
        "convergence sextic-c0",
        "convergence precession --format json",
    ],
)
@pytest.mark.parametrize("where", ["missing directory", "existing directory"])
def test_an_unwritable_out_path_exits_2_naming_it(child_env, tmp_path, argv, where):
    # The --out file cannot be opened: one stderr line names the path and
    # the reason, nothing reaches stdout, and main returns 2 in-process too.
    out = tmp_path / "missing" / "table" if where == "missing directory" else tmp_path
    reason = os.strerror(errno.ENOENT if where == "missing directory" else errno.EISDIR)
    argv = [*argv.split(), "--out", str(out)]
    expected = (2, "", f"cannot write {out}: {reason}\n")
    assert _run_in_process(argv) == expected
    result = _run_module(child_env, argv, capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == expected


# Commands whose engine work fits the pure kernels' budget: the even-power,
# pendulum and study tables that sample Delta or take the positivity grid.
PURE_KERNEL_COMMANDS = [
    *(
        f"period even-power --exponent {K} --rho {rho} --kappa {rule} --order 16 --exact"
        for K in (2, 3, 4, 5) for rule in ("pms", "balanced") for rho in ("-0.7", "inf")
    ),
    "period pendulum --amplitude 2.0 --taylor 4 --order 12 --exact",
    "period pendulum --amplitude 2.9 --taylor 6 --order 12 --exact",
    f"period pendulum --amplitude {math.pi - 1e-9!r} --taylor 6 --order 4 --exact",
    "convergence sextic-c0",
    "convergence negative-rho --exponent 3",
    "convergence negative-rho --exponent 5 --rho -0.6",
    # One kernel call forms a table's terms through MAX_ORDER, and fits the
    # budget up to K = 120.
    "period even-power --exponent 64 --rho 3 --order 64 --exact",
    "period even-power --exponent 120 --rho 3 --order 64 --exact",
]


def test_scalar_commands_do_not_load_numpy(child_env):
    # numpy is imported only by the engine's numpy kernels; closed-form
    # series, quadrature and AGM references, the log-linear fit and the
    # precession table never reach it, and a table whose engine work fits the
    # pure kernels' budget runs without it.  Every command prints the same
    # bytes as in a process that loaded numpy first.  fractions and decimal
    # are never loaded.  `import pmsdelta` loads no submodule, and each
    # command imports only the families it runs: a module set to None in
    # sys.modules cannot be imported, so a command that needs a blocked
    # module fails.
    script = textwrap.dedent(
        """
        import contextlib, io, json, sys
        preload = sys.argv[1] == "numpy"
        if preload:
            import numpy
        import pmsdelta

        def loaded():
            return [m for m in ("numpy", "fractions", "decimal") if m in sys.modules]

        def submodules():
            return sorted(m for m in sys.modules if m.startswith("pmsdelta."))

        if not preload:
            assert not loaded(), loaded()
        assert submodules() == [], submodules()
        import pmsdelta.cli
        assert submodules() == ["pmsdelta.cli", "pmsdelta.constants", "pmsdelta.errors"], submodules()
        printed = {}

        def run(argv, blocked=()):
            saved = {name: sys.modules.pop(name, None) for name in blocked}
            sys.modules.update(dict.fromkeys(blocked))
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    assert pmsdelta.cli.main(argv.split()) == 0, argv
            finally:
                for name, module in saved.items():
                    if module is None:
                        del sys.modules[name]
                    else:
                        sys.modules[name] = module
            if not preload:
                assert not loaded(), (argv, loaded())
            printed[argv] = out.getvalue()
            # The next command starts with the pure budget of a fresh process.
            if "pmsdelta.series_core" in sys.modules:
                sys.modules["pmsdelta.series_core"]._pure_spent = 0

        run("precession --a 500", blocked=("pmsdelta.oscillators", "pmsdelta.analysis"))
        for argv in (
            "period duffing --rho 0.5 --order 6 --exact",
            "period sextic --rho -0.9 --order 8 --exact",
            "period cubic --x-minus -0.8 --x-plus 1.3 --order 10 --exact",
        ):
            run(argv, blocked=("pmsdelta.analysis", "pmsdelta.precession"))
        for argv in (
            "convergence precession",
            "convergence duffing-b0",
            "convergence duffing-rho",
        ):
            run(argv)
        for argv in json.loads(sys.argv[2]):
            period = argv.startswith("period")
            run(argv, blocked=("pmsdelta.analysis", "pmsdelta.precession") if period else ())
        # Past the budget the numpy kernel runs: K = 1024 samples Delta on
        # 32737 nodes.
        with contextlib.redirect_stdout(io.StringIO()):
            assert pmsdelta.cli.main("period even-power --exponent 1024 --order 64".split()) == 0
        assert "numpy" in sys.modules
        print(json.dumps(printed))
        """
    )
    printed = {}
    for mode in ("cold", "numpy"):
        result = subprocess.run(
            [sys.executable, "-c", script, mode, json.dumps(PURE_KERNEL_COMMANDS)],
            capture_output=True, text=True, env=child_env,
        )
        assert result.returncode == 0, result.stderr
        printed[mode] = json.loads(result.stdout)
    assert len(printed["cold"]) == 7 + len(PURE_KERNEL_COMMANDS)
    assert all(printed["cold"].values())
    assert printed["cold"] == printed["numpy"]


@pytest.mark.parametrize("K, numpy", [(64, False), (120, False), (121, True)])
def test_a_cold_table_loads_numpy_only_past_the_pure_budget(child_env, K, numpy):
    # A period table forms its terms through MAX_ORDER in one kernel call of
    # (32 (K - 1) + 1)(K + 63) element operations: 697,047 at K = 120 fits
    # the pure kernels' budget, 704,880 at K = 121 does not.
    script = (
        "import sys, pmsdelta.cli; assert pmsdelta.cli.main(sys.argv[1:]) == 0; "
        "print('numpy' in sys.modules, file=sys.stderr)"
    )
    argv = f"period even-power --exponent {K} --rho 3 --order 64 --exact".split()
    result = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=child_env
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[-1] == str(numpy)


# The package modules each command loads, besides cli, constants and errors,
# with its exit code.  A command compiles every module it loads, so one that
# prints only closed forms (a pair sum, the sextic weights, an AGM period)
# loads no sampled engine (series_core), no spec-built family (models) and no
# quadrature rule; a K <= 3 even power or a pendulum loads the engine but no
# quadrature rule, which only the even powers K >= 4 need.
_CLOSED_FORMS = ("oracle", "oscillators")
_SAMPLED = ("models", "oracle", "oscillators", "series_core")
LOADED_MODULES = [
    ("period duffing --rho 0.5 --order 6 --exact", 0, _CLOSED_FORMS),
    ("period sextic --rho -0.9 --order 8 --exact", 0, _CLOSED_FORMS),
    ("period cubic --x-minus -0.8 --x-plus 1.3 --order 10 --exact", 0, _CLOSED_FORMS),
    ("precession --a 500", 0, ("oracle", "precession")),
    ("precession --a 50", 3, ("oracle", "precession")),
    ("convergence duffing-b0", 0, ("analysis", *_CLOSED_FORMS)),
    ("convergence duffing-rho", 0, ("analysis", *_CLOSED_FORMS)),
    ("convergence precession", 0, ("analysis", "oracle", "precession")),
    ("period even-power --exponent 3 --exact", 0, _SAMPLED),
    ("period even-power --exponent 5 --exact", 0, (*_SAMPLED, "quadrature")),
    ("period pendulum --taylor 6 --exact", 0, _SAMPLED),
    ("convergence sextic-c0", 0, ("analysis", *_SAMPLED)),
]


@pytest.mark.parametrize(
    "argv, code, loaded", LOADED_MODULES, ids=[argv for argv, _, _ in LOADED_MODULES]
)
def test_each_command_loads_only_the_modules_it_runs(child_env, argv, code, loaded):
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        import pmsdelta.cli
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = pmsdelta.cli.main(sys.argv[1:])
        print(code, *sorted(m for m in sys.modules if m.startswith("pmsdelta.")))
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", script, *argv.split()],
        capture_output=True, text=True, env=child_env,
    )
    assert result.returncode == 0, result.stderr
    expected = sorted(f"pmsdelta.{m}" for m in ("cli", "constants", "errors", *loaded))
    assert result.stdout.split() == [str(code), *expected]


def test_csv_scalar_commands_load_neither_json_nor_heapq(child_env):
    # A CSV table writes no JSON, and an AGM or closed-form reference runs no
    # adaptive quadrature, so neither module is imported.
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        import pmsdelta.cli
        for argv in ("period duffing --rho 0.5 --order 4 --exact", "precession --a 500"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert pmsdelta.cli.main(argv.split()) == 0, argv
            loaded = [m for m in ("json", "heapq") if m in sys.modules]
            assert not loaded, (argv, loaded)
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env
    )
    assert result.returncode == 0, result.stderr


def test_cold_commands_load_no_dataclass_machinery(child_env):
    # The records are NamedTuples and __slots__ classes, so a command loads
    # neither dataclasses nor the inspect and ast modules that it imports.
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        import pmsdelta.cli
        for argv in (
            "period duffing --exact",
            "period even-power --exponent 5 --exact",
            "convergence sextic-c0",
        ):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert pmsdelta.cli.main(argv.split()) == 0, argv
            loaded = [m for m in ("dataclasses", "inspect", "ast") if m in sys.modules]
            assert not loaded, (argv, loaded)
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env
    )
    assert result.returncode == 0, result.stderr


def test_studies_do_not_load_the_command_line(child_env):
    # The table writer lives below both cli and analysis, so a library user
    # of the studies loads neither argparse nor the cli module.
    script = (
        "import sys, pmsdelta.analysis; "
        "assert not {'argparse', 'pmsdelta.cli'} & set(sys.modules), sorted(sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env
    )
    assert result.returncode == 0, result.stderr


def test_a_warning_repeated_over_orders_prints_once(child_env):
    # At K = 128, order 0 warns before numpy is loaded, and order 1 loads
    # numpy in the one kernel call that forms the terms through MAX_ORDER
    # (776,415 element operations, past the pure kernels' budget): loading
    # numpy changes the warning filters, which clears the record of shown
    # warnings, so the later orders would print the warning again.
    script = (
        "import sys, pmsdelta.cli; code = pmsdelta.cli.main(sys.argv[1:]); "
        "assert 'numpy' in sys.modules; sys.exit(code)"
    )
    argv = [
        sys.executable, "-c", script, "period", "even-power",
        "--exponent", "128", "--rho", "inf", "--kappa", "pms", "--order", "3",
    ]
    result = subprocess.run(argv, capture_output=True, text=True, env=child_env)
    assert result.returncode == 0, result.stderr
    assert result.stderr == (
        "DivergentExpansion: max |Delta| = 9.036309 >= 1 at kappa = 0.0996382198722803: "
        "the expansion need not converge\n"
    )


def test_repeated_invocations_byte_identical(child_env):
    argv = [
        sys.executable, "-m", "pmsdelta", "convergence", "negative-rho",
        "--exponent", "5", "--max-order", "10",
    ]
    first = subprocess.run(argv, capture_output=True, env=child_env)
    second = subprocess.run(argv, capture_output=True, env=child_env)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr
    assert first.stdout.decode("utf-8").count("\r") == 0
