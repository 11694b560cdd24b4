"""Tests for the command-line interface."""

import json
import math
import subprocess
import sys
import textwrap

import pytest

from pmsdelta.cli import main

ARCSEC_PER_RAD = 180.0 * 3600.0 / math.pi


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
    ],
    ids=[
        "kappa-inf", "kappa-inf-rho-inf", "x-plus-inf", "order-65", "max-order-65",
        "exponent-1025", "exponent-1e9", "zero-reference-a-inf", "zero-reference-GM-0",
        "points-4097",
    ],
)
def test_non_finite_and_uncapped_inputs_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "\n" not in err.strip()


def test_unknown_study_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["convergence", "nonsense-study"])
    assert info.value.code == 2


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


def test_scalar_commands_do_not_load_numpy(child_env):
    # numpy is imported only by code that vectorizes; closed-form series,
    # quadrature and AGM references, the log-linear fit and the precession
    # table never reach it.  fractions and decimal are never loaded.
    # `import pmsdelta` loads no submodule, and each command imports only the
    # families it runs: a module set to None in sys.modules cannot be
    # imported, so a command that needs a blocked module fails.
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        import pmsdelta

        def loaded():
            return [m for m in ("numpy", "fractions", "decimal") if m in sys.modules]

        def submodules():
            return sorted(m for m in sys.modules if m.startswith("pmsdelta."))

        assert not loaded(), loaded()
        assert submodules() == [], submodules()
        import pmsdelta.cli
        assert submodules() == ["pmsdelta.cli", "pmsdelta.constants", "pmsdelta.errors"], submodules()

        def run(argv, blocked=()):
            saved = {name: sys.modules.pop(name, None) for name in blocked}
            sys.modules.update(dict.fromkeys(blocked))
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    assert pmsdelta.cli.main(argv.split()) == 0, argv
            finally:
                for name, module in saved.items():
                    if module is None:
                        del sys.modules[name]
                    else:
                        sys.modules[name] = module
            assert not loaded(), (argv, loaded())

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
