"""The CLI output contract, checked in-process against the library.

Every table a command prints must equal the text built here from the library
functions' own return values: the header and column order, 17 significant
digits, the negative-rho rows in order n with a parity column, the wide
precession layout, the JSON key order, and the informational lines on
stderr (stdout when the table goes to --out).
"""

import json
import math

import pytest

from pmsdelta.analysis import (
    duffing_b0_study,
    duffing_error_vs_rho,
    negative_rho_study,
    precession_error_table,
    sextic_c0_study,
)
from pmsdelta.cli import main
from pmsdelta.constants import DEFAULT_ECCENTRICITY, DEFAULT_GM, REFERENCE
from pmsdelta.models import pendulum_approx
from pmsdelta.oscillators import duffing_exact_period, duffing_period_series
from pmsdelta.precession import (
    OrbitParams,
    critical_semimajor_axis,
    precession_exact,
    precession_series,
)


def g17(x):
    return f"{x:.17g}"


def csv(header, rows):
    lines = [",".join(header)]
    lines += [",".join(c if isinstance(c, str) else g17(c) for c in row) for row in rows]
    return "".join(line + "\n" for line in lines)


def dumps(payload):
    return json.dumps(payload, indent=2) + "\n"


def study_json(study):
    fit = study.fit
    return {
        "label": study.label,
        "points": [
            {"n": p.n, "value": p.value, "reference": p.reference, "rel_error": p.rel_error}
            for p in study.points
        ],
        "fit": None if fit is None else {
            "alpha": fit.alpha, "beta": fit.beta, "residual": fit.residual,
        },
    }


def study_rows(study):
    return [(p.n, p.value, p.reference, p.rel_error) for p in study.points]


def fit_line(study):
    fit = study.fit
    return (
        f"fit[{study.label}]: alpha={g17(fit.alpha)} beta={g17(fit.beta)}"
        f" residual={g17(fit.residual)}\n"
    )


def geometric(lo, hi, points):
    return [lo * (hi / lo) ** (i / (points - 1)) for i in range(points)]


STUDY_HEADER = ("n", "value", "reference", "rel_error")


def period_duffing():
    values = [duffing_period_series(0.5, n) for n in range(5)]
    exact = duffing_exact_period(0.5)
    rows = [(n, v, exact) for n, v in enumerate(values)]
    payload = {
        "model": "duffing",
        "rows": [{"order": n, "period": v} for n, v in enumerate(values)],
        "exact": exact,
    }
    return csv(("order", "period", "exact"), rows), dumps(payload), ""


def period_pendulum():
    values = [pendulum_approx(1.0, 6, n) for n in range(4)]
    payload = {
        "model": "pendulum",
        "rows": [{"order": n, "period": v} for n, v in enumerate(values)],
    }
    return csv(("order", "period"), enumerate(values)), dumps(payload), ""


def duffing_b0():
    study = duffing_b0_study(6)
    info = fit_line(study) + (
        f"reference slopes: ln9={g17(float(REFERENCE.beta_quartic))}"
        f" published={g17(float(REFERENCE.beta_quartic_pks))}\n"
    )
    return csv(STUDY_HEADER, study_rows(study)), dumps(study_json(study)), info


def sextic_c0():
    study = sextic_c0_study(8)
    info = fit_line(study) + f"reference slope: ln(5/3)={g17(float(REFERENCE.beta_sextic))}\n"
    return csv(STUDY_HEADER, study_rows(study)), dumps(study_json(study)), info


def duffing_rho():
    study = duffing_error_vs_rho(geometric(0.1, 100.0, 4), order=3)
    return csv(STUDY_HEADER, study_rows(study)), dumps(study_json(study)), ""


def negative_rho():
    even, odd = negative_rho_study(4, rho=-0.9, max_order=8)
    rows = [(*row, "even") for row in study_rows(even)]
    rows += [(*row, "odd") for row in study_rows(odd)]
    rows.sort(key=lambda row: row[0])
    assert [row[-1] for row in rows] == ["odd", "even"] * 4
    payload = {"even": study_json(even), "odd": study_json(odd)}
    return csv((*STUDY_HEADER, "parity"), rows), dumps(payload), fit_line(even) + fit_line(odd)


def precession_table():
    grid = geometric(160.0, 1000.0, 4)
    studies = precession_error_table(
        grid, [0, 2], GM=DEFAULT_GM, eccentricity=DEFAULT_ECCENTRICITY
    )
    rows = [
        (a, studies[0].points[i].rel_error, studies[1].points[i].rel_error)
        for i, a in enumerate(grid)
    ]
    payload = [study_json(s) for s in studies]
    return csv(("a", "order0", "order2"), rows), dumps(payload), ""


CASES = {
    "period-duffing": (["period", "duffing", "--rho", "0.5", "--order", "4", "--exact"],
                       period_duffing),
    "period-pendulum": (["period", "pendulum", "--amplitude", "1", "--taylor", "6",
                         "--order", "3"], period_pendulum),
    "duffing-b0": (["convergence", "duffing-b0", "--max-order", "6"], duffing_b0),
    "sextic-c0": (["convergence", "sextic-c0", "--max-order", "8"], sextic_c0),
    "duffing-rho": (["convergence", "duffing-rho", "--rho-min", "0.1", "--rho-max", "100",
                     "--points", "4", "--fixed-order", "3"], duffing_rho),
    "negative-rho": (["convergence", "negative-rho", "--exponent", "4", "--max-order", "8"],
                     negative_rho),
    "precession-table": (["convergence", "precession", "--a-min", "160", "--a-max", "1000",
                          "--points", "4", "--orders", "0,2"], precession_table),
}


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", list(CASES))
def test_table_equals_library_values(capsys, tmp_path, case, fmt, to_file):
    argv, expected = CASES[case]
    csv_text, json_text, info = expected()
    table = json_text if fmt == "json" else csv_text
    argv = [*argv, "--format", fmt]
    target = tmp_path / "table"
    if to_file:
        argv += ["--out", str(target)]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0
    if to_file:
        assert target.read_bytes() == table.encode("utf-8")
        assert (out, err) == (info, "")
    else:
        assert (out, err) == (table, info)


@pytest.mark.parametrize("units", ["arcsec", "rad"])
def test_precession_lines_equal_library_values(capsys, units):
    orbit = OrbitParams(GM=DEFAULT_GM, a=300.0, epsilon=DEFAULT_ECCENTRICITY)
    scale = 180.0 * 3600.0 / math.pi if units == "arcsec" else 1.0
    expected = (
        f"series={g17(scale * precession_series(orbit, 6))}\n"
        f"exact={g17(scale * precession_exact(orbit))}\n"
        f"a_c={g17(critical_semimajor_axis(DEFAULT_GM, DEFAULT_ECCENTRICITY))}\n"
        f"units={units}\n"
    )
    code = main(["precession", "--a", "300", "--GM", repr(DEFAULT_GM), "--units", units])
    assert code == 0
    assert capsys.readouterr() == (expected, "")
