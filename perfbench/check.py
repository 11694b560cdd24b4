"""Correctness checks behind result_digits_* and failed counts.

expected(op) gives the high-precision values an in-process operation must
return; check_cli() parses one CLI invocation's output, enforces the exit-code
and CSV/JSON contract, and measures the printed numbers against references.
References are computed only here, outside every timed region, and are
cached on disk keyed on the exact inputs.
"""

from __future__ import annotations

import json
import math
import os

import mpmath

import reference as R
from workloads import ECCENTRICITY, GM, kappa_balanced, kappa_pms

RAD_TO_ARCSEC = 180 * 3600 / mpmath.pi


class RefCache:
    """mpmath references memoized on (function name, exact inputs)."""

    def __init__(self, path: str | None = None):
        self.path = path
        self.data: dict[str, list[str]] = {}
        self.dirty = False
        if path and os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                self.data = json.load(handle)

    def __call__(self, name: str, *args) -> list:
        key = json.dumps([name, args])
        if key not in self.data:
            value = R.with_precision(getattr(R, name), *args)
            values = value if isinstance(value, list) else [value]
            with mpmath.workdps(R.REF_DPS):
                self.data[key] = [mpmath.nstr(v, R.REF_DPS - 5) for v in values]
            self.dirty = True
        with mpmath.workdps(R.REF_DPS):
            out = [mpmath.mpf(v) for v in self.data[key]]
        return out

    def one(self, name: str, *args):
        return self(name, *args)[-1]

    def save(self) -> None:
        if self.path and self.dirty:
            tmp = self.path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(self.data, handle)
            os.replace(tmp, self.path)
            self.dirty = False


# ---------------------------------------------------------- in-process ops --


def _two_pi_over(x):
    with mpmath.workdps(R.REF_DPS):
        return 2 * mpmath.pi / x


def expected(op: dict, ref: RefCache) -> list:
    """Reference values, in the order ops.run returns them."""
    kind, args = op["kind"], op["args"]
    if kind == "even_power_series":
        return [ref.one("even_power_series", *args)]
    if kind == "pendulum_approx":
        return [ref.one("pendulum_approx", *args)]
    if kind == "period_table":
        return ref("even_power_series", *args)
    if kind == "pendulum_table":
        return ref("pendulum_approx", *args)
    if kind == "even_power_kappa_balanced":
        return [mpmath.mpf(args[0] + 1) / (2 * args[0])]
    if kind == "duffing":
        return [ref.one("duffing_series", *args), ref.one("duffing_exact", args[0])]
    if kind == "sextic":
        return [ref.one("sextic_series", *args), ref.one("sextic_exact", args[0])]
    if kind == "even_power":
        K, rho = args[:2]
        return [ref.one("even_power_series", *args), ref.one("even_power_exact", K, rho)]
    if kind == "cubic":
        return [ref.one("cubic_series", *args), ref.one("cubic_exact", *args[:2])]
    if kind == "quartic_cubic":
        return [ref.one("quartic_cubic_t2", *args), ref.one("quartic_cubic_exact", *args)]
    if kind == "pendulum":
        A, order = args
        return [ref.one("pendulum_approx", A, 6, order), ref.one("pendulum_exact", A)]
    if kind == "precession":
        a, order = args
        return [ref.one("precession_series", GM, a, ECCENTRICITY, order),
                ref.one("precession_exact", GM, a, ECCENTRICITY)]
    if kind == "precession_table":
        grid, orders = args
        return [v for n in orders for a in grid for v in (
            ref.one("precession_series", GM, a, ECCENTRICITY, n),
            ref.one("precession_exact", GM, a, ECCENTRICITY))]
    if kind == "duffing_rho":
        grid, order = args
        return [v for rho in grid for v in (
            _two_pi_over(ref.one("duffing_series", rho, order)),
            _two_pi_over(ref.one("duffing_exact", rho)))]
    raise KeyError(kind)


def op_digits(values, refs) -> float:
    """Correct digits of an operation: the worst of its returned values."""
    if len(values) != len(refs):
        raise ValueError(f"{len(values)} values for {len(refs)} references")
    return min(R.digits(v, r) for v, r in zip(values, refs))


# --------------------------------------------------------------------- cli --


class ContractError(Exception):
    """The output breaks the CSV/JSON/exit-code contract."""


def _option(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _csv(text: str, header: list[str]) -> list[list[str]]:
    if "\r" in text or not text.endswith("\n"):
        raise ContractError("CSV must use LF endings and end with a newline")
    lines = text[:-1].split("\n")
    if lines[0].split(",") != header:
        raise ContractError(f"header {lines[0]!r}, expected {','.join(header)!r}")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(header) for row in rows):
        raise ContractError("ragged CSV row")
    return rows


def _period_refs(argv, ref: RefCache, order: int):
    model = argv[1]
    if model == "duffing":
        rho = float(_option(argv, "--rho", "1.0"))
        return ref("duffing_series", rho, order), ref.one("duffing_exact", rho)
    if model == "sextic":
        rho = float(_option(argv, "--rho", "1.0"))
        return ref("sextic_series", rho, order), ref.one("sextic_exact", rho)
    if model == "even-power":
        K = int(_option(argv, "--exponent", "2"))
        rho = float(_option(argv, "--rho", "1.0"))
        rule = _option(argv, "--kappa", "pms")
        kappa = {"pms": kappa_pms(K), "balanced": kappa_balanced(K)}.get(rule)
        kappa = float(rule) if kappa is None else kappa
        return (ref("even_power_series", K, rho, kappa, order),
                ref.one("even_power_exact", K, rho))
    if model == "cubic":
        xm = float(_option(argv, "--x-minus", "-1.0"))
        xp = float(_option(argv, "--x-plus", "1.0"))
        return ref("cubic_series", xm, xp, order), ref.one("cubic_exact", xm, xp)
    if model == "pendulum":
        A = float(_option(argv, "--amplitude", "1.0"))
        taylor = int(_option(argv, "--taylor", "4"))
        return ref("pendulum_approx", A, taylor, order), ref.one("pendulum_exact", A)
    raise KeyError(model)


def _check_period(argv, out: str, ref: RefCache):
    order = int(_option(argv, "--order", "4"))
    series, exact = _period_refs(argv, ref, order)
    pairs = []
    if "json" == _option(argv, "--format"):
        payload = json.loads(out)
        rows = payload["rows"]
        if [r["order"] for r in rows] != list(range(order + 1)):
            raise ContractError("JSON rows must cover orders 0..N")
        pairs += [(r["period"], s) for r, s in zip(rows, series)]
        pairs.append((payload["exact"], exact))
    else:
        rows = _csv(out, ["order", "period", "exact"])
        if [int(r[0]) for r in rows] != list(range(order + 1)):
            raise ContractError("CSV rows must cover orders 0..N")
        for row, s in zip(rows, series):
            pairs += [(float(row[1]), s), (float(row[2]), exact)]
    return pairs


def _study_points(argv, out: str) -> list[tuple]:
    """(n, value, reference, study label) of every point, from CSV or JSON."""
    study = argv[1]
    if _option(argv, "--format") == "json":
        payload = json.loads(out)
        if study == "negative-rho":
            studies = [payload["even"], payload["odd"]]
        elif study == "precession":
            studies = payload
        else:
            studies = [payload]
        return [(pt["n"], pt["value"], pt["reference"], s["label"])
                for s in studies for pt in s["points"]]
    header = ["n", "value", "reference", "rel_error"]
    if study == "negative-rho":
        header.append("parity")
    rows = _csv(out, header)
    return [(float(r[0]), float(r[1]), float(r[2]), study) for r in rows]


def _check_convergence(argv, out: str, ref: RefCache):
    study = argv[1]
    points = _study_points(argv, out)
    pairs = []
    if study == "duffing-b0":
        top = int(_option(argv, "--max-order", "10"))
        series = ref("duffing_b0", top)
        b0 = _two_pi_over(ref.one("even_power_exact", 2, math.inf))
        for n, v, r, _ in points:
            pairs += [(v, series[int(n)]), (r, b0)]
    elif study == "sextic-c0":
        top = int(_option(argv, "--max-order", "10"))
        series = ref("even_power_series", 3, math.inf, kappa_pms(3), top)
        c0 = ref.one("even_power_exact", 3, math.inf)
        for n, v, r, _ in points:
            pairs += [(v, series[int(n)]), (r, c0)]
    elif study == "duffing-rho":
        order = int(_option(argv, "--fixed-order", "2"))
        for rho, v, r, _ in points:
            pairs += [(v, _two_pi_over(ref.one("duffing_series", rho, order))),
                      (r, _two_pi_over(ref.one("duffing_exact", rho)))]
    elif study == "negative-rho":
        K = int(_option(argv, "--exponent", "5"))
        rho = float(_option(argv, "--rho", "-0.9"))
        top = int(_option(argv, "--max-order", "10"))
        series = ref("even_power_series", K, rho, kappa_pms(K), top)
        exact = ref.one("even_power_exact", K, rho)
        for n, v, r, _ in points:
            pairs += [(v, series[int(n)]), (r, exact)]
    elif study == "precession":
        for a, v, r, label in points:
            order = int(label.rsplit("order", 1)[1])
            pairs += [(v, ref.one("precession_series", GM, a, ECCENTRICITY, order)),
                      (r, ref.one("precession_exact", GM, a, ECCENTRICITY))]
    else:
        raise KeyError(study)
    if not pairs:
        raise ContractError("empty study")
    return pairs


def _check_precession(argv, out: str, ref: RefCache):
    if not out.endswith("\n"):
        raise ContractError("output must end with a newline")
    fields = dict(line.split("=", 1) for line in out[:-1].split("\n"))
    if list(fields)[:2] != ["series", "exact"] or "a_c" not in fields:
        raise ContractError(f"unexpected fields {list(fields)}")
    a = float(_option(argv, "--a"))
    units = _option(argv, "--units", "arcsec")
    if fields["units"] != units:
        raise ContractError("units line does not echo --units")
    scale = 1 if units == "rad" else RAD_TO_ARCSEC
    with mpmath.workdps(R.REF_DPS):
        return [
            (float(fields["series"]),
             scale * ref.one("precession_series", GM, a, ECCENTRICITY, 6)),
            (float(fields["exact"]), scale * ref.one("precession_exact", GM, a, ECCENTRICITY)),
            (float(fields["a_c"]), ref.one("critical_semimajor_axis", GM, ECCENTRICITY)),
        ]


_CHECKERS = {
    "period": _check_period,
    "convergence": _check_convergence,
    "precession": _check_precession,
}


def check_cli(op: dict, code: int, out: str, err: str, ref: RefCache):
    """(failure reason or None, digits or None) for one invocation."""
    expect = op["expect"]
    if expect != "ok":
        want = int(expect[-1])
        if code != want:
            return f"exit {code}, expected {want}", None
        if out or err.count("\n") != 1:
            return "rejection must print one stderr line and no stdout", None
        return None, None
    if code != 0:
        tail = err.strip().splitlines()[-1:] or [""]
        return f"exit {code}: {tail[0][:120]}", None
    argv = op["argv"]
    try:
        pairs = _CHECKERS[op["kind"]](argv, out, ref)
    except (ContractError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"contract: {type(exc).__name__}: {exc}"[:160], None
    values = [float(v) for v, _ in pairs]
    if not all(math.isfinite(v) for v in values):
        return "non-finite value", None
    return None, op_digits(values, [r for _, r in pairs])
