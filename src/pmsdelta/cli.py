"""Command-line front end: period tables, convergence studies, precession.

Output contract: CSV with a header row and LF line endings, floats printed
with 17 significant digits so identical invocations are byte-identical and
diff-stable.  JSON output mirrors the same fields with stable key order.
Informational lines (fitted slopes, reference values) go to stdout when the
table is written to a file, and to stderr when the table itself occupies
stdout, so piped CSV stays clean.

Every table has one writer.  A command builds (payload, header, rows) and
_emit writes it, as the payload through constants._json or as header and
rows through constants._csv, and returns the stream the informational
lines go to.

Exit codes: 0 on success, 2 when a precondition on the inputs is violated
or the --out file cannot be written (one-line diagnostic on stderr), 3 when
the requested orbit has a positive semimajor axis at or below the critical
one, and 1, from run, when the reader closes stdout early.
A warning raised during a command, such as the DivergentExpansion that
errors._warn_divergent forms for every series, is printed as one stderr line,
"Category: message", once per command.

Each command imports the modules it runs inside its own function, so a call
compiles only those: a command that prints closed forms loads neither the
expansion engine, nor the spec-built families of models, nor the quadrature
rules.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, NoReturn, Sequence, TextIO

from .constants import (
    DEFAULT_ECCENTRICITY, DEFAULT_GM, REFERENCE, _G_OVER_C2, _MASS, _check_order, _csv, _fmt,
    _json,
)
from .errors import (
    BeyondCritical,
    DomainError,
    PmsDeltaError,
    ThirdRootInsideInterval,
)

if TYPE_CHECKING:
    from .analysis import ConvergenceStudy

RAD_TO_ARCSEC = 180.0 * 3600.0 / math.pi

# Largest sweep grid; each point costs an exact reference.
MAX_POINTS = 4096


def _geometric_grid(lo: float, hi: float, points: int) -> list[float]:
    if points < 2:
        raise DomainError("points must be >= 2")
    if points > MAX_POINTS:
        raise DomainError(f"points must be <= {MAX_POINTS}, got {points}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"grid bounds must be finite, got {lo!r} and {hi!r}")
    if not lo < hi:
        raise DomainError("grid minimum must be below grid maximum")
    # The last point is hi itself: lo + n step and lo (hi/lo) can miss it.
    n = points - 1
    if lo <= 0.0:
        step = (hi - lo) / n
        if step < math.inf:
            return [lo + i * step for i in range(n)] + [hi]
        return [lo * (1 - i / n) + hi * (i / n) for i in range(n)] + [hi]
    if hi / lo < math.inf:
        return [lo * (hi / lo) ** (i / n) for i in range(n)] + [hi]
    return [lo ** (1 - i / n) * hi ** (i / n) for i in range(n)] + [hi]


def _emit(
    args: argparse.Namespace, payload: object, header: Sequence[str], rows: Iterable
) -> TextIO:
    """Write the table in args.format to args.out (default stdout); return
    the stream informational lines should use."""
    table = _json(payload) if args.format == "json" else _csv(header, rows)
    if args.out is None or args.out == "-":
        sys.stdout.write(table)
        return sys.stderr
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(table)
    except OSError as exc:
        raise PmsDeltaError(f"cannot write {args.out}: {exc.strerror}") from exc
    return sys.stdout


# ---------------------------------------------------------------- period --


def _period_functions(args: argparse.Namespace) -> tuple[Callable, Callable]:
    """(order -> series value, () -> oracle value) for the requested model.

    The closed forms come from oscillators; only the even-power and pendulum
    series load the spec-built families of models, and with them the engine.
    """
    from .oscillators import (
        cubic_exact_period,
        cubic_series,
        duffing_exact_period,
        duffing_period_series,
        even_power_exact_period,
        even_power_kappa_balanced,
        even_power_kappa_pms,
        pendulum_exact,
        sextic_exact_period,
        sextic_series,
    )

    if args.model == "duffing":
        return (partial(duffing_period_series, args.rho),
                partial(duffing_exact_period, args.rho))
    if args.model == "sextic":
        return (partial(sextic_series, args.rho),
                partial(sextic_exact_period, args.rho))
    if args.model == "even-power":
        from .models import even_power_series

        K = args.exponent
        if args.kappa == "pms":
            kappa = even_power_kappa_pms(K)
        elif args.kappa == "balanced":
            kappa = even_power_kappa_balanced(K)
        else:
            try:
                kappa = float(args.kappa)
            except ValueError:
                raise DomainError(
                    f"kappa must be pms, balanced or a number, got {args.kappa!r}"
                ) from None
        return (partial(even_power_series, K, args.rho, kappa),
                partial(even_power_exact_period, K, args.rho))
    if args.model == "cubic":
        return (partial(cubic_series, args.x_minus, args.x_plus),
                partial(cubic_exact_period, args.x_minus, args.x_plus))
    from .models import pendulum_approx

    return (partial(pendulum_approx, args.amplitude, args.taylor),
            partial(pendulum_exact, args.amplitude))


def cmd_period(args: argparse.Namespace) -> int:
    order = _check_order(args.order)
    series, oracle = _period_functions(args)
    values = [series(n) for n in range(order + 1)]
    payload = {
        "model": args.model,
        "rows": [{"order": n, "period": v} for n, v in enumerate(values)],
    }
    header, rows = ("order", "period"), list(enumerate(values))
    if args.exact:
        payload["exact"] = exact = oracle()
        header += ("exact",)
        rows = [(*row, exact) for row in rows]
    _emit(args, payload, header, rows)
    return 0


# ----------------------------------------------------------- convergence --


def _info_fit(stream: TextIO, study: ConvergenceStudy) -> None:
    if study.fit is None:
        return
    stream.write(
        f"fit[{study.label}]: alpha={_fmt(study.fit.alpha)}"
        f" beta={_fmt(study.fit.beta)} residual={_fmt(study.fit.residual)}\n"
    )


def cmd_convergence(args: argparse.Namespace) -> int:
    from .analysis import (
        _COLUMNS,
        duffing_b0_study,
        duffing_error_vs_rho,
        negative_rho_study,
        precession_error_table,
        sextic_c0_study,
    )

    note = ""
    if args.study == "negative-rho":
        studies = negative_rho_study(args.exponent, rho=args.rho, max_order=args.max_order)
        # One table, rows in order n, each tagged with its parity track.
        payload = {"even": studies[0].payload(), "odd": studies[1].payload()}
        header = (*_COLUMNS, "parity")
        tagged = [(*p, tag) for s, tag in zip(studies, ("even", "odd")) for p in s.points]
        rows = sorted(tagged, key=lambda row: row[0])
    elif args.study == "precession":
        orders = []
        for tok in filter(str.strip, args.orders.split(",")):
            try:
                orders.append(int(tok))
            except ValueError:
                raise DomainError(
                    f"orders must be comma-separated integers, got {tok.strip()!r}"
                ) from None
        if not orders:
            raise DomainError("orders must name at least one expansion order")
        grid = _geometric_grid(args.a_min, args.a_max, args.points)
        studies = precession_error_table(
            grid, orders, GM=args.GM, eccentricity=args.eccentricity
        )
        # Wide: one row per grid point, one rel_error column per order.
        payload = [s.payload() for s in studies]
        header = ("a", *(f"order{n}" for n in orders))
        rows = [(ps[0].n, *(p.rel_error for p in ps)) for ps in zip(*(s.points for s in studies))]
    else:
        if args.study == "duffing-b0":
            study = duffing_b0_study(args.max_order)
            note = (
                f"reference slopes: ln9={_fmt(float(REFERENCE.beta_quartic))}"
                f" published={_fmt(float(REFERENCE.beta_quartic_pks))}\n"
            )
        elif args.study == "sextic-c0":
            study = sextic_c0_study(args.max_order)
            note = f"reference slope: ln(5/3)={_fmt(float(REFERENCE.beta_sextic))}\n"
        else:
            grid = _geometric_grid(args.rho_min, args.rho_max, args.points)
            study = duffing_error_vs_rho(grid, order=args.fixed_order)
        studies = [study]
        payload, header, rows = study.payload(), _COLUMNS, study.points
    stream = _emit(args, payload, header, rows)
    for study in studies:
        _info_fit(stream, study)
    stream.write(note)
    return 0


# ------------------------------------------------------------ precession --


def cmd_precession(args: argparse.Namespace) -> int:
    from .precession import (
        OrbitParams,
        critical_semimajor_axis,
        precession_exact,
        precession_series,
    )

    GM = args.GM if args.GM is not None else args.mass * args.g_over_c2
    scale = 1.0 if args.units == "rad" else RAD_TO_ARCSEC
    a_c = critical_semimajor_axis(GM, args.eccentricity)
    # Built first, so an axis that is not positive is refused as an input
    # (exit 2) rather than reported below critical.
    orbit = OrbitParams(GM=GM, a=args.a, epsilon=args.eccentricity)
    if args.a <= a_c and not args.series_only:
        sys.stderr.write(f"below critical semimajor axis a_c={_fmt(a_c)}\n")
        return 3
    lines = [f"series={_fmt(scale * precession_series(orbit, args.order))}"]
    if not args.series_only:
        lines.append(f"exact={_fmt(scale * precession_exact(orbit))}")
    lines.append(f"a_c={_fmt(a_c)}")
    lines.append(f"units={args.units}")
    if args.series_only and args.a <= a_c:
        lines.append("note=series extrapolated below the critical semimajor axis")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# --------------------------------------------------------------- parsing --


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmsdelta",
        description="Periods and precession from an optimized expansion of "
        "turning-point integrals, with convergence studies against an "
        "independent quadrature oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    period = sub.add_parser("period", help="period table at orders 0..N")
    period.add_argument("model", choices=["duffing", "sextic", "even-power", "cubic", "pendulum"])
    period.add_argument("--order", type=int, default=4, help="highest expansion order")
    period.add_argument("--exact", action="store_true", help="append the oracle value as a column")
    period.add_argument("--rho", type=float, default=1.0, help="anharmonicity (accepts inf)")
    period.add_argument("--exponent", type=int, default=2, help="half-power K for even-power")
    period.add_argument(
        "--kappa",
        default="pms",
        help="even-power frequency rule: pms, balanced, or a number",
    )
    period.add_argument("--x-minus", type=float, default=-1.0, help="left turning point (cubic)")
    period.add_argument("--x-plus", type=float, default=1.0, help="right turning point (cubic)")
    period.add_argument("--amplitude", type=float, default=1.0, help="pendulum amplitude (rad)")
    period.add_argument("--taylor", type=int, default=4, choices=[2, 4, 6],
                        help="pendulum potential truncation")
    period.add_argument("--format", choices=["csv", "json"], default="csv")
    period.add_argument("--out", default=None, help="output path (default stdout)")
    period.set_defaults(func=cmd_period)

    conv = sub.add_parser("convergence", help="error-decay studies and sweeps")
    conv.add_argument(
        "study",
        choices=["duffing-b0", "duffing-rho", "sextic-c0", "negative-rho", "precession"],
    )
    conv.add_argument("--max-order", type=int, default=10)
    conv.add_argument("--rho", type=float, default=-0.9, help="anharmonicity (negative-rho)")
    conv.add_argument("--exponent", type=int, default=5, help="half-power K (negative-rho)")
    conv.add_argument("--rho-min", type=float, default=0.1)
    conv.add_argument("--rho-max", type=float, default=1e4)
    conv.add_argument("--fixed-order", type=int, default=2,
                      help="series order for the duffing-rho sweep")
    conv.add_argument("--a-min", type=float, default=150.0)
    conv.add_argument("--a-max", type=float, default=1000.0)
    conv.add_argument("--points", type=int, default=16, help="grid size for sweeps")
    conv.add_argument("--orders", default="0,2,4,6",
                      help="comma-separated orders for the precession table")
    conv.add_argument("--GM", type=float, default=DEFAULT_GM, help="GM/c^2 in metres")
    conv.add_argument("--eccentricity", type=float, default=DEFAULT_ECCENTRICITY)
    conv.add_argument("--format", choices=["csv", "json"], default="csv")
    conv.add_argument("--out", default=None, help="output path (default stdout)")
    conv.set_defaults(func=cmd_convergence)

    prec = sub.add_parser("precession", help="perihelion advance for one orbit")
    prec.add_argument("--a", type=float, required=True, help="semimajor axis (metres)")
    prec.add_argument("--eccentricity", type=float, default=DEFAULT_ECCENTRICITY)
    prec.add_argument("--GM", type=float, default=None,
                      help="GM/c^2 in metres (overrides --mass/--g-over-c2)")
    prec.add_argument("--mass", type=float, default=_MASS, help="central mass (kg)")
    prec.add_argument("--g-over-c2", type=float, default=_G_OVER_C2,
                      help="G/c^2 in metres per kilogram")
    prec.add_argument("--order", type=int, default=6)
    prec.add_argument("--units", choices=["arcsec", "rad"], default="arcsec")
    prec.add_argument("--series-only", action="store_true",
                      help="skip the oracle value; marks sub-critical output as extrapolation")
    prec.set_defaults(func=cmd_precession)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None, *, shown) -> None:
    """One stderr line per distinct warning, with no source path or quoted code.

    A line already in `shown` is not written again: the interpreter's record
    of the warnings it has shown is cleared whenever the warning filters
    change, as they do when numpy is first imported, so a warning repeated
    by a loop over orders would otherwise print twice.
    """
    text = f"{category.__name__}: {message}\n"
    if text not in shown:
        shown.add(text)
        sys.stderr.write(text)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: Sequence[str]) -> list[str]:
    """argv with each pair such as `--name -1e-05` written `--name=-1e-05`.

    argparse reads a token that starts with "-" as an option unless it looks
    like -1 or -.5, so a separate value such as -1e-05 or -inf would not
    reach its option; joined, every number does.
    """
    joined: list[str] = []
    for token in argv:
        option = joined[-1] if joined else ""
        negative = token.startswith("-") and _is_number(token)
        if negative and option.startswith("--") and "=" not in option:
            joined[-1] = f"{option}={token}"
        else:
            joined.append(token)
    return joined


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    with warnings.catch_warnings():
        warnings.showwarning = partial(_show_warning, shown=set())
        try:
            return args.func(args)
        except (ThirdRootInsideInterval, BeyondCritical) as exc:
            sys.stderr.write(f"{exc}\n")
            return 3
        except (PmsDeltaError, ValueError) as exc:
            sys.stderr.write(f"{exc}\n")
            return 2


def run() -> NoReturn:
    """Run main() as the process: the one entry of the installed `pmsdelta`,
    `python -m pmsdelta` and `python -m pmsdelta.cli`.

    The interpreter's teardown, freeing every module and object, costs a
    cold command several milliseconds and writes nothing, so when the
    interpreter was started as `python -m pmsdelta`, with no interpreter
    option before -m, the process ends by os._exit as soon as main() has
    returned and stdout and stderr are flushed; a table written with --out is
    closed before main() returns.  Any other start, such as the installed
    command or a profiler or tracer that runs the package through runpy,
    gets SystemExit and keeps the interpreter's normal exit.  An exception
    takes the normal exit path.  argparse's SystemExit, from --help or a
    usage error, is flushed and exits like a code main() returns.  A reader
    that closes stdout early gets exit 1 and no traceback, as in the recipe
    of the signal module's documentation.
    """
    try:
        try:
            code = main()
        except SystemExit as exc:
            code = exc.code
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        # Point stdout at devnull, so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    if sys.orig_argv[1:3] == ["-m", "pmsdelta"]:
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
