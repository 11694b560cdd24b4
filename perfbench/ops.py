"""In-process operations: one public-API call pattern per operation kind.

run(op) returns the floats the operation produced, in a fixed order that
check.expected() mirrors.  Imported only inside the measured process.
"""

from __future__ import annotations

import pmsdelta as p


def _orbit(a: float) -> p.OrbitParams:
    return p.OrbitParams(GM=p.DEFAULT_GM, a=a, epsilon=p.DEFAULT_ECCENTRICITY)


def _study_values(studies) -> tuple[float, ...]:
    return tuple(v for s in studies for pt in s.points for v in (pt.value, pt.reference))


RUNNERS = {
    # engine-high-order
    "even_power_series": lambda K, rho, kappa, order: (
        p.even_power_series(K, rho, kappa, order),
    ),
    "pendulum_approx": lambda amplitude, taylor, order: (
        p.pendulum_approx(amplitude, taylor, order),
    ),
    # The table pattern of `pmsdelta period`: one call per order 0..N.
    "period_table": lambda K, rho, kappa, order: tuple(
        p.even_power_series(K, rho, kappa, n) for n in range(order + 1)
    ),
    "pendulum_table": lambda amplitude, taylor, order: tuple(
        p.pendulum_approx(amplitude, taylor, n) for n in range(order + 1)
    ),
    "even_power_kappa_balanced": lambda K: (p.even_power_kappa_balanced(K),),
    # oracle-sweep: (series, exact)
    "duffing": lambda rho, order: (
        p.duffing_period_series(rho, order), p.duffing_exact_period(rho),
    ),
    "sextic": lambda rho, order: (p.sextic_series(rho, order), p.sextic_exact_period(rho)),
    "even_power": lambda K, rho, kappa, order: (
        p.even_power_series(K, rho, kappa, order), p.even_power_exact_period(K, rho),
    ),
    "cubic": lambda x_minus, x_plus, order: (
        p.cubic_series(x_minus, x_plus, order), p.cubic_exact_period(x_minus, x_plus),
    ),
    "quartic_cubic": lambda *args: (
        p.quartic_cubic_pms(*args)[2], p.quartic_cubic_exact_period(*args),
    ),
    "pendulum": lambda amplitude, order: (
        p.pendulum_approx(amplitude, 6, order), p.pendulum_exact(amplitude),
    ),
    "precession": lambda a, order: (
        p.precession_series(_orbit(a), order), p.precession_exact(_orbit(a)),
    ),
    "precession_table": lambda grid, orders: _study_values(
        p.precession_error_table(grid, orders)
    ),
    "duffing_rho": lambda grid, order: _study_values([p.duffing_error_vs_rho(grid, order)]),
}


def run(op: dict) -> tuple[float, ...]:
    return RUNNERS[op["kind"]](*op["args"])
