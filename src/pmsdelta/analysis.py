"""Convergence studies: error decay rates and comparison tables.

Each study evaluates a family of partial sums against a reference computed
independently through the quadrature oracle (never against a stored journal
number, so the data is self-validating), and ships the result as a
ConvergenceStudy: labelled points plus an optional log-linear fit of the
error decay.  Studies serialize to CSV and JSON for plotting.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, astuple, dataclass, fields
from typing import Sequence

from . import _names
from .constants import DEFAULT_ECCENTRICITY, DEFAULT_GM, _csv, _json
from .errors import DomainError, PmsDeltaError
from .oracle import FitResult, fit_log_linear
from .oscillators import (
    _check_exponent,
    duffing_b0,
    duffing_exact_period,
    duffing_period_series,
    even_power_exact_period,
    even_power_kappa_pms,
    even_power_series,
)
from .precession import OrbitParams, precession_exact, precession_series
from .series_core import _check_order

__all__ = _names(__name__)


@dataclass(frozen=True)
class StudyPoint:
    """One abscissa of a study: n is an order for decay studies, a parameter
    value for parameter sweeps."""

    n: float
    value: float
    reference: float
    rel_error: float


# The CSV columns of a study, one per StudyPoint field.
_COLUMNS = tuple(f.name for f in fields(StudyPoint))


@dataclass(frozen=True)
class ConvergenceStudy:
    label: str
    points: tuple[StudyPoint, ...]
    fit: FitResult | None = None

    def payload(self) -> dict:
        """The fields as JSON data, keys in declaration order."""
        payload = asdict(self)
        payload["fit"] = None if self.fit is None else self.fit._asdict()
        return payload

    def to_csv(self) -> str:
        """CSV with header, LF line endings, 17 significant digits."""
        return _csv(_COLUMNS, map(astuple, self.points))

    def to_json(self) -> str:
        """JSON mirror of the fields, stable key order."""
        return _json(self.payload())


def _study_point(n: float, value: float, reference: float) -> StudyPoint:
    """The point with its relative error; a zero reference has none and is
    refused with DomainError naming the grid point."""
    if reference == 0.0:
        raise DomainError(
            f"the reference at grid point {n!r} is zero, so its relative error "
            "is undefined"
        )
    return StudyPoint(
        n=float(n),
        value=value,
        reference=reference,
        rel_error=abs(value - reference) / abs(reference),
    )


# Relative errors at or below this many units of float epsilon are rounding
# noise: a value and a reference that round differently by an ulp or two
# differ this much even when both are right to the last bit, and ln of such
# an error says nothing of the decay rate.
_ERROR_FLOOR = 4.0 * sys.float_info.epsilon


def _points_and_fit(
    orders: Sequence[int],
    values: Sequence[float],
    reference: float,
    fit_orders: Sequence[int],
) -> tuple[tuple[StudyPoint, ...], FitResult]:
    """The study's points and the log-linear fit of their errors over the
    fit window, leaving out errors at the rounding floor (_ERROR_FLOOR).
    Fewer than two orders of the window above it leave nothing to fit:
    DomainError, naming the window."""
    points = tuple(_study_point(n, v, reference) for n, v in zip(orders, values))
    window = {float(n) for n in fit_orders}
    fitted = [
        (p.n, p.rel_error) for p in points if p.n in window and p.rel_error > _ERROR_FLOOR
    ]
    if len(fitted) < 2:
        step = fit_orders[1] - fit_orders[0] if len(fit_orders) > 1 else 1
        steps = f" in steps of {step}" if step != 1 else ""
        raise DomainError(
            f"the fit window N = {fit_orders[0]}..{fit_orders[-1]}{steps} holds {len(fitted)} "
            "order(s) with an error above the rounding floor of 4 eps; a fit needs at least 2"
        )
    return points, fit_log_linear(fitted)


def duffing_b0_study(max_order: int) -> ConvergenceStudy:
    """Error decay of the quartic strong-coupling coefficient sequence.

    Computes b0^(N) for N = 0..max_order against the oracle value
    2 pi / (lim sqrt(rho) T), and fits ln(rel_error) over N = 1..max_order
    (N = 0 is excluded as a transient).
    """
    if max_order < 3:
        raise DomainError("max_order must be >= 3")
    max_order = _check_order(max_order)
    reference = 2.0 * math.pi / even_power_exact_period(2, math.inf)
    orders = range(max_order + 1)
    values = [duffing_b0(n) for n in orders]
    points, fit = _points_and_fit(orders, values, reference, range(1, max_order + 1))
    return ConvergenceStudy(label="duffing-b0", points=points, fit=fit)


def duffing_error_vs_rho(
    rho_grid: Sequence[float], order: int = 2
) -> ConvergenceStudy:
    """Frequency error of a fixed-order partial sum across anharmonicities.

    For each rho in the grid, compares 2 pi / T_series(rho, order) with the
    exact frequency.  The prefactors cancel in that ratio, so the error is a
    function of xi^2 alone, xi = rho/(4 + 3 rho).  It grows with xi^2 toward
    the asymptote given by the strong-coupling coefficient error at the same
    order, its value at xi = 1/3 (rho = inf), and stays below it while
    |xi| <= 1/3, that is for rho >= -2/3; that bound is enforced there, up
    to the few ulp both computed errors carry.  Points with rho < -2/3 have
    |xi| > 1/3 and are reported without it.
    """
    if not rho_grid:
        raise DomainError("rho_grid must not be empty")
    if any(r <= -1.0 for r in rho_grid):
        raise DomainError("all grid points must satisfy rho > -1")
    order = _check_order(order)
    b0_ref = 2.0 * math.pi / even_power_exact_period(2, math.inf)
    asymptote = abs(duffing_b0(order) - b0_ref) / b0_ref
    bound = asymptote * (1.0 + 1e-9) + 8.0 * sys.float_info.epsilon
    points = []
    for rho in rho_grid:
        freq = 2.0 * math.pi / duffing_period_series(rho, order)
        point = _study_point(rho, freq, 2.0 * math.pi / duffing_exact_period(rho))
        if rho >= -2.0 / 3.0 and point.rel_error > bound:
            raise PmsDeltaError(
                f"error {point.rel_error!r} at rho = {rho!r} exceeds the "
                f"strong-coupling asymptote {asymptote!r}; this should be impossible"
            )
        points.append(point)
    return ConvergenceStudy(label=f"duffing-rho-order{order}", points=tuple(points))


def sextic_c0_study(max_order: int) -> ConvergenceStudy:
    """Error decay of the sextic strong-coupling coefficient sequence.

    Computes c0^(N) = lim sqrt(rho) T at expansion orders N = 0..max_order
    (first-order stationary kappa throughout) against the oracle limit.
    The fit runs over even N from 2 up, because the even and odd
    subsequences decay along two distinct tracks, so max_order below 4
    leaves one point to fit and is refused.
    """
    if max_order < 4:
        raise DomainError("max_order must be >= 4: the fit over even N from 2 needs two orders")
    max_order = _check_order(max_order)
    kappa = even_power_kappa_pms(3)
    reference = even_power_exact_period(3, math.inf)
    orders = range(max_order + 1)
    values = [even_power_series(3, math.inf, kappa, n) for n in orders]
    fit_orders = range(2, max_order + 1, 2)
    points, fit = _points_and_fit(orders, values, reference, fit_orders)
    return ConvergenceStudy(label="sextic-c0", points=points, fit=fit)


def negative_rho_study(
    K: int, rho: float = -0.9, max_order: int = 16
) -> tuple[ConvergenceStudy, ConvergenceStudy]:
    """Even- and odd-order error tracks for a softened even-power oscillator.

    Expands the period at the first-order stationary kappa for orders
    N = 1..max_order and splits the errors by parity: the two subsequences
    decay exponentially along separate lines, the even one lying below the
    odd one at matched positions.  Returns (even_study, odd_study).
    """
    if K not in (3, 4, 5):
        raise DomainError(f"K must be 3, 4 or 5, got {K!r}")
    K = _check_exponent(K)
    if max_order < 6:
        raise DomainError("max_order must be >= 6")
    max_order = _check_order(max_order)
    kappa = even_power_kappa_pms(K)
    reference = even_power_exact_period(K, rho)
    studies = []
    for parity, tag in ((0, "even"), (1, "odd")):
        orders = [n for n in range(1, max_order + 1) if n % 2 == parity]
        values = [even_power_series(K, rho, kappa, n) for n in orders]
        points, fit = _points_and_fit(orders, values, reference, orders)
        studies.append(
            ConvergenceStudy(label=f"negative-rho-K{K}-{tag}", points=points, fit=fit)
        )
    even_study, odd_study = studies
    return even_study, odd_study


def precession_error_table(
    a_grid: Sequence[float],
    orders: Sequence[int],
    GM: float = DEFAULT_GM,
    eccentricity: float = DEFAULT_ECCENTRICITY,
) -> list[ConvergenceStudy]:
    """Series-vs-exact precession error across semimajor axes, per order.

    Returns one study per requested order, each sharing the same a-grid
    abscissas.  Sub-critical grid points propagate ThirdRootInsideInterval
    from the exact evaluation; a point whose exact precession is zero
    (a = inf, or GM = 0) raises DomainError.
    """
    if not a_grid:
        raise DomainError("a_grid must not be empty")
    if not orders:
        raise DomainError("orders must not be empty")
    orders = [_check_order(order) for order in orders]
    cases = []
    for a in a_grid:
        orbit = OrbitParams(GM=GM, a=a, epsilon=eccentricity)
        cases.append((orbit, precession_exact(orbit)))
    return [
        ConvergenceStudy(
            label=f"precession-order{order}",
            points=tuple(
                _study_point(orbit.a, precession_series(orbit, order), exact)
                for orbit, exact in cases
            ),
        )
        for order in orders
    ]
