"""Exception and warning types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
that tests and the CLI can map them to exit codes without string matching.

The one convergence signal, DivergentExpansion, is warned in one place:
_warn_divergent, once the convergence margin q (max |Delta|, |xi| or |kappa|,
formed by each series) reaches 1.
"""

import warnings

from . import _names

__all__ = _names(__name__)


class PmsDeltaError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PmsDeltaError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NonPositiveMean(DomainError):
    """The theta-average of the factor polynomial is not positive.

    Signals motion past a barrier or invalid turning points; there is no real
    first-order stationary frequency in that case.
    """


class OrderTooHigh(DomainError):
    """Requested expansion order exceeds the supported cap."""


class NoPeriodicMotion(DomainError):
    """Model parameters do not admit bounded oscillation."""


class BarrierCrossed(NoPeriodicMotion):
    """Cubic-well energy reaches or exceeds the barrier top."""


class BeyondCritical(DomainError):
    """Orbit frequency parameter is imaginary: 6*GM >= L."""


class ThirdRootInsideInterval(PmsDeltaError):
    """The factor function turns negative inside the integration interval.

    For the precession integral this happens when the third root of the cubic
    enters [z_minus, z_plus], i.e. the semimajor axis is below critical.
    """


class ToleranceNotMet(PmsDeltaError):
    """Adaptive quadrature exhausted its evaluation budget above tolerance."""


class NonFiniteIntegrand(PmsDeltaError):
    """The integrand returned NaN or infinity inside the interval."""


class DegenerateFit(PmsDeltaError):
    """Least-squares fit is underdetermined (all abscissae coincide)."""


class DivergentExpansion(UserWarning):
    """max |Delta| >= 1: the expansion is outside its guaranteed-convergence region."""


def _warn_divergent(q: float, message: str, *args: object) -> None:
    """Warn DivergentExpansion with message % (q, *args) when q >= 1.

    stacklevel=3 blames the caller of the series that calls this.
    """
    if q >= 1.0:
        warnings.warn(message % (q, *args), DivergentExpansion, stacklevel=3)
