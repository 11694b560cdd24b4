"""Periods and orbital precession from an optimized series expansion.

The package evaluates turning-point integrals of the form
integral dx / sqrt(Q(x)) by factoring out a harmonic reference between the
turning points and expanding the remainder, with the reference frequency
fixed by a stationarity condition on the partial sum.  Applications cover
anharmonic oscillator periods and the perihelion advance of nearly circular
relativistic orbits, each checked against an independent adaptive-quadrature
oracle.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it, the one list of public names:
# each submodule's __all__ is its slice (_names).  `import pmsdelta` loads no
# submodule: the first read of a name imports its module (PEP 562) and binds
# the value here, so later reads are plain attribute lookups.
_EXPORTS = {
    "ConvergenceStudy": "analysis",
    "StudyPoint": "analysis",
    "duffing_b0_study": "analysis",
    "duffing_error_vs_rho": "analysis",
    "negative_rho_study": "analysis",
    "precession_error_table": "analysis",
    "sextic_c0_study": "analysis",
    "DEFAULT_ECCENTRICITY": "constants",
    "DEFAULT_GM": "constants",
    "REFERENCE": "constants",
    "ReferenceConstants": "constants",
    "ReferenceValue": "constants",
    "BarrierCrossed": "errors",
    "BeyondCritical": "errors",
    "DegenerateFit": "errors",
    "DivergentExpansion": "errors",
    "DomainError": "errors",
    "NoPeriodicMotion": "errors",
    "NonFiniteIntegrand": "errors",
    "NonPositiveMean": "errors",
    "OrderTooHigh": "errors",
    "PmsDeltaError": "errors",
    "ThirdRootInsideInterval": "errors",
    "ToleranceNotMet": "errors",
    "FitResult": "oracle",
    "QuadratureResult": "oracle",
    "elliptic_k": "oracle",
    "fit_log_linear": "oracle",
    "integrate": "oracle",
    "OscillatorModel": "oscillators",
    "cubic_exact_period": "oscillators",
    "cubic_series": "oscillators",
    "duffing_b0": "oscillators",
    "duffing_exact_period": "oscillators",
    "duffing_nayfeh_series": "oscillators",
    "duffing_omega_pms": "oscillators",
    "duffing_period_series": "oscillators",
    "even_power_exact_period": "oscillators",
    "even_power_kappa_balanced": "oscillators",
    "even_power_kappa_pms": "oscillators",
    "even_power_series": "oscillators",
    "pendulum_approx": "oscillators",
    "pendulum_exact": "oscillators",
    "quartic_cubic_exact_period": "oscillators",
    "quartic_cubic_pms": "oscillators",
    "sextic_exact_period": "oscillators",
    "sextic_series": "oscillators",
    "sextic_t4": "oscillators",
    "sextic_wl_period": "oscillators",
    "virial_omega_check": "oscillators",
    "OrbitParams": "precession",
    "critical_semimajor_axis": "precession",
    "precession_exact": "precession",
    "precession_series": "precession",
    "MAX_ORDER": "series_core",
    "MAX_EXPONENT": "series_core",
    "IntegrandSpec": "series_core",
    "SeriesExpansion": "series_core",
    "TrigPolynomial": "series_core",
    "cos_moment": "series_core",
    "expand": "series_core",
    "half_binomial": "series_core",
    "pms_derivative_check": "series_core",
    "pms_first_order": "series_core",
    "term": "series_core",
}

__all__ = sorted(_EXPORTS)


def _names(module: str) -> list[str]:
    """The __all__ of the submodule named `module`: its entries in _EXPORTS."""
    return [name for name, home in _EXPORTS.items() if f"{__name__}.{home}" == module]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
