"""Physical defaults, stored literature values and the table format.

All CLI-facing physical defaults live here.  The orbit constants describe the
worked strong-field example orbit: a body of mass M = 1.97e30 kg with
G/c^2 = 7.425e-30 m/kg, so GM = (G/c^2) * M = 14.62725 m, on an orbit of
eccentricity 0.2506.

ReferenceConstants stores published numbers used as acceptance checks and
comparison baselines.  They are never fed back into the computations: every
study computes its own reference through the quadrature oracle so the
package stays self-validating.

_fmt, _csv and _json are the one number format and the one CSV and JSON
writers of every table the package prints.  They live here, beside the
defaults, because the command line and the studies both import this module,
and neither may load the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import _names

__all__ = _names(__name__)

# Worked example orbit: G/c^2 in m/kg, M in kg, and GM = (G/c^2) * M in meters.
_G_OVER_C2, _MASS = 7.425e-30, 1.97e30
DEFAULT_GM = _G_OVER_C2 * _MASS
DEFAULT_ECCENTRICITY = 0.2506


def _fmt(x: float) -> str:
    """A number at 17 significant digits, which reads back to the same float."""
    return format(x, ".17g")


def _csv(header: Sequence[str], rows: Iterable[Sequence[float | str]]) -> str:
    """CSV text: the header row, one line per row, LF endings; numbers are
    written by _fmt and strings as they are."""
    lines = [",".join(header)]
    lines.extend(",".join(c if isinstance(c, str) else _fmt(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json(payload: object) -> str:
    """JSON text, indented by 2, keys in the payload's order, with a final LF."""
    import json

    return json.dumps(payload, indent=2) + "\n"


@dataclass(frozen=True)
class ReferenceValue:
    """A stored literature number together with where it comes from."""

    value: float
    citation: str

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class ReferenceConstants:
    """Read-only bundle of published comparison values."""

    # Convergence-rate slopes for the strong-coupling quartic coefficient.
    beta_quartic: ReferenceValue
    beta_quartic_pks: ReferenceValue
    beta_sextic: ReferenceValue

    # Strong-coupling limits lim sqrt(rho) T for the quadratic-sextic family.
    sextic_c0_exact: ReferenceValue
    sextic_c0_fourth_order: ReferenceValue
    sextic_c0_wu_li: ReferenceValue

    # Quadratic-sextic periods at rho = -0.9.
    sextic_soft_exact: ReferenceValue
    sextic_soft_fourth_order: ReferenceValue
    sextic_soft_wu_li: ReferenceValue

    # Critical semimajor axis quoted for the worked example orbit.
    critical_semimajor_axis: ReferenceValue


REFERENCE = ReferenceConstants(
    beta_quartic=ReferenceValue(
        math.log(9.0),
        "published value: asymptotic error slope ln 9 of the quartic "
        "strong-coupling coefficient sequence",
    ),
    beta_quartic_pks=ReferenceValue(
        1.11,
        "Pelster, Kleinert and Schanz (2003): fitted error slope of their "
        "square-root-trick expansion for the same coefficient",
    ),
    beta_sextic=ReferenceValue(
        math.log(5.0 / 3.0),
        "published value: asymptotic error slope ln(5/3) of the sextic "
        "strong-coupling coefficient sequence",
    ),
    sextic_c0_exact=ReferenceValue(
        8.413092631,
        "published value: lim sqrt(rho) T for the quadratic-sextic "
        "oscillator, exact integral",
    ),
    sextic_c0_fourth_order=ReferenceValue(
        8.41292,
        "published value: same limit from the fourth-order partial sum",
    ),
    sextic_c0_wu_li=ReferenceValue(
        8.4081,
        "Wu and Li (2001): same limit from their closed-form period",
    ),
    sextic_soft_exact=ReferenceValue(
        10.93467798,
        "published value: exact quadratic-sextic period at rho = -0.9",
    ),
    sextic_soft_fourth_order=ReferenceValue(
        10.67,
        "published value: fourth-order partial sum at rho = -0.9",
    ),
    sextic_soft_wu_li=ReferenceValue(
        10.62,
        "Wu and Li (2001): their closed-form period at rho = -0.9",
    ),
    critical_semimajor_axis=ReferenceValue(
        97.9173,
        "published value for the worked example orbit; derivation unstated, "
        "disagrees at the percent level with the closed-form recomputation "
        "2GM (2/(1-eps) + 1/(1+eps)) from the same constants (see README)",
    ),
)
