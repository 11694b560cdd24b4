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

The helpers every series shares live here for the same reason: the order
cap and its check, the exponent cap, the half-integer binomial, the pair sum
of the quartic, cubic and precession series, and _Record, the base of the
records that check on construction.  The closed forms, the sampled engine
and the precession all import this module, and a closed form may load
neither the engine nor a spec-built family.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from . import _names
from .errors import DomainError, OrderTooHigh

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


# Expansion orders beyond this are refused: the binomial weights and the
# polynomial degrees grow without buying accuracy at 64-bit precision.
MAX_ORDER = 64
# Even-power half-exponents K beyond this are refused: the factor, its
# positivity check and the stationary kappa grow linearly in K, and a period
# at K = 1024 already takes 25-50 ms at any order on a 2-vCPU host.
MAX_EXPONENT = 1024


def _check_order(order: int) -> int:
    """The expansion order as an int.

    A negative, non-integral or NaN order raises DomainError, one above
    MAX_ORDER OrderTooHigh; an integral float such as 4.0 is accepted.
    """
    if not order >= 0:
        raise DomainError(f"order must be an integer >= 0, got {order!r}")
    if order > MAX_ORDER:
        raise OrderTooHigh(f"order {order} exceeds the cap of {MAX_ORDER}")
    if int(order) != order:
        raise DomainError(f"order must be an integer, got {order!r}")
    return int(order)


@lru_cache(maxsize=None)
def half_binomial(n: int) -> float:
    """Generalized binomial coefficient (-1/2 choose n).

    Equals (-1)^n C(2n, n) / 4^n; computed as one integer quotient, which
    Python rounds correctly, so the value is correct to the last bit.
    """
    if n < 0:
        raise DomainError("half_binomial requires n >= 0")
    sign = -1 if n % 2 else 1
    return sign * math.comb(2 * n, n) / 4**n


def _pair_sum(xi: float, order: int, first: int = 0) -> float:
    """Pair sum sum_{first<=j<=order} (-1)^j hb(j) hb(2j) xi^(2j).

    It is the series for Delta = xi cos(k theta): the theta-mean of cos^(2j)
    is (-1)^j hb(j) and odd powers average to zero, so only even terms
    survive, and pair j is the Delta-order-2j term times omega/pi.  The
    quartic, cubic and precession families all reduce to it at their
    stationary frequencies.  first = 1 gives S - 1 without forming S.  Pair
    indices above MAX_ORDER are refused.
    """
    order = _check_order(order)
    return math.fsum(
        (-1.0) ** j * half_binomial(j) * half_binomial(2 * j) * xi ** (2 * j)
        for j in range(first, order + 1)
    )


class _Record:
    """Base of the records that check or cache on construction.

    Each subclass keeps its attributes in __slots__ and sets them in its own
    __init__ through object.__setattr__, and names in _fields those that its
    repr, equality, hash and pickling read.  Assigning or deleting an
    attribute raises AttributeError.  The other records are NamedTuples, which have the same
    _fields, the same form of repr and the same AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild a record through its constructor, since
        # the slots refuse assignment.
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class ReferenceValue(NamedTuple):
    """A stored literature number together with where it comes from."""

    value: float
    citation: str

    def __float__(self) -> float:
        return self.value


class ReferenceConstants(NamedTuple):
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
