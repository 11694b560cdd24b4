"""Core expansion machinery for turning-point integrals.

An integral I = int dx / sqrt(Q(x)) between simple zeros x- < x+ of Q is
rewritten against a harmonic reference Q0 = omega^2 (x - x-)(x+ - x).  The
substitution x = m + h cos(theta), with m the midpoint and h the half-width,
turns the ratio Delta = (Q - Q0)/Q0 into a polynomial in cos(theta), and the
binomial series of 1/sqrt(1 + Delta) turns I into a sum of exact trigonometric
moments.  The reference frequency omega is a free parameter; picking it so the
partial sum is stationary (equivalently, so the last retained term vanishes)
is what makes the truncated series accurate.

The moments are theta-means of Delta^n, taken by the midpoint
(Gauss-Chebyshev) rule: m equally weighted nodes theta_j = (j + 1/2) pi/m
over [0, pi] give the exact mean of every cos(k theta) with k < 2m, the same
trigonometric degree as the trapezoid rule on m intervals (Trefethen and
Weideman, SIAM Review 56 (2014) 385).  Delta^n is a polynomial of degree
deg(Delta)*n in cos(theta).  When Delta holds only even powers of cos(theta),
as every even-power and pendulum factor does, it is a polynomial of degree
deg(Delta)/2 in cos(2 theta), symmetric about pi/2, so half as many nodes on
[0, pi/2] give the same exact mean, and Delta is evaluated in cos^2(theta).
So Delta is sampled once on enough nodes, its powers are elementwise products
of the samples, and each mean is exact up to rounding, with no cancellation
between monomial coefficients.

Each spec is expanded on one node set, exact through MAX_ORDER, and keeps
the tuple of terms formed so far, so every order is a prefix of one
expansion: term n has the same bits whichever call forms it.  Delta's
coefficients are formed once per spec, and its samples come from a Horner
pass over the cached node abscissas, in numpy polyval's order.  A
spec's factor is proved positive by a bound read off its coefficients, or
else taken on a 512-point grid by the same Horner's rule, and the sums of
the terms are taken by math.fsum, correctly rounded.

The sampling and the grid each have two kernels with one bit pattern: a
numpy kernel, and a pure-Python twin that makes the same roundings in the
same order, numpy's pairwise row sums included.  Both read one table of
node values made by math.cos, which numpy sees as a read-only view.  The
pure kernel runs only while numpy is not yet loaded, the call's element
operations fit _PURE_BUDGET and the process's fit _PURE_PROCESS_BUDGET, both
sized from numpy's import time and the pure kernel's time per element;
otherwise the numpy kernel runs.  So a cold command-line table never pays
numpy's import, a process that forms many specs pays it once its pure work
has cost about as much, a process that has loaded numpy keeps its
vectorized kernel, and each term has the same bits whichever kernel forms
it.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache, reduce
from itertools import accumulate, repeat
from operator import add, mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import _names
from .errors import DomainError, NonPositiveMean, OrderTooHigh

if TYPE_CHECKING:
    from array import array

    import numpy as np

__all__ = _names(__name__)

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


# The pure kernels run while numpy is not loaded, on at most this many
# element operations per call (one multiply or add per node per Horner step
# or order, or per grid node and coefficient); past it, or once numpy is in
# the process, the numpy kernels run.  Two measurements on a 2-vCPU Xeon VM
# (Python 3.11, numpy 2.4) size it: `import numpy` takes about 80 ms (67-108 ms
# by -X importtime), and the pure kernels about 110 ns per element (90-135 ns
# from K = 5 to 64 through order 64, and on the grid), so they break even near
# 700k elements.  The budget is about a fifth of that, 2^17 elements or about
# 15 ms: a pure call costs at most a fifth of the import it saves.  The pure
# calls of one process share the break-even, so a process that forms many
# specs spends at most about one import's time in them, then loads numpy.
_PURE_BUDGET = 2**17
_PURE_PROCESS_BUDGET = 700_000
# Element operations the pure kernels have run in this process.  Threads may
# race on it; a lost update only lets more pure work run, with the same bits.
_pure_spent = 0


def _pure_fits(work: int) -> bool:
    """Whether a kernel of `work` element operations runs in pure Python:
    only when numpy is not yet loaded, the work is within the budget and the
    process's pure work, this call's included, within the process budget.
    A call that runs in pure Python is added to that total."""
    global _pure_spent
    if "numpy" in sys.modules or work > min(_PURE_BUDGET, _PURE_PROCESS_BUDGET - _pure_spent):
        return False
    _pure_spent += work
    return True


@lru_cache(maxsize=None)
def _positivity_table() -> array:
    """cos(theta) by math.cos on 512 equispaced theta nodes over [0, pi],
    j pi/511 as np.linspace forms them, the last exactly pi."""
    from array import array

    step = math.pi / 511
    return array("d", [*(math.cos(j * step) for j in range(511)), math.cos(math.pi)])


@lru_cache(maxsize=None)
def _positivity_cosines() -> "np.ndarray":
    """The positivity table as a read-only numpy view, built on first use."""
    import numpy as np

    return _frozen(np.frombuffer(_positivity_table()))


# A spec's node set depends on its factor degree alone, so these caches,
# keyed on a size, are bounded.  A numpy view keeps its table alive, and the
# numpy kernel reads a table only through its view, so the two caches hold
# the same tables but for the few a pure kernel read.  The largest node set
# the families make (K = 1024) is 0.26 MB, so the tables take at most about
# 17 MB; perfbench's in-process plans use 4 or 5 node sets each, so none is
# evicted.
@lru_cache(maxsize=64)
def _node_table(m: int, s: int) -> array:
    """cos(theta_j)^s by math.cos at the midpoint nodes
    theta_j = (j + 1/2) pi/(s m), j < m: the abscissas of a Delta in
    cos(theta) (s = 1) or in cos^2(theta) (s = 2)."""
    from array import array

    step = math.pi / (s * m)
    cosines = [math.cos((j + 0.5) * step) for j in range(m)]
    return array("d", [c * c for c in cosines] if s == 2 else cosines)


@lru_cache(maxsize=64)
def _node_cosines(m: int, s: int) -> "np.ndarray":
    """The node table as a read-only numpy view, built on first use."""
    import numpy as np

    return _frozen(np.frombuffer(_node_table(m, s)))


@lru_cache(maxsize=None)
def _term_weights() -> "np.ndarray":
    """pi (-1/2 choose n) for n = 0..MAX_ORDER."""
    import numpy as np

    return _frozen(np.array([math.pi * half_binomial(n) for n in range(MAX_ORDER + 1)]))


def _frozen(values: "np.ndarray") -> "np.ndarray":
    """The array, made read-only: a cached array is shared by every caller."""
    values.flags.writeable = False
    return values


def _horner(coeffs: Sequence[float], x):
    """sum_k coeffs[k] x^k by Horner's rule, for a float or an ndarray x.

    The operations are those of numpy's polyval, in its order, so the result
    has the same bits.  An array x is left unchanged.
    """
    value = 0.0
    for c in reversed(coeffs):
        value *= x
        value += c
    return value


def _positive_on_grid(coeffs: Sequence[float]) -> bool:
    """Whether sum_k coeffs[k] cos^k(theta) is positive at every node of the
    positivity grid, by Horner's rule on the shared table: in pure Python while
    the grid's work fits the pure budget, else on its numpy view.  Both give
    the same bits at every node, so the same verdict."""
    if _pure_fits(512 * len(coeffs)):
        return all(_horner(coeffs, c) > 0.0 for c in _positivity_table())
    return bool((_horner(coeffs, _positivity_cosines()) > 0.0).all())


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


@lru_cache(maxsize=None)
def cos_moment(k: int) -> float:
    """Exact moment integral of cos^k(theta) over [0, pi].

    Zero for odd k by symmetry; pi * C(k, k/2) / 2^k for even k.
    """
    if k < 0:
        raise DomainError("cos_moment requires k >= 0")
    if k % 2:
        return 0.0
    return math.pi * (math.comb(k, k // 2) / 2**k)


def _trimmed(coeffs: Sequence[float]) -> tuple[float, ...]:
    out = [float(c) for c in coeffs]
    while len(out) > 1 and out[-1] == 0.0:
        out.pop()
    if not out:
        out = [0.0]
    return tuple(out)


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


class TrigPolynomial(_Record):
    """Finite expansion sum_k c_k cos^k(theta), an even function of theta.

    Coefficients are stored in the monomial cos^k basis because factor
    functions of polynomial potentials arise there directly.  Trailing zero
    coefficients are trimmed on construction, so the last stored coefficient
    is nonzero unless this is the zero polynomial.
    """

    __slots__ = _fields = ("coeffs",)
    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Sequence[float]):
        object.__setattr__(self, "coeffs", _trimmed(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, theta):
        """Value at theta; accepts a scalar or an ndarray.

        Both paths run one Horner loop in the order of numpy's polyval, so
        they give polyval's bits; a real scalar stays in pure Python with
        math.cos, without numpy's per-call overhead.  A non-finite scalar
        raises DomainError.
        """
        if isinstance(theta, (int, float)):
            if not math.isfinite(theta):
                raise DomainError(f"theta must be finite, got {theta!r}")
            return _horner(self.coeffs, math.cos(theta))
        import numpy as np

        return _horner(self.coeffs, np.cos(theta))

    def integral(self) -> float:
        """Exact integral over [0, pi] via the cos^k moments."""
        return math.fsum(c * cos_moment(k) for k, c in enumerate(self.coeffs))

    def mean(self) -> float:
        """Average over [0, pi]."""
        return self.integral() / math.pi


class IntegrandSpec(_Record):
    """One turning-point integral, ready for expansion.

    x_minus, x_plus: the simple zeros bracketing the motion.
    factor:          R(theta), the smooth factor of Q after the cosine
                     substitution, as a TrigPolynomial.
    omega:           reference frequency of the harmonic comparison term,
                     positive and finite.

    The factor is checked to be strictly positive on [0, pi] by one rule.
    Its lower bound c_0 - sum_{k odd} |c_k| + sum_{k even >= 2} min(c_k, 0),
    formed from the coefficients, accepts it when it clears a rounding
    margin; otherwise the factor is taken by Horner's rule on a 512-point
    theta grid and must be positive at every node.  This is the package's one
    generic positivity check: the families build their specs here rather
    than sampling the factor again.  The factor's coefficients must be
    finite, with sum |c_k| in the float range (it bounds |R|, so Horner's
    rule cannot overflow), and omega^2, 1/omega^2 and the coefficients of
    Delta must be floats too.  Delta = factor/omega^2 - 1 is formed here,
    once, as `delta`: every expansion of the spec reads it.

    A spec holds its expansion as one tuple of terms, filled by term() and
    expand() and read by both.  Its one node set, m = (deg(Delta)/s)
    MAX_ORDER/2 + 1 nodes (s = 2 for a Delta in cos^2(theta)), is exact
    through MAX_ORDER, so term n is the same number whatever order was asked
    for first.  The first call forms the terms through its own order; a
    later call that asks for more forms them all, through MAX_ORDER, and
    later calls only read.  A single call thus multiplies m columns whatever
    its order, which makes a low order at a large K (an order-4 expansion at
    K = 1024) several times slower than on the order's own node count.  The
    tuple is replaced in one assignment, and every tuple a call forms is a
    prefix of the one expansion, so two threads that expand one spec at once
    read the same bits.
    """

    _fields = ("x_minus", "x_plus", "factor", "omega")
    __slots__ = (*_fields, "delta", "_terms")
    x_minus: float
    x_plus: float
    factor: TrigPolynomial
    omega: float
    delta: TrigPolynomial
    _terms: tuple[float, ...]

    def __init__(self, x_minus: float, x_plus: float, factor: TrigPolynomial, omega: float):
        if not x_minus < x_plus:
            raise DomainError(
                f"turning points must satisfy x_minus < x_plus, "
                f"got ({x_minus!r}, {x_plus!r})"
            )
        if not 0.0 < omega < math.inf:
            raise DomainError(f"omega must be positive and finite, got {omega!r}")
        coeffs = factor.coeffs
        total = sum(map(abs, coeffs))
        if not total < math.inf:
            raise DomainError(
                "factor coefficients must be finite, with sum |c_k| inside the float range"
            )
        # cos^k lies in [-1, 1] for odd k and in [0, 1] for even k, so c_0 less
        # every odd |c_k| and plus every negative even c_k bounds R below on
        # all of [0, pi].  Above a margin that covers its own rounding and that
        # of Horner's rule, it proves R > 0 there and on the grid alike; below
        # it, R is taken on the grid by Horner's rule.
        lower = coeffs[0] - sum(map(abs, coeffs[1::2])) + sum(c for c in coeffs[2::2] if c < 0.0)
        if not lower > 1e-15 * len(coeffs) * total and not _positive_on_grid(coeffs):
            raise DomainError("factor polynomial is not strictly positive on [0, pi]")
        try:
            scale = 1.0 / omega**2
        except (OverflowError, ZeroDivisionError):  # omega^2 overflows, or is 0
            scale = math.nan
        deviation = [scale * c for c in coeffs]
        deviation[0] += -1.0
        if not all(map(math.isfinite, deviation)):
            raise DomainError(
                f"omega = {omega!r} takes omega^2 or factor/omega^2 out of the float range"
            )
        object.__setattr__(self, "x_minus", x_minus)
        object.__setattr__(self, "x_plus", x_plus)
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "delta", TrigPolynomial(deviation))
        object.__setattr__(self, "_terms", ())

    def with_omega(self, omega: float) -> "IntegrandSpec":
        return IntegrandSpec(self.x_minus, self.x_plus, self.factor, omega)


class SeriesExpansion(NamedTuple):
    """Terms I_0..I_N at a fixed omega.

    The partial sums S_0..S_N are correctly rounded sums of the terms
    (math.fsum), formed when read: most callers read only the value S_N.
    """

    omega: float
    terms: tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.terms) - 1

    @property
    def value(self) -> float:
        """Highest-order partial sum S_N."""
        return math.fsum(self.terms)

    @property
    def partial_sums(self) -> tuple[float, ...]:
        """S_0..S_N, each correctly rounded."""
        return tuple(math.fsum(self.terms[: n + 1]) for n in range(len(self.terms)))


# Every sample of Delta lies within B = sum |delta_k|, since |cos(theta)| <= 1.
# At B <= 16 no intermediate of an expansion through MAX_ORDER = 64 can
# overflow: each power stays below 16^64 = 2^256 (2^257 with its roundings),
# each row sum below m 2^257 and the row sum over m below 2^257 again.  Times
# pi |hb(n)| <= pi and over omega, with 1/omega < 2^512 because the spec
# checks that 1/omega^2 is finite, every value stays below 2^771.  Finite
# operands give no invalid operation either.
_NO_OVERFLOW_BOUND = 16.0


def _extend(spec: IntegrandSpec, order: int) -> tuple[float, ...]:
    """The spec's terms I_0..I_N, through the first that is not finite.

    Delta is sampled on the midpoint nodes theta_j = (j + 1/2) pi/(s m),
    j < m.  s = 2 when Delta holds only even powers of cos(theta): Delta^n is
    then a polynomial of degree deg(Delta) n/2 in cos(2 theta), and m nodes
    over [0, pi/2] are exact for it up to degree 2m - 1.  Otherwise s = 1,
    and m nodes over [0, pi] are exact for Delta^n as a polynomial of degree
    deg(Delta) n in cos(theta).  m = (deg(Delta)/s) MAX_ORDER/2 + 1 makes the
    rule exact for every n <= MAX_ORDER, so each spec has one node set and
    every order's term is the same whichever call forms it.  The weights are
    equal, so each mean is a row sum over m, divided by m; the term of order
    0 is pi/omega.

    Two kernels form the terms by one sequence of roundings.  The samples
    come from Horner's rule over c = cos^s(theta_j) with every coefficient
    of Delta in c, in numpy polyval's order of roundings (its first step,
    0 c + a, is a).  Row n of the powers is row n - 1 times the samples, as
    a cumulative product forms it; each row is summed in numpy's pairwise
    order onto 0.0, then divided by m, times pi hb(n), divided by omega.
    Both read the node values from one table made by math.cos, so neither
    rests on numpy's cos.  The pure
    kernel runs while numpy is not loaded and its m (Horner steps + N)
    element operations fit the budgets of _pure_fits, which a cold
    command-line table does; otherwise the numpy kernel runs, as it does in
    any process that has loaded numpy.  Each term has the same bits whichever
    kernel forms it, so a prefix formed by one and extended by the other is
    still one expansion.

    Only a Delta whose coefficient bound B = sum |delta_k| exceeds
    _NO_OVERFLOW_BOUND can leave the float range (see above).  For such a
    Delta, overflow and invalid values are let through, the numpy kernel
    inside np.errstate, and the terms stop before the first that is not
    finite; any other Delta neither enters np.errstate nor has its terms
    scanned.
    """
    if not order:
        return (math.pi / spec.omega,)
    coeffs = spec.delta.coeffs
    s = 1 if any(coeffs[1::2]) else 2
    m = (len(coeffs) - 1) // s * (MAX_ORDER // 2) + 1
    steps = coeffs[-1 - s :: -s]
    args = (coeffs[-1], steps, m, s, order, spec.omega)
    may_overflow = sum(map(abs, coeffs)) > _NO_OVERFLOW_BOUND
    if _pure_fits(m * (len(steps) + order)):
        rest = _pure_terms(*args)
    else:
        rest = _numpy_terms(*args, may_overflow)
    terms = [math.pi / spec.omega, *rest]
    if may_overflow and not math.isfinite(sum(terms)):
        terms = terms[: next((n for n, t in enumerate(terms) if not math.isfinite(t)), None)]
    return tuple(terms)


def _numpy_terms(
    top: float,
    steps: Sequence[float],
    m: int,
    s: int,
    order: int,
    omega: float,
    may_overflow: bool,
) -> list[float]:
    """Terms I_1..I_N by _extend's rule on numpy arrays: Delta's leading
    coefficient `top`, then its Horner steps (the lower coefficients in c,
    highest first), on the spec's node set.  Only a Delta that may overflow
    enters np.errstate, which costs a few microseconds a call."""
    import numpy as np

    if may_overflow:
        with np.errstate(over="ignore", invalid="ignore"):
            return _numpy_terms(top, steps, m, s, order, omega, False)
    powers = np.empty((order, m))
    row = powers[0]
    row.fill(top)
    x = _node_cosines(m, s)
    for c in steps:
        row *= x
        row += c
    powers[1:] = row
    powers.cumprod(axis=0, out=powers)
    sums = powers.sum(axis=1)
    sums /= m
    sums *= _term_weights()[1 : order + 1]
    sums /= omega
    return sums.tolist()


def _pure_terms(
    top: float, steps: Sequence[float], m: int, s: int, order: int, omega: float
) -> list[float]:
    """_numpy_terms in pure Python, with the same bits.

    Node j's powers Delta_j^1..Delta_j^N are one running product, and the
    row sums add those columns elementwise in numpy's pairwise order.
    Python's float operations let overflow through as numpy's do.
    """
    x = _node_table(m, s)
    samples = [top] * m
    for c in steps:
        samples = [v * y + c for v, y in zip(samples, x)]
    sums = _row_sums([list(accumulate(repeat(d, order), mul)) for d in samples])
    return [t / m * (math.pi * half_binomial(n)) / omega for n, t in enumerate(sums, 1)]


def _row_sums(columns: Sequence[Sequence[float]]) -> list[float]:
    """Row sums of the matrix with these columns, as ndarray.sum(axis=1)
    rounds them: each row is added onto 0.0 in numpy's pairwise order."""
    return [0.0 + t for t in _pairwise(columns, 0, len(columns))]


def _vector_sum(u: Sequence[float], v: Sequence[float]) -> list[float]:
    return list(map(add, u, v))


def _pairwise(columns: Sequence[Sequence[float]], lo: int, n: int) -> list[float]:
    """Elementwise sum of columns[lo:lo + n] in the order of numpy's pairwise
    summation: fewer than 8 in turn; up to 128 on 8 running sums of every
    eighth column, combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)),
    then the remainder in turn; more, split at half rounded down to a
    multiple of 8.  numpy starts a short sum at -0.0, which adds nothing, so
    each sum here starts at its first column."""
    if n < 8:
        return reduce(_vector_sum, columns[lo + 1 : lo + n], columns[lo])
    if n <= 128:
        end = lo + n - n % 8
        r = [reduce(_vector_sum, columns[lo + j + 8 : end : 8], columns[lo + j]) for j in range(8)]
        pairs = [_vector_sum(r[j], r[j + 1]) for j in range(0, 8, 2)]
        total = _vector_sum(_vector_sum(pairs[0], pairs[1]), _vector_sum(pairs[2], pairs[3]))
        return reduce(_vector_sum, columns[end : lo + n], total)
    half = n // 2 - n // 2 % 8
    return _vector_sum(_pairwise(columns, lo, half), _pairwise(columns, lo + half, n - half))


def _series_terms(spec: IntegrandSpec, order: int) -> tuple[float, ...]:
    """Terms I_0..I_N of the spec, a prefix of its one expansion.

    A fresh spec forms the terms through N only; a spec asked for more than
    it holds forms them all, through MAX_ORDER.  Each term is the same
    whatever the order of the calls: the node set is the spec's, not the
    call's.  An order at or past the first term that leaves the float range
    raises DomainError on every call, forming the terms again; lower orders
    still return.
    """
    order = _check_order(order)
    terms = spec._terms
    if order >= len(terms):
        terms = _extend(spec, order if not terms else MAX_ORDER)
        object.__setattr__(spec, "_terms", terms)
        if order >= len(terms):
            raise DomainError(
                f"a term through order {order} leaves the float range at omega = {spec.omega!r}"
            )
    return terms[: order + 1]


def term(spec: IntegrandSpec, n: int) -> float:
    """n-th series term: (-1/2 choose n)/omega times the moment of Delta^n.

    Reads the spec's one expansion, as expand() does, so term(spec, n) is
    expand(spec, N).terms[n] for every N >= n, to the bit; term(spec, 0) is
    pi/omega for every spec.  Orders above MAX_ORDER are refused.
    """
    return _series_terms(spec, n)[-1]


def expand(spec: IntegrandSpec, order: int) -> SeriesExpansion:
    """All terms through the requested order, and their partial sums.

    The terms are a prefix of the spec's one expansion (see IntegrandSpec):
    Delta is sampled on the spec's fixed node set, and all its powers
    come from one cumulative product over the samples, so expanding a fresh
    spec to order N costs O(N m) flops, m = (deg(Delta)/s) 32 + 1: in pure
    Python while numpy is not loaded and that work is small, else in a
    handful of numpy array operations, with the same bits (see _extend).
    expand(spec, n) is therefore a prefix of expand(spec, N) for n <= N, bit
    for bit, and its value is expand(spec, N).partial_sums[n].  The value and the partial sums are
    math.fsum sums of the terms.  Orders above MAX_ORDER are refused.
    """
    return SeriesExpansion(omega=spec.omega, terms=_series_terms(spec, order))


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


def pms_derivative_check(spec: IntegrandSpec, order: int) -> float:
    """Analytic derivative of the order-N partial sum with respect to omega.

    Equals -(2N+1) I_N / omega, so stationarity of S_N in omega is the same
    statement as the vanishing of the last retained term.  Callers compare
    this against a finite difference of expand().
    """
    return -(2 * order + 1) * term(spec, order) / spec.omega


def pms_first_order(factor: TrigPolynomial) -> float:
    """Stationary reference frequency at first order.

    The first correction term vanishes exactly when omega^2 equals the
    theta-average of the factor polynomial, so the optimal omega is the
    square root of that mean.
    """
    mean = factor.mean()
    if mean <= 0.0:
        raise NonPositiveMean(
            f"factor mean {mean!r} is not positive; no real stationary frequency"
        )
    return math.sqrt(mean)
