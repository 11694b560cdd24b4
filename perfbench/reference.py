"""High-precision references and the correct-digits checker.

Every reference is computed with mpmath at REF_DPS decimal digits from the
same float inputs the program received, and shares no arithmetic with the
package:

* series operations are checked against the exact partial sum of the same
  order.  Each term is hb(n)/omega times the theta-mean of Delta^n, and
  Delta^n is a polynomial in cos(theta), so the trapezoid rule on M > deg/2
  equispaced nodes gives that mean exactly (Trefethen and Weideman, SIAM
  Review 56 (2014) 385);
* oracle operations are checked against the integral itself: mpmath's
  elliptic K for the Duffing and pendulum periods, tanh-sinh quadrature with
  breakpoints clustered at the near-singular end for the rest.

This module never imports pmsdelta.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

REF_DPS = 50
# Digits are capped here: a float carries about 16, so more means "exact".
MAX_DIGITS = 17.0

def _f(x) -> mpmath.mpf:
    return mpmath.mpf(x)


def hb(n: int) -> mpmath.mpf:
    """(-1/2 choose n), exact rational rounded once."""
    q = Fraction((-1) ** n * math.comb(2 * n, n), 4**n)
    return _f(q.numerator) / q.denominator


def _poly(coeffs, c):
    acc = _f(0)
    for a in reversed(coeffs):
        acc = acc * c + a
    return acc


def _cos_nodes(m: int):
    """cos(theta_j) and trapezoid weights on theta_j = j pi / m, j = 0..m."""
    cs = [mpmath.cos(mpmath.pi * j / m) for j in range(m + 1)]
    ws = [_f(1) / m] * (m + 1)
    ws[0] = ws[-1] = _f(1) / (2 * m)
    return cs, ws


def expansion_partial_sums(coeffs, omega_sq, order: int) -> list:
    """Exact partial sums S_0..S_N of integral d theta / sqrt(R(cos theta)).

    coeffs: R as mpf coefficients of cos^k; omega_sq: the reference
    frequency squared.  Delta = R/omega^2 - 1.
    """
    degree = max(len(coeffs) - 1, 1) * max(order, 1)
    cs, ws = _cos_nodes(degree // 2 + 1)
    delta = [_poly(coeffs, c) / omega_sq - 1 for c in cs]
    omega = mpmath.sqrt(omega_sq)
    power = [_f(1)] * len(cs)
    sums, total = [], _f(0)
    for n in range(order + 1):
        mean = mpmath.fsum(w * p for w, p in zip(ws, power))
        total += hb(n) * mpmath.pi * mean / omega
        sums.append(total)
        power = [p * d for p, d in zip(power, delta)]
    return sums


def _cluster(end, count: int = 14):
    """Breakpoints approaching one end of [0, pi] geometrically."""
    widths = [mpmath.pi / 2 / 4**k for k in range(1, count)]
    return widths if end == 0 else [mpmath.pi - w for w in widths]


def integral(coeffs):
    """integral over [0, pi] of d theta / sqrt(R(cos theta)).

    Where R nearly vanishes at an end of the interval, breakpoints cluster
    geometrically toward that end so tanh-sinh resolves the peak.
    """
    points = [_f(0), mpmath.pi / 2, mpmath.pi]
    scale = max(abs(c) for c in coeffs)
    for end, c in ((0, 1), (1, -1)):
        if _poly(coeffs, c) < mpmath.mpf("1e-2") * scale:
            points += _cluster(end)
    value, err = mpmath.quad(
        lambda t: 1 / mpmath.sqrt(_poly(coeffs, mpmath.cos(t))), sorted(points),
        error=True,
    )
    if not err < mpmath.mpf(10) ** (-(REF_DPS - 12)) * abs(value):
        raise ArithmeticError(f"reference quadrature error {err} too large")
    return value


# ---------------------------------------------------------------- families --


def even_factor(K: int, rho: float):
    if math.isinf(rho):
        return [_f(1) / (2 * K) if k % 2 == 0 else _f(0) for k in range(2 * K - 1)]
    r = _f(rho) / (2 * K)
    coeffs = [r if k % 2 == 0 else _f(0) for k in range(2 * K - 1)]
    coeffs[0] += _f(1) / 2
    return coeffs


def even_omega_sq(rho: float, kappa: float):
    if math.isinf(rho):
        return _f(kappa) / 2
    return (1 + _f(kappa) * _f(rho)) / 2


def kappa_pms(K: int):
    return mpmath.fsum(hb(j) * (-1) ** j for j in range(K)) / K


def even_power_series(K, rho, kappa, order):
    sums = expansion_partial_sums(even_factor(K, rho), even_omega_sq(rho, kappa), order)
    return [mpmath.sqrt(2) * s for s in sums]


def even_power_exact(K, rho):
    return mpmath.sqrt(2) * integral(even_factor(K, rho))


def pendulum_factor(amplitude: float, taylor: int):
    a2 = _f(amplitude) ** 2
    if taylor == 2:
        return [_f(1) / 2]
    if taylor == 4:
        return even_factor(2, -a2 / 6)
    a4 = a2 * a2
    return [
        _f(1) / 2 - a2 / 24 + a4 / 720, _f(0), -a2 / 24 + a4 / 720, _f(0), a4 / 720,
    ]


def mean_cos_poly(coeffs):
    """theta-mean of sum c_k cos^k: c_k times C(k, k/2)/2^k for even k."""
    return mpmath.fsum(
        c * _f(math.comb(k, k // 2)) / 2**k for k, c in enumerate(coeffs) if k % 2 == 0
    )


def pendulum_approx(amplitude, taylor, order):
    coeffs = pendulum_factor(amplitude, taylor)
    sums = expansion_partial_sums(coeffs, mean_cos_poly(coeffs), order)
    return [mpmath.sqrt(2) * s for s in sums]


def pendulum_exact(amplitude):
    return 4 * mpmath.ellipk(mpmath.sin(_f(amplitude) / 2) ** 2)


def _pair_sum(xi, order):
    return [
        mpmath.fsum((-1) ** j * hb(j) * hb(2 * j) * xi ** (2 * j) for j in range(n + 1))
        for n in range(order + 1)
    ]


def duffing_series(rho, order):
    rho = _f(rho)
    pre = 4 * mpmath.pi / mpmath.sqrt(4 + 3 * rho)
    return [pre * s for s in _pair_sum(rho / (4 + 3 * rho), order)]


def duffing_exact(rho):
    rho = _f(rho)
    return 4 / mpmath.sqrt(1 + rho) * mpmath.ellipk(rho / (2 * (1 + rho)))


def duffing_b0(order):
    sums = _pair_sum(_f(1) / 3, order)  # (-1/9)^j = (-1)^j (1/3)^(2j)
    return [mpmath.sqrt(3) / (2 * s) for s in sums]


def _sextic_weight(n):
    """(1/pi) integral of (8 cos 2t + cos 4t)^n over [0, pi], exact."""
    m = 2 * n + 1
    total = _f(0)
    for j in range(m + 1):
        t = mpmath.pi * j / m
        w = _f(1) / (2 * m) if j in (0, m) else _f(1) / m
        total += w * (8 * mpmath.cos(2 * t) + mpmath.cos(4 * t)) ** n
    return total


def sextic_series(rho, order):
    rho = _f(rho)
    xi = rho / (3 * (5 * rho + 8))
    pre = 4 * mpmath.sqrt(2) * mpmath.pi / mpmath.sqrt(5 * rho + 8)
    out, total = [], _f(0)
    for n in range(order + 1):
        total += hb(n) * xi**n * _sextic_weight(n)
        out.append(pre * total)
    return out


def sextic_exact(rho):
    rho = _f(rho)
    ratio = rho / (rho + 3)
    coeffs = [_f(1), _f(0), ratio, _f(0), ratio]
    return 2 * mpmath.sqrt(3) / mpmath.sqrt(rho + 3) * integral(coeffs)


def cubic_factor(x_minus, x_plus):
    xm, xp = _f(x_minus), _f(x_plus)
    s, p = xm + xp, xm * xp
    sigma = xp**2 + xp * xm + xm**2
    b0, b1 = -p / (2 * sigma), -s / (2 * sigma)
    m, h = s / 2, (xp - xm) / 2
    return [b0 + b1 * m, b1 * h]


def cubic_series(x_minus, x_plus, order):
    xm, xp = _f(x_minus), _f(x_plus)
    omega = mpmath.sqrt(cubic_factor(x_minus, x_plus)[0])
    xi = (xp**2 - xm**2) / (xp**2 + 4 * xp * xm + xm**2)
    pre = mpmath.sqrt(2) * mpmath.pi / omega
    return [pre * s for s in _pair_sum(xi, order)]


def cubic_exact(x_minus, x_plus):
    return mpmath.sqrt(2) * integral(cubic_factor(x_minus, x_plus))


def quartic_cubic_factor(a2, a3, a4, x_minus, x_plus):
    a2, a3, a4, xm, xp = map(_f, (a2, a3, a4, x_minus, x_plus))
    s, p = xm + xp, xm * xp
    b0 = a2 + a3 * s + a4 * (s * s - p)
    b1 = a3 + a4 * s
    m, h = s / 2, (xp - xm) / 2
    return [b0 + b1 * m + a4 * m * m, (b1 + 2 * a4 * m) * h, a4 * h * h]


def quartic_cubic_t2(*args):
    coeffs = quartic_cubic_factor(*args)
    sums = expansion_partial_sums(coeffs, mean_cos_poly(coeffs), 2)
    return mpmath.sqrt(2) * sums[2]


def quartic_cubic_exact(*args):
    return mpmath.sqrt(2) * integral(quartic_cubic_factor(*args))


def _orbit(GM, a, eps):
    GM, a, eps = _f(GM), _f(a), _f(eps)
    z_minus, z_plus = 1 / (a * (1 + eps)), 1 / (a * (1 - eps))
    return GM, z_minus, z_plus


def precession_series(GM, a, eps, order):
    GM, zm, zp = _orbit(GM, a, eps)
    omega = mpmath.sqrt(1 - 6 * GM * (zp + zm) / 2)
    xi = GM * (zp - zm) / (3 * GM * (zp + zm) - 1)
    return [2 * mpmath.pi * (s / omega - 1) for s in _pair_sum(xi, order)]


def precession_exact(GM, a, eps):
    GM, zm, zp = _orbit(GM, a, eps)
    mid, half = (zm + zp) / 2, (zp - zm) / 2
    coeffs = [1 - 2 * GM * (mid + zm + zp), -2 * GM * half]
    return 2 * integral(coeffs) - 2 * mpmath.pi


def critical_semimajor_axis(GM, eps):
    GM, eps = _f(GM), _f(eps)
    return 2 * GM * (2 / (1 - eps) + 1 / (1 + eps))


# ----------------------------------------------------------------- checker --


def digits(value: float, reference) -> float:
    """Correct significant digits of a float against a reference, capped."""
    if not math.isfinite(value):
        return 0.0
    ref = _f(reference)
    err = abs(_f(value) - ref)
    if err == 0:
        return MAX_DIGITS
    scale = abs(ref) if ref != 0 else _f(1)
    return float(min(_f(MAX_DIGITS), max(_f(0), -mpmath.log10(err / scale))))


def with_precision(fn, *args):
    """Call a reference function at REF_DPS digits."""
    with mpmath.workdps(REF_DPS):
        return fn(*args)
