#!/usr/bin/env python3
"""Frequency-rule comparison for the pure tenth-power oscillator (K = 5).

The first-order stationary kappa leaves max |Delta| above 1 in the
strong-coupling limit, so the expansion stalls; balancing the extrema of
Delta instead keeps |Delta| < 1 and restores monotone convergence.
"""

import math
import warnings

import numpy as np

from pmsdelta import (
    even_power_exact_period,
    even_power_kappa_balanced,
    even_power_kappa_pms,
    even_power_series,
)
from pmsdelta.oscillators import _even_power_spec


def max_abs_delta(kappa: float) -> float:
    spec = _even_power_spec(5, math.inf, kappa)
    grid = np.linspace(0.0, math.pi, 4001)
    return float(np.max(np.abs(spec.delta.evaluate(grid))))


def main() -> None:
    K = 5
    kappa_pms = even_power_kappa_pms(K)
    kappa_b = even_power_kappa_balanced(K)
    print(f"K = {K}, strong-coupling limit")
    print(f"  stationary kappa  {kappa_pms:.10f}  max|Delta| = {max_abs_delta(kappa_pms):.6f}")
    print(f"  balanced kappa    {kappa_b:.10f}  max|Delta| = {max_abs_delta(kappa_b):.6f}")
    c0 = even_power_exact_period(K, math.inf)
    print(f"  oracle c0 = {c0:.12f}")
    print()
    print(" N   stationary-kappa err   balanced-kappa err")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for order in range(1, 16):
            err_pms = abs(even_power_series(K, math.inf, kappa_pms, order) - c0)
            err_b = abs(even_power_series(K, math.inf, kappa_b, order) - c0)
            print(f"{order:2d}   {err_pms:.6e}         {err_b:.6e}")


if __name__ == "__main__":
    main()
