"""Host-speed calibration for the end-to-end timings.

The shared host this benchmark was built on switches between a fast and a
slow state about 1.7x apart, for seconds to minutes at a time (measured: the
same operations took 2.1-2.5 ms per call in one state and 3.7-4.1 ms in the
other within one minute).  A fixed kernel of the same kind of work as the
package's interpreted code (float and integer arithmetic, math calls),
timed next to the operations, tracks those states: dividing by it cut the
window-to-window spread of an operation's time from 23% to 7%
(coefficient of variation).  The kernel is pure Python so that the parent
process stays small: a child's ru_maxrss also counts the pages it shared with
its parent before exec.

factor() times the kernel now and returns REFERENCE_MS over that time; an
operation's wall time multiplied by the factor is its time on a host where
the kernel takes REFERENCE_MS.  The kernel never calls pmsdelta, so a change
to the package cannot move it.
"""

import math
import time

REFERENCE_MS = 2.0


def _kernel() -> float:
    acc = 0.0
    for i in range(3000):
        c = math.cos(i * 0.01)
        acc += (0.1 * c * c + 0.2) * c * c + 0.5
    total = 0
    for i in range(15000):
        total += i * i % 7
    return acc + total


def factor() -> float:
    """REFERENCE_MS over the kernel's time, best of three runs."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return REFERENCE_MS / (best * 1e3)
