"""A fixed pure-Python computation that measures the machine's current speed.

The benchmark runs slices of :func:`work` between the commands of a workload
and divides the commands' times by the run's mean slice time.  The
reference is the benchmark's own code and uses none of fibsum's, so a change
to the program leaves it unchanged, while a shared host slowing down or
speeding up moves both.  Its inputs are fixed: exact integer
elimination (Bareiss) on 0/1 matrices and Fraction elimination, the two
kinds of arithmetic that the program spends its rounds on.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

_RNG = random.Random(20130612)
_INT_MATRICES = [[[_RNG.randrange(2) for _ in range(8)] for _ in range(8)]
                 for _ in range(48)]
_FRAC_MATRICES = [[[Fraction(_RNG.randrange(1, 5), _RNG.randrange(1, 4)) * (i <= j)
                    for j in range(6)] for i in range(6)] for _ in range(12)]


def _bareiss(rows) -> int:
    a = [row[:] for row in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _inverse_sum(rows) -> Fraction:
    """1^T A^{-1} 1 of an invertible upper triangular matrix, by back substitution."""
    n = len(rows)
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (1 - sum(rows[i][j] * x[j] for j in range(i + 1, n))) / rows[i][i]
    return sum(x)


REPEATS = 36


def work(repeats: int = REPEATS) -> int:
    """Run the fixed computation; return a checksum so none of it is skipped."""
    total = 0
    for _ in range(repeats):
        for m in _INT_MATRICES:
            total += _bareiss(m)
        for m in _FRAC_MATRICES:
            total += _inverse_sum(m).numerator
    return total


CHECKSUM = work(1) * REPEATS


def measure() -> tuple:
    """(wall s, cpu s, perf_counter at the end) of one reference slice."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if work() != CHECKSUM:
        raise RuntimeError("reference computation gave a different result")
    end = time.perf_counter()
    return end - wall0, time.process_time() - cpu0, end
