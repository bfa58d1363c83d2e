"""Fibonacci sequence (F_1 = F_2 = 1) and exact checkers of the identities
the paper uses: the three classic sum identities and two alternating
weighted sums.

Indexing convention used throughout the package: F_1 = F_2 = 1 and
F_k = F_{k-1} + F_{k-2}.  Negative or zero indices are rejected.
"""

from __future__ import annotations

import threading

# fib(k) caches every F_1 .. F_k, about 0.35 k^2 bits (4 MB at this limit,
# 43 GB at k = 10^6), so larger indices are refused before any work.
FIB_INDEX_LIMIT = 10_000
# check_lemma1(n) reads F_{2n+1}, the largest index of any identity check.
IDENTITY_MAX_N = (FIB_INDEX_LIMIT - 1) // 2

_cache = [0, 1, 1]  # _cache[k] = F_k for k >= 1; slot 0 is a placeholder
_cache_lock = threading.Lock()


def fib(k: int) -> int:
    """k-th Fibonacci number, 1 <= k <= FIB_INDEX_LIMIT."""
    if k < 1:
        raise ValueError(f"Fibonacci index must be >= 1, got {k}")
    if k > FIB_INDEX_LIMIT:
        raise ValueError(f"Fibonacci index must be <= FIB_INDEX_LIMIT = "
                         f"{FIB_INDEX_LIMIT}, got {k}")
    if k >= len(_cache):
        with _cache_lock:
            while len(_cache) <= k:
                _cache.append(_cache[-1] + _cache[-2])
    return _cache[k]


def sum_interval(n: int) -> tuple:
    """The theorem's interval of inverse entry sums over the n x n (0,1)
    unit triangular matrices, n >= 3: ``(2 - F_{n-1}, 2 + F_{n-1})``."""
    bound = fib(n - 1)
    return 2 - bound, 2 + bound


def check_lemma1(n_max: int) -> list:
    """The (n, identity) pairs, n <= n_max <= IDENTITY_MAX_N, at which the
    three sum identities fail, identity by identity and each by n:
      identity 1:  1 + sum_{k<=n} F_k   == F_{n+2}
      identity 2:  1 + sum_{k<=n} F_2k  == F_{2n+1}
      identity 3:  sum_{k<=n} F_{2k-1}  == F_{2n}
    The three sums run over n."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > IDENTITY_MAX_N:
        raise ValueError(f"n_max must be <= IDENTITY_MAX_N = {IDENTITY_MAX_N}, "
                         f"got {n_max}: the identities read F_(2 n_max + 1)")
    full, even, odd = [], [], []
    full_sum = even_sum = odd_sum = 0
    for n in range(1, n_max + 1):
        full_sum += fib(n)
        even_sum += fib(2 * n)
        odd_sum += fib(2 * n - 1)
        if 1 + full_sum != fib(n + 2):
            full.append((n, 1))
        if 1 + even_sum != fib(2 * n + 1):
            even.append((n, 2))
        if odd_sum != fib(2 * n):
            odd.append((n, 3))
    return full + even + odd


def check_corollary3(n: int) -> bool:
    """Alternating weighted Fibonacci identity tied to the l=2 extremal family."""
    if n < 5:
        raise ValueError(f"identity requires n >= 5, got {n}")
    lhs = sum((n - i) * (-1) ** i * fib(i) for i in range(1, n - 3))
    lhs += 4 * (-1) ** (n - 3) * fib(n - 3)
    rhs = (-1) ** (n - 1) * fib(n - 1) - (n - 2)
    return lhs == rhs


def check_corollary4(n: int) -> bool:
    """Alternating weighted Fibonacci identity tied to the l=3 extremal family."""
    if n < 6:
        raise ValueError(f"identity requires n >= 6, got {n}")
    lhs = sum((n - i) * (-1) ** i * fib(i) for i in range(1, n - 4))
    lhs += 6 * (-1) ** (n - 4) * fib(n - 4)
    rhs = (-1) ** n * fib(n - 1) - (n - 2)
    return lhs == rhs


def corollary_failures(max_n: int) -> tuple:
    """The n <= max_n at which corollary 3 (n >= 5) and corollary 4 (n >= 6)
    fail.  Both weighted sums are n A - B, with A and B running sums of
    (-1)^i F_i and i (-1)^i F_i over i, so each n costs O(1)."""
    bad3, bad4 = [], []
    alt = walt = 0  # A and B over i <= n - 5 at the top of each pass
    for n in range(5, max_n + 1):
        sign = -1 if n % 2 else 1  # (-1)^n = (-1)^(n-4) = -(-1)^(n-3)
        if n > 5 and n * alt - walt + 6 * sign * fib(n - 4) != sign * fib(n - 1) - n + 2:
            bad4.append(n)
        term = sign * fib(n - 4)
        alt, walt = alt + term, walt + (n - 4) * term
        if n * alt - walt - 4 * sign * fib(n - 3) != -sign * fib(n - 1) - n + 2:
            bad3.append(n)
    return bad3, bad4
