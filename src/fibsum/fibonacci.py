"""Fibonacci sequence (F_1 = F_2 = 1), identity checkers and representations.

Indexing convention used throughout the package: F_1 = F_2 = 1 and
F_k = F_{k-1} + F_{k-2}.  Negative or zero indices are rejected; the
F_0 = -1 convention that the dominant row-sum vector uses is local to that
vector's definition and never leaks out of here.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .linalg import InvariantError

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


def fib_prefix_sum(m: int) -> int:
    """F_1 + F_2 + ... + F_m (0 for m <= 0)."""
    if m <= 0:
        return 0
    fib(m)
    return sum(_cache[1:m + 1])


@dataclass(frozen=True)
class Lemma1Report:
    """Per-n results of the three classic Fibonacci sum identities.

    Series are indexed by n = 1..n_max:
      full_sum[n-1]:  1 + sum_{k<=n} F_k   == F_{n+2}
      even_sum[n-1]:  1 + sum_{k<=n} F_2k  == F_{2n+1}
      odd_sum[n-1]:   sum_{k<=n} F_{2k-1}  == F_{2n}
    """

    n_max: int
    full_sum: tuple
    even_sum: tuple
    odd_sum: tuple

    def failures(self) -> list:
        out = []
        for idx, series in enumerate((self.full_sum, self.even_sum, self.odd_sum), start=1):
            out.extend((n + 1, idx) for n, ok in enumerate(series) if not ok)
        return out

    @property
    def all_pass(self) -> bool:
        return not self.failures()


def check_lemma1(n_max: int) -> Lemma1Report:
    """Verify the three sum identities exactly for every
    n <= n_max <= IDENTITY_MAX_N, keeping the three sums running over n."""
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
        full.append(1 + full_sum == fib(n + 2))
        even.append(1 + even_sum == fib(2 * n + 1))
        odd.append(odd_sum == fib(2 * n))
    return Lemma1Report(n_max, tuple(full), tuple(even), tuple(odd))


def restricted_representation(target: int, max_fib_index: int) -> list:
    """Write ``target`` as a sum of Fibonacci numbers with distinct indices.

    Greedy, largest index first, drawing only from {F_1, ..., F_max}.
    Returns the chosen indices in strictly decreasing order.  Any
    0 <= target <= F_1 + ... + F_max is representable this way; since
    F_1 = F_2 = 1 the descending scan naturally spends index 2 before
    index 1, keeping index 1 in reserve as the final unit.
    """
    if target < 0:
        raise ValueError(f"target must be non-negative, got {target}")
    budget = fib_prefix_sum(max_fib_index)
    if target > budget:
        raise ValueError(
            f"target {target} exceeds F_1+...+F_{max_fib_index} = {budget}")
    indices = []
    remaining = target
    for k in range(max_fib_index, 0, -1):
        fk = fib(k)
        if fk <= remaining:
            indices.append(k)
            remaining -= fk
    if remaining != 0:
        raise InvariantError(
            f"greedy Fibonacci representation of {target} left {remaining}")
    return indices


@dataclass(frozen=True)
class SignedFibRepresentation:
    """Coefficients u_1..u_{n-2} in {-1, 0, +1} over magnitudes (1, F_1, ..., F_{n-3}).

    The represented value is u_1 * 1 + sum_{i>=2} u_i * F_{i-1}; its absolute
    value never exceeds F_{n-1}.
    """

    n: int
    coeffs: tuple

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("n must be >= 3")
        if len(self.coeffs) != self.n - 2:
            raise ValueError(f"expected {self.n - 2} coefficients")
        if any(u not in (-1, 0, 1) for u in self.coeffs):
            raise ValueError("coefficients must be -1, 0 or +1")

    def magnitudes(self) -> tuple:
        return tuple(1 if i == 1 else fib(i - 1) for i in range(1, self.n - 1))

    @property
    def value(self) -> int:
        return sum(u * m for u, m in zip(self.coeffs, self.magnitudes()))


def signed_representation(target: int, n: int) -> SignedFibRepresentation:
    """One-sided signed representation of ``target`` over (1, F_1, ..., F_{n-3}).

    All coefficients are >= 0 when target >= 0 and <= 0 when target <= 0
    (signs are never mixed).  |target| = F_{n-1} uses every magnitude,
    which covers the bound exactly because 1 + F_1 + ... + F_{n-3} = F_{n-1};
    smaller values use a distinct-index greedy representation.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    bound = fib(n - 1)
    if abs(target) > bound:
        raise ValueError(
            f"target {target} out of range: |target| must be <= F_{n - 1} = {bound}")
    m = n - 2
    coeffs = [0] * m
    if target != 0:
        sign = 1 if target > 0 else -1
        magnitude = abs(target)
        if magnitude == bound:
            coeffs = [sign] * m
        else:
            for k in restricted_representation(magnitude, n - 3):
                coeffs[k] = sign  # index k maps to coefficient position k+1
    rep = SignedFibRepresentation(n, tuple(coeffs))
    if rep.value != target:
        raise InvariantError(f"signed representation of {target} has value {rep.value}")
    return rep


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
