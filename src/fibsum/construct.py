"""Constructive recipes for triangular matrices with prescribed inverse sums.

Covers: the dominant-vector family (whose inverse column sums alternate in
sign with Fibonacci magnitudes), the any-target-sum constructor, the
Toeplitz sum-2 matrix, the banded extremal matrices with Fibonacci-patterned
inverses, the (1,2)-matrix determinant constructor, and seeded draws of
the continuous relaxation as exact integer pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .fibonacci import fib
from .linalg import (InvariantError, Matrix, Triangular01, _dimension,
                     entry_sum, identity, invert_unit_triangular,
                     inverse_column_sums, transpose)

# Largest n any constructor here builds, checked before any work.  The
# pattern suite checks the banded matrices up to n = 200, where `fibsum
# construct`, `extremal` and `wmatrix` each take under 0.5 s on one core.
CONSTRUCT_MAX_N = 200


def _check_size(n: int) -> None:
    if n > CONSTRUCT_MAX_N:
        raise ValueError(f"n must be <= CONSTRUCT_MAX_N = {CONSTRUCT_MAX_N}, got {n}")


# ---------------------------------------------------------------------------
# Dominant-vector matrices


def _dominant_rows(n: int) -> Matrix:
    # The leading n x n block of one fixed matrix: row 0 has ones at the
    # even offsets from the diagonal, every later row at offset 0 and at
    # the odd offsets.
    return [[int(j == i or (j > i and (j - i) % 2 == (i > 0))) for j in range(n)]
            for i in range(n)]


def dominant_matrix(n: int) -> Triangular01:
    """Matrix whose inverse column sums are (1, 1, -1, 2, -3, 5, ...).

    Coordinate i has absolute value F_{i-1} (coordinate 1 is 1) with signs
    alternating from the third coordinate on; no member of the family beats
    it in absolute value on any coordinate.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_size(n)
    return Triangular01.from_rows(_dominant_rows(n))


# ---------------------------------------------------------------------------
# Any admissible sum


def construct_with_sum(n: int, target_sum: int) -> Triangular01:
    """An n x n member whose inverse entry sum is exactly ``target_sum``.

    Valid targets are the integers in [2 - F_{n-1}, 2 + F_{n-1}].  The matrix
    is assembled in block form: the leading (n-2) x (n-2) block is the
    dominant matrix, the last two rows are identity rows, and row i of the
    core gets one column pair (a_i, b_i).  The identity rows give the sum 2,
    and row i adds (1 - a_i - b_i) c_i to it, with c = (1, 1, -1, 2, -3, ...)
    the core's inverse column sums.  One pass over c, last entry first,
    takes each |c_i| that still fits in |target_sum - 2|, all with the sign
    of target_sum - 2.  The greedy is exact because |c| = (1, 1, 1, 2, 3,
    5, ...) has each term at most 1 plus the sum of the terms before it,
    and the whole sum is F_{n-1}.
    """
    if not isinstance(target_sum, int):
        raise ValueError(f"sum must be an int, got {target_sum!r}")
    if n < 3:
        raise ValueError(f"construction requires n >= 3, got {n}")
    _check_size(n)
    bound = fib(n - 1)
    low, high = 2 - bound, 2 + bound
    if not low <= target_sum <= high:
        raise ValueError(
            f"sum {target_sum} not achievable for n={n}: "
            f"valid interval is [{low}, {high}]")
    m = n - 2
    core = _dominant_rows(m)
    c = inverse_column_sums(core)
    sign = 1 if target_sum >= 2 else -1
    remaining = abs(target_sum - 2)
    rows = [[0] * n for _ in range(n)]
    check = 2
    for i in range(m - 1, -1, -1):
        rows[i][:m] = core[i]
        if abs(c[i]) <= remaining:
            remaining -= abs(c[i])
            a = b = int(sign * c[i] < 0)  # adds sign * |c_i|
        else:
            a, b = 1, 0  # adds nothing
        rows[i][n - 2] = a
        rows[i][n - 1] = b
        check += (1 - a - b) * c[i]
    rows[n - 2][n - 2] = 1  # cell (n-2, n-1) stays 0: identity rows
    rows[n - 1][n - 1] = 1
    if check != target_sum:
        raise InvariantError(
            f"construct_with_sum(n={n}): column pairs give sum {check}, not {target_sum}")
    return Triangular01.from_rows(rows)


def toeplitz_sum_two(n: int) -> Triangular01:
    """Upper triangular Toeplitz matrix whose inverse entry sum is 2.

    First row has ones at every even offset: (1, 0, 1, 0, 1, ...).  That
    matrix is the inverse of I - N where N is the ones-on-second-
    superdiagonal matrix, so its own inverse is I - N and the entry sum is
    n - (n - 2) = 2 for every n >= 3.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    _check_size(n)
    rows = [[1 if j >= i and (j - i) % 2 == 0 else 0 for j in range(n)]
            for i in range(n)]
    return Triangular01.from_rows(rows)


# ---------------------------------------------------------------------------
# Banded extremal matrices


def band_partition(n: int, l: int) -> dict:
    """The partition of the strictly upper cells into bands S_0 .. S_{n-l-1},
    as a dict from each 0-indexed cell (r, c), c > r, to its band.

    In closed form: with k = max(r, 1), cell (r, c) lies in band
    max(0, min(c - k, n - l - k)).  In each row r >= 1 the last l columns
    lie in band n - l - r and the band falls by one per step left from
    there; row 0 repeats row 1 column by column.  So the top band n - l - 1
    is the first two rows of the last l columns, and S_0 holds the cells
    that would fall below band 1 (2 cells when l = 2, 4 when l = 3).
    """
    if l not in (2, 3):
        raise ValueError(f"tail width l must be 2 or 3, got {l}")
    if n < 5:
        raise ValueError(f"band partition requires n >= 5, got {n} "
                         "(use small_extremal for n = 3, 4)")
    _check_size(n)
    band = {}
    for r in range(n):
        k = max(r, 1)
        for c in range(r + 1, n):
            band[(r, c)] = max(0, min(c - k, n - l - k))
    return band


def extremal_pattern_matrix(n: int, l: int):
    """Extremal matrix from the band fill rule, with its predicted inverse.

    The matrix carries i mod 2 on band S_i.  The predicted inverse has unit
    diagonal, 0 on S_0 and (-1)^i F_i on S_i for i >= 1; it equals the true
    inverse, and the entry sum is 2 - F_{n-1} when n + l is even and
    2 + F_{n-1} when n + l is odd.

    Returns ``(matrix, predicted_inverse_rows)``.
    """
    bands = band_partition(n, l)  # refuses n > CONSTRUCT_MAX_N before any work
    rows = identity(n)
    predicted = identity(n)
    for (r, c), i in bands.items():
        rows[r][c] = i % 2
        predicted[r][c] = 0 if i == 0 else (-1) ** i * fib(i)
    return Triangular01.from_rows(rows), predicted


_MIN_3 = ((1, 1, 1), (0, 1, 0), (0, 0, 1))
_MIN_4 = ((1, 0, 1, 1), (0, 1, 1, 1), (0, 0, 1, 0), (0, 0, 0, 1))


def small_extremal(n: int, kind: str) -> Triangular01:
    """Extremal matrices for n = 3, 4, where the band pattern does not apply.

    The identity maximizes for both sizes; the minimizers are fixed explicit
    matrices.  Inverse sums are 2 + F_{n-1} and 2 - F_{n-1} respectively.
    """
    if kind not in ("maximizing", "minimizing"):
        raise ValueError(f"kind must be 'maximizing' or 'minimizing', got {kind!r}")
    if n not in (3, 4):
        raise ValueError(
            f"small_extremal covers n = 3, 4 only; for n >= 5 use "
            f"extremal_pattern_matrix (got n={n})")
    if kind == "maximizing":
        return Triangular01(n, 0)
    return Triangular01.from_rows(_MIN_3 if n == 3 else _MIN_4)


# ---------------------------------------------------------------------------
# (1,2)-matrices with prescribed determinant


@dataclass(frozen=True)
class WMatrix:
    """n x n integer matrix: 1 above the diagonal, 2 on it, 1 or 2 below."""

    rows: tuple

    def __post_init__(self):
        n = _dimension(self.rows)
        for i in range(n):
            for j in range(n):
                v = self.rows[i][j]
                if not isinstance(v, int):
                    raise ValueError("integer matrix required, got a non-integer entry")
                if j > i and v != 1:
                    raise ValueError("entries above the diagonal must be 1")
                if j == i and v != 2:
                    raise ValueError("diagonal entries must be 2")
                if j < i and v not in (1, 2):
                    raise ValueError("entries below the diagonal must be 1 or 2")

    @property
    def n(self) -> int:
        return len(self.rows)

    def to_rows(self) -> Matrix:
        return [list(r) for r in self.rows]

    def det_and_inverse(self) -> tuple:
        """``(det, inverse)``, exactly; the inverse is None when det = 0.

        W - J is a (0,1) unit lower triangular L, so with V = L^{-1} the
        matrix determinant lemma gives det W = 1 + S(V), and
        Sherman-Morrison W^{-1} = V - (V 1)(1^T V) / det W.
        """
        v = invert_unit_triangular([[x - 1 for x in row] for row in self.rows])
        det = 1 + entry_sum(v)
        if det == 0:
            return 0, None
        col_sums = [sum(col) for col in zip(*v)]
        return det, [[Fraction(x * det - r * c, det) for x, c in zip(row, col_sums)]
                     for row, r in zip(v, map(sum, v))]


def construct_w_matrix(n: int, det: int) -> WMatrix:
    """A (1,2)-patterned matrix with the prescribed determinant.

    Valid determinants are the integers in [3 - F_{n-1}, 3 + F_{n-1}].
    Adding the all-ones matrix to a unit lower triangular L multiplies out
    to det(L + J) = 1 + S(L^{-1}), so transposing a triangular matrix whose
    inverse sums to det - 1 and shifting every entry by one lands exactly
    on the target.
    """
    if not isinstance(det, int):
        raise ValueError(f"determinant must be an int, got {det!r}")
    if n < 3:
        raise ValueError(f"construction requires n >= 3, got {n}")
    _check_size(n)
    bound = fib(n - 1)
    low, high = 3 - bound, 3 + bound
    if not low <= det <= high:
        raise ValueError(
            f"determinant {det} not achievable for n={n}: "
            f"valid interval is [{low}, {high}]")
    lower = transpose(construct_with_sum(n, det - 1).rows())
    return WMatrix(tuple(tuple(x + 1 for x in row) for row in lower))


# ---------------------------------------------------------------------------
# Continuous relaxation sampling


def relaxation_columns(n: int, seed: int, denominator_bound: int) -> list:
    """The strictly upper entries of a seeded member of the continuous
    relaxation, column by column, as integer pairs: ``columns[j][i]`` is
    (p, q), reduced by their gcd, for the entry p/q at row i < j.

    Each entry is drawn as p/q with 0 <= p <= q <= ``denominator_bound``,
    in row-major order from ``random.Random(seed)``: ``randint(1, bound)``
    for q, then ``randint(0, q)`` for p.  Both are taken straight from
    ``getrandbits`` as CPython's ``Random._randbelow_with_getrandbits``
    takes them, word for word as ``randint`` does.  Exact rationals keep
    the closed-interval bound on the inverse entry sum testable with no
    rounding slack; the pairs feed
    :func:`fibsum.linalg.column_block_sum_pairs` with no Fraction built.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    _check_size(n)
    if denominator_bound < 1:
        raise ValueError("denominator_bound must be >= 1")
    if seed < 0:
        # random.Random seeds with |seed|: -5 would replay seed 5.
        raise ValueError(f"seed must be >= 0, got {seed}")
    getrandbits = random.Random(seed).getrandbits
    kq = denominator_bound.bit_length()
    columns = [[] for _ in range(n)]
    for i in range(n):
        for column in columns[i + 1:]:
            q = getrandbits(kq)  # _randbelow_with_getrandbits(bound)
            while q >= denominator_bound:
                q = getrandbits(kq)
            q += 1
            kp = (q + 1).bit_length()
            p = getrandbits(kp)  # _randbelow_with_getrandbits(q + 1)
            while p > q:
                p = getrandbits(kp)
            g = gcd(p, q)
            column.append((p // g, q // g))
    return columns


def sample_g_matrix(n: int, seed: int, denominator_bound: int) -> Matrix:
    """The :func:`relaxation_columns` draw as rows of Fractions, 0 and 1
    included.  No program path calls it: it stays only as the binding that
    ``bench/tracer.py`` wraps, and goes when ROADMAP item 6 retires the
    tracer."""
    columns = relaxation_columns(n, seed, denominator_bound)
    return [[Fraction(*columns[j][i]) if j > i else Fraction(int(j == i))
             for j in range(n)] for i in range(n)]
