"""Constructive recipes for triangular matrices with prescribed inverse sums.

Covers: the dominant-vector family (whose inverse column sums alternate in
sign with Fibonacci magnitudes), the any-target-sum constructor, the
Toeplitz sum-2 matrix, the banded extremal matrices with Fibonacci-patterned
inverses, the (1,2)-matrix determinant constructor, and exact rational
sampling of the continuous relaxation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .fibonacci import fib, signed_representation
from .linalg import (InvariantError, Matrix, Triangular01, identity,
                     inverse_column_sums, transpose)

# ---------------------------------------------------------------------------
# Dominant-vector matrices


def _dominant_rows(n: int) -> Matrix:
    if n == 1:
        return [[1]]
    if n == 2:
        # The identity: its inverse column sums are (1, 1), the coordinate-wise
        # maximum over both 2x2 members of the family.
        return identity(2)
    m = n - 2
    core = _dominant_rows(m)
    c = inverse_column_sums(core)
    # Two parity branches pin down the last two coordinates: with x = 1 the
    # final column realizes +/- sum|c_i|, and alpha picks out the c_i of one
    # sign so the next-to-last column realizes the F_{n-2} bound.
    if n % 2 == 1:
        alpha = [1 if (i % 2 == 1 and i >= 3) else 0 for i in range(1, m + 1)]
        beta = [alpha[i] + (1 if c[i] > 0 else -1) for i in range(m)]
    else:
        alpha = [1 if (i == 1 or i % 2 == 0) else 0 for i in range(1, m + 1)]
        beta = [alpha[i] - (1 if c[i] > 0 else -1) for i in range(m)]
    if any(b not in (0, 1) for b in beta):
        raise InvariantError(
            f"dominant matrix n={n}: last column entries {beta} are not 0/1")
    rows = [[0] * n for _ in range(n)]
    for i in range(m):
        rows[i][:m] = core[i]
        rows[i][n - 2] = alpha[i]
        rows[i][n - 1] = beta[i]
    rows[n - 2][n - 2] = 1
    rows[n - 2][n - 1] = 1  # x = 1
    rows[n - 1][n - 1] = 1
    return rows


def dominant_matrix(n: int) -> Triangular01:
    """Matrix whose inverse column sums are (1, 1, -1, 2, -3, 5, ...).

    Coordinate i has absolute value F_{i-1} (coordinate 1 is 1) with signs
    alternating from the third coordinate on; no member of the family beats
    it in absolute value on any coordinate.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return Triangular01.from_rows(_dominant_rows(n))


# ---------------------------------------------------------------------------
# Any admissible sum


def construct_with_sum(n: int, target_sum: int) -> Triangular01:
    """An n x n member whose inverse entry sum is exactly ``target_sum``.

    Valid targets are the integers in [2 - F_{n-1}, 2 + F_{n-1}].  The matrix
    is assembled in block form: the leading (n-2) x (n-2) block is the
    dominant matrix, the last two rows are identity rows, and the last two
    columns encode a one-sided signed Fibonacci representation of
    ``target_sum`` - 2, one column pair (alpha_i, beta_i) per coefficient,
    with the sign of the underlying column sum folded in.
    """
    if n < 3:
        raise ValueError(f"construction requires n >= 3, got {n}")
    bound = fib(n - 1)
    low, high = 2 - bound, 2 + bound
    if not low <= target_sum <= high:
        raise ValueError(
            f"sum {target_sum} not achievable for n={n}: "
            f"valid interval is [{low}, {high}]")
    m = n - 2
    core = _dominant_rows(m)
    c = inverse_column_sums(core)
    coeffs = signed_representation(target_sum - 2, n).coeffs
    rows = [[0] * n for _ in range(n)]
    check = 2
    for i in range(m):
        rows[i][:m] = core[i]
        t = coeffs[i] * (1 if c[i] > 0 else -1)
        if t == 1:
            a, b = 0, 0
        elif t == 0:
            a, b = 1, 0
        else:
            a, b = 1, 1
        rows[i][n - 2] = a
        rows[i][n - 1] = b
        check += (1 - a - b) * c[i]
    rows[n - 2][n - 2] = 1  # x = 0: cell (n-2, n-1) stays 0
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
    rows = [[1 if j >= i and (j - i) % 2 == 0 else 0 for j in range(n)]
            for i in range(n)]
    return Triangular01.from_rows(rows)


# ---------------------------------------------------------------------------
# Banded extremal matrices


@dataclass(frozen=True)
class BandPartition:
    """Partition of the strictly upper cells into bands S_0 .. S_{n-l-1}.

    ``band_of`` maps each 0-indexed cell (row, col), col > row, to its band.
    The top band is the first two rows of the last l columns; band i is
    grown from band i+1 by stepping one cell left or one cell down; S_0
    collects the leftovers (2 cells when l=2, 4 when l=3).
    """

    n: int
    l: int
    band_of: dict

    @property
    def band_count(self) -> int:
        return self.n - self.l

    def cells(self, band: int) -> list:
        return sorted(c for c, b in self.band_of.items() if b == band)

    def sizes(self) -> dict:
        out = {}
        for b in self.band_of.values():
            out[b] = out.get(b, 0) + 1
        return out


def band_partition(n: int, l: int) -> BandPartition:
    """Build the band partition by growing from the top-right seed block."""
    if l not in (2, 3):
        raise ValueError(f"tail width l must be 2 or 3, got {l}")
    if n < 5:
        raise ValueError(f"band partition requires n >= 5, got {n} "
                         "(use small_extremal for n = 3, 4)")
    top = n - l - 1
    band = {}
    frontier = [(r, c) for r in (0, 1) for c in range(n - l, n)]
    for cell in frontier:
        band[cell] = top
    for i in range(top - 1, 0, -1):
        grown = []
        for (r, c) in frontier:
            for cand in ((r, c - 1), (r + 1, c)):  # left of / below a member
                rr, cc = cand
                if 0 <= rr < cc < n and cand not in band:
                    band[cand] = i
                    grown.append(cand)
        frontier = grown
    for r in range(n):
        for c in range(r + 1, n):
            band.setdefault((r, c), 0)
    return BandPartition(n, l, band)


def extremal_pattern_matrix(n: int, l: int):
    """Extremal matrix from the band fill rule, with its predicted inverse.

    The matrix carries i mod 2 on band S_i.  The predicted inverse has unit
    diagonal, 0 on S_0 and (-1)^i F_i on S_i for i >= 1; it equals the true
    inverse, and the entry sum is 2 - F_{n-1} when n + l is even and
    2 + F_{n-1} when n + l is odd.

    Returns ``(matrix, predicted_inverse_rows)``.
    """
    partition = band_partition(n, l)
    rows = identity(n)
    predicted = identity(n)
    for (r, c), i in partition.band_of.items():
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
        n = len(self.rows)
        if n == 0 or any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square and non-empty")
        for i in range(n):
            for j in range(n):
                v = self.rows[i][j]
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


def construct_w_matrix(n: int, det: int) -> WMatrix:
    """A (1,2)-patterned matrix with the prescribed determinant.

    Valid determinants are the integers in [3 - F_{n-1}, 3 + F_{n-1}].
    Adding the all-ones matrix to a unit lower triangular L multiplies out
    to det(L + J) = 1 + S(L^{-1}), so transposing a triangular matrix whose
    inverse sums to det - 1 and shifting every entry by one lands exactly
    on the target.
    """
    if n < 3:
        raise ValueError(f"construction requires n >= 3, got {n}")
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


@dataclass(frozen=True)
class GMatrix:
    """Unit upper triangular matrix with rational entries from [0, 1] above."""

    rows: tuple

    def __post_init__(self):
        n = len(self.rows)
        if n == 0 or any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square and non-empty")
        # Checked on each entry's integer numerator and (positive)
        # denominator, which skips Fraction's rich comparisons.
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row):
                try:
                    num, den = v.numerator, v.denominator
                except AttributeError:
                    raise ValueError(f"entry ({i}, {j}) is not an int or a Fraction: "
                                     f"{v!r}") from None
                if j == i:
                    if num != den:
                        raise ValueError("diagonal entries must be 1")
                elif j < i:
                    if num:
                        raise ValueError("entries below the diagonal must be 0")
                elif not 0 <= num <= den:
                    raise ValueError("strictly upper entries must lie in [0, 1]")

    @property
    def n(self) -> int:
        return len(self.rows)

    def to_rows(self) -> Matrix:
        return [list(r) for r in self.rows]


_ZERO = Fraction(0)
_ONE = Fraction(1)


def sample_g_matrix(n: int, seed: int, denominator_bound: int) -> GMatrix:
    """Deterministic pseudo-random member of the continuous relaxation.

    Strictly upper entries are exact rationals p/q with 0 <= p <= q <=
    ``denominator_bound``, drawn cell by cell in row-major order from a
    stream seeded by ``seed``: ``randint(1, bound)`` for q, then
    ``randint(0, q)`` for p.  Exact rationals keep the closed-interval
    bound on the inverse entry sum testable with no rounding slack.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if denominator_bound < 1:
        raise ValueError("denominator_bound must be >= 1")
    randint = random.Random(seed).randint
    rows = []
    for i in range(n):
        row = [_ZERO] * i
        row.append(_ONE)
        for _ in range(i + 1, n):
            q = randint(1, denominator_bound)
            row.append(Fraction(randint(0, q), q))
        rows.append(tuple(row))
    return GMatrix(tuple(rows))
