"""Exact integer and rational matrix arithmetic.

Everything in this module is exact: entries are plain Python ints (arbitrary
precision) or ``fractions.Fraction``. There is no floating point anywhere.

Matrices are plain row-major lists of lists. :class:`Triangular01` is the
bit-packed representation of an invertible (0,1) upper triangular matrix
(unit diagonal is implicit), used heavily by the enumeration code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence, Union

Scalar = Union[int, Fraction]
Matrix = list[list[Scalar]]  # row major


class SingularMatrixError(ValueError):
    """Raised when an operation requires an invertible matrix and det = 0."""


class InvariantError(RuntimeError):
    """An internal invariant of the exact arithmetic failed: a bug, not bad
    input.  Raised explicitly so that ``python -O`` cannot strip the check."""


def _dimension(rows: Sequence[Sequence[Scalar]]) -> int:
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("matrix must be square and non-empty")
    return n


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(rows: Sequence[Sequence[Scalar]]) -> Matrix:
    n = _dimension(rows)
    return [[rows[j][i] for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class Triangular01:
    """Bit-packed n x n invertible (0,1) upper triangular matrix.

    The unit diagonal is implicit.  ``upper_mask`` holds one bit per strictly
    upper cell, in row-major order over cells with col > row: cell (0,1) is
    bit 0, then (0,2), ..., (0,n-1), (1,2), ... (lowest bits first).  With
    this layout the numeric order of masks is the canonical enumeration
    order used by the search module.
    """

    n: int
    upper_mask: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if not 0 <= self.upper_mask < (1 << self.cell_count):
            raise ValueError(f"mask out of range for n={self.n}")

    @property
    def cell_count(self) -> int:
        return self.n * (self.n - 1) // 2

    @staticmethod
    def bit_index(n: int, i: int, j: int) -> int:
        """Bit position of strictly-upper cell (i, j), 0-indexed, i < j."""
        if not 0 <= i < j < n:
            raise ValueError(f"({i}, {j}) is not a strictly upper cell")
        return i * (n - 1) - i * (i - 1) // 2 + (j - i - 1)

    def cell(self, i: int, j: int) -> int:
        return (self.upper_mask >> self.bit_index(self.n, i, j)) & 1

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "Triangular01":
        n = _dimension(rows)
        mask = 0
        for i in range(n):
            for j in range(n):
                v = rows[i][j]
                if i == j:
                    if v != 1:
                        raise ValueError("diagonal entries must all equal 1")
                elif i > j:
                    if v != 0:
                        raise ValueError("entries below the diagonal must be 0")
                else:
                    if v not in (0, 1):
                        raise ValueError("strictly upper entries must be 0 or 1")
                    if v:
                        mask |= 1 << cls.bit_index(n, i, j)
        return cls(n, mask)

    def rows(self) -> Matrix:
        n = self.n
        out = identity(n)
        mask = self.upper_mask
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                out[i][j] = (mask >> k) & 1
                k += 1
        return out


def _classify_triangular(rows: Sequence[Sequence[Scalar]]) -> str:
    """Return 'upper' or 'lower' for a unit triangular matrix, else raise."""
    n = _dimension(rows)
    for i in range(n):
        if rows[i][i] != 1:
            raise ValueError("matrix is not unit triangular (diagonal entry != 1)")
    lower_zero = all(rows[i][j] == 0 for i in range(n) for j in range(i))
    upper_zero = all(rows[i][j] == 0 for i in range(n) for j in range(i + 1, n))
    if lower_zero:
        return "upper"
    if upper_zero:
        return "lower"
    raise ValueError("matrix is not triangular")


def invert_unit_triangular(rows: Sequence[Sequence[Scalar]]) -> Matrix:
    """Exact inverse of a unit triangular matrix (upper or lower).

    Back substitution column by column; integer input gives an integer
    inverse, Fraction input a Fraction inverse. The result is unit
    triangular with the same orientation.
    """
    orientation = _classify_triangular(rows)
    if orientation == "lower":
        return transpose(invert_unit_triangular(transpose(rows)))
    n = len(rows)
    inv = identity(n)
    for j in range(n):
        col = [r[j] for r in inv]
        for i in range(j - 1, -1, -1):
            s = 0
            row = rows[i]
            for k in range(i + 1, j + 1):
                a = row[k]
                if a:
                    s += a * col[k]
            col[i] = -s
            inv[i][j] = -s
    return inv


def entry_sum(rows: Sequence[Sequence[Scalar]]) -> Scalar:
    """S(X): the sum of all entries of the matrix, exactly."""
    return sum(sum(r, 0) for r in rows)


def inverse_column_sums(rows: Sequence[Sequence[Scalar]]) -> list:
    """Column sums of the inverse of a unit upper triangular matrix.

    Solves w A = (1, ..., 1) by forward substitution,
    w_j = 1 - (sum of w_i a_ij over i < j), so the inverse is never formed;
    int entries give int sums, Fraction entries Fraction sums.  The entry
    sum of the inverse is ``sum`` of the result.
    """
    if _classify_triangular(rows) != "upper":
        raise ValueError("matrix is not unit upper triangular")
    w = []
    for j in range(len(rows)):
        s = 1
        for i, wi in enumerate(w):
            a = rows[i][j]
            if a:
                s -= a * wi
        w.append(s)
    return w


def inverse_entry_sum(rows: Sequence[Sequence[Scalar]]) -> Scalar:
    """S(A^{-1}) = 1^T A^{-1} 1 for a unit upper triangular matrix, exactly.

    The forward substitution of :func:`inverse_column_sums`, run in
    integers over one common denominator.  Let d_j be the lcm of the
    denominators above the diagonal in column j and E_j = d_0 d_1 ... d_j.
    Then W_j = E_j w_j is an integer:
    W_j = E_j - (sum over i < j of W_i (d_j a_ij) d_{i+1} ... d_{j-1}),
    with each inner sum taken by Horner's rule, and the entry sum is
    (sum of W_j E_{n-1} / E_j) / E_{n-1}, one Fraction built at the end.
    No gcd is taken on the way.  Scaling column by column keeps E_{n-1}
    near the product of the column lcms; one lcm d over the whole matrix
    would carry d^(n-1), far larger once n and the denominators grow.
    Int input gives an int, input with a Fraction entry a Fraction.
    """
    n = _dimension(rows)
    for i, r in enumerate(rows):
        if r[i] != 1 or any(r[:i]):
            raise ValueError("matrix is not unit upper triangular")
    scales = []  # d_j
    w = []       # W_j
    e = 1        # E_j
    total = 0    # E_j (w_0 + ... + w_j)
    for j in range(n):
        column = [rows[i][j] for i in range(j)]
        try:
            d = lcm(*[x.denominator for x in column])
        except AttributeError:
            raise ValueError("entries must be int or Fraction") from None
        acc = 0
        for i, x in enumerate(column):
            acc *= scales[i]
            if x:
                acc += w[i] * x.numerator * (d // x.denominator)
        e *= d
        scales.append(d)
        w.append(e - acc)
        total = total * d + w[-1]
    if e == 1 and not any(isinstance(x, Fraction) for r in rows for x in r):
        return total
    return Fraction(total, e)


def row_sum_vector(a: Triangular01) -> tuple:
    """The row vector of column sums of the inverse of ``a``.

    For any member of the unit upper triangular (0,1) family the first
    entry is always 1.
    """
    return tuple(inverse_column_sums(a.rows()))


def _require_int_entries(rows: Sequence[Sequence[Scalar]]) -> None:
    for r in rows:
        for x in r:
            if not isinstance(x, int):
                raise ValueError("integer matrix required, got a non-integer entry")


def determinant_exact(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix.

    Fraction-free (Bareiss) elimination: all intermediate values are
    integers, every division is exact.  Pivot is the first nonzero entry in
    the column; row swaps flip the sign.
    """
    _dimension(rows)
    _require_int_entries(rows)
    return _bareiss([list(r) for r in rows])


def _bareiss(m: list) -> int:
    """Bareiss elimination of ``m`` in place, returning its determinant.

    No checks: ``m`` must be a non-empty square list of lists of ints that
    the caller owns, since elimination overwrites it.
    """
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            mi = m[i]
            mk = m[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pivot - mik * mk[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def adjugate_exact(rows: Sequence[Sequence[int]]) -> tuple:
    """Exact ``(det, adj)`` of an invertible integer matrix: adj = det A^{-1}.

    Fraction-free Gauss-Jordan on [A | I]: every entry stays an integer
    minor of the augmented matrix, so every division is exact.  Row swaps
    act on both halves, and when elimination ends the left half is p I and
    the right half is p A^{-1}, with p = +/-det.  Raises
    :class:`SingularMatrixError` when some column has no pivot (det = 0).
    """
    n = _dimension(rows)
    _require_int_entries(rows)
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                raise SingularMatrixError("matrix is singular, adjugate not formed")
        pivot = m[k][k]
        mk = m[k]
        for i in range(n):
            if i == k:
                continue
            mi = m[i]
            mik = mi[k]
            for j in range(2 * n):
                mi[j] = (mi[j] * pivot - mik * mk[j]) // prev
        prev = pivot
    return sign * prev, [[sign * x for x in r[n:]] for r in m]


def inverse_sum_via_determinant(rows: Sequence[Sequence[int]]) -> Fraction:
    """Entry sum of the inverse, computed from two determinants.

    Uses the Cramer-rule identity: the sum equals
    (det(A + J) - det(A)) / det(A), with J the all-ones matrix.  A + J is
    formed entry-wise; J itself is never materialized.

    Raises :class:`SingularMatrixError` when det(A) = 0.
    """
    d = determinant_exact(rows)
    if d == 0:
        raise SingularMatrixError("matrix is singular (determinant 0), inverse sum undefined")
    shifted = [[x + 1 for x in r] for r in rows]
    return Fraction(determinant_exact(shifted) - d, d)
