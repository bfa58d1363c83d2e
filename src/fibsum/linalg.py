"""Exact integer and rational matrix arithmetic.

Everything in this module is exact: entries are plain Python ints (arbitrary
precision) or ``fractions.Fraction``.  One scan of a matrix's entries refuses
any other type and sets the result type: ints for all-int input, else
Fractions throughout.

Every solve with a unit triangular matrix A is one forward substitution,
y A = x with A upper: the inverse row by row, x = e_r, and the inverse's
column sums, x = 1.  :func:`column_block_sum_pairs` runs the same
recursion in scaled integers on integer ratio pairs, given column by
column, as ``construct.relaxation_columns`` draws them.

Every determinant but the adjugate's is one Bareiss elimination,
:func:`_eliminate`; in ``_det_pair`` it gives det A and det(A + J), J all
ones, in one pass, for the matrix determinant lemma
S(A^{-1}) = (det(A + J) - det A) / det A.  :func:`adjugate_exact` takes
det A from its own fraction-free Gauss-Jordan elimination: it checks its
input and runs the unchecked kernel ``_adjugate``, which the hill climb
calls on the (0,1) rows it builds itself.

Matrices are plain row-major lists of lists. :class:`Triangular01` is the
bit-packed representation of an invertible (0,1) upper triangular matrix
(unit diagonal is implicit); the enumeration code decodes witnesses with it.
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
    this layout each row's cells are one block of bits, which the search
    module's row walk places with one shift.
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

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "Triangular01":
        n = _dimension(rows)
        mask = 0
        k = 0  # bit of the next strictly upper cell, in the order rows() reads
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
                        mask |= 1 << k
                    k += 1
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


def _classify_triangular(rows: Sequence[Sequence[Scalar]]) -> tuple:
    """``(lower, ints)`` for a unit triangular matrix of int and Fraction
    entries, ``ints`` as from :func:`_check_entries`; else raise ValueError."""
    n = _dimension(rows)
    ints = _check_entries(rows)
    for i in range(n):
        if rows[i][i] != 1:
            raise ValueError("matrix is not unit triangular (diagonal entry != 1)")
    if all(rows[i][j] == 0 for i in range(n) for j in range(i)):
        return False, ints
    if all(rows[i][j] == 0 for i in range(n) for j in range(i + 1, n)):
        return True, ints
    raise ValueError("matrix is not triangular")


def _check_entries(rows: Sequence[Sequence[Scalar]]) -> bool:
    """Whether every entry is an int; raises ValueError for an entry that is
    neither int nor Fraction, since floats and Decimals are inexact."""
    ints = True
    for r in rows:
        for x in r:
            if not isinstance(x, int):
                if not isinstance(x, Fraction):
                    raise ValueError("entries must be int or Fraction")
                ints = False
    return ints


def invert_unit_triangular(rows: Sequence[Sequence[Scalar]]) -> Matrix:
    """Exact inverse of a unit triangular matrix (upper or lower).  The
    result is unit triangular with the same orientation.

    Row r of the inverse of an upper A solves y A = e_r, one forward
    substitution from column r; a lower A is solved as its transpose.
    """
    lower, ints = _classify_triangular(rows)
    if lower:
        rows = transpose(rows)
    n = len(rows)
    zero, one = (0, 1) if ints else (Fraction(0), Fraction(1))
    inv = [[zero] * n for _ in range(n)]
    for r, y in enumerate(inv):
        y[r] = one
        _forward(rows, y, r)
    return transpose(inv) if lower else inv


def _forward(rows: Sequence[Sequence[Scalar]], y: list, start: int = 0) -> list:
    """Solve y A = x in place and return y, for A = ``rows`` unit upper
    triangular and x the given ``y``:
    y_j = x_j - (sum of y_i a_ij over start <= i < j) for j >= start, and
    entries before ``start`` are left as given.  Each y_i, once final, is
    taken out of the later entries along row i of A; a zero y_i is skipped.
    No checks.
    """
    n = len(rows)
    for i in range(start, n - 1):
        yi = y[i]
        if yi:
            row = rows[i]
            for j in range(i + 1, n):
                a = row[j]
                if a:
                    y[j] -= a * yi
    return y


def entry_sum(rows: Sequence[Sequence[Scalar]]) -> Scalar:
    """S(X): the sum of all entries of the matrix, exactly."""
    return sum(sum(r, 0) for r in rows)


def _check_unit_upper(rows: Sequence[Sequence[Scalar]]) -> bool:
    """Whether every entry is an int; raises ValueError unless ``rows`` is
    square and unit upper triangular, with int and Fraction entries."""
    _dimension(rows)
    ints = _check_entries(rows)
    for i, r in enumerate(rows):
        if r[i] != 1 or any(r[:i]):
            raise ValueError("matrix is not unit upper triangular")
    return ints


def inverse_column_sums(rows: Sequence[Sequence[Scalar]]) -> list:
    """Column sums of the inverse of a unit upper triangular matrix.

    Solves w A = (1, ..., 1) by forward substitution,
    w_j = 1 - (sum of w_i a_ij over i < j), so the inverse is never formed.
    """
    one = 1 if _check_unit_upper(rows) else Fraction(1)
    return _forward(rows, [one] * len(rows))


def inverse_entry_sum(rows: Sequence[Sequence[Scalar]]) -> Scalar:
    """S(A^{-1}) = 1^T A^{-1} 1 for a unit upper triangular matrix, exactly:
    the sum of :func:`inverse_column_sums`."""
    return sum(inverse_column_sums(rows))


def column_block_sum_pairs(columns: Sequence[Sequence[tuple]]) -> list:
    """S(B^{-1}) for every leading principal block B of the unit upper
    triangular matrix whose strictly upper entries are given column by
    column as integer pairs: ``columns[j][i]`` is (p, q), q > 0, for the
    entry a_ij = p / q, i < j.  The pairs need not be reduced.  Returns
    one integer pair (T, E), E > 0, per block, the k x k block's at index
    k - 1, whose ratio T / E is the sum, not reduced.  No checks.

    Column j of the forward substitution of :func:`inverse_column_sums`
    reads only columns <= j, so one substitution gives every block's sum
    as a prefix sum.  It runs in integers over one common denominator per
    column.  Let d_j be the lcm of the q's in column j and
    E_j = d_0 d_1 ... d_j.  Then W_j = E_j w_j is an integer:
    W_j = E_j - (sum over i < j of W_i (d_j a_ij) d_{i+1} ... d_{j-1}),
    with each inner sum taken by Horner's rule, and
    T_j = sum over i <= j of W_i E_j / E_i.  No gcd is taken.  Scaling
    column by column makes E_{n-1} the product of the column lcms; one
    lcm d over the whole matrix would carry d^(n-1), far larger once n
    and the denominators grow.
    """
    pairs = []
    scales = []  # d_j
    w = []       # W_j
    e = 1        # E_j
    total = 0    # T_j = E_j (w_0 + ... + w_j)
    for column in columns:
        d = lcm(*[q for _, q in column])
        acc = 0
        for i, (p, q) in enumerate(column):
            acc *= scales[i]
            if p:
                acc += w[i] * p * (d // q)
        e *= d
        scales.append(d)
        w.append(e - acc)
        total = total * d + w[-1]
        pairs.append((total, e))
    return pairs


def determinant_exact(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix, by one fraction-free
    (Bareiss) elimination, :func:`_eliminate`: every division is exact."""
    n = _integer_dimension(rows)
    m = [list(r) for r in rows]
    return _eliminate(m, n) * m[n - 1][n - 1]


def _integer_dimension(rows: Sequence[Sequence[int]]) -> int:
    """n for a non-empty n x n integer matrix; else raises ValueError."""
    n = _dimension(rows)
    if not _check_entries(rows):
        raise ValueError("integer matrix required, got a non-integer entry")
    return n


def _det_pair(rows: Sequence[Sequence[int]]) -> tuple:
    """``(det A, det(A + J))`` for a square integer matrix A, J all ones;
    ``(0, None)`` when A is singular.  No checks; ``rows`` is not changed
    and may be tuples.

    One Bareiss elimination of [[A, -1], [1^T, 1]], pivots from A's rows
    only: pivot n - 1 is det A up to the swaps' sign, and the last entry
    is the whole determinant, det A + 1^T adj(A) 1 = det(A + J).
    """
    n = len(rows)
    m = [[*row, -1] for row in rows]
    m.append([1] * (n + 1))
    sign = _eliminate(m, n)
    if not sign:
        return 0, None
    return sign * m[n - 1][n - 1], sign * m[n][n]


def _eliminate(m: list, steps: int) -> int:
    """Fraction-free (Bareiss) elimination of the first ``steps`` columns
    of ``m`` in place, returning the sign of its row swaps, or 0 at once
    when some column k has no nonzero entry in rows k .. steps - 1.

    Pivot k is the first nonzero entry of column k from row k down, and
    after step k entry (i, j), i, j > k, is the minor of rows 0..k, i and
    columns 0..k, j of the swapped ``m``: pivot k is its leading
    (k + 1) x (k + 1) minor.  A row whose multiplier m_ik is 0 is only
    scaled by pivot / prev, so it is left as it is when pivot == prev.
    No checks: ``m`` must be a square list of lists of ints that the
    caller owns, with steps <= len(m).
    """
    n = len(m)
    sign = 1
    prev = 1
    for k in range(steps):
        mk = m[k]
        if mk[k] == 0:
            for r in range(k + 1, steps):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], mk
                    mk = m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = mk[k]
        for i in range(k + 1, n):
            mi = m[i]
            mik = mi[k]
            if mik:
                for j in range(k + 1, n):
                    mi[j] = (mi[j] * pivot - mik * mk[j]) // prev
            elif pivot != prev:
                for j in range(k + 1, n):
                    mi[j] = mi[j] * pivot // prev
        prev = pivot
    return sign


def adjugate_exact(rows: Sequence[Sequence[int]]) -> tuple:
    """Exact ``(det, adj)`` of an invertible integer matrix: adj = det A^{-1}.
    Refuses a non-square matrix or a non-int entry with ValueError, then
    runs the unchecked kernel :func:`_adjugate`."""
    _integer_dimension(rows)
    return _adjugate(rows)


def _adjugate(rows: Sequence[Sequence[int]]) -> tuple:
    """:func:`adjugate_exact` with no checks: ``rows`` must be a non-empty
    square matrix of ints, and is not changed.

    Fraction-free Gauss-Jordan on [A | I], kept in one n x n array: every
    entry stays an integer minor of the augmented matrix, so every division
    is exact.  After step k, with pivot p_k, the left half's column k is
    p_k e_k and each right-half column j > k is still p_k e_j, so only n of
    the 2n columns carry information.  Step k stores the right half's column
    k in the slot its left column k frees: the previous pivot in the pivot
    row, -a_ik in every other row i.  A row swap acts on whole rows of the
    array, so elimination runs on P A, P the permutation of the swaps, and
    the array R ends as p (P A)^{-1} with p = det(P A).  Then det A = s p
    and adj A = s R P, a permutation of R's columns, with s = -1 per swap.
    A row whose multiplier is 0 is only scaled by p_k / p_{k-1}, as in
    :func:`_eliminate`.  Raises :class:`SingularMatrixError` when some
    column has no pivot (det = 0).
    """
    n = len(rows)
    m = [list(r) for r in rows]
    perm = list(range(n))  # row i of the array eliminates row perm[i] of A
    sign = 1
    prev = 1
    for k in range(n):
        mk = m[k]
        if mk[k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], mk
                    perm[k], perm[r] = perm[r], perm[k]
                    sign = -sign
                    mk = m[k]
                    break
            else:
                raise SingularMatrixError("matrix is singular, adjugate not formed")
        pivot = mk[k]
        for i in range(n):
            if i != k:
                mi = m[i]
                mik = mi[k]
                if mik:
                    # Slot k comes out 0 here and takes -mik below.
                    mi = m[i] = [(x * pivot - mik * y) // prev for x, y in zip(mi, mk)]
                    mi[k] = -mik
                elif pivot != prev:  # slot k is 0 and stays 0
                    m[i] = [x * pivot // prev for x in mi]
        mk[k] = prev
        prev = pivot
    if perm == sorted(perm):  # no row was swapped
        return prev, m
    # Column perm[c] of adj(A) is sign times column c of the array.
    place = [0] * n
    for c, r in enumerate(perm):
        place[r] = c
    return sign * prev, [[sign * row[c] for c in place] for row in m]


def inverse_sum_via_determinant(rows: Sequence[Sequence[int]]) -> Fraction:
    """Entry sum of the inverse, (det(A + J) - det A) / det A with J the
    all-ones matrix (the matrix determinant lemma), from one bordered
    elimination, :func:`_det_pair`; A + J is never formed.

    Raises :class:`SingularMatrixError` when det(A) = 0.
    """
    _integer_dimension(rows)
    d, d_plus = _det_pair(rows)
    if d == 0:
        raise SingularMatrixError("matrix is singular (determinant 0), inverse sum undefined")
    return Fraction(d_plus - d, d)
