"""Independent brute-force oracles, deliberately naive.

These share no code path with the library: determinants by recursive
cofactor expansion, inverses through the adjugate. Slow, only for small
matrices inside tests.  The exceptions are replaced library kernels kept
as the references for their successors: the augmented Gauss-Jordan
adjugate, the two-determinant hill climb, the Gray-code triangular scan,
the column-sum triangular DP, the per-word Bareiss scan of the (1,2)
family, the exhaustive walk of the largest inverse column sums, the
relaxation sampler and its comparison validator, the recursive
dominant-matrix builder, the frontier growth of the band partition and the
signed Fibonacci representations that placed the any-sum constructor's
column pairs.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from fibsum.fibonacci import fib
from fibsum.linalg import InvariantError, Triangular01


def det_cofactor(rows):
    n = len(rows)
    if n == 0:
        return 1  # the empty product, so 1x1 cofactors come out right
    if n == 1:
        return rows[0][0]
    total = 0
    rest = rows[1:]
    sign = 1
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rest]
            total += sign * rows[0][j] * det_cofactor(minor)
        sign = -sign
    return total


def invert_adjugate(rows):
    n = len(rows)
    d = det_cofactor(rows)
    if d == 0:
        raise ZeroDivisionError("singular matrix")
    inv = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i]
            cof = (-1) ** (i + j) * det_cofactor(minor)
            inv[j][i] = Fraction(cof, d)
    return inv


def adjugate_augmented(rows):
    """``(det, adj)`` by fraction-free Gauss-Jordan on the n x 2n array
    [A | I], raising ValueError when some column has no pivot.

    The library's adjugate before it moved to an n x n array; kept as the
    reference for ``fibsum.linalg.adjugate_exact`` at small n.  Every entry
    stays an integer minor of the augmented matrix, so every division is
    exact.  Row swaps act on both halves, and when elimination ends the left
    half is p I and the right half is p A^{-1}, with p = +/-det.
    """
    n = len(rows)
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
                raise ValueError("matrix is singular, adjugate not formed")
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


def matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def hill_climb_two_determinants(config):
    """The general-family hill climb that scores each candidate flip with
    two fresh Bareiss determinants, det(A) and det(A + J).

    Kept as the slow reference for the rank-one climber in
    ``fibsum.search``: same seeded draws, same per-step shuffle, same
    first-strict-improvement rule, so both must return equal results.
    """
    from fibsum.linalg import determinant_exact
    from fibsum.search import SearchResult

    def objective(rows):
        d = determinant_exact(rows)
        if d == 0:
            return None
        shifted = [[x + 1 for x in r] for r in rows]
        return Fraction(determinant_exact(shifted) - d, d)

    n = config.n
    sgn = 1 if config.direction == "max" else -1
    best_rows = None
    best = None
    steps_total = 0
    restarts_run = 0
    for r in range(config.restarts):
        rng = random.Random((config.seed << 20) ^ r)
        restarts_run += 1
        rows = None
        for _ in range(200):
            cand = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            if determinant_exact(cand) != 0:
                rows = cand
                break
        if rows is None:
            continue
        current = objective(rows)
        for _ in range(config.max_steps):
            improved = False
            order = list(range(n * n))
            rng.shuffle(order)
            for b in order:
                i, j = divmod(b, n)
                rows[i][j] ^= 1
                value = objective(rows)
                if value is not None and sgn * (value - current) > 0:
                    current = value
                    improved = True
                    steps_total += 1
                    break
                rows[i][j] ^= 1
            if not improved:
                break
        if best is None or sgn * (current - best) > 0:
            best = current
            best_rows = [list(row) for row in rows]
    verified = objective(best_rows)
    return SearchResult(tuple(tuple(row) for row in best_rows), verified,
                        steps_total, restarts_run)


def scan_triangular_gray(n):
    """Scan every packed mask and tally inverse entry sums.

    Row r of the matrix owns a contiguous block of mask bits (row 0 lowest),
    so fixing rows n-2 .. 1 from the most significant block downward visits
    masks in numeric order.  The inverse row sums u_i = 1 - sum of u_j over
    the ones in row i (j > i) are maintained incrementally; the innermost
    row-0 block is walked in Gray-code order so each leaf costs O(1).
    """
    from fibsum.search import SumDistribution

    dist = SumDistribution("triangular", n)
    counts = dist.counts
    wit = dist.witness_words
    if n == 1:
        counts[1] = 1
        wit[1] = 0
        return dist
    row_off = [0] * n
    for r in range(1, n):
        row_off[r] = row_off[r - 1] + (n - r)
    u = [0] * n
    u[n - 1] = 1
    leaf_bits = n - 1

    def full(r, base, psum):
        if r == 0:
            # Hot loop: dict operations written out with local aliases.
            cget = counts.get
            wget = wit.get
            gray = 0
            tsum = 0
            s = psum + 1
            counts[s] = cget(s, 0) + 1
            w = wget(s)
            if w is None or base < w:
                wit[s] = base
            for i in range(1, 1 << leaf_bits):
                t = (i & -i).bit_length() - 1
                gray ^= 1 << t
                if (gray >> t) & 1:
                    tsum += u[1 + t]
                else:
                    tsum -= u[1 + t]
                s = psum + 1 - tsum
                m = base | gray
                counts[s] = cget(s, 0) + 1
                w = wget(s)
                if w is None or m < w:
                    wit[s] = m
            return
        off = row_off[r]
        for v in range(1 << (n - 1 - r)):
            s = 1
            vv = v
            while vv:
                t = (vv & -vv).bit_length() - 1
                s -= u[r + 1 + t]
                vv &= vv - 1
            u[r] = s
            full(r - 1, base | (v << off), psum + s)

    full(n - 2, 0, 1)
    return dist


def _subset_sums(values):
    """Subset sum -> [number of subsets, smallest mask], bit t for values[t]."""
    sums = [0]
    for x in values:
        sums += [s + x for s in sums]
    out = {}
    for mask, s in enumerate(sums):
        if s in out:
            out[s][0] += 1
        else:
            out[s] = [1, mask]
    return out


def _column_places(n, j):
    """places[v]: the word bits of the cells (i, j) for the rows i in mask v.
    Cell (i, j) of the row-major word is bit i(n-1) - i(i-1)/2 + j - i - 1:
    rows 0..i-1 hold (n-1) + (n-2) + ... + (n-i) cells before row i's."""
    places = [0]
    for i in range(j):
        bit = 1 << (i * (n - 1) - i * (i - 1) // 2 + j - i - 1)
        places += [p | bit for p in places]
    return places


def enumerate_triangular_by_columns(n):
    """The triangular distribution from the inverse column-sum DP, left to
    right.  A choice v of column j's cells gives w_j = 1 - (sum of w_t over
    the bits t of v), so the columns after j see only (w_0, ..., w_j).  The
    cells of a column are scattered over the word, but their bits increase
    down the column, so the smallest mask of a subset sum is its smallest
    placed word; the last column folds into the sums."""
    from fibsum.search import SumDistribution

    dist = SumDistribution("triangular", n)
    counts = dist.counts
    wit = dist.witness_words
    states = {(1,): [1, 0]}
    for j in range(1, n - 1):
        places = _column_places(n, j)
        nxt = {}
        for tup, (count, prefix) in states.items():
            for s, (mult, v) in _subset_sums(tup).items():
                nxt[tup + (1 - s,)] = [count * mult, prefix | places[v]]
        states = nxt
    places = _column_places(n, n - 1)
    for tup, (count, prefix) in states.items():
        base = 1 + sum(tup)
        for ss, (mult, v) in _subset_sums(tup).items():
            s = base - ss
            counts[s] = counts.get(s, 0) + count * mult
            w = prefix | places[v]
            if s not in wit or w < wit[s]:
                wit[s] = w
    return dist


def max_abs_row_sum_vector_exhaustive(n: int) -> tuple:
    """Coordinate-wise maximum of |column sums of the inverse| over the
    whole triangular family, computed exhaustively (n <= TRIANGULAR_MAX_N).

    The library's walk before it moved to the (P, N) frontier; kept as the
    reference for ``fibsum.search.max_abs_row_sum_vector`` at n <= 9.
    The row sums of (A^T)^{-1} = (A^{-1})^T are the column sums of A^{-1},
    so coordinate k < n-1 is the largest |new sum| at level k of the lower
    row walk.  The last, 1 - s for a subset sum s of a state, is extreme at
    the sums of the state's negative and of its positive entries.
    """
    from fibsum.search import TRIANGULAR_MAX_N, _row_sum_levels

    if not 1 <= n <= TRIANGULAR_MAX_N:
        raise ValueError(f"n={n} out of supported range 1..{TRIANGULAR_MAX_N}")
    maxima = [1]
    states = {(1,): None}
    for states in _row_sum_levels(n, False):
        maxima.append(max(abs(tup[-1]) for tup in states))
    maxima.append(max(max(1 - sum(x for x in tup if x < 0),
                          sum(x for x in tup if x > 0) - 1) for tup in states))
    return tuple(maxima[:n])  # n = 1 has no column after w_0


def w_determinants_bareiss(n):
    """The (1,2) determinant distribution by one fraction-free determinant
    per word.  Word bit k adds 1 to the k-th cell below the diagonal, the
    cells taken row by row; words ascend, so the first is the witness."""
    from fibsum.linalg import determinant_exact
    from fibsum.search import SumDistribution

    dist = SumDistribution("w-determinant", n)
    counts = dist.counts
    wit = dist.witness_words
    cells = [(i, j) for i in range(n) for j in range(i)]
    for word in range(1 << len(cells)):
        rows = [[2 if j == i else 1 for j in range(n)] for i in range(n)]
        for k, (i, j) in enumerate(cells):
            rows[i][j] += (word >> k) & 1
        d = determinant_exact(rows)
        counts[d] = counts.get(d, 0) + 1
        wit.setdefault(d, word)
    return dist


def sample_g_rows(n, seed, bound):
    """A seeded relaxation sample as rows of Fractions, drawn as the first
    sampler drew them: per strictly upper cell in row-major order,
    q = randint(1, bound) then p = randint(0, q).  Pins the seeded stream
    of ``relaxation_columns``."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j < i:
                row.append(Fraction(0))
            elif j == i:
                row.append(Fraction(1))
            else:
                q = rng.randint(1, bound)
                p = rng.randint(0, q)
                row.append(Fraction(p, q))
        rows.append(tuple(row))
    return tuple(rows)


def dominant_rows_recursive(n):
    """The dominant-vector matrix's rows as its first builder made them:
    the (n-2) x (n-2) core recursively, then the last two columns from the
    core's inverse column sums in two parity branches.  The reference for
    the closed form in ``fibsum.construct``."""
    from fibsum.linalg import InvariantError, identity, inverse_column_sums

    if n == 1:
        return [[1]]
    if n == 2:
        # The identity: its inverse column sums are (1, 1), the coordinate-wise
        # maximum over both 2x2 members of the family.
        return identity(2)
    m = n - 2
    core = dominant_rows_recursive(m)
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


def band_of_frontier(n, l):
    """The band partition's ``band_of`` as its first builder grew it: the top
    band is the first two rows of the last l columns, band i takes the cells
    one step left of or below band i+1 not yet taken, and S_0 the rest.  The
    reference for the closed form in ``fibsum.construct``."""
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
    return band


def fib_prefix_sum(m: int) -> int:
    """F_1 + F_2 + ... + F_m (0 for m <= 0)."""
    if m <= 0:
        return 0
    return sum(fib(k) for k in range(1, m + 1))


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


def construct_with_sum_by_representation(n, target_sum):
    """``construct_with_sum(n, target_sum)`` as it was first placed: the
    recursive dominant core, then one column pair per coefficient of the
    one-sided signed Fibonacci representation of ``target_sum`` - 2, with
    the sign of the core's column sum folded in.  The reference for the
    greedy pass over the core's column sums in ``fibsum.construct``."""
    from fibsum.linalg import inverse_column_sums

    m = n - 2
    core = dominant_rows_recursive(m)
    c = inverse_column_sums(core)
    coeffs = signed_representation(target_sum - 2, n).coeffs
    rows = [[0] * n for _ in range(n)]
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
    rows[n - 2][n - 2] = 1
    rows[n - 1][n - 1] = 1
    return Triangular01.from_rows(rows)
