"""Independent brute-force oracles, deliberately naive.

These share no code path with the library: determinants by recursive
cofactor expansion, inverses through the adjugate. Slow, only for small
matrices inside tests.  The exceptions are replaced library kernels kept
as the references for their successors: the two-determinant hill climb,
the Gray-code triangular scan, the ordered row-sum triangular DP, the
per-word Bareiss scan of the (1,2) family, and the relaxation sampler and
its comparison validator.
"""

import random
from fractions import Fraction


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
    from fibsum.linalg import determinant_exact, inverse_sum_via_determinant
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
    verified = inverse_sum_via_determinant(best_rows)
    return SearchResult(tuple(tuple(row) for row in best_rows), verified,
                        steps_total, restarts_run)


def scan_triangular_range(n, lo, hi):
    """Scan packed masks in [lo, hi) and tally inverse entry sums.

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
    if lo >= hi:
        return dist
    row_off = [0] * n
    for r in range(1, n):
        row_off[r] = row_off[r - 1] + (n - r)
    u = [0] * n
    u[n - 1] = 1
    leaf_bits = n - 1

    def bump(s, m):
        counts[s] = counts.get(s, 0) + 1
        if s not in wit or m < wit[s]:
            wit[s] = m

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

    def ranged(r, base, psum):
        if r == 0:
            for m in range(max(lo, base), min(hi, base + (1 << leaf_bits))):
                vv = m - base
                s = 1
                while vv:
                    t = (vv & -vv).bit_length() - 1
                    s -= u[1 + t]
                    vv &= vv - 1
                bump(psum + s, m)
            return
        off = row_off[r]
        step = 1 << off
        for v in range(1 << (n - 1 - r)):
            sub_lo = base | (v << off)
            sub_hi = sub_lo + step
            if sub_hi <= lo or sub_lo >= hi:
                continue
            s = 1
            vv = v
            while vv:
                t = (vv & -vv).bit_length() - 1
                s -= u[r + 1 + t]
                vv &= vv - 1
            u[r] = s
            if lo <= sub_lo and sub_hi <= hi:
                full(r - 1, sub_lo, psum + s)
            else:
                ranged(r - 1, sub_lo, psum + s)

    if n == 1:
        bump(1, 0)
        return dist
    ranged(max(n - 2, 0), 0, 1)
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


def row_sum_levels(n):
    """Walk the triangular family's inverse row sums from the bottom row up.

    For r = n-1 down to 1, yield the states after rows n-1 .. r are fixed: a
    dict from the ordered tuple (u_r, ..., u_{n-1}) to [number of choices of
    those rows, smallest packed prefix word].  Row r owns the mask bits from
    its offset upward (row 0 lowest, as in ``Triangular01``), and a row
    choice v gives u_r = 1 - (sum of u_{r+1+t} over the bits t of v).
    """
    states = {(): [1, 0]}
    for r in range(n - 1, 0, -1):
        off = r * (n - 1) - r * (r - 1) // 2
        nxt = {}
        for tup, (count, prefix) in states.items():
            for s, (mult, v) in _subset_sums(tup).items():
                nxt[(1 - s,) + tup] = [count * mult, prefix | (v << off)]
        states = nxt
        yield states


def enumerate_triangular_by_rows(n):
    """The triangular distribution from the ordered row-sum DP: row 0, the
    least significant block, folds from the last states, its choice v giving
    the sum 1 + sum(state) - subsetsum(v) and the word prefix | v.  Higher
    rows hold the more significant bits, so the witnesses are exact."""
    from fibsum.search import SumDistribution

    dist = SumDistribution("triangular", n)
    counts = dist.counts
    wit = dist.witness_words
    for states in row_sum_levels(n):
        pass
    for tup, (count, prefix) in states.items():
        base = 1 + sum(tup)
        for ss, (mult, v) in _subset_sums(tup).items():
            s = base - ss
            counts[s] = counts.get(s, 0) + count * mult
            w = prefix | v
            if s not in wit or w < wit[s]:
                wit[s] = w
    return dist


def w_determinants_bareiss(n):
    """The (1,2) determinant distribution by one fraction-free determinant
    per word.  Word bit k adds 1 to the k-th cell below the diagonal, the
    cells taken row by row; words ascend, so the first is the witness."""
    from fibsum.linalg import _bareiss
    from fibsum.search import SumDistribution

    dist = SumDistribution("w-determinant", n)
    counts = dist.counts
    wit = dist.witness_words
    cells = [(i, j) for i in range(n) for j in range(i)]
    for word in range(1 << len(cells)):
        rows = [[2 if j == i else 1 for j in range(n)] for i in range(n)]
        for k, (i, j) in enumerate(cells):
            rows[i][j] += (word >> k) & 1
        d = _bareiss(rows)
        counts[d] = counts.get(d, 0) + 1
        wit.setdefault(d, word)
    return dist


def sample_g_rows(n, seed, bound):
    """The rows of ``sample_g_matrix(n, seed, bound)`` as its first version
    drew them: per strictly upper cell in row-major order, q = randint(1,
    bound) then p = randint(0, q).  Pins the seeded stream."""
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


def g_matrix_valid(rows):
    """Whether ``GMatrix`` validation as first written, by comparisons of
    the entries with 0 and 1, accepts ``rows``."""
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        return False
    for i in range(n):
        for j in range(n):
            v = rows[i][j]
            if j == i and v != 1:
                return False
            if j < i and v != 0:
                return False
            if j > i and not 0 <= v <= 1:
                return False
    return True
