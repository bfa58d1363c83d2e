"""Independent brute-force oracles, deliberately naive.

These share no code path with the library: determinants by recursive
cofactor expansion, inverses through the adjugate. Slow, only for small
matrices inside tests.  The one exception is the two-determinant hill
climb, a replaced library kernel kept as the reference for its successor.
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
