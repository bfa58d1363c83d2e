"""Output checks for the benchmark, independent of fibsum's arithmetic.

Every number the program reports is recomputed here with code that shares
nothing with the package: Fibonacci numbers by a plain loop, inverse entry
sums by exact Gaussian elimination over Fractions (solving A x = 1, so the
sum is 1^T x), determinants by the same elimination, and the triangular
per-sum counts by a dynamic programme over inverse row sums instead of a
scan over matrices.

Each ``check_*`` function takes the command's exit code and its parsed JSON
and returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# OEIS A055165: number of invertible n x n (0,1) matrices over the rationals.
INVERTIBLE_01 = {1: 1, 2: 6, 3: 174, 4: 22560, 5: 12514320}

VERIFY_CHECK_NAMES = frozenset({
    "theorem-range",
    "lemma1-identities", "corollary3-identity", "corollary4-identity",
    "pattern-predicted-inverse", "pattern-sum-parity", "small-extremal-sums",
    "known-7x7-records", "determinant-formula", "singular-rejected",
    "gsampling-interval", "gsampling-endpoints",
})


def fibonacci(k: int) -> int:
    """F_k with F_1 = F_2 = 1."""
    a, b = 1, 1
    for _ in range(k - 1):
        a, b = b, a + b
    return a


def _eliminate(rows):
    """Row-reduce [A | 1] over Fractions.

    Returns (determinant, x) with A x = 1, or (0, None) when A is singular.
    """
    n = len(rows)
    m = [[Fraction(v) for v in row] + [Fraction(1)] for row in rows]
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0), None
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        s = m[r][n] - sum(m[r][k] * x[k] for k in range(r + 1, n))
        x[r] = s / m[r][r]
    return det, x


def inverse_sum(rows):
    """Sum of the entries of rows^-1, or None when the matrix is singular."""
    _, x = _eliminate(rows)
    return None if x is None else sum(x)


def determinant(rows) -> Fraction:
    return _eliminate(rows)[0]


def tri_word(rows) -> int:
    """Packed word of a unit upper triangular matrix: cell (0,1) is bit 0,
    then the strictly upper cells in row-major order."""
    n = len(rows)
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return sum(rows[i][j] << k for k, (i, j) in enumerate(cells))


def tri_rows(n: int, word: int):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for k, (i, j) in enumerate(cells):
        rows[i][j] = (word >> k) & 1
    return rows


def gen_word(rows) -> int:
    """Packed word of a general matrix: cell (i, j) is bit i*n + j."""
    n = len(rows)
    return sum(rows[i][j] << (i * n + j) for i in range(n) for j in range(n))


def triangular_counts(n: int) -> dict:
    """Per-sum counts over all (0,1) unit upper triangular n x n matrices.

    For A u = 1 the inverse row sums satisfy u_i = 1 - sum of u_j over the
    ones in row i, and S(A^-1) = sum u_i.  Rows are added from the bottom;
    the rest of the count depends only on the multiset of u's so far, so
    states are sorted tuples weighted by the number of matrices reaching
    them.
    """
    states = {(1,): 1}
    for _ in range(n - 1):
        grown = {}
        for state, weight in states.items():
            subset_sums = {0: 1}
            for u in state:
                nxt = dict(subset_sums)
                for s, c in subset_sums.items():
                    nxt[s + u] = nxt.get(s + u, 0) + c
                subset_sums = nxt
            for s, c in subset_sums.items():
                key = tuple(sorted(state + (1 - s,)))
                grown[key] = grown.get(key, 0) + weight * c
        states = grown
    counts = {}
    for state, weight in states.items():
        s = sum(state)
        counts[s] = counts.get(s, 0) + weight
    return counts


def _is_01(rows, n: int) -> bool:
    return (len(rows) == n and all(len(r) == n for r in rows)
            and all(v in (0, 1) and type(v) is int for r in rows for v in r))


def _distribution(out: dict, family: str, n: int, problems: list) -> dict:
    """Shared shape checks; returns {exact sum: (key, count)}."""
    if out.get("family") != family or out.get("n") != n:
        problems.append(f"expected family {family} n {n}, got "
                        f"{out.get('family')} {out.get('n')}")
    counts = {}
    for key, c in out["counts"].items():
        if type(c) is not int or c < 1:
            problems.append(f"count for {key} is not a positive integer: {c!r}")
        counts[Fraction(key)] = (key, c)
    achieved = [Fraction(str(a)) for a in out["achieved"]]
    if achieved != sorted(counts):
        problems.append("achieved list differs from the sorted count keys")
    if counts and (Fraction(str(out["min"])) != min(counts)
                   or Fraction(str(out["max"])) != max(counts)):
        problems.append("min/max differ from the count keys")
    if set(out["witnesses"]) != set(out["counts"]):
        problems.append("witness keys differ from count keys")
    return counts


def check_triangular(n: int):
    def check(rc: int, out: dict) -> list:
        problems = [] if rc == 0 else [f"exit code {rc}"]
        dist = _distribution(out, "triangular", n, problems)
        total = sum(c for _, c in dist.values())
        if total != 1 << (n * (n - 1) // 2):
            problems.append(f"total {total} != 2^{n * (n - 1) // 2}")
        bound = fibonacci(n - 1)
        if set(dist) != set(range(2 - bound, 3 + bound)):
            problems.append(f"achieved set is not [{2 - bound}, {2 + bound}]")
        expected = triangular_counts(n)
        got = {s: c for s, (_, c) in dist.items()}
        if got != expected:
            bad = sorted(s for s in set(got) | set(expected)
                         if got.get(s) != expected.get(s))
            problems.append(f"counts differ from the recursion at sums {bad}")
        smallest = {}
        if n <= 5:
            for word in range(1 << (n * (n - 1) // 2)):
                s = inverse_sum(tri_rows(n, word))
                smallest.setdefault(s, word)
        for s, (key, _) in dist.items():
            rows = out["witnesses"][key]
            if not _is_01(rows, n) or tri_rows(n, tri_word(rows)) != rows:
                problems.append(f"witness for {key} is not unit upper triangular (0,1)")
                continue
            if inverse_sum(rows) != s:
                problems.append(f"witness for {key} has inverse sum {inverse_sum(rows)}")
            if n <= 5 and tri_word(rows) != smallest.get(s):
                problems.append(f"witness for {key} is word {tri_word(rows)}, "
                                f"smallest is {smallest.get(s)}")
        return problems
    return check


def check_general(n: int):
    def check(rc: int, out: dict) -> list:
        problems = [] if rc == 0 else [f"exit code {rc}"]
        dist = _distribution(out, "general", n, problems)
        total = sum(c for _, c in dist.values())
        if total != INVERTIBLE_01[n]:
            problems.append(f"invertible total {total} != {INVERTIBLE_01[n]}")
        perms = math.factorial(n)
        for s, (key, c) in dist.items():
            if c % perms:
                problems.append(f"count {c} for {key} not divisible by {n}!")
            rows = out["witnesses"][key]
            if not _is_01(rows, n):
                problems.append(f"witness for {key} is not an n x n (0,1) matrix")
                continue
            got = inverse_sum(rows)
            if got != s:
                problems.append(f"witness for {key} has inverse sum {got}")
            word = gen_word(rows)
            least = min(gen_word(p) for p in itertools.permutations(rows))
            if word != least:
                problems.append(f"witness for {key} is word {word}, a row "
                                f"permutation gives {least}")
        return problems
    return check


def _better(direction: str, a, b) -> bool:
    return a > b if direction == "max" else a < b


def check_search(n: int, direction: str, restarts: int, max_steps: int, seed: int):
    def check(rc: int, out: dict) -> list:
        problems = [] if rc == 0 else [f"exit code {rc}"]
        echo = {"n": n, "direction": direction, "restarts": restarts,
                "max_steps": max_steps, "seed": seed}
        for k, v in echo.items():
            if out.get(k) != v:
                problems.append(f"{k} echoed as {out.get(k)!r}, asked {v!r}")
        if out["restarts_used"] != restarts:
            problems.append(f"restarts_used {out['restarts_used']} != {restarts}")
        rows = out["matrix"]
        if not _is_01(rows, n):
            return problems + ["best matrix is not an n x n (0,1) matrix"]
        best = Fraction(str(out["best_sum"]))
        got = inverse_sum(rows)
        if got != best:
            problems.append(f"best_sum {best} but the matrix has inverse sum {got}")
        # steps_taken counts accepted flips over all restarts, so below
        # max_steps no restart can have stopped on its step budget and the
        # best matrix must be a local optimum.
        if got is not None and out["steps_taken"] < max_steps:
            for i, j in itertools.product(range(n), repeat=2):
                flipped = [list(r) for r in rows]
                flipped[i][j] ^= 1
                s = inverse_sum(flipped)
                if s is not None and _better(direction, s, got):
                    problems.append(f"flipping ({i},{j}) improves {got} to {s}")
                    break
        return problems
    return check


def check_w(n: int):
    def check(rc: int, out: dict) -> list:
        problems = [] if rc == 0 else [f"exit code {rc}"]
        dist = _distribution(out, "w-determinant", n, problems)
        bound = fibonacci(n - 1)
        if set(dist) != set(range(3 - bound, 4 + bound)):
            problems.append(f"achieved set is not [{3 - bound}, {3 + bound}]")
        total = sum(c for _, c in dist.values())
        if total != 1 << (n * (n - 1) // 2):
            problems.append(f"total {total} != 2^{n * (n - 1) // 2}")
        # W = L + J with L unit lower triangular, and det(L + J) = 1 + S(L^-1).
        shifted = {s + 1: c for s, c in triangular_counts(n).items()}
        got = {d: c for d, (_, c) in dist.items()}
        if got != shifted:
            problems.append("counts differ from the triangular counts shifted by +1")
        for d, (key, _) in dist.items():
            rows = out["witnesses"][key]
            shape = len(rows) == n and all(len(r) == n for r in rows)
            pattern = shape and all(
                rows[i][j] == (2 if i == j else 1) if i <= j else rows[i][j] in (1, 2)
                for i in range(n) for j in range(n))
            if not pattern:
                problems.append(f"witness for {key} is not a (1,2) family member")
            elif determinant(rows) != d:
                problems.append(f"witness for {key} has determinant {determinant(rows)}")
        return problems
    return check


def check_verify(samples: int, count: int, bound: int, seed: int):
    def check(rc: int, out: dict) -> list:
        problems = [] if rc == 0 else [f"exit code {rc}"]
        checks = {c["name"]: c for c in out["checks"]}
        if len(checks) != len(out["checks"]):
            problems.append("a check name is repeated")
        if set(checks) != VERIFY_CHECK_NAMES:
            missing = sorted(VERIFY_CHECK_NAMES - set(checks))
            extra = sorted(set(checks) - VERIFY_CHECK_NAMES)
            problems.append(f"checks missing {missing}, unexpected {extra}")
        failed = sorted(name for name, c in checks.items() if c["pass"] is not True)
        if failed:
            problems.append(f"checks failed: {failed}")
        if (out["suite"], out["passed"], out["failed"]) != ("all", len(VERIFY_CHECK_NAMES), 0):
            problems.append(f"summary {out['suite']} {out['passed']} passed "
                            f"{out['failed']} failed")
        expected_params = {
            "theorem-range": {"n": 7},
            "determinant-formula": {"count": count, "max_n": 10, "seed": seed},
            "gsampling-interval": {"n": "3..8", "samples": samples,
                                   "bound": bound, "seed": seed},
        }
        for name, params in expected_params.items():
            got = checks.get(name, {}).get("parameters")
            if got != params:
                problems.append(f"{name} parameters {got}, asked {params}")
        return problems
    return check
