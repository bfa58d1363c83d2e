"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  The whole suite is exact arithmetic end to end and
takes about half a minute, most of it criterion 8, whose time is split about
evenly between building the 21 906 (1,2) matrices (mostly their entry checks
and the triangular packing, not arithmetic) and their Bareiss determinants.
"""

import random
import time
from fractions import Fraction
from math import lcm

from fibsum.construct import (construct_w_matrix, construct_with_sum,
                              dominant_matrix, extremal_pattern_matrix,
                              relaxation_columns, small_extremal)
from fibsum.fibonacci import (check_corollary3, check_corollary4,
                              check_lemma1, fib)
from fibsum.linalg import (SingularMatrixError, Triangular01,
                           column_block_sum_pairs, determinant_exact, entry_sum,
                           invert_unit_triangular, inverse_column_sums,
                           inverse_sum_via_determinant)
from fibsum.search import (KNOWN_GENERAL_MAX_7X7, KNOWN_GENERAL_MIN_7X7,
                           SearchConfig, enumerate_general,
                           enumerate_triangular, enumerate_w_determinants,
                           hill_climb_general, max_abs_row_sum_vector)

from fixtures import (BANDED_9_L2, BANDED_9_L2_INVERSE, BANDED_9_L3,
                      BANDED_9_L3_INVERSE)
from oracles import max_abs_row_sum_vector_exhaustive


def _report(criterion, description, ok, detail=""):
    line = f"ACCEPTANCE {criterion:>2} {'PASS' if ok else 'FAIL'} {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _inverse_entry_sum(rows):
    """1^T A^{-1} 1 for unit upper triangular A, as the sum of the x with
    A x = 1, solved by back substitution from the last row up."""
    n = len(rows)
    x = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        x[i] = 1 - sum(row[j] * x[j] for j in range(i + 1, n))
    return sum(x)


def _fraction_rows(columns):
    """The unit upper triangular matrix whose strictly upper entries are
    given column by column as pairs ``columns[j][i] == (p, q)``."""
    n = len(columns)
    return [[Fraction(*columns[j][i]) if j > i else int(j == i) for j in range(n)]
            for i in range(n)]


def _scaled_inverse_entry_sum(columns, scale):
    """``(t, scale^(n-1))`` with t / scale^(n-1) = 1^T A^{-1} 1, for unit
    upper triangular A whose strictly upper entries a_ij = p / q are given
    column by column as pairs ``columns[j][i] == (p, q)``, every q dividing
    ``scale``.

    The back substitution of :func:`_inverse_entry_sum` in integers: with
    A_ij = scale a_ij and X_i = scale^(n-1-i) x_i,
    X_i = scale^(n-1-i) - (sum over j > i of A_ij X_j scale^(j-i-1)),
    the sum taken by Horner's rule from j = n-1 down, and
    t = sum of X_i scale^i."""
    n = len(columns)
    x = [0] * n
    for i in range(n - 1, -1, -1):
        acc = 0
        for j in range(n - 1, i, -1):
            p, q = columns[j][i]
            acc = acc * scale + p * (scale // q) * x[j]
        x[i] = scale ** (n - 1 - i) - acc
    t = 0
    for xi in reversed(x):
        t = t * scale + xi
    return t, scale ** (n - 1)


def test_criterion_01_theorem_exhaustive():
    """n = 3..7: exhaustive scan hits exactly [2 - F_{n-1}, 2 + F_{n-1}]."""
    ok = True
    details = []
    started = time.monotonic()
    for n in range(3, 8):
        low, high = 2 - fib(n - 1), 2 + fib(n - 1)
        dist = enumerate_triangular(n)
        ok &= dist.min_sum == low
        ok &= dist.max_sum == high
        ok &= dist.achieved == list(range(low, high + 1))
        ok &= dist.total == 1 << (n * (n - 1) // 2)
        details.append(f"n={n} [{low}, {high}]")
    elapsed = time.monotonic() - started
    ok &= elapsed < 60
    _report(1, "theorem range, exhaustive n=3..7", ok,
            "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_01_exhaustive_n8_n9():
    """Criterion 1 at n = 8 and 9: all 2^28 and 2^36 matrices, through the
    inverse row-sum DP; every witness inverts to its sum."""
    ok = True
    details = []
    for n in (8, 9):
        low, high = 2 - fib(n - 1), 2 + fib(n - 1)
        dist = enumerate_triangular(n)
        ok &= dist.total == 1 << (n * (n - 1) // 2)
        ok &= dist.achieved == list(range(low, high + 1))
        ok &= all(entry_sum(invert_unit_triangular(dist.witness_rows(s))) == s
                  for s in dist.achieved)
        details.append(f"n={n} [{low}, {high}]")
    _report(1, "theorem range exhaustive at n=8, 9", ok, "; ".join(details))


def test_criterion_02_constructor_round_trip():
    """Every admissible target sum round-trips exactly for n = 3..20."""
    failures = []
    targets = 0
    for n in range(3, 21):
        bound = fib(n - 1)
        for s in range(2 - bound, 2 + bound + 1):
            targets += 1
            matrix = construct_with_sum(n, s)
            if _inverse_entry_sum(matrix.rows()) != s:
                failures.append((n, s))
    _report(2, "constructor round trip n=3..20", not failures,
            f"{targets} targets" + (f", failures {failures[:5]}" if failures else ""))


def test_criterion_03_dominant_vector():
    """Dominant vector exact and unbeaten coordinate-wise for n = 1..30, by
    the (P, N) frontier; unbeaten by the exhaustive walk for n <= 7."""
    ok = True
    frontier_ok = True
    for n in range(1, 31):
        # entry 1 is 1, entry i is (-1)^i F_{i-1} for i >= 2
        expected = [1 if i == 1 else (-1) ** i * fib(i - 1) for i in range(1, n + 1)]
        if inverse_column_sums(dominant_matrix(n).rows()) != expected:
            ok = False
        if max_abs_row_sum_vector(n) != tuple(map(abs, expected)):
            frontier_ok = False
    scan_ok = True
    for n in range(2, 8):
        bound = tuple(1 if i <= 2 else fib(i - 1) for i in range(1, n + 1))
        if max_abs_row_sum_vector_exhaustive(n) != bound:
            scan_ok = False
    _report(3, "dominant vector n=1..30, unbeaten n=1..30 (frontier) "
            "and n<=7 (exhaustive)", ok and frontier_ok and scan_ok)


def test_criterion_04_banded_pattern_bit_exact():
    """The reference 9x9 pairs are reproduced bit for bit; predictions hold
    for n = 5..40 and both tail widths."""
    m2, p2 = extremal_pattern_matrix(9, 2)
    m3, p3 = extremal_pattern_matrix(9, 3)
    fixtures_ok = (m2.rows() == BANDED_9_L2 and p2 == BANDED_9_L2_INVERSE
                   and m3.rows() == BANDED_9_L3 and p3 == BANDED_9_L3_INVERSE)
    failures = []
    for n in range(5, 41):
        for l in (2, 3):
            matrix, predicted = extremal_pattern_matrix(n, l)
            actual = invert_unit_triangular(matrix.rows())
            expected_sum = 2 - fib(n - 1) if (n + l) % 2 == 0 else 2 + fib(n - 1)
            if actual != predicted or entry_sum(actual) != expected_sum:
                failures.append((n, l))
    _report(4, "banded extremal pattern, 9x9 bit-exact and n=5..40",
            fixtures_ok and not failures,
            f"failures {failures[:5]}" if failures else "")


def test_criterion_05_general_records_and_hill_climb():
    """Known 7x7 records give -7 and 11 exactly; hill climbing re-reaches
    both within the documented budget (restarts=200, max_steps=300,
    seed=20250808)."""
    fixture_min = inverse_sum_via_determinant([list(r) for r in KNOWN_GENERAL_MIN_7X7])
    fixture_max = inverse_sum_via_determinant([list(r) for r in KNOWN_GENERAL_MAX_7X7])
    fixtures_ok = (fixture_min, fixture_max) == (Fraction(-7), Fraction(11))
    budget = dict(restarts=200, max_steps=300, seed=20250808)
    low = hill_climb_general(SearchConfig(n=7, direction="min", **budget))
    high = hill_climb_general(SearchConfig(n=7, direction="max", **budget))
    climb_ok = low.best_sum <= -7 and high.best_sum >= 11
    _report(5, "7x7 records -7/11 and hill-climb rediscovery",
            fixtures_ok and climb_ok,
            f"fixtures ({fixture_min}, {fixture_max}), "
            f"climb ({low.best_sum}, {high.best_sum})")


def test_criterion_06_determinant_formula():
    """Two-determinant formula equals direct inverse sum: exhaustive n <= 5,
    10^4 random n <= 12; singular input raises."""
    mismatches = 0
    for n in range(1, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            rows = Triangular01(n, mask).rows()
            if (inverse_sum_via_determinant(rows)
                    != entry_sum(invert_unit_triangular(rows))):
                mismatches += 1
    rng = random.Random(60406)
    for _ in range(10_000):
        n = rng.randint(3, 12)
        rows = Triangular01(n, rng.getrandbits(n * (n - 1) // 2)).rows()
        if (inverse_sum_via_determinant(rows)
                != entry_sum(invert_unit_triangular(rows))):
            mismatches += 1
    try:
        inverse_sum_via_determinant([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        singular_rejected = False
    except SingularMatrixError:
        singular_rejected = True
    _report(6, "determinant formula vs direct inversion",
            mismatches == 0 and singular_rejected,
            f"{mismatches} mismatches; singular rejected: {singular_rejected}")


def test_criterion_07_identities_to_90():
    """Lemma 1 identities and both corollary identities hold for n <= 90."""
    lemma_ok = not check_lemma1(90)
    c3_ok = all(check_corollary3(n) for n in range(5, 91))
    c4_ok = all(check_corollary4(n) for n in range(6, 91))
    _report(7, "Fibonacci identities to n=90", lemma_ok and c3_ok and c4_ok)


def test_criterion_08_w_determinants():
    """Exhaustive determinant distribution matches [3 - F_{n-1}, 3 + F_{n-1}]
    for n = 3..9; the (1,2) constructor round-trips every admissible target
    for n <= 20."""
    scan_ok = True
    for n in range(3, 10):
        low, high = 3 - fib(n - 1), 3 + fib(n - 1)
        dist = enumerate_w_determinants(n)
        scan_ok &= dist.achieved == list(range(low, high + 1))
    failures = []
    for n in range(3, 21):
        bound = fib(n - 1)
        for det in range(3 - bound, 3 + bound + 1):
            w = construct_w_matrix(n, det)
            if determinant_exact(w.to_rows()) != det:
                failures.append((n, det))
    _report(8, "(1,2)-matrix determinant range and constructor", scan_ok and not failures,
            f"failures {failures[:5]}" if failures else "")


def test_criterion_09_continuous_relaxation_sampling():
    """10^4 seeded rational samples per n = 3..10 stay inside the closed
    interval; both endpoints are attained by (0,1) extremal matrices.

    A corollary of criterion 1: each entry of A^{-1} is a signed sum over
    increasing paths, each path using a cell at most once, so the inverse
    entry sum is affine in each strictly upper entry, and its extremes over
    [0, 1]^cells sit at (0,1) vertices."""
    samples_per_n = 10_000
    bound = 16
    scale = lcm(*range(1, bound + 1))
    outside = []
    mismatches = []
    for n in range(3, 11):
        low, high = 2 - fib(n - 1), 2 + fib(n - 1)
        for k in range(samples_per_n):
            columns = relaxation_columns(n, 1_000_000 * n + k, bound)
            t, den = _scaled_inverse_entry_sum(columns, scale)
            # The library's column kernel agrees on every sample, and the
            # first 125 samples of each n, 1 000 in all, also take the
            # Fraction back substitution.
            num, e = column_block_sum_pairs(columns)[-1]
            agree = num * den == t * e
            if agree and k < 125:
                agree = Fraction(t, den) == _inverse_entry_sum(_fraction_rows(columns))
            if not agree:
                mismatches.append((n, k))
            if not low * den <= t <= high * den:
                outside.append((n, k, Fraction(t, den)))
    endpoints_ok = True
    for n in range(3, 11):
        if n <= 4:
            mats = [small_extremal(n, "minimizing"), small_extremal(n, "maximizing")]
        else:
            mats = [extremal_pattern_matrix(n, l)[0] for l in (2, 3)]
        sums = sorted(entry_sum(invert_unit_triangular(m.rows())) for m in mats)
        if sums != [2 - fib(n - 1), 2 + fib(n - 1)]:
            endpoints_ok = False
    _report(9, "relaxation sampling inside closed interval, endpoints attained",
            not outside and not mismatches and endpoints_ok,
            f"{8 * samples_per_n} samples" + (f", outside {outside[:3]}" if outside else "")
            + (f", exact sums differ at {mismatches[:3]}"
               if mismatches else ""))


def test_criterion_10_general_scan_matches_triangular():
    """Exhaustive general scans at n = 3, 4, 5 reproduce the triangular
    extremes.  n = 6 (2^36 states) is out of desk scale and excluded."""
    ok = True
    details = []
    for n in (3, 4, 5):
        started = time.monotonic()
        dist = enumerate_general(n)
        low, high = 2 - fib(n - 1), 2 + fib(n - 1)
        ok &= dist.min_sum == Fraction(low)
        ok &= dist.max_sum == Fraction(high)
        # every triangular matrix is a general matrix, so the whole integer
        # interval must appear among the general sums as well
        ok &= all(Fraction(s) in dist.counts for s in range(low, high + 1))
        details.append(f"n={n} [{low}, {high}] {time.monotonic() - started:.0f}s")
    _report(10, "general (0,1) scan extremes match triangular, n=3..5", ok,
            "; ".join(details))
