import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibsum import linalg
from fibsum.construct import relaxation_columns
from fibsum.fibonacci import fib
from fibsum.linalg import (SingularMatrixError, Triangular01, adjugate_exact,
                           column_block_sum_pairs, determinant_exact,
                           entry_sum, identity,
                           invert_unit_triangular, inverse_column_sums,
                           inverse_entry_sum, inverse_sum_via_determinant,
                           transpose)
from fibsum.search import KNOWN_GENERAL_MAX_7X7, KNOWN_GENERAL_MIN_7X7

from fixtures import BANDED_9_L2, BANDED_9_L2_INVERSE
from oracles import (adjugate_augmented, det_cofactor, invert_adjugate, matmul,
                     max_abs_row_sum_vector_exhaustive, sample_g_rows)


def intro_fibonacci_lower(n):
    """Unit lower triangular matrix with -1 on the first two subdiagonals;
    its inverse has Fibonacci columns."""
    rows = identity(n)
    for i in range(n):
        if i >= 1:
            rows[i][i - 1] = -1
        if i >= 2:
            rows[i][i - 2] = -1
    return rows


class TestInvertUnitTriangular:
    def test_identity(self):
        assert invert_unit_triangular(identity(4)) == identity(4)

    def test_banded_9x9_matches_reference_inverse(self):
        assert invert_unit_triangular(BANDED_9_L2) == BANDED_9_L2_INVERSE

    def test_fibonacci_lower_triangular(self):
        for n in range(2, 11):
            inv = invert_unit_triangular(intro_fibonacci_lower(n))
            for i in range(n):
                for j in range(n):
                    expected = fib(i - j + 1) if i >= j else 0
                    assert inv[i][j] == expected

    def test_three_by_three_hand_checked(self):
        a = [[1, 1, 1], [0, 1, 0], [0, 0, 1]]
        inv = invert_unit_triangular(a)
        assert inv == [[1, -1, -1], [0, 1, 0], [0, 0, 1]]
        assert matmul(a, inv) == identity(3)

    def test_lower_orientation_preserved(self):
        a = [[1, 0, 0], [1, 1, 0], [0, 1, 1]]
        inv = invert_unit_triangular(a)
        assert matmul(a, inv) == identity(3)
        assert all(inv[i][j] == 0 for i in range(3) for j in range(i + 1, 3))

    def test_lower_input_classified_once(self, monkeypatch):
        calls = []
        classify = linalg._classify_triangular
        monkeypatch.setattr(linalg, "_classify_triangular",
                            lambda rows: calls.append(1) or classify(rows))
        rng = random.Random(5)
        for n in (1, 2, 4, 7):
            for _ in range(5):
                upper = Triangular01(n, rng.getrandbits(n * (n - 1) // 2)).rows()
                for rows in (transpose(upper),
                             [[Fraction(x) for x in r] for r in transpose(upper)]):
                    calls.clear()
                    inv = invert_unit_triangular(rows)
                    assert len(calls) == 1
                    assert inv == invert_adjugate(rows)

    def test_result_type_follows_the_input(self):
        # Any Fraction entry, upper or lower, makes every inverse entry a
        # Fraction, the unit diagonal and the zeros included; all-int input
        # gives ints throughout.
        f = Fraction
        half = [[f(1), f(0), f(1, 2)], [f(0), f(1), f(0)], [f(0), f(0), f(1)]]
        cases = [(half, Fraction)]
        rng = random.Random(22)
        for n in (1, 2, 3, 5, 8):
            for _ in range(4):
                ints = Triangular01(n, rng.getrandbits(n * (n - 1) // 2)).rows()
                one_fraction = [r[:] for r in ints]
                i, j = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
                one_fraction[i][j] = f(one_fraction[i][j])
                cases += [(ints, int), (one_fraction, Fraction),
                          ([[f(x) for x in r] for r in ints], Fraction)]
        for rows, kind in cases:
            for oriented in (rows, transpose(rows)):
                inv = invert_unit_triangular(oriented)
                assert all(type(x) is kind for r in inv for x in r)
                assert inv == invert_adjugate(oriented)

    def test_rational_entries(self):
        a = [[1, Fraction(1, 2), Fraction(1, 3)],
             [0, 1, Fraction(2, 5)],
             [0, 0, 1]]
        inv = invert_unit_triangular(a)
        assert matmul(a, inv) == identity(3)

    def test_rejects_non_unit_diagonal(self):
        with pytest.raises(ValueError):
            invert_unit_triangular([[2, 1], [0, 1]])

    def test_rejects_non_triangular(self):
        with pytest.raises(ValueError):
            invert_unit_triangular([[1, 1], [1, 1]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            invert_unit_triangular([[1, 0, 0], [0, 1, 0]])

    @pytest.mark.parametrize("bad", [0.5, Decimal("0.5")])
    def test_refuses_non_rational_entries(self, bad):
        upper = [[1, bad, 0], [0, 1, 1], [0, 0, 1]]
        for rows in (upper, transpose(upper)):
            with pytest.raises(ValueError, match="entries must be int or Fraction"):
                invert_unit_triangular(rows)

    @pytest.mark.parametrize("bad", [Decimal("0.5"), 2.0])
    def test_entry_type_checked_before_the_diagonal(self, bad):
        # An inexact diagonal entry gets the type message from every entry
        # point, not the diagonal or shape message.
        for upper in ([[bad, 0], [0, 1]], [[bad, 1], [0, 1]]):
            for rows in (upper, transpose(upper)):
                for f in (invert_unit_triangular, inverse_column_sums,
                          inverse_entry_sum):
                    with pytest.raises(ValueError,
                                       match="^entries must be int or Fraction$"):
                        f(rows)

    def test_random_masks_exact_inverse_up_to_n50(self):
        rng = random.Random(1311)
        for n in (2, 3, 5, 8, 13, 21, 34, 50):
            for _ in range(3):
                mask = rng.getrandbits(n * (n - 1) // 2)
                rows = Triangular01(n, mask).rows()
                inv = invert_unit_triangular(rows)
                assert all(isinstance(x, int) for r in inv for x in r)
                assert matmul(rows, inv) == identity(n)


class TestEntrySum:
    def test_identity(self):
        for n in (1, 2, 5, 9):
            assert entry_sum(identity(n)) == n

    def test_minimizing_3x3(self):
        inv = invert_unit_triangular([[1, 1, 1], [0, 1, 0], [0, 0, 1]])
        assert entry_sum(inv) == 1 == 2 - fib(2)

    def test_banded_9x9_l3_sum(self):
        from fixtures import BANDED_9_L3_INVERSE
        assert entry_sum(BANDED_9_L3_INVERSE) == -19 == 2 - fib(8)

    def test_rational(self):
        assert entry_sum([[Fraction(1, 2), Fraction(1, 3)],
                          [Fraction(1, 6), 1]]) == 2


class TestRowSumVector:
    def test_one_by_one(self):
        assert inverse_column_sums(Triangular01(1, 0).rows()) == [1]

    def test_three_by_three_alternating(self):
        assert inverse_column_sums([[1, 0, 1], [0, 1, 1], [0, 0, 1]]) == [1, 1, -1]

    def test_matches_inverse_column_sums(self):
        rng = random.Random(7)
        for n in (3, 4, 6, 9):
            for _ in range(20):
                rows = Triangular01(n, rng.getrandbits(n * (n - 1) // 2)).rows()
                inv = invert_unit_triangular(rows)
                sums = inverse_column_sums(rows)
                assert sums == [sum(inv[i][j] for i in range(n)) for j in range(n)]
                assert sums[0] == 1
                # The library's inverse runs the same substitution; the
                # augmented Gauss-Jordan adjugate shares no code with it.
                det, adj = adjugate_augmented(rows)
                assert det == 1
                assert sums == [sum(r[j] for r in adj) for j in range(n)]

    def test_rational_entries_match_inverse(self):
        rng = random.Random(11)
        for n in (1, 3, 5, 8):
            rows = [[Fraction(int(i == j)) if j <= i
                     else Fraction(rng.randint(0, 7), rng.randint(1, 7))
                     for j in range(n)] for i in range(n)]
            inv = invert_unit_triangular(rows)
            cols = [sum(inv[i][j] for i in range(n)) for j in range(n)]
            assert inverse_column_sums(rows) == cols
            assert sum(inverse_column_sums(rows)) == entry_sum(inv)
            cofactor = invert_adjugate(rows)
            assert inverse_column_sums(rows) == [sum(r[j] for r in cofactor)
                                                 for j in range(n)]

    def test_any_fraction_entry_gives_all_fraction_sums(self):
        # w_0, and a w_j whose column above the diagonal holds only zero
        # Fractions, take no product in the substitution.
        half = [[Fraction(1), Fraction(0), Fraction(1, 2)],
                [Fraction(0), Fraction(1), Fraction(0)],
                [Fraction(0), Fraction(0), Fraction(1)]]
        one_fraction = [[1, 0, Fraction(1, 2)], [0, 1, 0], [0, 0, 1]]
        for rows in (half, one_fraction):
            sums = inverse_column_sums(rows)
            assert sums == [1, 1, Fraction(1, 2)]
            assert [type(w) for w in sums] == [Fraction] * 3
        sums = inverse_column_sums([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
        assert [type(w) for w in sums] == [int] * 3

    def test_helper_refuses_non_upper_triangular(self):
        for rows in ([[1, 0], [1, 1]], [[2, 0], [0, 1]], [[1, 1], [1, 1]]):
            with pytest.raises(ValueError, match="triangular"):
                inverse_column_sums(rows)

    @pytest.mark.parametrize("bad", [0.1, Decimal("0.1")])
    def test_helper_refuses_non_rational_entries(self, bad):
        upper = [[1, bad, 0.2], [0, 1, 0.3], [0, 0, 1]]
        for rows in (upper, transpose(upper)):
            with pytest.raises(ValueError, match="entries must be int or Fraction"):
                inverse_column_sums(rows)

    def test_dominance_bound_exhaustive_to_n7(self):
        # No member of the family beats (1, 1, F_2, ..., F_{n-1}) in absolute
        # value on any coordinate, and every bound is attained.
        for n in range(2, 8):
            expected = tuple(1 if i <= 2 else fib(i - 1) for i in range(1, n + 1))
            assert max_abs_row_sum_vector_exhaustive(n) == expected


class TestInverseEntrySum:
    @pytest.mark.parametrize("bound", [1, 16, 1000])
    def test_matches_both_substitutions_on_samples(self, bound):
        for n in range(3, 11):
            for seed in range(25):
                rows = sample_g_rows(n, seed, bound)
                s = inverse_entry_sum(rows)
                assert isinstance(s, Fraction)
                assert s == entry_sum(invert_unit_triangular(rows))
                assert s == sum(inverse_column_sums(rows))
                assert s == Fraction(*column_block_sum_pairs(
                    relaxation_columns(n, seed, bound))[-1])

    def test_every_01_triangular_matrix_to_n5_gives_an_int(self):
        for n in range(1, 6):
            for mask in range(1 << (n * (n - 1) // 2)):
                rows = Triangular01(n, mask).rows()
                s = inverse_entry_sum(rows)
                assert type(s) is int
                assert s == sum(inverse_column_sums(rows))
                assert s == inverse_sum_via_determinant(rows)

    def test_large_denominators(self):
        # Column-wise scaling keeps the integers near the product of the
        # column lcms; the result must still be exact.
        rows = sample_g_rows(14, 3, 10**6)
        assert inverse_entry_sum(rows) == sum(inverse_column_sums(rows))
        assert inverse_entry_sum(rows) == Fraction(
            *column_block_sum_pairs(relaxation_columns(14, 3, 10**6))[-1])

    def test_integral_fraction_input_stays_a_fraction(self):
        rows = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
        s = inverse_entry_sum(rows)
        assert s == 3 and isinstance(s, Fraction)

    def test_one_fraction_entry_anywhere_gives_a_fraction(self):
        base = Triangular01(4, 0b101101).rows()
        expected = sum(inverse_column_sums(base))
        assert expected == inverse_sum_via_determinant(base)
        for i in range(4):
            for j in range(i, 4):
                rows = [list(r) for r in base]
                rows[i][j] = Fraction(rows[i][j])
                s = inverse_entry_sum(rows)
                assert isinstance(s, Fraction) and s == expected

    def test_affine_in_each_upper_entry(self):
        # Each inverse entry is a signed sum over increasing paths, each
        # using a cell at most once, so S is affine in every strictly upper
        # entry: S(1/2) is the mean of S(0) and S(1) at any other entries.
        rng = random.Random(1306)
        for k in range(300):
            n = rng.randint(3, 9)
            i = rng.randrange(n - 1)
            j = rng.randrange(i + 1, n)
            rows = [list(r) for r in sample_g_rows(n, k, 16)]
            sums = []
            for value in (Fraction(0), Fraction(1, 2), Fraction(1)):
                rows[i][j] = value
                sums.append(inverse_entry_sum(rows))
                if k % 50 == 0:
                    assert sums[-1] == entry_sum(invert_unit_triangular(rows))
            assert 2 * sums[1] == sums[0] + sums[2], (n, k, i, j)

    def test_planted_negative_entry(self):
        # The verify suite's planted fault: -100 above the diagonal puts
        # +100 in the inverse.
        rows = identity(5)
        rows[0][1] = -100
        assert inverse_entry_sum(rows) == 105

    def test_refuses_not_unit_upper_triangular(self):
        # Both checked forward substitutions share one shape check.
        for f in (inverse_entry_sum, inverse_column_sums):
            for rows in ([[1, 0], [1, 1]], [[2, 0], [0, 1]], [[1, 1], [1, 1]],
                         [[1, 0], [Fraction(1, 3), 1]], [[Fraction(1, 2), 0], [0, 1]]):
                with pytest.raises(ValueError, match="^matrix is not unit upper triangular$"):
                    f(rows)
            with pytest.raises(ValueError, match="square"):
                f([[1, 0]])

    def test_refuses_non_rational_entries(self):
        # Floats and Decimals have as_integer_ratio, which the kernel reads.
        for rows in ([[1, 0.5], [0, 1]], [[1, Decimal("0.5")], [0, 1]],
                     [[1, Fraction(1, 2), 0.0], [0, 1, 1], [0, 0, 1]]):
            with pytest.raises(ValueError, match="int or Fraction"):
                inverse_entry_sum(rows)


def sparse_integer_matrices(seed, max_n, count=600):
    """Seeded integer matrices of sizes 2..max_n, about half their entries 0;
    every other one has a unit diagonal, so that no swap is needed early."""
    rng = random.Random(seed)
    for k in range(count):
        n = 2 + k % (max_n - 1)
        rows = [[rng.choice((0, 0, 0, 0, 1, -1, 2, 3)) for _ in range(n)]
                for _ in range(n)]
        if k % 2:
            for i in range(n):
                rows[i][i] = 1
        yield rows


def zero_multipliers(rows):
    """How often Bareiss elimination of ``rows`` without swaps meets a row
    whose multiplier is 0, as ``(pivot == prev, pivot != prev)`` counts,
    read off cofactor minors; (0, 0) when it would need a swap.

    Step k has prev = D_k and pivot = D_{k+1}, D_k the leading k x k minor,
    and row i > k has the multiplier det(rows 0..k-1, i; columns 0..k).
    """
    n = len(rows)
    lead = [det_cofactor([r[:k] for r in rows[:k]]) for k in range(n)]
    if 0 in lead[1:]:
        return 0, 0
    same = scaled = 0
    for k in range(n - 1):
        for i in range(k + 1, n):
            if det_cofactor([r[:k + 1] for r in rows[:k] + [rows[i]]]) == 0:
                same += lead[k + 1] == lead[k]
                scaled += lead[k + 1] != lead[k]
    return same, scaled


class TestDeterminant:
    def test_unit_triangular_is_one(self):
        rng = random.Random(5)
        for n in (1, 3, 6):
            a = Triangular01(n, rng.getrandbits(n * (n - 1) // 2))
            assert determinant_exact(a.rows()) == 1

    def test_fibonacci_two_by_two_identity(self):
        assert determinant_exact([[5, 3], [8, 5]]) == 1
        for n in range(2, 40):
            m = [[fib(n), fib(n - 1)], [fib(n + 1), fib(n)]]
            assert determinant_exact(m) == (-1) ** (n + 1)

    def test_cofactor_oracle_all_binary_3x3(self):
        for word in range(1 << 9):
            rows = [[(word >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
            assert determinant_exact(rows) == det_cofactor(rows)

    def test_cofactor_oracle_random_5x5(self):
        rng = random.Random(99)
        for _ in range(10_000):
            rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
            assert determinant_exact(rows) == det_cofactor(rows)

    def test_zero_multipliers_match_cofactor_oracle(self):
        same, scaled = 0, 0
        for rows in sparse_integer_matrices(5150, 6):
            assert determinant_exact(rows) == det_cofactor(rows)
            s, c = zero_multipliers(rows)
            same, scaled = same + s, scaled + c
        assert same >= 400 and scaled >= 150

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            determinant_exact([[Fraction(1, 2), 0], [0, 1]])

    def test_refusal_names_the_entry_type(self):
        for refuse in (determinant_exact, adjugate_exact, inverse_sum_via_determinant):
            with pytest.raises(ValueError, match="integer matrix required"):
                refuse([[Fraction(1), 0], [0, 1]])
            for bad in (1.0, Decimal(1)):
                with pytest.raises(ValueError, match="entries must be int or Fraction"):
                    refuse([[bad, 0], [0, 1]])
            with pytest.raises(ValueError, match="square"):
                refuse([[1, 0], [0, 1], [1, 1]])


class TestInverseSumViaDeterminant:
    def test_known_7x7_records(self):
        # As lists and as the tuple rows they are stored in: the bordered
        # elimination copies each row, so either works.
        for rows, expected in ((KNOWN_GENERAL_MIN_7X7, -7), (KNOWN_GENERAL_MAX_7X7, 11)):
            assert inverse_sum_via_determinant([list(r) for r in rows]) == expected
            assert inverse_sum_via_determinant(rows) == expected

    def test_identity(self):
        for n in (1, 4, 7):
            assert inverse_sum_via_determinant(identity(n)) == n

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            inverse_sum_via_determinant([[1, 1], [1, 1]])

    def test_agrees_with_direct_inversion_exhaustive_n5(self):
        for n in (3, 4, 5):
            for mask in range(1 << (n * (n - 1) // 2)):
                rows = Triangular01(n, mask).rows()
                direct = entry_sum(invert_unit_triangular(rows))
                assert inverse_sum_via_determinant(rows) == direct

    def test_agrees_with_direct_inversion_random_n12(self):
        rng = random.Random(12321)
        for _ in range(300):
            n = rng.randint(3, 12)
            rows = Triangular01(n, rng.getrandbits(n * (n - 1) // 2)).rows()
            direct = entry_sum(invert_unit_triangular(rows))
            assert inverse_sum_via_determinant(rows) == direct

    def test_rational_result(self):
        rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
        assert determinant_exact(rows) == 2
        assert inverse_sum_via_determinant(rows) == Fraction(3, 2)


def assert_adjugate_matches_oracles(rows):
    """Check adjugate_exact on one matrix; return whether it is singular."""
    if det_cofactor(rows) == 0:
        with pytest.raises(SingularMatrixError):
            adjugate_exact(rows)
        return True
    det, adj = adjugate_exact(rows)
    assert det == det_cofactor(rows)
    assert [[Fraction(x, det) for x in r] for r in adj] == invert_adjugate(rows)
    return False


class TestAdjugateExact:
    def test_all_binary_matrices_to_n3(self):
        singular = 0
        for n in (1, 2, 3):
            for word in range(1 << (n * n)):
                rows = [[(word >> (n * i + j)) & 1 for j in range(n)]
                        for i in range(n)]
                singular += assert_adjugate_matches_oracles(rows)
        assert singular == 1 + 10 + 338

    def test_random_integer_matrices_to_n6(self):
        rng = random.Random(6060)
        singular = 0
        for k in range(300):
            n = rng.randint(1, 6)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if n > 1 and k % 2 == 0:
                # Rank at most n - 1: one row is a multiple of another.
                a, b = rng.sample(range(n), 2)
                s = rng.randint(-2, 2)
                rows[a] = [s * x for x in rows[b]]
            singular += assert_adjugate_matches_oracles(rows)
        assert singular >= 100

    @pytest.mark.parametrize("low, high", [(0, 1), (-3, 3), (-50, 50)])
    def test_matches_augmented_oracle_to_n9(self, low, high):
        # The n x n in-place elimination against the [A | I] elimination it
        # replaced: equal (det, adj) and equal singular refusals, and up to
        # n = 6 the cofactor determinant and inverse as well.  Every
        # third matrix has zeros down the top of column 0, and some of them
        # in column 1 too, so that swaps move rows past several steps.
        rng = random.Random(9000 + high)
        singular = swapped = 0
        for k in range(600):
            n = 1 + k % 9
            rows = [[rng.randint(low, high) for _ in range(n)] for _ in range(n)]
            if k % 3 == 0:
                for i in range(rng.randint(1, n)):
                    rows[i][0] = 0
                    if k % 2 and n > 1:
                        rows[i][1] = 0
            copy = [list(r) for r in rows]
            expected = None
            try:
                expected = adjugate_augmented(rows)
            except ValueError:
                with pytest.raises(SingularMatrixError, match="singular"):
                    adjugate_exact(rows)
                singular += 1
            else:
                assert adjugate_exact(rows) == expected, rows
            # An invertible matrix with a zero leading pivot needs a swap.
            swapped += expected is not None and rows[0][0] == 0
            if n <= 6:
                assert assert_adjugate_matches_oracles(rows) == (expected is None)
            assert rows == copy
        assert singular >= 40 and swapped >= 60

    def test_zero_multipliers_match_cofactor_oracle(self):
        # Gauss-Jordan meets the zero multipliers of the rows below each
        # pivot that Bareiss elimination meets, and those above it too.
        same, scaled = 0, 0
        for rows in sparse_integer_matrices(5151, 6):
            assert_adjugate_matches_oracles(rows)
            s, c = zero_multipliers(rows)
            same, scaled = same + s, scaled + c
        assert same >= 400 and scaled >= 150

    def test_needs_row_swaps(self):
        rows = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        det, adj = adjugate_exact(rows)
        assert det == 1
        assert matmul(rows, adj) == identity(3)
        # One swap, three and none, each against the cofactor oracles.
        for rows in ([[0, 2], [3, 1]],
                     [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
                     [[0, 0, 2, 1], [0, 3, 1, 0], [5, 1, 0, 0], [1, 1, 1, 1]],
                     [[2, 1], [1, 1]]):
            assert not assert_adjugate_matches_oracles(rows)

    def test_rejects_non_integer_and_non_square(self):
        with pytest.raises(ValueError):
            adjugate_exact([[Fraction(1, 2), 0], [0, 1]])
        with pytest.raises(ValueError):
            adjugate_exact([[1, 0]])


class TestTriangular01:
    def test_round_trip_rows(self):
        rng = random.Random(8)
        for n in (1, 2, 3, 7):
            mask = rng.getrandbits(n * (n - 1) // 2)
            a = Triangular01(n, mask)
            assert Triangular01.from_rows(a.rows()) == a

    def test_bit_layout_row_major(self):
        # cell (0,1) is bit 0, then (0,2), (1,2)
        a = Triangular01(3, 0b001)
        assert a.rows() == [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
        a = Triangular01(3, 0b100)
        assert a.rows() == [[1, 0, 0], [0, 1, 1], [0, 0, 1]]

    def test_single_cell_packs_at_closed_form_bit(self):
        # Row-major over the strictly upper cells: rows 0..i-1 hold
        # (n-1) + (n-2) + ... + (n-i) cells before row i's first, (i, i+1).
        for n in range(1, 13):
            for i in range(n):
                for j in range(i + 1, n):
                    rows = identity(n)
                    rows[i][j] = 1
                    bit = i * (n - 1) - i * (i - 1) // 2 + j - i - 1
                    assert Triangular01.from_rows(rows).upper_mask == 1 << bit

    def test_from_rows_packs_float_ones(self):
        # 1.0 == 1 passes the entry checks, so it must pack like 1.
        assert Triangular01.from_rows([[1.0, 1.0], [0, 1]]).upper_mask == 1

    def test_from_rows_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            Triangular01.from_rows([[1, 2], [0, 1]])
        with pytest.raises(ValueError):
            Triangular01.from_rows([[1, 0], [1, 1]])
        with pytest.raises(ValueError):
            Triangular01.from_rows([[1, 0], [0, 2]])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << (n * (n - 1) // 2)) - 1))))
    def test_packed_word_round_trips(self, case):
        n, mask = case
        a = Triangular01(n, mask)
        assert Triangular01.from_rows(a.rows()) == a

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(
        lambda n: st.lists(st.integers(0, 1), min_size=n * (n - 1) // 2,
                           max_size=n * (n - 1) // 2).map(lambda bits: (n, bits))))
    def test_every_matrix_has_one_packed_word(self, case):
        # from_rows inverts rows() on matrices as well as on words, so the
        # packing is a bijection onto [0, 2^(n(n-1)/2)).
        n, bits = case
        it = iter(bits)
        rows = [[1 if i == j else (next(it) if j > i else 0) for j in range(n)]
                for i in range(n)]
        a = Triangular01.from_rows(rows)
        assert 0 <= a.upper_mask < 1 << (n * (n - 1) // 2)
        assert a.rows() == rows

    def test_mask_range_validated(self):
        with pytest.raises(ValueError):
            Triangular01(3, 8)
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            Triangular01(0)

    def test_transpose(self):
        assert transpose([[1, 2], [3, 4]]) == [[1, 3], [2, 4]]
