import random
from decimal import Decimal
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibsum.construct import (CONSTRUCT_MAX_N, WMatrix, band_partition,
                              construct_w_matrix, construct_with_sum,
                              dominant_matrix, extremal_pattern_matrix,
                              relaxation_columns, sample_g_matrix,
                              small_extremal, toeplitz_sum_two)
from fibsum.fibonacci import fib
from fibsum import construct
from fibsum.linalg import (InvariantError, Triangular01, column_block_sum_pairs,
                           determinant_exact, entry_sum, identity,
                           invert_unit_triangular, inverse_column_sums,
                           inverse_entry_sum)
from fibsum.verify import MAX_BOUND, SUITE_SIZES

from fixtures import (BANDED_9_L2, BANDED_9_L2_INVERSE, BANDED_9_L3,
                      BANDED_9_L3_INVERSE)
from oracles import (band_of_frontier, construct_with_sum_by_representation,
                     dominant_rows_recursive, sample_g_rows)


def expected_dominant_vector(n):
    # coordinate i carries (-1)^i F_{i-1}, with the local convention F_0 = -1
    out = []
    for i in range(1, n + 1):
        magnitude = 1 if i == 1 else fib(i - 1)
        out.append((-1) ** i * (-magnitude if i == 1 else magnitude))
    return out


def dominant_vector(n):
    return inverse_column_sums(dominant_matrix(n).rows())


class TestDominantMatrix:
    def test_one_by_one(self):
        assert dominant_matrix(1) == Triangular01(1, 0)
        assert dominant_vector(1) == [1]

    def test_small_vectors(self):
        assert dominant_vector(2) == [1, 1]
        assert dominant_vector(3) == [1, 1, -1]
        assert dominant_vector(5) == [1, 1, -1, 2, -3]

    def test_vector_matches_pattern_to_30(self):
        for n in range(1, 31):
            assert dominant_vector(n) == expected_dominant_vector(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dominant_matrix(0)

    def test_rows_match_recursive_oracle(self):
        for n in range(1, 81):
            assert dominant_matrix(n).rows() == dominant_rows_recursive(n)


class TestConstructWithSum:
    def test_remark_extremes_n7(self):
        for target in (10, -6):
            a = construct_with_sum(7, target)
            assert entry_sum(invert_unit_triangular(a.rows())) == target

    def test_middle_target(self):
        a = construct_with_sum(5, 2)
        assert entry_sum(invert_unit_triangular(a.rows())) == 2

    def test_round_trip_all_targets_to_n12(self):
        for n in range(3, 13):
            bound = fib(n - 1)
            for target in range(2 - bound, 2 + bound + 1):
                a = construct_with_sum(n, target)
                assert entry_sum(invert_unit_triangular(a.rows())) == target

    def test_range_errors_name_interval(self):
        with pytest.raises(ValueError, match=r"\[-6, 10\]"):
            construct_with_sum(7, 11)
        with pytest.raises(ValueError, match=r"\[-6, 10\]"):
            construct_with_sum(7, -7)
        with pytest.raises(ValueError):
            construct_with_sum(2, 2)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(3, 20).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(2 - fib(n - 1), 2 + fib(n - 1)))))
    def test_hits_every_admissible_sum(self, case):
        n, target = case
        rows = construct_with_sum(n, target).rows()
        assert inverse_entry_sum(rows) == target
        assert entry_sum(invert_unit_triangular(rows)) == target

    @pytest.mark.parametrize("n", range(3, 21))
    def test_refuses_sums_just_outside(self, n):
        for target in (1 - fib(n - 1), 3 + fib(n - 1)):
            with pytest.raises(ValueError, match="not achievable"):
                construct_with_sum(n, target)

    def test_matches_representation_oracle(self):
        # The greedy pass over the core's column sums places every pair as
        # the signed Fibonacci representation did: the same word for all
        # 3 204 admissible sums at n = 3..16.
        targets = 0
        for n in range(3, 17):
            bound = fib(n - 1)
            for target in range(2 - bound, 2 + bound + 1):
                assert (construct_with_sum(n, target)
                        == construct_with_sum_by_representation(n, target)), (n, target)
                targets += 1
        assert targets == 3204

    def test_refuses_non_int_targets_before_any_work(self, monkeypatch):
        # A non-int target is bad input, not an internal fault, so it is
        # refused with ValueError before the constructors build anything.
        def work(*args, **kwargs):
            pytest.fail("a constructor started work on a non-int target")

        for name in ("fib", "inverse_column_sums", "_dominant_rows", "Triangular01"):
            monkeypatch.setattr(construct, name, work)
        for bad in (2.5, Fraction(5, 2), Fraction(3), 3.0, Decimal(3)):
            with pytest.raises(ValueError, match="sum must be an int, got"):
                construct_with_sum(6, bad)
            with pytest.raises(ValueError, match="determinant must be an int, got"):
                construct_w_matrix(6, bad + 1)

    def test_planted_core_raises(self, monkeypatch):
        # With the identity as the core, c = (1, ..., 1) sums to 5 < 8 at
        # n = 7, so the pairs cannot reach the target; the round-trip check,
        # which survives ``python -O``, must say so.
        monkeypatch.setattr(construct, "_dominant_rows", identity)
        with pytest.raises(InvariantError, match="give sum 7, not 10"):
            construct_with_sum(7, 10)


class TestToeplitzSumTwo:
    def test_three_by_three(self):
        a = toeplitz_sum_two(3)
        assert a.rows() == [[1, 0, 1], [0, 1, 0], [0, 0, 1]]
        assert entry_sum(invert_unit_triangular(a.rows())) == 2

    def test_first_row_n4(self):
        assert toeplitz_sum_two(4).rows()[0] == [1, 0, 1, 0]

    def test_sum_is_two_up_to_30(self):
        for n in range(3, 31):
            rows = toeplitz_sum_two(n).rows()
            # Toeplitz: constant along diagonals
            for i in range(1, n):
                assert rows[i][i:] == rows[i - 1][i - 1:n - 1]
            assert entry_sum(invert_unit_triangular(rows)) == 2

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            toeplitz_sum_two(2)


def band_cells(bands, band):
    return sorted(cell for cell, b in bands.items() if b == band)


class TestBandPartition:
    def test_n9_l2_cells(self):
        bands = band_partition(9, 2)
        # 0-indexed: reference cells (1,7), (3,8) in band 5; the top band is
        # the first two rows of the last two columns.
        assert bands[(0, 6)] == 5
        assert bands[(2, 7)] == 5
        assert band_cells(bands, 6) == [(0, 7), (0, 8), (1, 7), (1, 8)]

    def test_n9_l3_seed_band(self):
        bands = band_partition(9, 3)
        assert band_cells(bands, 5) == [(0, 6), (0, 7), (0, 8), (1, 6), (1, 7), (1, 8)]

    def test_totality_and_s0_size(self):
        for n in range(5, 15):
            for l in (2, 3):
                bands = band_partition(n, l)
                assert sorted(bands) == [(r, c) for r in range(n) for c in range(r + 1, n)]
                assert list(bands.values()).count(0) == (2 if l == 2 else 4)
                # bands S_0 .. S_{n-l-1}, none empty
                assert set(bands.values()) == set(range(n - l))

    def test_errors(self):
        with pytest.raises(ValueError):
            band_partition(4, 2)
        with pytest.raises(ValueError):
            band_partition(9, 4)

    def test_band_of_matches_frontier_oracle(self):
        for n in range(5, 201):
            for l in (2, 3):
                assert band_partition(n, l) == band_of_frontier(n, l)


class TestExtremalPattern:
    def test_reference_9x9_pairs(self):
        matrix, predicted = extremal_pattern_matrix(9, 2)
        assert matrix.rows() == BANDED_9_L2
        assert predicted == BANDED_9_L2_INVERSE
        matrix, predicted = extremal_pattern_matrix(9, 3)
        assert matrix.rows() == BANDED_9_L3
        assert predicted == BANDED_9_L3_INVERSE

    def test_predictions_hold_to_n20(self):
        for n in range(5, 21):
            for l in (2, 3):
                matrix, predicted = extremal_pattern_matrix(n, l)
                actual = invert_unit_triangular(matrix.rows())
                assert actual == predicted
                expected_sum = (2 - fib(n - 1) if (n + l) % 2 == 0
                                else 2 + fib(n - 1))
                assert entry_sum(actual) == expected_sum

    def test_n10_l2_is_minimizing(self):
        _, predicted = extremal_pattern_matrix(10, 2)
        assert entry_sum(predicted) == 2 - fib(9) == -32


class TestSmallExtremal:
    def test_all_four(self):
        cases = [
            (3, "maximizing", 3),
            (3, "minimizing", 1),
            (4, "maximizing", 4),
            (4, "minimizing", 0),
        ]
        for n, kind, expected in cases:
            m = small_extremal(n, kind)
            assert entry_sum(invert_unit_triangular(m.rows())) == expected

    def test_maximizers_are_identity(self):
        assert small_extremal(3, "maximizing") == Triangular01(3, 0)
        assert small_extremal(4, "maximizing") == Triangular01(4, 0)

    def test_minimizer_matrices(self):
        assert small_extremal(3, "minimizing").rows() == [
            [1, 1, 1], [0, 1, 0], [0, 0, 1]]
        assert small_extremal(4, "minimizing").rows() == [
            [1, 0, 1, 1], [0, 1, 1, 1], [0, 0, 1, 0], [0, 0, 0, 1]]

    def test_errors(self):
        with pytest.raises(ValueError, match="extremal_pattern_matrix"):
            small_extremal(5, "maximizing")
        with pytest.raises(ValueError):
            small_extremal(3, "biggest")


class TestSizeLimit:
    def test_limit_covers_the_pattern_suite(self):
        assert CONSTRUCT_MAX_N >= SUITE_SIZES["pattern"][2]

    def test_limit_accepted(self):
        assert len(band_partition(CONSTRUCT_MAX_N, 3)) == (
            CONSTRUCT_MAX_N * (CONSTRUCT_MAX_N - 1) // 2)

    def test_limit_plus_one_refused_before_any_work(self, monkeypatch):
        def work(*args, **kwargs):
            pytest.fail("a constructor started work above CONSTRUCT_MAX_N")

        for name in ("fib", "gcd", "identity", "inverse_column_sums",
                     "invert_unit_triangular", "_dominant_rows", "Triangular01"):
            monkeypatch.setattr(construct, name, work)
        n = CONSTRUCT_MAX_N + 1
        for build in (lambda: dominant_matrix(n),
                      lambda: construct_with_sum(n, 2),
                      lambda: toeplitz_sum_two(n),
                      lambda: band_partition(n, 2),
                      lambda: extremal_pattern_matrix(n, 3),
                      lambda: construct_w_matrix(n, 3),
                      lambda: relaxation_columns(n, 0, 16)):
            with pytest.raises(ValueError,
                               match=f"CONSTRUCT_MAX_N = {CONSTRUCT_MAX_N}, got {n}"):
                build()


class TestConstructWMatrix:
    def test_examples(self):
        assert determinant_exact(construct_w_matrix(3, 3).to_rows()) == 3
        assert determinant_exact(construct_w_matrix(7, 11).to_rows()) == 11
        assert determinant_exact(construct_w_matrix(7, -5).to_rows()) == -5

    def test_pattern_validated(self):
        w = construct_w_matrix(6, 0)
        n = w.n
        for i in range(n):
            for j in range(n):
                if j > i:
                    assert w.rows[i][j] == 1
                elif j == i:
                    assert w.rows[i][j] == 2
                else:
                    assert w.rows[i][j] in (1, 2)

    def test_round_trip_all_targets_to_n12(self):
        for n in range(3, 13):
            bound = fib(n - 1)
            for det in range(3 - bound, 3 + bound + 1):
                w = construct_w_matrix(n, det)
                assert determinant_exact(w.to_rows()) == det

    def test_range_error_names_interval(self):
        with pytest.raises(ValueError, match=r"\[-5, 11\]"):
            construct_w_matrix(7, 12)

    def test_wmatrix_type_rejects_bad_pattern(self):
        with pytest.raises(ValueError):
            WMatrix(((2, 2), (1, 2)))
        with pytest.raises(ValueError):
            WMatrix(((2, 1), (3, 2)))

    @pytest.mark.parametrize("bad", [2.0, Fraction(2), Decimal(2)],
                             ids=["float", "Fraction", "Decimal"])
    def test_wmatrix_type_rejects_non_int_entries(self, bad):
        # Refused when built, not later by det_and_inverse.
        with pytest.raises(ValueError, match="integer matrix required"):
            WMatrix(((bad, 1), (1, 2)))
        with pytest.raises(ValueError, match="integer matrix required"):
            WMatrix(((2, 1), (bad, 2)))


class TestSampleGMatrix:
    def test_seeded_sample_in_interval(self):
        rows = sample_g_matrix(6, 42, 16)
        s = entry_sum(invert_unit_triangular(rows))
        assert 2 - fib(5) <= s <= 2 + fib(5)  # [-3, 7]

    def test_deterministic(self):
        assert sample_g_matrix(5, 7, 10) == sample_g_matrix(5, 7, 10)
        assert sample_g_matrix(5, 7, 10) != sample_g_matrix(5, 8, 10)

    def test_entry_shape(self):
        rows = sample_g_matrix(5, 0, 9)
        for i in range(5):
            for j in range(5):
                v = rows[i][j]
                if j < i:
                    assert v == 0
                elif j == i:
                    assert v == 1
                else:
                    assert 0 <= v <= 1
                    assert v.denominator <= 9

    def test_zero_and_one_corners(self):
        # All-zero uppers: the identity, inverse sum n.  All-one uppers: the
        # same sum as the all-ones (0,1) triangular matrix.  Bound 1 draws
        # only these two values, each a Fraction, so the sum is a Fraction
        # equal to that of the (0,1) matrix with the same ones.
        n = 6
        ones01 = [[1 if j >= i else 0 for j in range(n)] for i in range(n)]
        assert column_block_sum_pairs([[(0, 1)] * j for j in range(n)])[-1] == (n, 1)
        assert (column_block_sum_pairs([[(1, 1)] * j for j in range(n)])[-1]
                == (entry_sum(invert_unit_triangular(ones01)), 1))
        for seed in range(5):
            rows = sample_g_matrix(n, seed, 1)
            s = inverse_entry_sum(rows)
            assert type(s) is Fraction
            assert s == inverse_entry_sum([[int(v) for v in row] for row in rows])

    @pytest.mark.parametrize("bound", [1, 16, 1000])
    def test_stream_pinned(self, bound):
        # The draws fix every seeded result of the gsampling suite, so a
        # faster sampler must reproduce the first one's rows exactly, each
        # entry a Fraction, 0 and 1 included.
        for n in range(3, 11):
            for seed in range(50):
                rows = sample_g_matrix(n, seed, bound)
                assert rows == [list(r) for r in sample_g_rows(n, seed, bound)]
                assert all(type(v) is Fraction for row in rows for v in row)


class TestRelaxationColumns:
    def test_validation(self):
        with pytest.raises(ValueError, match="n must be >= 3, got 2"):
            relaxation_columns(2, 0, 5)
        with pytest.raises(ValueError, match="denominator_bound must be >= 1"):
            relaxation_columns(5, 0, 0)
        # random.Random seeds with |seed|: -5 would replay seed 5.
        with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
            relaxation_columns(4, -5, 16)

    @pytest.mark.parametrize("bound", [1, 16, 64, 65, MAX_BOUND])
    def test_pairs_and_block_sums_match_the_fraction_path(self, bound):
        # The drawer gives the oracle's entries as reduced ratios, and the
        # column kernel's sum of the whole sample is the Fraction
        # substitution's on the oracle's rows.
        for n in range(3, 13):
            for seed in range(50):
                columns = relaxation_columns(n, seed, bound)
                rows = sample_g_rows(n, seed, bound)
                assert columns == [[rows[i][j].as_integer_ratio() for i in range(j)]
                                   for j in range(n)]
                assert (Fraction(*column_block_sum_pairs(columns)[-1])
                        == inverse_entry_sum(rows))


def principal_block(rows, n):
    return [r[:n] for r in rows[:n]]


def column_lcm_product(columns):
    return prod(lcm(*[q for _, q in column]) for column in columns)


class TestGMatrixInverseEntrySum:
    @pytest.mark.parametrize("bound", [1, 16, MAX_BOUND])
    def test_samples_and_their_blocks(self, bound):
        # Each leading block of a sampled G matrix, drawn as pairs and as
        # the oracle's Fraction rows: the checked entry sum is a Fraction,
        # the pairs of the block's own columns give it, and so does
        # inverting the block outright.
        for seed in range(20):
            columns = relaxation_columns(10, seed, bound)
            rows = sample_g_rows(10, seed, bound)
            for n in range(1, 11):
                block = principal_block(rows, n)
                s = inverse_entry_sum(block)
                assert type(s) is Fraction
                assert s == Fraction(*column_block_sum_pairs(columns[:n])[-1])
                assert s == entry_sum(invert_unit_triangular(block))


class TestBlockInverseEntrySums:
    @pytest.mark.parametrize("bound", [1, 16, 64, 65, MAX_BOUND])
    def test_matches_each_principal_block(self, bound):
        # One substitution of the drawn pairs against each leading block on
        # its own, the 1 x 1 and 2 x 2 blocks included, by the Fraction
        # substitution on the oracle's rows.
        for size in (3, 5, 8, 14, 20):
            for seed in range(3):
                columns = relaxation_columns(size, seed, bound)
                rows = sample_g_rows(size, seed, bound)
                pairs = column_block_sum_pairs(columns)
                assert len(pairs) == size
                for n, (num, den) in enumerate(pairs, 1):
                    assert den > 0
                    assert den == column_lcm_product(columns[:n])
                    assert Fraction(num, den) == inverse_entry_sum(principal_block(rows, n))

    def test_all_01_matrices_give_ints(self):
        # Every cell a (0, 1) or (1, 1) pair: each denominator is 1.
        for size in range(1, 6):
            for mask in range(1 << (size * (size - 1) // 2)):
                rows = Triangular01(size, mask).rows()
                pairs = column_block_sum_pairs([[(rows[i][j], 1) for i in range(j)]
                                                for j in range(size)])
                assert len(pairs) == size
                for n, (num, den) in enumerate(pairs, 1):
                    block = principal_block(rows, n)
                    assert den == 1
                    assert num == inverse_entry_sum(block)
                    assert num == entry_sum(invert_unit_triangular(block))

    def test_unreduced_pairs(self):
        # Scaling a pair to (k p, k q) keeps every sum; E is the product of
        # the lcms of the pairs as given, not as reduced.
        rng = random.Random(26)
        for seed in range(20):
            columns = relaxation_columns(9, seed, 12)
            scaled = []
            for column in columns:
                ks = [rng.randint(1, 6) for _ in column]
                scaled.append([(p * k, q * k) for (p, q), k in zip(column, ks)])
            pairs = column_block_sum_pairs(scaled)
            for n, ((num, den), reduced) in enumerate(
                    zip(pairs, column_block_sum_pairs(columns)), 1):
                assert den == column_lcm_product(scaled[:n])
                assert Fraction(num, den) == Fraction(*reduced)

    def test_principal_blocks_not_row_major_prefixes(self):
        # Cell (0, 2) = 1/3 lies outside the 2 x 2 block: w = (1, 1/2, 17/30).
        columns = [[], [(1, 2)], [(1, 3), (1, 5)]]
        assert [Fraction(num, den) for num, den in column_block_sum_pairs(columns)] == [
            1, Fraction(3, 2), Fraction(31, 15)]
