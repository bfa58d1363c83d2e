from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibsum.construct import (BandPartition, GMatrix, WMatrix, band_partition,
                              construct_w_matrix, construct_with_sum,
                              dominant_matrix, extremal_pattern_matrix,
                              sample_g_matrix, small_extremal,
                              toeplitz_sum_two)
from fibsum.fibonacci import fib
from fibsum import construct
from fibsum.fibonacci import SignedFibRepresentation
from fibsum.linalg import (InvariantError, Triangular01, determinant_exact,
                           entry_sum, invert_unit_triangular, inverse_entry_sum,
                           row_sum_vector)

from fixtures import (BANDED_9_L2, BANDED_9_L2_INVERSE, BANDED_9_L3,
                      BANDED_9_L3_INVERSE)
from oracles import g_matrix_valid, sample_g_rows


def expected_dominant_vector(n):
    # coordinate i carries (-1)^i F_{i-1}, with the local convention F_0 = -1
    out = []
    for i in range(1, n + 1):
        magnitude = 1 if i == 1 else fib(i - 1)
        out.append((-1) ** i * (-magnitude if i == 1 else magnitude))
    return tuple(out)


class TestDominantMatrix:
    def test_one_by_one(self):
        assert dominant_matrix(1) == Triangular01(1, 0)
        assert row_sum_vector(dominant_matrix(1)) == (1,)

    def test_small_vectors(self):
        assert row_sum_vector(dominant_matrix(2)) == (1, 1)
        assert row_sum_vector(dominant_matrix(3)) == (1, 1, -1)
        assert row_sum_vector(dominant_matrix(5)) == (1, 1, -1, 2, -3)

    def test_vector_matches_pattern_to_30(self):
        for n in range(1, 31):
            assert row_sum_vector(dominant_matrix(n)) == expected_dominant_vector(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dominant_matrix(0)


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

    def test_wrong_representation_raises(self, monkeypatch):
        # A representation of the wrong value must be caught by the
        # round-trip check, which survives ``python -O``.
        monkeypatch.setattr(construct, "signed_representation",
                            lambda target, n: SignedFibRepresentation(n, (0,) * (n - 2)))
        with pytest.raises(InvariantError, match="not 5"):
            construct_with_sum(7, 5)


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


class TestBandPartition:
    def test_n9_l2_cells(self):
        p = band_partition(9, 2)
        assert isinstance(p, BandPartition)
        # 0-indexed: reference cells (1,7), (3,8) in band 5; the top band is
        # the first two rows of the last two columns.
        assert p.band_of[(0, 6)] == 5
        assert p.band_of[(2, 7)] == 5
        assert p.cells(6) == [(0, 7), (0, 8), (1, 7), (1, 8)]

    def test_n9_l3_seed_band(self):
        p = band_partition(9, 3)
        assert p.cells(5) == [(0, 6), (0, 7), (0, 8), (1, 6), (1, 7), (1, 8)]

    def test_totality_and_s0_size(self):
        for n in range(5, 15):
            for l in (2, 3):
                p = band_partition(n, l)
                assert len(p.band_of) == n * (n - 1) // 2
                assert p.sizes()[0] == (2 if l == 2 else 4)
                assert p.band_count == n - l
                assert set(p.band_of.values()) == set(range(n - l))

    def test_errors(self):
        with pytest.raises(ValueError):
            band_partition(4, 2)
        with pytest.raises(ValueError):
            band_partition(9, 4)


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


class TestSampleGMatrix:
    def test_seeded_sample_in_interval(self):
        g = sample_g_matrix(6, 42, 16)
        s = entry_sum(invert_unit_triangular(g.to_rows()))
        assert 2 - fib(5) <= s <= 2 + fib(5)  # [-3, 7]

    def test_deterministic(self):
        assert sample_g_matrix(5, 7, 10) == sample_g_matrix(5, 7, 10)
        assert sample_g_matrix(5, 7, 10) != sample_g_matrix(5, 8, 10)

    def test_entry_shape(self):
        g = sample_g_matrix(5, 0, 9)
        for i in range(5):
            for j in range(5):
                v = g.rows[i][j]
                if j < i:
                    assert v == 0
                elif j == i:
                    assert v == 1
                else:
                    assert 0 <= v <= 1
                    assert v.denominator <= 9

    def test_zero_and_one_corners(self):
        # All-zero uppers: the identity, inverse sum n.  All-one uppers: the
        # same sum as the all-ones (0,1) triangular matrix.
        n = 6
        zero = GMatrix(tuple(tuple(Fraction(int(i == j)) for j in range(n))
                             for i in range(n)))
        assert entry_sum(invert_unit_triangular(zero.to_rows())) == n
        one = GMatrix(tuple(tuple(Fraction(1) if j >= i else Fraction(0)
                                  for j in range(n)) for i in range(n)))
        ones01 = Triangular01.from_rows([[1 if j >= i else 0 for j in range(n)]
                                         for i in range(n)])
        assert (entry_sum(invert_unit_triangular(one.to_rows()))
                == entry_sum(invert_unit_triangular(ones01.rows())))

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_g_matrix(2, 0, 5)
        with pytest.raises(ValueError):
            sample_g_matrix(5, 0, 0)
        with pytest.raises(ValueError):
            GMatrix(((Fraction(1), Fraction(3, 2)), (Fraction(0), Fraction(1))))

    @pytest.mark.parametrize("bound", [1, 16, 1000])
    def test_stream_pinned(self, bound):
        # The draws fix every seeded result of the gsampling suite, so a
        # faster sampler must reproduce the first one's rows exactly.
        for n in range(3, 11):
            for seed in range(50):
                assert sample_g_matrix(n, seed, bound).rows == sample_g_rows(n, seed, bound)

    def test_float_entry_refused(self):
        for rows in (((1.0, Fraction(1, 2)), (0, 1)),
                     ((1, 0.5), (0, 1)),
                     ((1, 0), (0.0, 1))):
            with pytest.raises(ValueError, match="not an int or a Fraction"):
                GMatrix(rows)


ENTRY = st.one_of(st.integers(-1, 2),
                  st.fractions(min_value=-1, max_value=2, max_denominator=6))


@st.composite
def near_g_matrices(draw):
    """Square matrices of int and Fraction entries in [-1, 2]: a valid
    relaxation member with up to two cells overwritten by arbitrary
    entries, so that accepted and refused matrices both come up often."""
    n = draw(st.integers(1, 4))
    upper = st.one_of(st.sampled_from([0, 1]),
                      st.fractions(min_value=0, max_value=1, max_denominator=6))
    rows = [[draw(upper) if j > i else
             draw(st.sampled_from([int(i == j), Fraction(int(i == j))]))
             for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(ENTRY)
    return tuple(tuple(r) for r in rows)


@settings(max_examples=500, deadline=None)
@given(near_g_matrices())
def test_g_matrix_validation_matches_comparison_oracle(rows):
    try:
        GMatrix(rows)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == g_matrix_valid(rows)
