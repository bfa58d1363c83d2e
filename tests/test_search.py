import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fibsum import linalg, search
from fibsum.fibonacci import fib
from fibsum.linalg import (InvariantError, SingularMatrixError, Triangular01,
                           adjugate_exact, determinant_exact, entry_sum,
                           invert_unit_triangular, inverse_sum_via_determinant)
from fibsum.search import (GENERAL_MAX_N, SEARCH_MAX_RESTARTS,
                           TRIANGULAR_MAX_N, RankOneState, SearchConfig,
                           enumerate_general, enumerate_triangular,
                           enumerate_w_determinants, hill_climb_general,
                           max_abs_row_sum_vector)
from fibsum.verify import CONSTRUCTIVE_MAX_N, verify_theorem_range

from oracles import (det_cofactor, enumerate_triangular_by_columns,
                     hill_climb_two_determinants, scan_triangular_gray,
                     w_determinants_bareiss)


class TestEnumerateTriangular:
    def test_n3_distribution(self):
        dist = enumerate_triangular(3)
        assert dist.counts == {1: 3, 2: 4, 3: 1}
        assert dist.total == 8

    def test_n4_full_interval(self):
        dist = enumerate_triangular(4)
        assert dist.achieved == [0, 1, 2, 3, 4]
        assert dist.counts == {0: 1, 1: 20, 2: 30, 3: 12, 4: 1}

    def test_n5_interval(self):
        dist = enumerate_triangular(5)
        assert dist.min_sum == -1 and dist.max_sum == 5
        assert dist.achieved == list(range(-1, 6))
        assert dist.total == 1 << 10

    def test_against_direct_loop_n4(self):
        # Independent re-count: invert every mask directly, track the
        # smallest mask achieving each sum.
        counts, first = {}, {}
        for mask in range(1 << 6):
            s = entry_sum(invert_unit_triangular(Triangular01(4, mask).rows()))
            counts[s] = counts.get(s, 0) + 1
            first.setdefault(s, mask)
        dist = enumerate_triangular(4)
        assert dist.counts == counts
        assert dist.witness_words == first

    def test_witnesses_achieve_their_sum(self):
        dist = enumerate_triangular(5)
        for s in dist.achieved:
            rows = dist.witness_rows(s)
            assert entry_sum(invert_unit_triangular(rows)) == s

    def test_matches_gray_code_oracle(self):
        # The row-sum state DP against the Gray-code scan it replaced, which
        # visits every matrix: equal counts and equal smallest witnesses.
        for n in range(3, 8):
            dist = enumerate_triangular(n)
            oracle = scan_triangular_gray(n)
            assert dist.counts == oracle.counts, n
            assert dist.witness_words == oracle.witness_words, n

    def test_matches_column_walk_oracle(self):
        # The row-sum DP against the column-sum DP it replaced, whose cells
        # are scattered over the word: equal counts and equal smallest
        # witnesses.
        for n in range(3, 9):
            dist = enumerate_triangular(n)
            oracle = enumerate_triangular_by_columns(n)
            assert dist.counts == oracle.counts, n
            assert dist.witness_words == oracle.witness_words, n

    def test_state_count_mismatch_raises(self, monkeypatch):
        levels = search._row_sum_levels

        def lose_one(n, upper):
            # The all-ones tuple (every row empty) is a state at every level.
            for states in levels(n, upper):
                yield {t: [c - (t == (1,) * len(t)), p]
                       for t, (c, p) in states.items()}

        monkeypatch.setattr(search, "_row_sum_levels", lose_one)
        for scan in (enumerate_triangular, enumerate_w_determinants):
            with pytest.raises(InvariantError, match="not 2\\^10"):
                scan(5)

    def test_level_state_counts_n8(self):
        # Both walks reach the same number of row-sum states per level.
        for upper in (True, False):
            sizes = [len(states) for states in search._row_sum_levels(8, upper)]
            assert sizes == [2, 5, 16, 67, 374, 2821], upper

    def test_out_of_range_errors_mention_state_count(self):
        with pytest.raises(ValueError, match="2"):
            enumerate_triangular(10)
        for scan in (enumerate_triangular, enumerate_w_determinants):
            with pytest.raises(ValueError, match="3..TRIANGULAR_MAX_N = 9"):
                scan(TRIANGULAR_MAX_N + 1)
        with pytest.raises(ValueError):
            enumerate_triangular(2)


class TestEnumerateGeneral:
    def test_n3_extremes_match_triangular(self):
        dist = enumerate_general(3)
        assert dist.min_sum == 1 and dist.max_sum == 3

    def test_n3_invertible_count_against_oracle(self):
        count = 0
        for word in range(1 << 9):
            rows = [[(word >> (3 * i + j)) & 1 for j in range(3)]
                    for i in range(3)]
            if det_cofactor(rows) != 0:
                count += 1
        assert enumerate_general(3).total == count == 174

    def test_n3_sums_against_oracle(self):
        counts = {}
        first = {}
        for word in range(1 << 9):
            rows = [[(word >> (3 * i + j)) & 1 for j in range(3)]
                    for i in range(3)]
            d = det_cofactor(rows)
            if d == 0:
                continue
            shifted = [[x + 1 for x in r] for r in rows]
            s = Fraction(det_cofactor(shifted) - d, d)
            counts[s] = counts.get(s, 0) + 1
            first.setdefault(s, word)
        dist = enumerate_general(3)
        assert dist.counts == counts
        assert dist.witness_words == first

    def test_rational_sums_recorded(self):
        dist = enumerate_general(3)
        assert Fraction(3, 2) in dist.counts

    def test_n4_distribution_against_bareiss_loop(self):
        # Cross-validate the row-set scan against the two-determinant
        # formula on every one of the 2^16 matrices, in word order, so the
        # first word reaching a sum is its smallest witness.  The pair comes
        # from two determinant_exact calls, not from the scan's bordered
        # elimination.
        counts, first = {}, {}
        for word in range(1 << 16):
            rows = [[(word >> (4 * i + j)) & 1 for j in range(4)]
                    for i in range(4)]
            det, det_plus = det_pair(rows)
            if det == 0:
                continue
            s = Fraction(det_plus - det, det)
            counts[s] = counts.get(s, 0) + 1
            first.setdefault(s, word)
        dist = enumerate_general(4)
        assert dist.counts == counts
        assert dist.witness_words == first

    def test_n5_pinned_to_permutation_kernel(self):
        # Counts and smallest witness words at n = 5 as recorded from the
        # numpy permutation-expansion kernel that the row-set scan replaced.
        recorded = {
            "-1": (9600, 1118711), "0": (187200, 1118583),
            "1/2": (9600, 1130235), "1": (4388400, 1118495),
            "5/4": (3720, 3586811), "4/3": (57600, 1257085),
            "7/5": (1200, 7720894), "3/2": (1040400, 1127163),
            "8/5": (2400, 3594046), "5/3": (152640, 1256061),
            "7/4": (22200, 3319358), "9/5": (3600, 3324633),
            "2": (5352000, 1118487), "9/4": (3600, 3324632),
            "7/3": (22200, 1256060), "5/2": (152640, 1127067),
            "8/3": (2400, 1256028), "3": (1040400, 1118483),
            "7/2": (1200, 1127064), "4": (57600, 1118481),
            "5": (3720, 1118480),
        }
        dist = enumerate_general(5)
        assert dist.counts == {Fraction(s): c for s, (c, _) in recorded.items()}
        assert dist.witness_words == {Fraction(s): w
                                      for s, (_, w) in recorded.items()}
        assert dist.total == 12_514_320

    def test_n4_extremes(self):
        dist = enumerate_general(4)
        assert dist.min_sum == 0 and dist.max_sum == 4
        assert dist.total == 22560

    def test_contains_triangular_achieved(self):
        for n in (3, 4):
            tri = set(enumerate_triangular(n).counts)
            gen = set(enumerate_general(n).counts)
            assert {Fraction(s) for s in tri} <= gen

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="hill_climb_general"):
            enumerate_general(6)
        with pytest.raises(ValueError, match="3..GENERAL_MAX_N = 5"):
            enumerate_general(GENERAL_MAX_N + 1)


class TestEnumerateWDeterminants:
    def test_n3(self):
        dist = enumerate_w_determinants(3)
        assert dist.achieved == [2, 3, 4]
        assert dist.total == 8

    def test_n5_full_interval(self):
        assert enumerate_w_determinants(5).achieved == list(range(0, 7))

    def test_n6_extremes(self):
        dist = enumerate_w_determinants(6)
        assert dist.min_sum == 3 - fib(5) == -2
        assert dist.max_sum == 3 + fib(5) == 8

    def test_witnesses_match_pattern_and_det(self):
        dist = enumerate_w_determinants(4)
        for d in dist.achieved:
            rows = dist.witness_rows(d)
            assert determinant_exact(rows) == d
            assert_w_pattern(rows)

    def test_matches_bareiss_oracle(self):
        # The row-sum DP against the per-word Bareiss scan it replaced:
        # equal counts and equal smallest witnesses.
        for n in range(3, 7):
            dist = enumerate_w_determinants(n)
            oracle = w_determinants_bareiss(n)
            assert dist.counts == oracle.counts, n
            assert dist.witness_words == oracle.witness_words, n

    def test_n7_to_n9_shifted_triangular(self):
        # Beyond the Bareiss oracle: det(J + L) = 1 + S(L^{-1}) shifts the
        # triangular counts by one, and each witness is checked directly.
        for n in range(7, 10):
            dist = enumerate_w_determinants(n)
            tri = enumerate_triangular(n)
            assert dist.counts == {1 + s: c for s, c in tri.counts.items()}, n
            assert dist.total == 1 << (n * (n - 1) // 2)
            for d in dist.achieved:
                rows = dist.witness_rows(d)
                assert_w_pattern(rows)
                assert determinant_exact(rows) == d, (n, d)

    def test_matches_shifted_triangular_set(self):
        # det over the (1,2) family = 1 + inverse sums of the transposed
        # triangular family, which shares the triangular achieved set.
        for n in (3, 4, 5):
            tri = enumerate_triangular(n).achieved
            assert enumerate_w_determinants(n).achieved == [1 + s for s in tri]

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="row-sum states"):
            enumerate_w_determinants(10)
        with pytest.raises(ValueError):
            enumerate_w_determinants(2)


def assert_w_pattern(rows):
    """1 above the diagonal, 2 on it, 1 or 2 below it."""
    n = len(rows)
    for i in range(n):
        for j in range(n):
            assert rows[i][j] in ((1,) if j > i else (2,) if j == i else (1, 2))


class TestWordLayouts:
    def test_rows_are_blocks_in_column_order(self):
        # The row-sum DP places a row choice v as v << offset, which needs
        # both words to number the N cells 0..N-1 row by row, each row one
        # block in column order: bit b of the word is the b-th cell of the
        # row-major list.
        for n in range(1, 13):
            bits = range(n * (n - 1) // 2)
            upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
            lower = [(i, j) for i in range(n) for j in range(i)]
            assert [ones_at(Triangular01(n, 1 << b).rows(), 1)
                    for b in bits] == upper, n
            assert [ones_at(search._word_to_w_rows(n, 1 << b), 2)
                    for b in bits] == lower, n


def ones_at(rows, value):
    """The one off-diagonal cell of ``rows`` that holds ``value``."""
    (cell,) = [(i, j) for i, row in enumerate(rows) for j, x in enumerate(row)
               if i != j and x == value]
    return cell


def det_pair(rows):
    """``(det A, det(A + J))`` from two determinants, ``(0, None)`` for a
    singular A: what the bordered elimination of linalg._det_pair gives."""
    det = determinant_exact(rows)
    if det == 0:
        return 0, None
    return det, determinant_exact([[x + 1 for x in row] for row in rows])


class TestObjective:
    def assert_matches_two_determinants(self, rows):
        copy = [list(row) for row in rows]
        assert search._objective(rows) == det_pair(rows), rows
        assert rows == copy

    def test_every_binary_3x3(self):
        singular = 0
        for word in range(1 << 9):
            rows = [[(word >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
            self.assert_matches_two_determinants(rows)
            singular += search._objective(rows)[0] == 0
        assert singular == 338

    def test_seeded_binary_n4_to_n9(self):
        rng = random.Random(4099)
        for n in range(4, 10):
            for _ in range(150):
                self.assert_matches_two_determinants(
                    [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)])

    def test_seeded_integer_n1_to_n6(self):
        rng = random.Random(4100)
        for k in range(600):
            n = 1 + k % 6
            self.assert_matches_two_determinants(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])

    def test_singular_a_with_invertible_a_plus_j(self):
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
        assert determinant_exact([[x + 1 for x in row] for row in rows]) == 1
        assert search._objective(rows) == (0, None)

    def test_invertible_a_with_singular_a_plus_j(self):
        # S(A^{-1}) = -1, so det(A + J) = det A (1 + S(A^{-1})) = 0.
        for rows in ([[1, 1, 0, 1, 1], [1, 0, 0, 0, 0], [0, 1, 0, 1, 0],
                      [0, 0, 0, 1, 1], [1, 0, 1, 1, 0]],
                     [[-1, -1, -1], [0, 1, 0], [0, 0, 1]]):
            assert inverse_sum_via_determinant(rows) == -1
            assert search._objective(rows) == (determinant_exact(rows), 0)


class TestHillClimb:
    def test_n3_reaches_exhaustive_extremes(self):
        top = hill_climb_general(SearchConfig(n=3, direction="max",
                                              restarts=10, max_steps=60, seed=5))
        bottom = hill_climb_general(SearchConfig(n=3, direction="min",
                                                 restarts=10, max_steps=60, seed=5))
        assert top.best_sum == 3
        assert bottom.best_sum == 1

    def test_deterministic_given_seed(self):
        cfg = SearchConfig(n=4, direction="max", restarts=6, max_steps=60, seed=11)
        a = hill_climb_general(cfg)
        b = hill_climb_general(cfg)
        assert a == b

    def test_result_reverified(self):
        result = hill_climb_general(SearchConfig(n=4, direction="min",
                                                 restarts=4, max_steps=60, seed=2))
        rows = [list(r) for r in result.best_matrix]
        assert inverse_sum_via_determinant(rows) == result.best_sum

    def test_matches_two_determinant_climber(self):
        # Same draws, shuffles and acceptance rule, so the rank-one scoring
        # must reproduce the old climber exactly, including its counters.
        for n in range(3, 9):
            for direction in ("max", "min"):
                for max_steps in (1, 3, 300):
                    for seed in (0, 7, 20250808):
                        cfg = SearchConfig(n=n, direction=direction, restarts=3,
                                           max_steps=max_steps, seed=seed)
                        assert (hill_climb_general(cfg)
                                == hill_climb_two_determinants(cfg)), cfg

    def test_no_determinant_per_scored_flip(self, monkeypatch):
        # Eliminations go to the start draws, one bordered _objective per
        # draw, and the final re-verification, one linalg._det_pair, only,
        # so their number does not grow with the flips a longer climb scores.
        calls = []
        for module, name in ((linalg, "determinant_exact"), (linalg, "_det_pair"),
                             (search, "_objective")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda rows, original=original:
                                calls.append(1) or original(rows))
        counts = []
        for max_steps in (1, 300):
            calls.clear()
            result = hill_climb_general(SearchConfig(n=6, restarts=5,
                                                     max_steps=max_steps, seed=3))
            counts.append(len(calls))
        assert result.steps_taken > 5
        assert counts[0] == counts[1] >= 5 + 2

    def test_final_verifier_disagreement_raises(self, monkeypatch):
        # _objective is pinned to the true start score, so only the final
        # re-verification sees the fault.
        monkeypatch.setattr(search, "_objective", det_pair)
        monkeypatch.setattr(search, "inverse_sum_via_determinant",
                            lambda rows: inverse_sum_via_determinant(rows) + 1)
        with pytest.raises(InvariantError, match="from determinants"):
            hill_climb_general(SearchConfig(n=4, restarts=2, max_steps=5, seed=1))

    def test_start_score_disagreement_raises(self, monkeypatch):
        original = search._objective

        def shifted(rows):
            det, det_plus = original(rows)
            return (det, det_plus + 1) if det else (det, det_plus)

        monkeypatch.setattr(search, "_objective", shifted)
        with pytest.raises(InvariantError, match="start matrix"):
            hill_climb_general(SearchConfig(n=4, restarts=2, max_steps=5, seed=1))

    def test_start_determinant_disagreement_raises(self, monkeypatch):
        # A doubled adjugate keeps T / D but not D or T, which the integer
        # comparisons with the draw's determinants see.  A doubled D alone
        # keeps T, so only the comparison of the determinants sees it.
        original = search.adjugate_exact

        def doubled(rows):
            det, adj = original(rows)
            return 2 * det, [[2 * x for x in row] for row in adj]

        def doubled_det(rows):
            det, adj = original(rows)
            return 2 * det, adj

        for fault in (doubled, doubled_det):
            monkeypatch.setattr(search, "adjugate_exact", fault)
            with pytest.raises(InvariantError, match="start matrix"):
                hill_climb_general(SearchConfig(n=4, restarts=2, max_steps=5, seed=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(n=2, direction="max")
        with pytest.raises(ValueError):
            SearchConfig(n=4, direction="up")
        with pytest.raises(ValueError):
            SearchConfig(n=4, direction="max", restarts=0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SearchConfig(n=5, direction="max", restarts=1, seed=-1)

    def test_restart_streams_are_distinct(self):
        # Restart r of seed s draws from Random((s << 20) ^ r); with s >= 0
        # and r < 2^20 no two (seed, restart) pairs share that number.
        assert SEARCH_MAX_RESTARTS <= 1 << 20


@st.composite
def invertible_binary_with_cell(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    bits = draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n))
    rows = [bits[k * n:(k + 1) * n] for k in range(n)]
    # An invertible matrix has a nonzero term in its Leibniz expansion, so
    # it holds 1s on some permutation's cells: setting one drawn
    # permutation's cells to 1 loses no invertible matrix.  Uniform bits
    # alone are singular about half the time, and up to 48 of the 50
    # rejections HealthCheck.filter_too_much allows were seen before the
    # tenth valid example; with the permutation, at most 25.
    for i, j in enumerate(draw(st.permutations(range(n)))):
        rows[i][j] = 1
    assume(det_cofactor(rows) != 0)
    return rows, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))


def two_determinant_score(rows):
    """(D, T) of a square matrix from two cofactor determinants: D = det(A)
    and T = 1^T adj(A) 1 = det(A + J) - det(A)."""
    det = det_cofactor(rows)
    return det, det_cofactor([[x + 1 for x in row] for row in rows]) - det


def assert_state_of(state, rows):
    """``state`` holds ``rows`` with its adjugate and the adjugate's sums."""
    det, adj = adjugate_exact(rows)
    assert state.rows == rows
    assert (state.det, state.adj) == (det, adj)
    assert state.col_sums == [sum(col) for col in zip(*adj)]
    assert state.row_sums == [sum(row) for row in adj]
    assert state.total == sum(map(sum, adj))


class TestRankOneState:
    @settings(max_examples=200, deadline=None)
    @given(invertible_binary_with_cell())
    def test_flip_matches_direct_recomputation(self, case):
        rows, i, j = case
        state = RankOneState([list(r) for r in rows])
        assert state.inverse_sum() == inverse_sum_via_determinant(rows)
        d = 1 - 2 * rows[i][j]
        flipped = [list(r) for r in rows]
        flipped[i][j] += d
        det2, total2 = two_determinant_score(flipped)
        if det2 == 0:
            return
        state.apply(i, j, d, det2, total2)
        assert_state_of(state, flipped)
        assert state.inverse_sum() == inverse_sum_via_determinant(flipped)

    def test_singular_start_rejected(self):
        with pytest.raises(SingularMatrixError):
            RankOneState([[1, 1], [1, 1]])

    def test_inexact_adjugate_update_raises(self):
        state = RankOneState([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        det2, total2 = two_determinant_score([[1, 0, 0], [0, 1, 1], [1, 0, 1]])
        assert (state.det, det2) == (2, 1)
        state.adj[2][2] += 1  # its numerator moves by D' = 1, odd against D = 2
        with pytest.raises(InvariantError, match="row 2 leaves a remainder"):
            state.apply(0, 1, -1, det2, total2)

    def test_corrupted_adjugate_detected_by_improve(self):
        # Flipping a_01 scores T' = (3 * 1 + 2 * 1) / 2 with R_0 = 2.
        state = RankOneState([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        state.col_sums[0] += 1
        with pytest.raises(InvariantError, match="5 / 2 leaves remainder 1"):
            state.improve([(0, 1)], 1)

    @settings(max_examples=200, deadline=None)
    @given(invertible_binary_with_cell(), st.randoms(use_true_random=False),
           st.sampled_from([1, -1]))
    def test_improve_takes_first_improving_neighbour(self, case, rnd, sgn):
        # improve against determinants over the same order: the first flip
        # whose matrix is invertible (cofactor determinant) and whose
        # inverse sum (two Bareiss determinants) beats sgn * the current
        # one, with the state of the flipped matrix, or False and no
        # change at a local optimum.
        rows = case[0]
        n = len(rows)
        order = [divmod(b, n) for b in range(n * n)]
        rnd.shuffle(order)
        order = order[:rnd.randint(1, n * n)]
        current = inverse_sum_via_determinant(rows)
        expected = rows
        for i, j in order:
            flipped = [list(r) for r in rows]
            flipped[i][j] ^= 1
            if (det_cofactor(flipped)
                    and sgn * (inverse_sum_via_determinant(flipped) - current) > 0):
                expected = flipped
                break
        state = RankOneState([list(r) for r in rows])
        assert state.improve(order, sgn) == (expected is not rows)
        assert_state_of(state, expected)

    def test_improve_false_exactly_at_local_optimum(self):
        # Climb every cell order to its end: each True moves to a strictly
        # better neighbour, and the False comes where no flip of any cell
        # improves.
        cells = [divmod(b, 4) for b in range(16)]
        rng = random.Random(4)
        for sgn in (1, -1):
            rows = [[1, 1, 0, 1], [0, 1, 1, 0], [1, 0, 1, 1], [0, 0, 1, 1]]
            state = RankOneState(rows)
            while True:
                before = state.inverse_sum()
                order = cells[:]
                rng.shuffle(order)
                if not state.improve(order, sgn):
                    break
                assert sgn * (state.inverse_sum() - before) > 0
            assert state.inverse_sum() == before
            for i, j in cells:
                flipped = [list(r) for r in rows]
                flipped[i][j] ^= 1
                if det_cofactor(flipped):
                    value = inverse_sum_via_determinant(flipped)
                    assert sgn * (value - before) <= 0, (sgn, i, j)


class TestMaxAbsRowSumVector:
    def test_fibonacci_bound_n1_to_9(self):
        for n in range(1, 10):
            expected = tuple(1 if i <= 2 else fib(i - 1) for i in range(1, n + 1))
            assert max_abs_row_sum_vector(n) == expected

    def test_out_of_range(self):
        for n in (0, 10):
            with pytest.raises(ValueError, match="1..9"):
                max_abs_row_sum_vector(n)

    def test_reversal_maps_column_sums_onto_row_sums(self):
        # The identity the vector's row walk rests on: the row sums of
        # (J A^T J)^{-1} are the column sums of A^{-1}, reversed.
        for n in range(1, 6):
            for mask in range(1 << (n * (n - 1) // 2)):
                a = Triangular01(n, mask).rows()
                flipped = [[a[n - 1 - j][n - 1 - i] for j in range(n)]
                           for i in range(n)]
                rows = [sum(r) for r in invert_unit_triangular(flipped)]
                cols = [sum(c) for c in zip(*invert_unit_triangular(a))]
                assert rows == cols[::-1], (n, mask)


class TestVerifyTheoremRange:
    def test_exhaustive_n5(self):
        report = verify_theorem_range(5)
        assert report.ok
        assert (report.low, report.high) == (-1, 5)
        assert report.method == "exhaustive"

    def test_exhaustive_n8(self):
        report = verify_theorem_range(8)
        assert report.ok
        assert (report.low, report.high) == (-11, 15)
        assert report.method == "exhaustive"

    def test_constructive_n9(self):
        report = verify_theorem_range(9)
        assert report.ok
        assert report.method == "constructive"
        assert (report.low, report.high) == (2 - fib(8), 2 + fib(8))

    def test_limit_enforced(self):
        assert CONSTRUCTIVE_MAX_N == 20
        for n in (21, 25):
            with pytest.raises(ValueError, match="CONSTRUCTIVE_MAX_N = 20"):
                verify_theorem_range(n)


class TestSumDistribution:
    def test_json_dict_shape(self):
        dist = enumerate_triangular(4)
        payload = dist.to_json_dict()
        assert set(payload) == {"family", "n", "min", "max",
                                "achieved", "counts", "witnesses"}
        assert payload["min"] == 0 and payload["max"] == 4
        assert payload["counts"]["2"] == 30
        assert payload["witnesses"]["4"] == [[1, 0, 0, 0], [0, 1, 0, 0],
                                             [0, 0, 1, 0], [0, 0, 0, 1]]

    def test_json_dict_rational_keys(self):
        payload = enumerate_general(3).to_json_dict(include_witnesses=False)
        assert "3/2" in payload["counts"]
        assert "witnesses" not in payload
