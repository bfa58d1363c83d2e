import json

import pytest

from fibsum import cli, fibonacci
from fibsum.fibonacci import (check_corollary3, check_corollary4, check_lemma1,
                              corollary_failures, fib)
from fibsum.linalg import InvariantError

# The signed Fibonacci representations are the reference that the any-sum
# constructor's greedy placement is compared with (tests/test_construct.py),
# so the representation tests below check that reference.
import oracles
from oracles import (SignedFibRepresentation, fib_prefix_sum,
                     restricted_representation, signed_representation)


class TestFib:
    def test_base_values(self):
        assert fib(1) == 1
        assert fib(2) == 1

    def test_known_values(self):
        assert fib(6) == 8
        assert fib(10) == 55

    def test_recurrence_and_monotonicity(self):
        for k in range(3, 91):
            assert fib(k) == fib(k - 1) + fib(k - 2)
        for k in range(2, 90):
            assert fib(k + 1) > fib(k)

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValueError):
            fib(0)
        with pytest.raises(ValueError):
            fib(-3)

    def test_limit_is_inclusive(self):
        limit = fibonacci.FIB_INDEX_LIMIT
        assert fib(limit) == fib(limit - 1) + fib(limit - 2)
        with pytest.raises(ValueError, match="FIB_INDEX_LIMIT"):
            fib(limit + 1)

    def test_prefix_sum(self):
        assert fib_prefix_sum(0) == 0
        for m in range(1, 30):
            assert fib_prefix_sum(m) == sum(fib(k) for k in range(1, m + 1))


class TestLemma1:
    def test_smallest_case(self):
        # 1 + F_1 = 2 = F_3, 1 + F_2 = 2 = F_3 and F_1 = 1 = F_2
        assert check_lemma1(1) == []

    def test_item2_n3(self):
        # 1 + F_2 + F_4 + F_6 = 1 + 1 + 3 + 8 = 13 = F_7
        assert 1 + fib(2) + fib(4) + fib(6) == 13 == fib(7)
        assert (3, 2) not in check_lemma1(3)

    def test_all_identities_to_90(self):
        assert check_lemma1(90) == []

    def test_failure_order_is_identity_major(self, capsys, monkeypatch):
        # With F_10 one too large, identity 1 fails where its sums read F_10
        # (n = 8 and n >= 10), identity 2 from n = 5 and identity 3 at n = 5
        # only.  Failures are listed identity by identity, each by n.
        expected = [(8, 1), (10, 1), (11, 1), (12, 1), (5, 2), (6, 2), (7, 2),
                    (8, 2), (9, 2), (10, 2), (11, 2), (12, 2), (5, 3)]
        monkeypatch.setattr(fibonacci, "fib", lambda k: fib(k) + (k == 10))
        assert check_lemma1(12) == expected
        assert cli.main(["verify", "--suite", "corollaries", "--n", "12", "--json"]) == 2
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["lemma1-identities"]["detail"] == f"failures: {expected}"

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            check_lemma1(0)

    def test_rejects_n_above_limit_before_computing(self):
        cached = len(fibonacci._cache)
        with pytest.raises(ValueError, match="IDENTITY_MAX_N"):
            check_lemma1(fibonacci.IDENTITY_MAX_N + 1)
        assert len(fibonacci._cache) == cached


class TestRestrictedRepresentation:
    def test_zero(self):
        assert restricted_representation(0, 5) == []

    def test_four_with_budget_four(self):
        assert restricted_representation(4, 4) == [4, 2]  # F_4 + F_2 = 3 + 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            restricted_representation(-1, 4)
        with pytest.raises(ValueError):
            restricted_representation(fib_prefix_sum(4) + 1, 4)

    def test_lemma_statement_brute_force(self):
        # Every F_{n-1} <= T < F_n decomposes over distinct indices <= n - 2.
        for n in range(3, 26):
            for target in range(fib(n - 1), fib(n)):
                indices = restricted_representation(target, n - 2)
                assert sum(fib(k) for k in indices) == target
                assert all(a > b for a, b in zip(indices, indices[1:]))
                assert all(k <= n - 2 for k in indices)

    def test_full_budget_round_trip(self):
        for bound in range(1, 12):
            for target in range(fib_prefix_sum(bound) + 1):
                indices = restricted_representation(target, bound)
                assert sum(fib(k) for k in indices) == target
                assert len(set(indices)) == len(indices)


class TestSignedRepresentation:
    def test_zero(self):
        rep = signed_representation(0, 9)
        assert rep.coeffs == (0,) * 7
        assert rep.value == 0

    def test_full_positive_bound(self):
        for n in range(3, 15):
            rep = signed_representation(fib(n - 1), n)
            assert rep.coeffs == (1,) * (n - 2)
            assert rep.value == fib(n - 1)

    def test_spec_magnitudes(self):
        rep = signed_representation(7, 7)
        assert rep.magnitudes() == (1, 1, 1, 2, 3)
        assert rep.value == 7

    def test_one_sided_round_trip_exhaustive(self):
        for n in range(3, 21):
            bound = fib(n - 1)
            for target in range(-bound, bound + 1):
                rep = signed_representation(target, n)
                assert rep.value == target
                assert isinstance(rep, SignedFibRepresentation)
                if target >= 0:
                    assert all(u >= 0 for u in rep.coeffs)
                if target <= 0:
                    assert all(u <= 0 for u in rep.coeffs)

    def test_bound_error_names_limit(self):
        with pytest.raises(ValueError, match=r"F_6 = 8"):
            signed_representation(9, 7)
        with pytest.raises(ValueError):
            signed_representation(1, 2)


class TestCorollaries:
    def test_corollary3_base(self):
        # n=5: (5-1)(-1)F_1 + 4 F_2 = 0 and F_4 - 3 = 0
        assert check_corollary3(5)

    def test_corollary4_base(self):
        # n=6: -5 F_1 + 6 F_2 = 1 and F_5 - 4 = 1
        assert check_corollary4(6)

    def test_up_to_90(self):
        assert all(check_corollary3(n) for n in range(5, 91))
        assert all(check_corollary4(n) for n in range(6, 91))

    def test_running_sums_match_per_n_checks(self, monkeypatch):
        # Every n <= 300, with the true sequence and with one Fibonacci
        # number perturbed, so that both sides report the same failures.
        def per_n(max_n):
            return ([n for n in range(5, max_n + 1) if not check_corollary3(n)],
                    [n for n in range(6, max_n + 1) if not check_corollary4(n)])

        assert corollary_failures(300) == per_n(300) == ([], [])
        for k in (1, 3, 17, 120):
            monkeypatch.setattr(fibonacci, "fib",
                                lambda i, k=k: fib(i) + (i == k))
            bad = corollary_failures(300)
            assert bad == per_n(300), k
            assert bad[0] and bad[1] and bad[0][0] > k
        monkeypatch.undo()
        assert corollary_failures(4) == corollary_failures(5) == ([], [])

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            check_corollary3(4)
        with pytest.raises(ValueError):
            check_corollary4(5)


class TestInvariantErrors:
    def test_signed_representation_checks_its_value(self, monkeypatch):
        monkeypatch.setattr(oracles, "restricted_representation",
                            lambda target, max_fib_index: [])
        with pytest.raises(InvariantError, match="value 0"):
            signed_representation(3, 7)
