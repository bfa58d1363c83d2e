"""The seeded draws of fibsum._rng take the same words from getrandbits as
the stdlib methods they replace, and return the same values."""

import random

import pytest

from fibsum._rng import randbelow, shuffle

SEEDS = range(60)


@pytest.mark.parametrize("m", [1, 2, 3, 16, 17, 1000, 10**6 + 1, 2**40])
def test_randbelow_matches_randrange(m):
    for seed in SEEDS:
        ref = random.Random(seed)
        rng = random.Random(seed)
        expected = [ref.randrange(m) for _ in range(40)]
        assert [randbelow(rng.getrandbits, m) for _ in range(40)] == expected
        assert rng.getstate() == ref.getstate(), (m, seed)


def test_randbelow_matches_randint_draws():
    # The forms the climb and the relaxation sampler use.
    for seed in SEEDS:
        ref = random.Random(seed)
        rng = random.Random(seed)
        for bound in (1, 2, 16, 1000):
            q = ref.randint(1, bound)
            assert 1 + randbelow(rng.getrandbits, bound) == q
            assert randbelow(rng.getrandbits, q + 1) == ref.randint(0, q)
            assert randbelow(rng.getrandbits, 2) == ref.randint(0, 1)
        assert rng.getstate() == ref.getstate(), seed


def test_shuffle_matches_random_shuffle():
    for length in range(1, 145):
        for seed in range(20):
            ref = random.Random(seed)
            rng = random.Random(seed)
            expected = list(range(length))
            ref.shuffle(expected)
            got = list(range(length))
            shuffle(got, rng.getrandbits)
            assert got == expected, (length, seed)
            assert rng.getstate() == ref.getstate(), (length, seed)
