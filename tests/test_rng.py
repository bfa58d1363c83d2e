"""The seeded shuffle of fibsum._rng takes the same words from getrandbits
as ``Random.shuffle`` and leaves the same order."""

import random

from fibsum._rng import shuffle


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
