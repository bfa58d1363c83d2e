"""The seeded draws of fibsum._rng take the same words from getrandbits as
the ``random.Random`` methods they replace and give the same results."""

import random

from fibsum._rng import coin_flips, shuffle


def test_shuffle_matches_random_shuffle():
    for length in range(145):
        for seed in range(20):
            ref = random.Random(seed)
            rng = random.Random(seed)
            expected = list(range(length))
            ref.shuffle(expected)
            got = list(range(length))
            shuffle(got, rng.getrandbits)
            assert got == expected, (length, seed)
            assert rng.getstate() == ref.getstate(), (length, seed)


def test_alternating_lengths_on_one_generator():
    # Each length's swaps are worked out once and kept, so a shuffle of one
    # length must not take the swaps of the length shuffled before it.
    for lengths in ((49, 64), (64, 49), (2, 3), (144, 0, 1, 144)):
        ref = random.Random(5)
        rng = random.Random(5)
        for step in range(12):
            length = lengths[step % len(lengths)]
            expected = list(range(length))
            ref.shuffle(expected)
            got = list(range(length))
            shuffle(got, rng.getrandbits)
            assert got == expected, (lengths, step)
        assert rng.getstate() == ref.getstate(), lengths


def test_bulk_words_are_successive_words_first_lowest():
    # coin_flips reads word t of getrandbits(32 * m) at bits 32t .. 32t + 31,
    # and a draw of getrandbits(2) as the top two bits of one word.
    for seed in range(10):
        for m in (1, 2, 3, 17, 64):
            bulk = random.Random(seed).getrandbits(32 * m)
            ref = random.Random(seed)
            words = [ref.getrandbits(32) for _ in range(m)]
            assert bulk == sum(w << (32 * t) for t, w in enumerate(words)), (seed, m)
        ref = random.Random(seed)
        word = random.Random(seed).getrandbits(32)
        assert ref.getrandbits(2) == word >> 30, seed


def test_coin_flips_match_randint():
    for n in range(3, 65):
        for seed in (0, 1, 7, 2024, (5 << 20) ^ 3):
            ref = random.Random(seed)
            rng = random.Random(seed)
            expected = [ref.randint(0, 1) for _ in range(n * n)]
            got = coin_flips(n * n, rng.getrandbits)
            assert list(got) == expected, (n, seed)
            assert rng.getrandbits(32) == ref.getrandbits(32), (n, seed)
