"""Seeded draws straight from ``random.Random.getrandbits``.

``Random.shuffle`` and ``Random.randint`` spend most of their time in the
Python wrappers around ``getrandbits``.  :func:`shuffle` repeats CPython's
``Random.shuffle`` and its ``_randbelow_with_getrandbits`` (the same in 3.10
to 3.13) step for step, and :func:`coin_flips` takes a run of
``randint(0, 1)`` draws in a few bulk calls.  Each consumes the same words
as the methods it replaces and gives their results.  The bit length that
each swap of a shuffle draws depends only on the list's length, so it is
worked out once per length and kept.
"""

from __future__ import annotations

from functools import lru_cache

# A word's top byte b holds getrandbits(2) as b >> 6; b >= 128 is a draw of
# 2 or 3, which randint(0, 1) rejects.
_TOP_BITS = bytes(b >> 6 for b in range(256))
_REJECTED = bytes(range(128, 256))


@lru_cache(maxsize=16)
def _shuffle_plan(length: int) -> tuple:
    """(i, i + 1, (i + 1).bit_length()) for each swap of a shuffle of
    ``length`` items, in the order ``Random.shuffle`` makes them."""
    return tuple((i, i + 1, (i + 1).bit_length()) for i in range(length - 1, 0, -1))


def shuffle(x: list, getrandbits) -> None:
    """Shuffle ``x`` in place as ``Random.shuffle`` does: for i from
    len(x) - 1 down to 1, swap x[i] with x[randbelow(i + 1)]."""
    for i, m, k in _shuffle_plan(len(x)):
        j = getrandbits(k)
        while j >= m:  # as Random._randbelow_with_getrandbits(m)
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def coin_flips(count: int, getrandbits) -> bytes:
    """``count`` draws of ``randint(0, 1)`` as bytes of value 0 or 1.

    Each draw is getrandbits(2), the top two bits of one 32-bit word,
    repeated while it is 2 or 3.  ``getrandbits(32 * m)`` returns the next
    m words with the first in the lowest bits, so byte 4t + 3 of its
    little-endian bytes is word t's top byte.  A batch takes one word for
    each of the m draws still needed and keeps the words that are not
    rejected, so no batch reads past the last draw.
    """
    out = b""
    while len(out) < count:
        m = count - len(out)
        top = getrandbits(32 * m).to_bytes(4 * m, "little")[3::4]
        out += top.translate(_TOP_BITS, _REJECTED)
    return out
