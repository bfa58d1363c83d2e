"""Seeded shuffles straight from ``random.Random.getrandbits``.

``Random.shuffle`` spends most of its time in the Python wrappers around
``getrandbits``.  :func:`shuffle` repeats CPython's ``Random.shuffle`` and
its ``_randbelow_with_getrandbits`` (the same in 3.10 to 3.13) step for
step, so it consumes the same words and leaves ``x`` as
``rng.shuffle(x)`` would.
"""

from __future__ import annotations


def shuffle(x: list, getrandbits) -> None:
    """Shuffle ``x`` in place as ``Random.shuffle`` does: for i from
    len(x) - 1 down to 1, swap x[i] with x[randbelow(i + 1)]."""
    for i in range(len(x) - 1, 0, -1):
        m = i + 1
        k = m.bit_length()
        j = getrandbits(k)
        while j >= m:  # as Random._randbelow_with_getrandbits(m)
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]
