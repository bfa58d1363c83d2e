"""Seeded draws straight from ``random.Random.getrandbits``.

``Random.randint`` and ``Random.shuffle`` spend most of their time in the
Python wrappers around ``getrandbits``.  These helpers repeat CPython's
``_randbelow_with_getrandbits`` and ``Random.shuffle`` (the same in 3.10
to 3.13) step for step, so they consume the same words and return the
same values:
``randint(a, b)`` is ``a + randbelow(getrandbits, b - a + 1)``, and
``shuffle(x, getrandbits)`` leaves ``x`` as ``rng.shuffle(x)`` would.
"""

from __future__ import annotations


def randbelow(getrandbits, m: int) -> int:
    """A draw from range(m), m >= 1: ``getrandbits(m.bit_length())``,
    redrawn while it is >= m."""
    k = m.bit_length()
    r = getrandbits(k)
    while r >= m:
        r = getrandbits(k)
    return r


def shuffle(x: list, getrandbits) -> None:
    """Shuffle ``x`` in place as ``Random.shuffle`` does: for i from
    len(x) - 1 down to 1, swap x[i] with x[randbelow(i + 1)]."""
    for i in range(len(x) - 1, 0, -1):
        m = i + 1
        k = m.bit_length()
        j = getrandbits(k)
        while j >= m:  # randbelow(getrandbits, m), inlined
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]
