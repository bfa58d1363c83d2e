"""Plain-text matrix format shared by the library and the CLI.

First non-comment line: the dimension n.  Then n lines of n space-separated
entries; an entry is an integer or a rational written as "p/q".  Lines
starting with '#' are comments and may appear anywhere; blank lines are
ignored.
"""

from __future__ import annotations

import re
from fractions import Fraction


class MatrixFormatError(ValueError):
    """Malformed matrix text."""


# ASCII only: int() also takes underscores, surrounding whitespace and
# non-ASCII digits.
_INT = r"[+-]?[0-9]+"
_INTEGER = re.compile(_INT)
_SCALAR = re.compile(rf"({_INT})(?:/([0-9]+))?")


def format_scalar(x) -> str:
    """An exact scalar as text, by the rule of :func:`json_scalar`."""
    return str(json_scalar(x))


def json_scalar(x):
    """An exact scalar for JSON: an int, or a Fraction with denominator 1,
    as an int; any other Fraction as its "p/q" string."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else str(x)
    return x


def parse_scalar(token: str):
    """An entry: ASCII ``[+-]digits``, optionally followed by ``/digits``."""
    match = _SCALAR.fullmatch(token)
    if match is None:
        raise MatrixFormatError(f"bad matrix entry {token!r}")
    num, den = match.groups()
    try:
        return int(num) if den is None else Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise MatrixFormatError(f"bad matrix entry {token!r}") from exc


def format_matrix(rows) -> str:
    n = len(rows)
    lines = [str(n)]
    lines.extend(" ".join(format_scalar(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def parse_matrix(text: str, check_dimension=None):
    """The rows of matrix text.  ``check_dimension``, when given, is called
    with n as soon as the dimension line is read, before any row is parsed,
    so that it can refuse a size by raising."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise MatrixFormatError("empty matrix text")
    bad_dimension = f"first line must be the dimension, got {lines[0]!r}"
    if not _INTEGER.fullmatch(lines[0]):
        raise MatrixFormatError(bad_dimension)
    try:
        n = int(lines[0])
    except ValueError as exc:  # more digits than int() converts
        raise MatrixFormatError(bad_dimension) from exc
    if n < 1:
        raise MatrixFormatError(f"dimension must be positive, got {n}")
    if check_dimension is not None:
        check_dimension(n)
    if len(lines) - 1 != n:
        raise MatrixFormatError(f"expected {n} matrix rows, got {len(lines) - 1}")
    rows = []
    for k, line in enumerate(lines[1:], start=1):
        tokens = line.split()
        if len(tokens) != n:
            raise MatrixFormatError(f"row {k}: expected {n} entries, got {len(tokens)}")
        rows.append([parse_scalar(tok) for tok in tokens])
    return rows
