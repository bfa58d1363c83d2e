from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibsum.matrixio import (MatrixFormatError, format_matrix, format_scalar,
                             parse_matrix, parse_scalar)


def test_scalar_round_trip():
    for value in (0, -7, 123456789123456789, Fraction(3, 4), Fraction(-5, 2),
                  Fraction(6, 3)):
        assert parse_scalar(format_scalar(value)) == value


def test_integral_fraction_written_as_int():
    assert format_scalar(Fraction(6, 3)) == "2"


def test_matrix_round_trip_int():
    rows = [[1, 0, 2], [0, -1, 3], [5, 0, 1]]
    assert parse_matrix(format_matrix(rows)) == rows


def test_matrix_round_trip_rational():
    rows = [[Fraction(1), Fraction(1, 2)], [Fraction(0), Fraction(1)]]
    parsed = parse_matrix(format_matrix(rows))
    assert parsed == [[1, Fraction(1, 2)], [0, 1]]


def test_comments_and_blank_lines_skipped():
    text = "# a matrix\n\n2\n# rows follow\n1 0\n\n0 1\n# trailing\n"
    assert parse_matrix(text) == [[1, 0], [0, 1]]


def test_errors():
    with pytest.raises(MatrixFormatError):
        parse_matrix("")
    with pytest.raises(MatrixFormatError):
        parse_matrix("x\n1\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix("2\n1 0\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix("2\n1 0\n0 1 1\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix("1\nfoo\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix("1\n1/0\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix("0\n")


SCALARS = st.one_of(st.integers(-10**30, 10**30),
                    st.fractions(max_denominator=10**12))


@settings(max_examples=300, deadline=None)
@given(SCALARS)
def test_scalar_round_trip_property(value):
    assert parse_scalar(format_scalar(value)) == value


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(SCALARS, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_matrix_write_read_round_trip(rows):
    parsed = parse_matrix(format_matrix(rows))
    assert parsed == rows
    # Whole numbers come back as ints, the rest as Fractions in lowest terms.
    assert all(type(x) is int if x == int(x) else type(x) is Fraction
               for row in parsed for x in row)
    assert format_matrix(parsed) == format_matrix(rows)
