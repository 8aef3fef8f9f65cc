"""Tests for exact complex rational scalars and their string forms."""

from fractions import Fraction

import pytest

from weylmod.rational import (
    ComplexRational,
    format_fraction,
    format_scalar,
    parse_scalar,
    scalar_im,
    scalar_re,
)


def test_construction_and_coercion():
    z = ComplexRational(Fraction(1, 2), -3)
    assert z.re == Fraction(1, 2) and z.im == -3
    assert ComplexRational(2) == 2
    assert ComplexRational(Fraction(3, 4), 0) == Fraction(3, 4)
    assert not ComplexRational(0, 0)
    assert ComplexRational(0, 1)


def test_field_arithmetic():
    i = ComplexRational(0, 1)
    assert i * i == -1
    z = ComplexRational(-1, 1)
    assert z + 1 == i
    assert 1 + z == i
    assert z - z == 0
    assert 2 - z == ComplexRational(3, -1)
    assert z * z == ComplexRational(0, -2)
    assert (z * z.inverse()) == 1
    assert 1 / z == ComplexRational(Fraction(-1, 2), Fraction(-1, 2))
    assert (z / z) == 1
    assert -z == ComplexRational(1, -1)
    w = Fraction(3, 2) * z
    assert w == ComplexRational(Fraction(-3, 2), Fraction(3, 2))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ComplexRational(0, 0).inverse()


def test_mixed_fraction_interop():
    z = ComplexRational(1, 2)
    assert Fraction(1, 3) + z == ComplexRational(Fraction(4, 3), 2)
    assert Fraction(1, 2) / ComplexRational(0, 1) == ComplexRational(0, Fraction(-1, 2))
    # hash consistency on the real axis
    assert hash(ComplexRational(Fraction(5, 7), 0)) == hash(Fraction(5, 7))


def test_as_fraction():
    assert ComplexRational(Fraction(2, 3), 0).as_fraction() == Fraction(2, 3)
    with pytest.raises(ValueError):
        ComplexRational(0, 1).as_fraction()


def test_format_fraction():
    assert format_fraction(Fraction(3)) == "3"
    assert format_fraction(Fraction(-1, 2)) == "-1/2"
    assert format_fraction(7) == "7"


def test_format_scalar():
    assert format_scalar(Fraction(-3, 4)) == "-3/4"
    assert format_scalar(ComplexRational(Fraction(-3, 4), 0)) == "-3/4"
    assert format_scalar(ComplexRational(-1, 1)) == "-1+1 i"
    assert format_scalar(ComplexRational(0, Fraction(-1, 2))) == "0-1/2 i"


def test_parse_scalar_round_trip():
    cases = [
        Fraction(0),
        Fraction(-2),
        Fraction(7, 3),
        ComplexRational(-1, 1),
        ComplexRational(Fraction(1, 2), Fraction(-3, 4)),
        ComplexRational(0, 1),
        ComplexRational(0, -1),
    ]
    for x in cases:
        assert parse_scalar(format_scalar(x)) == x


def test_parse_scalar_shorthands():
    assert parse_scalar("i") == ComplexRational(0, 1)
    assert parse_scalar("-i") == ComplexRational(0, -1)
    assert parse_scalar("-1+i") == ComplexRational(-1, 1)
    assert parse_scalar("2-i") == ComplexRational(2, -1)
    assert parse_scalar("3/4i") == ComplexRational(0, Fraction(3, 4))
    assert parse_scalar(" -1 + 1 i ") == ComplexRational(-1, 1)
    assert parse_scalar("-3/2") == Fraction(-3, 2)
    # zero imaginary part collapses to Fraction
    assert isinstance(parse_scalar("5+0i"), Fraction)


def test_parse_scalar_rejects_garbage():
    for bad in ("", "one", "1+2j", "--3", "1/0", "-1+1/0 i"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_scalar_parts():
    assert scalar_re(Fraction(2, 3)) == Fraction(2, 3)
    assert scalar_im(Fraction(2, 3)) == 0
    assert scalar_re(ComplexRational(1, 5)) == 1
    assert scalar_im(ComplexRational(1, 5)) == 5


def test_format_parse_round_trip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    fractions = st.fractions(max_denominator=10**6)
    scalars = st.one_of(
        fractions,
        st.builds(ComplexRational, fractions, fractions),
    )

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(scalars)
    def check(x):
        y = parse_scalar(format_scalar(x))
        assert y == x
        assert isinstance(y, Fraction) == (scalar_im(x) == 0)

    check()
