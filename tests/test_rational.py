"""Tests for exact complex rational scalars and their string forms."""

from fractions import Fraction

import pytest

from weylmod.rational import (
    ComplexRational,
    exact,
    format_fraction,
    format_scalar,
    parse_int,
    parse_scalar,
)


def test_construction_and_coercion():
    z = ComplexRational(Fraction(1, 2), -3)
    assert z.real == Fraction(1, 2) and z.imag == -3
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
    # a token is ASCII: no other decimal digits, no other whitespace
    for bad in ("", "one", "1+2j", "--3", "1/0", "-1+1/0 i",
                "\u0662", "\u0661/\u0662", "\uff12", "-1\u3000+ i"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_parse_int():
    assert parse_int("12") == 12 and parse_int("-3") == -3
    # PEP 515 underscores and non-ASCII digits are malformed, as in
    # parse_fraction
    for bad in ("", "x", "1.0", "1/1", "1_0", "0_2", "\u0662", "\u0661/\u0662",
                "\uff12"):
        with pytest.raises(ValueError, match="invalid depth %r" % bad):
            parse_int(bad, "depth")


def test_scalar_parts():
    # every scalar reads its parts as .real and .imag, as in PEP 3141
    assert Fraction(2, 3).real == Fraction(2, 3)
    assert Fraction(2, 3).imag == 0
    assert (7).real == 7 and (7).imag == 0
    assert ComplexRational(1, 5).real == 1
    assert ComplexRational(1, 5).imag == 5
    assert ComplexRational(Fraction(2, 3), 0).real == Fraction(2, 3)
    assert ComplexRational(Fraction(2, 3), 0).imag == 0


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
        assert isinstance(y, Fraction) == (x.imag == 0)

    check()


def test_exact_and_formats_build_no_fraction(monkeypatch):
    third = Fraction(-3, 4)
    exact_cases = [(7, 7), (True, 1), (Fraction(6, 3), 2), (third, third)]
    string_cases = [(7, "7"), (-12, "-12"), (True, "1"), (False, "0"),
                    (Fraction(4, 2), "2"), (third, "-3/4"), (Fraction(5, 3), "5/3")]
    built = []
    real_new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *a, **k: built.append(a) or real_new(cls, *a, **k))
    exacts = [exact(x) for x, _ in exact_cases]
    fractions = [format_fraction(x) for x, _ in string_cases]
    scalars = [format_scalar(x) for x, _ in string_cases]
    monkeypatch.undo()
    assert built == []
    assert exacts == [v for _, v in exact_cases]
    assert [type(v) for v in exacts] == [int, int, int, Fraction]
    assert exacts[-1] is third
    assert fractions == scalars == [t for _, t in string_cases]
    assert format_scalar(ComplexRational(3, 0)) == "3"
    assert format_scalar(ComplexRational(Fraction(1, 2), -2)) == "1/2-2 i"
    assert format_scalar(ComplexRational(True, Fraction(2, 3))) == "1+2/3 i"
    with pytest.raises(TypeError):
        exact(0.5)
    with pytest.raises(TypeError):
        format_scalar(0.5)


def test_exact_is_int_when_integral():
    assert type(exact(Fraction(6, 3))) is int and exact(Fraction(6, 3)) == 2
    assert type(exact(-4)) is int
    assert exact(Fraction(1, 2)) == Fraction(1, 2)
    assert type(exact(True)) is int
    with pytest.raises(TypeError):
        exact(0.5)
    with pytest.raises(TypeError):
        ComplexRational(1, 0.5)
    with pytest.raises(TypeError):
        ComplexRational(ComplexRational(1, 1))
    assert ComplexRational(ComplexRational(1, 0), 2) == ComplexRational(1, 2)
    z = ComplexRational(Fraction(4, 2), Fraction(1, 3))
    assert type(z.real) is int and z.imag == Fraction(1, 3)
    # int components never divide to a float
    w = ComplexRational(1, 1).inverse()
    assert w == ComplexRational(Fraction(1, 2), Fraction(-1, 2))
    assert type(w.real) is Fraction and type(w.imag) is Fraction
    # a ComplexRational on the real axis canonicalises to its real part
    assert type(exact(ComplexRational(2, 0))) is int
    assert exact(ComplexRational(2, 0)) == 2
    half = exact(ComplexRational(Fraction(1, 2), 0))
    assert type(half) is Fraction and half == Fraction(1, 2)
    assert type(exact(ComplexRational(2, 1))) is ComplexRational


def test_scalars_compare_by_value_across_types():
    # sugawara_l0 compares each accumulated column, whose entries may be of
    # any scalar type, with the canonical exact() of its target
    for value in (3, Fraction(3, 2), Fraction(-2, 7)):
        for form in (Fraction(value), ComplexRational(value, 0)):
            assert form == exact(value) and exact(value) == form
            assert {4: form} == {4: exact(form)}
            assert {4: exact(form)} == {4: form}
    assert {4: ComplexRational(3, 0)} != {4: ComplexRational(3, 1)}
    assert {4: ComplexRational(3, 1)} != {4: 3}


def test_exact_rejects_what_is_not_a_scalar():
    # a string is input still to be parsed (parse_scalar), never a scalar
    # read through Fraction(x); a float stands for a value already rounded
    for bad in ("-1", "1/2", None, [1], 0.5):
        with pytest.raises(TypeError, match="not an exact scalar"):
            exact(bad)
        with pytest.raises(TypeError, match="not an exact scalar"):
            ComplexRational(bad)


def test_arithmetic_on_mixed_operands_against_pair_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    rationals = st.one_of(
        st.integers(-50, 50),
        st.fractions(min_value=-50, max_value=50, max_denominator=12),
    )
    operands = st.one_of(rationals, st.builds(ComplexRational, rationals, rationals))

    def pair(x):
        """The oracle: x as a (Fraction, Fraction) pair."""
        if isinstance(x, ComplexRational):
            return Fraction(x.real), Fraction(x.imag)
        return Fraction(x), Fraction(0)

    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    def inv(a):
        n = a[0] * a[0] + a[1] * a[1]
        return a[0] / n, -a[1] / n

    def no_float(z):
        assert not isinstance(z, float)
        if isinstance(z, ComplexRational):
            assert not isinstance(z.real, float) and not isinstance(z.imag, float)
            # components are held in canonical form
            for c in (z.real, z.imag):
                assert type(c) is int or c.denominator != 1

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(operands, operands)
    def check(x, y):
        if not isinstance(x, ComplexRational) and not isinstance(y, ComplexRational):
            x = ComplexRational(x)  # at least one side is complex
        a, b = pair(x), pair(y)
        expected = {
            "+": (a[0] + b[0], a[1] + b[1]),
            "-": (a[0] - b[0], a[1] - b[1]),
            "*": mul(a, b),
        }
        got = {"+": x + y, "-": x - y, "*": x * y}
        if any(b):
            expected["/"] = mul(a, inv(b))
            got["/"] = x / y
        for name, z, c in (("inverse x", x, a), ("inverse y", y, b)):
            if isinstance(z, ComplexRational) and any(c):
                expected[name] = inv(c)
                got[name] = z.inverse()
        for op, z in got.items():
            no_float(z)
            assert pair(z) == expected[op], op
        # == and hash agree with the pair, across int/Fraction operands
        for z, c in ((x, a), (y, b)):
            twin = ComplexRational(*c)
            assert twin == z and hash(twin) == hash(z)
            if c[1] == 0:
                assert twin == c[0] and hash(twin) == hash(c[0])
        assert (x == y) == (a == b)

    check()


def test_parts_and_canonical_form_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    rationals = st.one_of(
        st.integers(-50, 50),
        st.fractions(min_value=-50, max_value=50, max_denominator=12),
    )
    # (scalar, its parts as the pair oracle): ints, Fractions, and
    # ComplexRationals, those with a zero imaginary part among them
    scalars = st.one_of(
        rationals.map(lambda a: (a, (a, 0))),
        rationals.map(lambda a: (ComplexRational(a, 0), (a, 0))),
        st.tuples(rationals, rationals).map(lambda p: (ComplexRational(*p), p)),
    )

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(scalars)
    def check(case):
        x, (a, b) = case
        assert (x.real, x.imag) == (a, b)
        y = exact(x)
        assert y == x and hash(y) == hash(x)
        again = exact(y)
        assert again == y and type(again) is type(y)
        if b:
            assert type(y) is ComplexRational
            assert (y.real, y.imag) == (exact(a), exact(b))
        elif Fraction(a).denominator == 1:
            assert type(y) is int
        else:
            assert type(y) is Fraction

    check()
