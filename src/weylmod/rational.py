"""Exact complex rational numbers.

The central charge kappa may be any nonzero complex number away from the
critical value; everything downstream (Sugawara eigenvalues, central terms,
kernels) must stay exact, so we work in Q(i).  A scalar is an int, a
fractions.Fraction or a ComplexRational, and exact(x) gives its canonical
form: an int when it is integral, a Fraction when it is rational, and a
ComplexRational only when its imaginary part is nonzero.  As in the numeric
tower of PEP 3141, x.real and x.imag read the parts of every such scalar,
so no caller tests which of the three it holds.  ComplexRational stores its
parts in canonical form and interoperates with int and Fraction operands,
which lets the module machinery run on ints while every scalar is integral,
on Fractions once a denominator appears, and in Q(i) only when an actually
complex scalar enters.  Every division goes through Fraction, so two int
operands never give a float.
"""

from __future__ import annotations

from fractions import Fraction


def exact(x):
    """The canonical form of the scalar x: an int when it is integral, a
    Fraction when it is rational, else a ComplexRational.

    Anything else is a TypeError: a float would stand for a value already
    rounded, and a string is input still to be parsed (parse_scalar)."""
    if type(x) is int:
        return x
    if isinstance(x, ComplexRational):
        return x if x.imag else exact(x.real)
    if not isinstance(x, SCALAR_TYPES):
        raise TypeError("not an exact scalar: %r" % (x,))
    return x.numerator if x.denominator == 1 else x


class ComplexRational:
    """A number real + imag*i with real, imag in Q, each held as exact()
    gives it."""

    __slots__ = ("real", "imag")

    def __init__(self, real=0, imag=0):
        self.real = exact(real)
        self.imag = exact(imag)
        if ComplexRational in (type(self.real), type(self.imag)):
            raise TypeError("not a rational part: %r, %r" % (real, imag))

    # -- arithmetic: other is any scalar, read through .real and .imag -------

    def __add__(self, other):
        if not isinstance(other, SCALAR_TYPES):
            return NotImplemented
        return ComplexRational(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, SCALAR_TYPES):
            return NotImplemented
        return ComplexRational(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other):
        if not isinstance(other, SCALAR_TYPES):
            return NotImplemented
        return ComplexRational(other.real - self.real, other.imag - self.imag)

    def __mul__(self, other):
        if not isinstance(other, SCALAR_TYPES):
            return NotImplemented
        a, b, c, d = self.real, self.imag, other.real, other.imag
        return ComplexRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self) -> "ComplexRational":
        n = self.real * self.real + self.imag * self.imag
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return ComplexRational(Fraction(self.real, n), Fraction(-self.imag, n))

    def __truediv__(self, other):
        if not isinstance(other, SCALAR_TYPES):
            return NotImplemented
        return self * ComplexRational(other.real, other.imag).inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, SCALAR_TYPES):
            return NotImplemented
        return self.inverse() * other

    def __neg__(self):
        return ComplexRational(-self.real, -self.imag)

    def __pos__(self):
        return self

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SCALAR_TYPES):
            return NotImplemented
        return self.real == other.real and self.imag == other.imag

    def __hash__(self):
        # keep hash(ComplexRational(x, 0)) == hash(Fraction(x))
        if self.imag == 0:
            return hash(self.real)
        return hash((self.real, self.imag))

    def __bool__(self):
        return self.real != 0 or self.imag != 0

    def __repr__(self):
        return "ComplexRational(%r, %r)" % (self.real, self.imag)

    def __str__(self):
        return format_scalar(self)


# every scalar type: each reads its parts as .real and .imag
SCALAR_TYPES = (int, Fraction, ComplexRational)


def format_fraction(x: Fraction) -> str:
    if x.denominator == 1:
        return "%d" % x.numerator
    return "%d/%d" % (x.numerator, x.denominator)


def format_scalar(x) -> str:
    """Canonical string form: "p/q" for rationals, "a/b+c/d i" otherwise."""
    if isinstance(x, (int, Fraction)):
        return format_fraction(x)
    if isinstance(x, ComplexRational):
        if x.imag == 0:
            return format_fraction(x.real)
        sign = "+" if x.imag > 0 else "-"
        return "%s%s%s i" % (format_fraction(x.real), sign, format_fraction(abs(x.imag)))
    raise TypeError("cannot format %r" % (x,))


def parse_fraction(tok: str, typed=None) -> Fraction:
    """Parse "p/q"; a malformed token or a zero denominator is a ValueError
    that names typed, the whole text the token was cut from (default: the
    token itself).  The token is ASCII: Fraction() would also read other
    decimal digits and whitespace.  An underscore is malformed on every
    Python version, as Fraction() takes PEP 515 underscores only from 3.11
    on."""
    try:
        if "_" in tok or not tok.isascii():
            raise ValueError(tok)
        return Fraction(tok)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (typed or tok)) from None
    except ValueError:
        raise ValueError("invalid scalar %r" % (typed or tok)) from None


def parse_int(tok: str, name="integer") -> int:
    """Parse an integer token; a malformed one is a ValueError that names
    name.  A non-ASCII character or an underscore is malformed, as in
    parse_fraction."""
    try:
        if "_" in tok or not tok.isascii():
            raise ValueError(tok)
        return int(tok)
    except ValueError:
        raise ValueError("invalid %s %r" % (name, tok)) from None


def parse_scalar(text: str):
    """Parse "p/q", "a/b+c/d i", and common shorthands ("i", "-1+i", "2-i").

    Returns a Fraction when the imaginary part is zero, else ComplexRational.
    Round-trips with format_scalar.  The text is ASCII, as in parse_fraction.
    """
    if not text.isascii():
        raise ValueError("invalid scalar %r" % text)
    s = "".join(text.split())
    if not s:
        raise ValueError("empty scalar")
    if not s.endswith("i"):
        return parse_fraction(s)
    body = s[:-1]
    # split off the imaginary summand at the last sign that is not leading
    # and not part of a fraction like "-1/2"
    split = -1
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "+-/":
            split = k
            break
    if split == -1:
        re_part, im_part = "0", body
    else:
        re_part, im_part = body[:split], body[split:]
    if im_part in ("", "+"):
        im = Fraction(1)
    elif im_part == "-":
        im = Fraction(-1)
    else:
        im = parse_fraction(im_part, text)
    re = parse_fraction(re_part, text) if re_part else Fraction(0)
    if im == 0:
        return re
    return ComplexRational(re, im)
