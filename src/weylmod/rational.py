"""Exact complex rational numbers.

The central charge kappa may be any nonzero complex number away from the
critical value; everything downstream (Sugawara eigenvalues, central terms,
kernels) must stay exact, so we work in Q(i).  A rational is held in its
canonical form, exact(x): a Python int when it is integral, else a
fractions.Fraction.  ComplexRational stores its two components that way and
interoperates with int and Fraction operands, which lets the module
machinery run on ints while every scalar is integral, on Fractions once a
denominator appears, and promote to Q(i) only when an actually complex
scalar enters.  Every division goes through Fraction, so two int operands
never give a float.
"""

from __future__ import annotations

from fractions import Fraction


def exact(x):
    """The rational x as an int when it is integral, else as a Fraction.

    A float is a TypeError: it would stand for a value already rounded."""
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise TypeError("not an exact scalar: %r" % x)
    x = x if isinstance(x, (int, Fraction)) else Fraction(x)
    return x.numerator if x.denominator == 1 else x


class ComplexRational:
    """A number re + im*i with re, im in Q, each held as exact() gives it."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = exact(re)
        self.im = exact(im)

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, ComplexRational):
            return x
        if type(x) is int:
            z = object.__new__(ComplexRational)
            z.re = x
            z.im = 0
            return z
        if isinstance(x, (int, Fraction)):
            return ComplexRational(x, 0)
        return None

    def is_real(self):
        return self.im == 0

    def as_fraction(self) -> Fraction:
        if self.im != 0:
            raise ValueError("not a real number: %s" % format_scalar(self))
        return Fraction(self.re)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def inverse(self) -> "ComplexRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return ComplexRational(Fraction(self.re, n), Fraction(-self.im, n))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __pos__(self):
        return self

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # keep hash(ComplexRational(x, 0)) == hash(Fraction(x))
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return "ComplexRational(%r, %r)" % (self.re, self.im)

    def __str__(self):
        return format_scalar(self)


def format_fraction(x: Fraction) -> str:
    if x.denominator == 1:
        return "%d" % x.numerator
    return "%d/%d" % (x.numerator, x.denominator)


def format_scalar(x) -> str:
    """Canonical string form: "p/q" for rationals, "a/b+c/d i" otherwise."""
    if isinstance(x, (int, Fraction)):
        return format_fraction(x)
    if isinstance(x, ComplexRational):
        if x.im == 0:
            return format_fraction(x.re)
        sign = "+" if x.im > 0 else "-"
        return "%s%s%s i" % (format_fraction(x.re), sign, format_fraction(abs(x.im)))
    raise TypeError("cannot format %r" % (x,))


def parse_fraction(tok: str, typed=None) -> Fraction:
    """Parse "p/q"; a malformed token or a zero denominator is a ValueError
    that names typed, the whole text the token was cut from (default: the
    token itself)."""
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (typed or tok)) from None
    except ValueError:
        raise ValueError("invalid scalar %r" % (typed or tok)) from None


def parse_scalar(text: str):
    """Parse "p/q", "a/b+c/d i", and common shorthands ("i", "-1+i", "2-i").

    Returns a Fraction when the imaginary part is zero, else ComplexRational.
    Round-trips with format_scalar.
    """
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


def scalar_re(x) -> Fraction:
    if isinstance(x, ComplexRational):
        return Fraction(x.re)
    return Fraction(x)


def scalar_im(x) -> Fraction:
    if isinstance(x, ComplexRational):
        return Fraction(x.im)
    return Fraction(0)
