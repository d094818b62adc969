"""Exact scalars: complex numbers with rational real and imaginary parts.

The whole library computes over this field.  A scalar is the triple that
matrices store (see linalg): ints x, y and den > 0 with value (x + y i)/den,
kept reduced (gcd(x, y, den) = 1, zero as (0, 0, 1)), so each value has one
stored form and equality, hashing and arithmetic run on ints.  `Fraction`s
appear only where a scalar leaves this form: `re`, `im`, the text form and
the `sort_key` of a value with a denominator.

Text grammar (used by every file format; whitespace only around a scalar):

    RATIONAL := ['-'] digits ['/' digits]
    GAUSSIAN := RATIONAL
              | [RATIONAL] ('+'|'-') [RATIONAL] 'i'
              | [RATIONAL] 'i'

Examples: "3", "-1/2", "1/2+3i", "-i", "2-1/3i".
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction as _Q
from math import gcd, lcm

from .errors import ParseError

_HASH = sys.hash_info


def _new(x: int, y: int, den: int) -> "GaussianRational":
    """(x + y i)/den from a triple that is already reduced."""
    g = GaussianRational.__new__(GaussianRational)
    g.x, g.y, g.den = x, y, den
    return g


def from_triple(x: int, y: int, den: int) -> "GaussianRational":
    """(x + y i)/den for ints x, y and den > 0."""
    g = gcd(x, y, den)
    if g != 1:
        return _new(x // g, y // g, den // g)
    return _new(x, y, den)


def _difference(a: "GaussianRational", b: "GaussianRational") -> "GaussianRational":
    d, e = a.den, b.den
    if d == e:
        return from_triple(a.x - b.x, a.y - b.y, d)
    return from_triple(a.x * e - b.x * d, a.y * e - b.y * d, d * e)


class GaussianRational:
    """A value (x + y i)/den with ints x, y and den > 0, reduced."""

    __slots__ = ("x", "y", "den")

    def __init__(self, re=0, im=0):
        (a, b), (c, d) = _ratio(re), _ratio(im)
        # both parts are reduced, so no prime divides den, x and y together
        den = lcm(b, d)
        self.x, self.y, self.den = a * (den // b), c * (den // d), den

    @property
    def re(self) -> _Q:
        return _Q(self.x, self.den)

    @property
    def im(self) -> _Q:
        return _Q(self.y, self.den)

    # -- predicates ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.x or self.y)

    def is_zero(self) -> bool:
        return not (self.x or self.y)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d, e = self.den, other.den
        if d == e:
            return from_triple(self.x + other.x, self.y + other.y, d)
        return from_triple(self.x * e + other.x * d, self.y * e + other.y * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _difference(self, other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _difference(other, self)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.x, self.y
        c, d = other.x, other.y
        if b or d:
            return from_triple(a * c - b * d, a * d + b * c, self.den * other.den)
        return from_triple(a * c, 0, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        return _new(-self.x, -self.y, self.den)

    def inverse(self) -> "GaussianRational":
        """den/(x + y i) = den (x - y i)/(x^2 + y^2)."""
        a, b, d = self.x, self.y, self.den
        if b:
            return from_triple(a * d, -b * d, a * a + b * b)
        if not a:
            raise ZeroDivisionError("inverse of zero")
        # gcd(a, d) = 1, so d/a is reduced
        return _new(d if a > 0 else -d, 0, abs(a))

    def conjugate(self) -> "GaussianRational":
        return _new(self.x, -self.y, self.den)

    # -- equality / ordering key ---------------------------------------------

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self.x == other.x and self.y == other.y and self.den == other.den

    def __hash__(self):
        """A real value hashes as the int or Fraction it equals, by Python's
        rule for rationals: |x|/den modulo the hash prime with x's sign, or
        the infinity hash when the prime divides den.  No builtin number
        equals a non-real value, so that hashes its triple."""
        x, y, den = self.x, self.y, self.den
        if y or den == 1:
            return hash((x, y, den)) if y else hash(x)
        h = hash(abs(x) * pow(den, -1, _HASH.modulus)) if den % _HASH.modulus else _HASH.inf
        h = h if x >= 0 else -h
        return -2 if h == -1 else h

    def sort_key(self):
        """A key ordering as the lexicographic (re, im) pair of rationals: the
        canonical tie-break order.  Ints when den = 1, else Fractions, which
        compare exactly with ints."""
        if self.den == 1:
            return (self.x, self.y)
        return (_Q(self.x, self.den), _Q(self.y, self.den))

    # -- text ------------------------------------------------------------------

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"gr({format_scalar(self)!r})"


def _ratio(q) -> tuple[int, int]:
    """The reduced (numerator, denominator > 0) of an int, a Fraction or a
    RATIONAL string.  Floats and Decimals are refused: they are not exact."""
    if isinstance(q, int):
        return int(q), 1
    if isinstance(q, str):
        q = _parse_rational(q.strip())
    if isinstance(q, _Q):
        return q.numerator, q.denominator
    raise TypeError(f"cannot make an exact rational of {q!r}")


def _coerce(x):
    if type(x) is GaussianRational:
        return x
    if isinstance(x, int):
        return _new(int(x), 0, 1)
    if isinstance(x, _Q):
        return _new(x.numerator, 0, x.denominator)
    return None


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def gr(x, im=None) -> GaussianRational:
    """Coerce to a GaussianRational: ints, Fractions, strings or pairs of
    ints, Fractions and RATIONAL strings."""
    if im is not None:
        return GaussianRational(x, im)
    if type(x) is GaussianRational:
        return x
    if isinstance(x, str):
        return parse_scalar(x)
    c = _coerce(x)
    if c is None:
        raise TypeError(f"cannot coerce {x!r} to a Gaussian rational")
    return c


_DIGITS = r"[0-9]+(?:/[0-9]+)?"
_RATIONAL = re.compile(rf"-?{_DIGITS}")
_IMAGINARY = re.compile(rf"(?:(-?{_DIGITS})?([+-]))?({_DIGITS})?i")


def _parse_rational(s: str) -> _Q:
    if _RATIONAL.fullmatch(s):
        num, _, den = s.partition("/")
        try:
            return _Q(int(num), int(den or 1))
        except (ValueError, ZeroDivisionError):  # a zero denominator, or more digits than int() reads
            pass
    raise ParseError(f"bad rational {s!r}")


def parse_scalar(s: str) -> GaussianRational:
    """Parse the scalar grammar; inverse of format_scalar."""
    t = s.strip()
    if not t:
        raise ParseError("empty scalar")
    if not t.endswith("i"):
        return GaussianRational(_parse_rational(t))
    m = _IMAGINARY.fullmatch(t)
    if m is None:
        raise ParseError(f"bad scalar {s!r}")
    real, sign, imag = m.groups()
    im = _parse_rational(imag) if imag else 1
    return GaussianRational(_parse_rational(real) if real else 0, -im if sign == "-" else im)


def format_scalar(g: GaussianRational) -> str:
    """Canonical text form; parse_scalar round-trips it."""
    re, im = g.re, g.im
    if not im:
        return str(re)
    if im == 1:
        istr = "i"
    elif im == -1:
        istr = "-i"
    else:
        istr = f"{im}i"
    if not re:
        return istr
    if istr.startswith("-"):
        return f"{re}{istr}"
    return f"{re}+{istr}"
