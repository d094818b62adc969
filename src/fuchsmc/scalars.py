"""Exact scalars: complex numbers with rational real and imaginary parts.

The whole library computes over this field.  Rationals are
fractions.Fraction, which keeps them reduced with positive denominators, so
equality is structural.  Matrices do not hold these values: they store
Gaussian integers over one common denominator and build a scalar only when
an entry leaves the matrix (see linalg).

Text grammar (used by every file format):

    RATIONAL := ['-'] digits ['/' digits]
    GAUSSIAN := RATIONAL
              | [RATIONAL] ('+'|'-') [RATIONAL] 'i'
              | [RATIONAL] 'i'

Examples: "3", "-1/2", "1/2+3i", "-i", "2-1/3i".
"""

from __future__ import annotations

from fractions import Fraction as _Q

from .errors import ParseError

_Q0 = _Q(0)
_Q1 = _Q(1)


def _new(re, im) -> "GaussianRational":
    g = GaussianRational.__new__(GaussianRational)
    g.re = re
    g.im = im
    return g


class GaussianRational:
    """A value a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is type(_Q0) else _Q(re)
        self.im = im if type(im) is type(_Q0) else _Q(im)

    # -- predicates ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def is_zero(self) -> bool:
        return not (self.re or self.im)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _new(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _new(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _new(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.re, self.im
        c, d = other.re, other.im
        if b or d:
            return _new(a * c - b * d, a * d + b * c)
        return _new(a * c, _Q0)

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
        return _new(-self.re, -self.im)

    def inverse(self) -> "GaussianRational":
        a, b = self.re, self.im
        if not (a or b):
            raise ZeroDivisionError("inverse of zero")
        if b:
            n = a * a + b * b
            return _new(a / n, -b / n)
        return _new(_Q1 / a, _Q0)

    def conjugate(self) -> "GaussianRational":
        return _new(self.re, -self.im)

    # -- equality / ordering key ---------------------------------------------

    def __eq__(self, other):
        if other is self:
            return True
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def sort_key(self):
        """Lexicographic (re, im) key; the canonical tie-break order."""
        return (self.re, self.im)

    # -- text ------------------------------------------------------------------

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"gr({format_scalar(self)!r})"


def _coerce(x):
    if type(x) is GaussianRational:
        return x
    if isinstance(x, int) or type(x) is type(_Q0):
        return _new(_Q(x), _Q0)
    return None


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def gr(x, im=None) -> GaussianRational:
    """Coerce to a GaussianRational: ints, rationals, strings or pairs."""
    if im is not None:
        return GaussianRational(_rat(x), _rat(im))
    if type(x) is GaussianRational:
        return x
    if isinstance(x, str):
        return parse_scalar(x)
    c = _coerce(x)
    if c is None:
        raise TypeError(f"cannot coerce {x!r} to a Gaussian rational")
    return c


def _rat(x):
    if isinstance(x, str):
        return _parse_rational(x)
    return _Q(x)


def _parse_rational(s: str):
    s = s.strip()
    try:
        if "/" in s:
            num, den = s.split("/")
            return _Q(int(num), int(den))
        return _Q(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}") from exc


def parse_scalar(s: str) -> GaussianRational:
    """Parse the scalar grammar; inverse of format_scalar."""
    t = s.strip().replace(" ", "")
    if not t:
        raise ParseError("empty scalar")
    if not t.endswith("i"):
        return GaussianRational(_parse_rational(t), _Q0)
    body = t[:-1]
    # split off the real part at the last top-level sign (not at position 0
    # and not a fraction slash context; signs only appear at term boundaries)
    split = -1
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-":
            split = k
            break
    if split == -1:
        re_part, im_part = "", body
    else:
        re_part, im_part = body[:split], body[split:]
    if im_part in ("", "+"):
        im = _Q1
    elif im_part == "-":
        im = -_Q1
    else:
        im = _parse_rational(im_part)
    re = _parse_rational(re_part) if re_part else _Q0
    return GaussianRational(re, im)


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
