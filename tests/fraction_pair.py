"""The Gaussian rational on a pair of `Fraction`s: the test oracle of
`fuchsmc.scalars`, which stores the reduced integer triple instead.  The
class is the library's earlier scalar, renamed; its arithmetic, equality,
hash and `sort_key` run on the two Fractions."""

from fractions import Fraction as _Q

_Q0 = _Q(0)
_Q1 = _Q(1)


def _new(re, im) -> "FractionPair":
    g = FractionPair.__new__(FractionPair)
    g.re = re
    g.im = im
    return g


class FractionPair:
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

    def inverse(self) -> "FractionPair":
        a, b = self.re, self.im
        if not (a or b):
            raise ZeroDivisionError("inverse of zero")
        if b:
            n = a * a + b * b
            return _new(a / n, -b / n)
        return _new(_Q1 / a, _Q0)

    def conjugate(self) -> "FractionPair":
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

    def __repr__(self):
        return f"FractionPair({format_pair(self)!r})"


def _coerce(x):
    if type(x) is FractionPair:
        return x
    if isinstance(x, int) or type(x) is type(_Q0):
        return _new(_Q(x), _Q0)
    return None


def format_pair(g: FractionPair) -> str:
    """The text form of `scalars.format_scalar`."""
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
