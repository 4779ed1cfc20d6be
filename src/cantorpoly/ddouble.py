"""Double-double (paired-limb) floating point arithmetic.

A value is stored as an unevaluated sum ``hi + lo`` of two IEEE doubles
with ``|lo| <= ulp(hi)/2``, giving roughly 31 significant decimal digits.
The building blocks are the classic error-free transforms (Knuth two-sum,
Dekker split/product); the composite operations follow the usual
double-double recipes: field arithmetic, square root, comparisons, and
exact conversion from/to rationals and decimal strings.

No other module of the package uses this one: extended precision runs on
stdlib ``decimal`` (see geometry). It is kept only while the benchmark's
tracer counts DoubleDouble constructions, and goes together with that
counter.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

from .geometry import _as_fraction

_SPLITTER = 134217729.0  # 2**27 + 1, exact in double


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _quick_two_sum(a: float, b: float) -> tuple[float, float]:
    # requires |a| >= |b| or a == 0
    s = a + b
    return s, b - (s - a)


def _split(a: float) -> tuple[float, float]:
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


class DoubleDouble:
    """Immutable double-double scalar."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi: float = 0.0, lo: float = 0.0):
        s, e = _two_sum(float(hi), float(lo))
        object.__setattr__(self, "hi", s)
        object.__setattr__(self, "lo", e)

    def __setattr__(self, name, value):
        raise AttributeError("DoubleDouble is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_fraction(cls, fr: Fraction) -> "DoubleDouble":
        hi = float(fr)
        lo = float(fr - Fraction(hi))
        return cls(hi, lo)

    @classmethod
    def from_str(cls, s: str) -> "DoubleDouble":
        return cls.from_fraction(_as_fraction(s))

    def to_fraction(self) -> Fraction:
        return Fraction(self.hi) + Fraction(self.lo)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        s1, s2 = _two_sum(self.hi, o.hi)
        t1, t2 = _two_sum(self.lo, o.lo)
        s2 += t1
        s1, s2 = _quick_two_sum(s1, s2)
        s2 += t2
        hi, lo = _quick_two_sum(s1, s2)
        return DoubleDouble(hi, lo)

    __radd__ = __add__

    def __neg__(self):
        return DoubleDouble(-self.hi, -self.lo)

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o.__add__(-self)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        p, e = _two_prod(self.hi, o.hi)
        e += self.hi * o.lo + self.lo * o.hi
        hi, lo = _quick_two_sum(p, e)
        return DoubleDouble(hi, lo)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        q1 = self.hi / o.hi
        r = self - o * q1
        q2 = r.hi / o.hi
        r = r - o * q2
        q3 = r.hi / o.hi
        hi, lo = _quick_two_sum(q1, q2)
        return DoubleDouble(hi, lo) + q3

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def sqrt(self) -> "DoubleDouble":
        if self.hi == 0.0 and self.lo == 0.0:
            return DoubleDouble(0.0)
        if self.hi < 0.0:
            raise ValueError("sqrt of negative double-double")
        # one Newton step from the correctly rounded double sqrt doubles
        # the number of valid bits
        s = math.sqrt(self.hi)
        sq = DoubleDouble(s)
        err = self - sq * sq
        return sq + err / (2.0 * s)

    def __abs__(self):
        return -self if self.hi < 0.0 else self

    def __float__(self) -> float:
        return self.hi + self.lo

    def __bool__(self) -> bool:
        return self.hi != 0.0 or self.lo != 0.0

    # -- comparisons (representation is normalized) ------------------------

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.hi == o.hi and self.lo == o.lo

    def __lt__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.hi < o.hi or (self.hi == o.hi and self.lo < o.lo)

    def __le__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.hi < o.hi or (self.hi == o.hi and self.lo <= o.lo)

    def __gt__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o.__lt__(self)

    def __ge__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o.__le__(self)

    def __hash__(self):
        return hash((self.hi, self.lo))

    # -- formatting --------------------------------------------------------

    def to_decimal_str(self, digits: int = 34) -> str:
        with localcontext() as ctx:
            ctx.prec = digits
            return str(Decimal(self.hi) + Decimal(self.lo))

    def __repr__(self):
        return f"DoubleDouble({self.hi!r}, {self.lo!r})"

    def __str__(self):
        return self.to_decimal_str()


def _coerce(x) -> "DoubleDouble | None":
    if isinstance(x, DoubleDouble):
        return x
    if isinstance(x, (int, float)):
        return DoubleDouble(float(x))
    return None

