"""Exact-rational interval arithmetic and refinable real constants.

Named irrationals refine to rational brackets of width ≤ 2^-bits:
square roots by scaled integer square roots, π by a Machin-style arctangent
series with alternating-series error bounds, e by its factorial series with
an explicit tail bound, and the golden ratio by consecutive Fibonacci
ratios.  All brackets are certified: the true value always lies inside.
"""

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from ..record import Record


class Interval(Record):
    """Closed rational interval [lo, hi]; exact when lo == hi."""

    _fields = ("lo", "hi")

    def __init__(self, lo, hi):
        if lo > hi:
            raise ValueError("interval bounds out of order")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def point(cls, q):
        q = Fraction(q)
        return cls(q, q)

    def __add__(self, other):
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other):
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other):
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))


@lru_cache(maxsize=None)
def _sqrt_bracket(d, bits):
    if d < 0:
        raise ValueError("sqrt of a negative number")
    num = isqrt(d << (2 * bits))
    scale = 1 << bits
    return Interval(Fraction(num, scale), Fraction(num + 1, scale))


@lru_cache(maxsize=None)
def _arctan_inv_bracket(m, tol):
    """Bracket of arctan(1/m) with width ≤ tol, via the alternating series."""
    term = Fraction(1, m)
    m2 = m * m
    total = Fraction(0)
    j = 0
    sign = 1
    while term > tol:
        total += sign * term
        term = term * (2 * j + 1) / ((2 * j + 3) * m2)
        j += 1
        sign = -sign
    # The truth lies between consecutive partial sums.
    nxt = total + sign * term
    return Interval(min(total, nxt), max(total, nxt))


@lru_cache(maxsize=None)
def _pi_bracket(bits):
    tol = Fraction(1, 1 << (bits + 6))
    a = _arctan_inv_bracket(5, tol)
    b = _arctan_inv_bracket(239, tol)
    sixteen = Interval.point(16)
    four = Interval.point(4)
    return sixteen * a - four * b


@lru_cache(maxsize=None)
def _e_bracket(bits):
    tol = Fraction(1, 1 << (bits + 2))
    total = Fraction(0)
    term = Fraction(1)
    k = 0
    while True:
        total += term
        k += 1
        term = term / k
        if 2 * term <= tol:
            break
    return Interval(total, total + 2 * term)


@lru_cache(maxsize=None)
def _golden_bracket(bits):
    tol = Fraction(1, 1 << bits)
    a, b = 1, 2  # consecutive Fibonacci numbers
    while Fraction(1, a * b) > tol:
        a, b = b, a + b
    r1 = Fraction(b, a)
    r2 = Fraction(a + b, b)
    return Interval(min(r1, r2), max(r1, r2))


class RealConst(Record):
    """A real constant: an exact rational, a square root, or a named
    irrational (see NAMED)."""

    _fields = ("kind", "payload")

    def __init__(self, kind, payload=()):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "payload", payload)

    @classmethod
    def rational(cls, q):
        return cls("rational", (Fraction(q),))

    @classmethod
    def pi(cls):
        return cls("pi")

    @classmethod
    def e(cls):
        return cls("e")

    @classmethod
    def sqrt(cls, d):
        d = int(d)
        if d < 0:
            raise ValueError("sqrt of a negative number")
        r = isqrt(d)
        if r * r == d:
            return cls("rational", (Fraction(r),))
        return cls("sqrt", (d,))

    @classmethod
    def golden(cls):
        return cls("golden")

    def bracket(self, bits):
        """A certified rational interval of width ≤ 2^-bits."""
        if self.kind == "rational":
            return Interval.point(self.payload[0])
        if self.kind == "sqrt":
            return _sqrt_bracket(self.payload[0], bits)
        if self.kind == "pi":
            return _pi_bracket(bits)
        if self.kind == "e":
            return _e_bracket(bits)
        if self.kind == "golden":
            return _golden_bracket(bits)
        raise ValueError("unknown RealConst kind %r" % self.kind)

    def __repr__(self):
        if self.kind == "rational":
            return "RealConst(%s)" % self.payload[0]
        if self.kind == "sqrt":
            return "RealConst(sqrt %d)" % self.payload[0]
        return "RealConst(%s)" % self.kind


# the named irrationals of the expression grammar and the CLI
NAMED = {"pi": RealConst.pi(), "e": RealConst.e(), "golden": RealConst.golden()}
