"""Exact-rational interval arithmetic and refinable real constants.

Named irrationals refine to rational brackets of width ≤ 2^-bits:
square roots by scaled integer square roots, π by a Machin-style arctangent
series with alternating-series error bounds, e by its factorial series with
an explicit tail bound, and the golden ratio by consecutive Fibonacci
ratios; sin(πt) is bracketed by its alternating Taylor series over π's
bracket.  All brackets are certified: the true value always lies inside.
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


def _alternating_series(first, step, tol):
    """Bracket of a₀ − a₁ + a₂ − … for terms that decrease to 0: the truth
    lies between consecutive partial sums.  Each term is carried as bounds
    (lo, hi), equal for an exact term: ``first`` bounds a₀ and
    step(j, lo, hi) bounds a_{j+1} from a_j's.  Summed until a term's upper
    bound is ≤ tol, which the bracket then takes in."""
    lo = hi = 0
    a_lo, a_hi = first
    j = 0
    while a_hi > tol:
        lo, hi = (lo - a_hi, hi - a_lo) if j % 2 else (lo + a_lo, hi + a_hi)
        a_lo, a_hi = step(j, a_lo, a_hi)
        j += 1
    return Interval(lo - a_hi, hi) if j % 2 else Interval(lo, hi + a_hi)


@lru_cache(maxsize=None)
def _arctan_inv_bracket(m, tol):
    """Bracket of arctan(1/m) with width ≤ tol."""
    m2 = m * m

    def step(j, term, _):
        term *= Fraction(2 * j + 1, (2 * j + 3) * m2)
        return term, term

    return _alternating_series((Fraction(1, m),) * 2, step, tol)


def _sin_bracket(x, bits):
    """Bracket of sin x for rational x ∈ [0, √6), to within about 2^-bits
    of its value.

    There the Taylor terms a_{j+1} = a_j·x²/((2j+2)(2j+3)) decrease from
    a₀ = x.  Each is carried as its floor and ceiling over 2^p, with p
    leaving bits + 2·log₂ bits guard bits below x's leading bit, so the
    bracket is about j² units of 2^-p wider than the series' own."""
    p = bits + 2 * bits.bit_length() + max(0, x.denominator.bit_length() - x.numerator.bit_length())
    lo = (x.numerator << p) // x.denominator
    hi = -(-(x.numerator << p) // x.denominator)
    lo2, hi2 = lo * lo, hi * hi

    def step(j, a_lo, a_hi):
        d = (2 * j + 2) * (2 * j + 3) << (2 * p)
        return a_lo * lo2 // d, -(-a_hi * hi2 // d)

    iv = _alternating_series((lo, hi), step, 1)
    return Interval(Fraction(iv.lo, 1 << p), Fraction(iv.hi, 1 << p))


def sin_pi_bracket(lo, hi, bits):
    """A certified bracket of sin(πt) over t ∈ [lo, hi] ∩ [0, 1/2], for
    0 ≤ lo ≤ 1/2, each end to within about 2^-bits of its value.

    sin rises on [0, π/2], so the lower end is sin's at π's lower bound
    times lo, and the upper end sin's at π's upper bound times hi, or 1
    when that product may pass π/2."""
    pi = _pi_bracket(bits)
    lower = _sin_bracket(pi.lo * lo, bits).lo
    if 2 * pi.hi * hi > pi.lo:
        return Interval(lower, Fraction(1))
    return Interval(lower, _sin_bracket(pi.hi * hi, bits).hi)


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
