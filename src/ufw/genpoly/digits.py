"""Digit systems: ordinary base-a expansions, mixed-radix (custom place
value) systems, and the Fibonacci/Zeckendorf system.

The Fibonacci system indexes place values f₀ = 1, f₁ = 2, fᵢ = fᵢ₋₁ + fᵢ₋₂;
its digits are 0/1 with no two adjacent ones (Zeckendorf expansions), which
makes the greedy expansion unique.

A digit map expands n into digits μᵢ(n) and evaluates Σ μᵢ(n)·aᵢ over the
place values aᵢ, which reconstructs n; :func:`base_change` reinterprets
base-a digits in base b.

Negative n: all digits share the sign of n (the expansion of |n|, negated).
"""

from bisect import bisect_right

from ..record import Record

_FIBS = [1, 2]  # the Fibonacci place values f₀, f₁, …; see _fibonacci


def _fibonacci(count=0, above=0):
    """The shared list of Fibonacci place values, grown until it holds at
    least ``count`` of them and one greater than ``above``.  A longer list
    is built aside and then bound, so a reader never sees a half-grown one."""
    global _FIBS
    fibs = _FIBS
    if len(fibs) < count or fibs[-1] <= above:
        fibs = list(fibs)
        while len(fibs) < count or fibs[-1] <= above:
            fibs.append(fibs[-1] + fibs[-2])
        _FIBS = fibs
    return fibs


class DigitSystem(Record):
    """kind: 'base' (payload: radix a), 'custom' (payload: tuple of radices
    d₀, d₁, …, least-significant first), or 'fibonacci' (payload: ())."""

    _fields = ("kind", "payload")

    def __init__(self, kind, payload):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "payload", payload)

    @classmethod
    def base(cls, a):
        if a < 2:
            raise ValueError("base must be ≥ 2")
        return cls("base", (a,))

    @classmethod
    def custom(cls, radices):
        radices = tuple(radices)
        if any(d < 2 for d in radices):
            raise ValueError("all radices must be ≥ 2")
        return cls("custom", radices)

    @classmethod
    def fibonacci(cls):
        return cls("fibonacci", ())

    def place_values(self, count):
        """The first ``count`` place values aᵢ, least-significant first."""
        if self.kind == "base":
            a = self.payload[0]
            return [a**i for i in range(count)]
        if self.kind == "custom":
            if count > len(self.payload) + 1:
                raise ValueError("custom system has too few radices")
            out = [1]
            for d in self.payload[: max(count - 1, 0)]:
                out.append(out[-1] * d)
            return out[: max(count, 0)]
        if self.kind == "fibonacci":
            return _fibonacci(count)[: max(count, 0)]
        raise ValueError("unknown digit system kind %r" % self.kind)


def _base_digits(n, a):
    digits = []
    while n:
        digits.append(n % a)
        n //= a
    return digits


def _custom_digits(n, radices):
    digits = []
    for d in radices:
        if not n:
            break
        digits.append(n % d)
        n //= d
    if n:
        raise ValueError("n too large for the custom system's radices")
    return digits


def _zeckendorf_digits(n):
    """Greedy Fibonacci expansion; guaranteed free of adjacent ones."""
    fibs = _fibonacci(above=n)
    digits = [0] * bisect_right(fibs, n)
    for i in range(len(digits) - 1, -1, -1):
        if fibs[i] <= n:
            digits[i] = 1
            n -= fibs[i]
    assert n == 0
    return digits


def digit_map(n, sys):
    """Expand n in the system and evaluate the digits over its place values.

    Returns {"digits": μ (least-significant first), "value": Σ μᵢ aᵢ}.
    """
    sign = -1 if n < 0 else 1
    m = abs(n)
    if sys.kind == "base":
        digits = _base_digits(m, sys.payload[0])
    elif sys.kind == "custom":
        digits = _custom_digits(m, sys.payload)
    elif sys.kind == "fibonacci":
        digits = _zeckendorf_digits(m)
    else:
        raise ValueError("unknown digit system kind %r" % sys.kind)
    digits = [sign * d for d in digits]
    value = sum(d * a for d, a in zip(digits, sys.place_values(len(digits))))
    return {"digits": digits, "value": value}


def base_change(n, a, b):
    """Reinterpret the base-a digits of n as a base-b expansion."""
    digits = digit_map(n, DigitSystem.base(a))["digits"]
    return sum(d * b**i for i, d in enumerate(digits))
