"""Exact discrete calculus on rational polynomials: the difference operator
Δ_a, the symmetric difference Δ̄_a, k-fold symmetric differences (recursive
and explicit inclusion–exclusion forms), and conversion to the
binomial-coefficient basis.

Everything here is exact rational arithmetic; no floats anywhere.
"""

from fractions import Fraction
from math import comb, factorial, lcm

from .record import Record

NEG_INF = float("-inf")


class RationalPoly(Record):
    """Dense univariate polynomial over exact rationals."""

    __slots__ = ("coeffs",)
    _fields = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self):
        """Degree, with the zero polynomial at the −∞ sentinel (so that
        degree arithmetic like deg − 1 stays −∞)."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def leading(self):
        """Leading coefficient; 0 for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return RationalPoly(
            [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RationalPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, RationalPoly):
            return RationalPoly([c * Fraction(other) for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPoly(out)

    __rmul__ = __mul__

    def to_json(self):
        return {"monomial": ["%d/%d" % (c.numerator, c.denominator) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj):
        """{"monomial": [...]} or {"binomial": [...]}, a list of exact ints
        and rational strings such as "-3/4"."""
        if not isinstance(obj, dict):
            raise ValueError("expected a JSON object")
        if "monomial" in obj:
            return cls(_exact_coeffs(obj["monomial"]))
        if "binomial" in obj:
            return binomial_to_monomial(BinomialPoly(_exact_coeffs(obj["binomial"])))
        raise ValueError("expected a 'monomial' or 'binomial' key")


def _exact_coeffs(entries):
    """A JSON list of exact ints (not bools) and strings Fraction reads."""
    if not isinstance(entries, list):
        raise ValueError("coefficients must be a JSON list")
    if any(type(v) is not int and not isinstance(v, str) for v in entries):
        raise ValueError("coefficients must be exact ints or rational strings")
    try:
        return [Fraction(v) for v in entries]
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError("a coefficient is not a rational number: %s" % err)


def _common_denominator(coeffs):
    """(nums, den) with coefficient i equal to nums[i]/den, den the lcm of
    the denominators."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _taylor_shift(coeffs, a):
    """x ↦ f(x + a) on ints: (before, after, dens), where f's coefficient
    of xⁱ is before[i]/dens[i] and that of f(x + a) is after[i]/dens[i].

    With a = p/q, D the lcm of f's denominators and d = deg f,
    D·q^d·f(x + a) = B(qx + p) for the integer polynomial B(t) = Σ bᵢ·tⁱ,
    bᵢ = D·cᵢ·q^(d−i) = before[i].  Synthetic division of B by (t − p), d
    times over, leaves B(t + p) = Σ eᵢ·tⁱ, and after[i] = eᵢ, so
    dens[i] = D·q^(d−i).
    """
    a = Fraction(a)
    p, q = a.numerator, a.denominator
    nums, den = _common_denominator(coeffs)
    d = len(coeffs) - 1
    dens = [den * q ** (d - i) for i in range(d + 1)]
    before = [num * q ** (d - i) for i, num in enumerate(nums)]
    after = list(before)
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            after[j] += p * after[j + 1]
    return before, after, dens


class BinomialPoly(Record):
    """Coefficients c_0..c_d over the basis e_n(x) = C(x, n)."""

    __slots__ = ("coeffs",)
    _fields = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def to_json(self):
        return {"binomial": ["%d/%d" % (c.numerator, c.denominator) for c in self.coeffs]}


def binomial_basis_poly(n):
    """e_n(x) = x(x−1)…(x−n+1)/n! as a RationalPoly."""
    poly = RationalPoly([1])
    for i in range(n):
        poly = poly * RationalPoly([-i, 1])
    return poly * Fraction(1, factorial(n))


def delta(f, a):
    """(Δ_a f)(x) = f(x+a) − f(x)."""
    before, after, dens = _taylor_shift(f.coeffs, a)
    return RationalPoly([Fraction(e - b, q) for b, e, q in zip(before, after, dens)])


def sym_delta(f, a):
    """(Δ̄_a f)(x) = f(x+a) − f(x) − f(a).  The constant term of f(x+a) is
    f(a), so the constant term of Δ̄_a f is −f(0)."""
    if not f.coeffs:
        return f
    return RationalPoly((-f.coeffs[0],) + delta(f, a).coeffs[1:])


def sym_delta_k(f, xs, algorithm="recursive"):
    """k-fold symmetric difference Δ̄^k f(x₀, x₁..x_k) as a polynomial in x₀.

    ``xs`` supplies the rational parameters x₁..x_k.  The two algorithms —
    iterated Δ̄ and the inclusion–exclusion closed form
    Σ_{∅≠I⊆[k+1]} (−1)^{k+1−|I|} f(Σ_{i∈I} xᵢ) — must agree exactly.
    """
    xs = [Fraction(x) for x in xs]
    if not xs:
        raise ValueError("need k ≥ 1 parameters")
    if algorithm == "recursive":
        g = f
        for a in reversed(xs):
            g = sym_delta(g, a)
        return g
    if algorithm == "explicit":
        return _sym_delta_k_explicit(f, xs)
    raise ValueError("algorithm must be 'recursive' or 'explicit'")


def _sym_delta_k_explicit(f, xs):
    """Σ_{∅≠I⊆[k+1]} (−1)^{k+1−|I|} f(Σ_{i∈I} xᵢ), grouped by monomial.

    With L the lcm of the parameters' denominators and S_J = L·Σ_{j∈J} xⱼ
    for J ⊆ [1..k], the integer power sums M_m = Σ_J (−1)^{k−|J|} S_J^m
    carry every subset.  The subsets I = J ∪ {0} give x₀^j, j ≥ 1, the
    coefficient Σ_d c_d·C(d, j)·M_{d−j}/L^{d−j}.  At x₀ = 0 the terms of
    J ∪ {0} and of J cancel for every J ≠ ∅, so the constant is (−1)^k·c₀.
    """
    c = f.coeffs
    if not c:
        return RationalPoly([])
    k, deg = len(xs), len(c) - 1
    big_l = lcm(*(x.denominator for x in xs))
    # S_J and (−1)^{k−|J|} for every J, the list doubling once per parameter
    sums, signs = [0], [(-1) ** k]
    for x in xs:
        step = x.numerator * (big_l // x.denominator)
        sums += [s + step for s in sums]
        signs += [-t for t in signs]
    power_sums = [0] * deg
    for s, term in zip(sums, signs):
        for m in range(deg):
            power_sums[m] += term
            term *= s
    # c_d·C(d, j)·M_{d−j}/L^{d−j} over the common denominator q·L^deg
    nums, q = _common_denominator(c)
    scale = [big_l ** (deg - m) for m in range(deg)]
    den = q * big_l**deg
    out = [(-1) ** k * c[0]]
    for j in range(1, deg + 1):
        total = sum(nums[d] * comb(d, j) * power_sums[d - j] * scale[d - j]
                    for d in range(j, deg + 1))
        out.append(Fraction(total, den))
    return RationalPoly(out)


def basis_convert(f):
    """Monomial → binomial basis: c_n = (Δ₁ⁿf)(0), read off the
    forward-difference table of f(0), …, f(deg f)."""
    nums, q = _common_denominator(f.coeffs)
    # q·f(x) at x = 0..deg f, on ints
    row = []
    for x in range(len(nums)):
        acc = 0
        for a in reversed(nums):
            acc = acc * x + a
        row.append(acc)
    coeffs = []
    while row:
        coeffs.append(Fraction(row[0], q))
        row = [b - a for a, b in zip(row, row[1:])]
    return BinomialPoly(coeffs)


def binomial_to_monomial(b):
    """Binomial → monomial basis, exactly."""
    total = RationalPoly([])
    for n, c in enumerate(b.coeffs):
        total = total + binomial_basis_poly(n) * c
    return total
