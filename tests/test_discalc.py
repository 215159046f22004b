"""Exact finite-difference calculus: operator oracles, explicit vs
recursive agreement, degree/leading laws, and the binomial basis."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufw.discalc import (
    NEG_INF,
    BinomialPoly,
    RationalPoly,
    basis_convert,
    binomial_basis_poly,
    binomial_to_monomial,
    degree_leading,
    delta,
    sym_delta,
    sym_delta_k,
)

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)


def random_poly(rng, max_deg=6, int_valued=False):
    deg = rng.randrange(max_deg + 1)
    if int_valued:
        coeffs = [rng.randrange(-5, 6) for _ in range(deg + 1)]
        return binomial_to_monomial(BinomialPoly(coeffs))
    return RationalPoly(
        [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(deg + 1)]
    )


# --- polynomial plumbing ---------------------------------------------------


def test_zero_degree_sentinel():
    z = RationalPoly([])
    assert z.degree == NEG_INF
    assert z.degree - 1 == NEG_INF
    assert RationalPoly([0, 0]).degree == NEG_INF


def test_shift_oracle():
    f = RationalPoly([0, 0, 1])  # x^2
    assert delta(f, 1) == RationalPoly([1, 2])  # (x+1)^2 - x^2


def test_json_roundtrip_both_bases():
    f = RationalPoly([Fraction(1, 2), 0, Fraction(-3, 4)])
    assert RationalPoly.from_json(f.to_json()) == f
    b = basis_convert(f)
    assert RationalPoly.from_json(b.to_json()) == f


# --- difference operators --------------------------------------------------


def test_delta_oracle_square():
    f = RationalPoly([0, 0, 1])
    assert delta(f, 1) == RationalPoly([1, 2])  # (x+1)^2 − x^2 = 2x + 1


def test_sym_delta_kills_constant_term():
    # Δ̄_a f(0) = f(a) − f(0) − f(a); evaluates to −f(0)
    f = RationalPoly([7, 1, 1])
    g = sym_delta(f, 3)
    assert g(Fraction(0)) == -f(Fraction(0))


def test_sym_delta_linear_vanishes():
    # for additive f(x)=cx: f(x+a) − f(x) − f(a) = 0
    f = RationalPoly([0, 5])
    assert sym_delta(f, 2) == RationalPoly([])


def test_explicit_equals_recursive_200_random():
    rng = random.Random(7)
    for _ in range(200):
        f = random_poly(rng, max_deg=6)
        k = rng.randrange(1, 6)
        xs = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(k)]
        assert sym_delta_k(f, xs, "recursive") == sym_delta_k(f, xs, "explicit")


def test_full_order_sym_delta_is_signed_constant():
    # Δ̄^{deg f} f ≡ (−1)^{deg f} f(0)
    rng = random.Random(3)
    for _ in range(100):
        f = random_poly(rng, max_deg=5, int_valued=True)
        d = f.degree
        if d == NEG_INF or d < 1:
            continue
        xs = [Fraction(rng.randrange(1, 8)) for _ in range(d)]
        g = sym_delta_k(f, xs, "recursive")
        assert g == RationalPoly([(-1) ** d * f(Fraction(0))])


def test_degree_leading_law_all_monomials():
    for d in range(1, 9):
        f = RationalPoly([0] * d + [1])
        for a in (1, 2, Fraction(1, 2)):
            deg, lc = degree_leading(f, a)
            assert deg == d - 1
            assert lc == d * Fraction(a)


def test_degree_leading_rejects_zero_inputs():
    with pytest.raises(ValueError):
        degree_leading(RationalPoly([]), 1)
    with pytest.raises(ValueError):
        degree_leading(RationalPoly([0, 1]), 0)


def test_product_rule_random():
    rng = random.Random(21)
    for _ in range(50):
        f = random_poly(rng, max_deg=4)
        g = random_poly(rng, max_deg=4)
        a = Fraction(rng.randrange(1, 6))
        # Δ_a(fg) = Δ_a f·Δ_a g + Δ_a f·g + f·Δ_a g
        df, dg = delta(f, a), delta(g, a)
        assert delta(f * g, a) == df * dg + df * g + f * dg


def test_nonsym_relation_random():
    rng = random.Random(5)
    for _ in range(100):
        f = random_poly(rng, max_deg=5)
        k = rng.randrange(1, 5)
        pts = [Fraction(rng.randrange(-4, 5)) for _ in range(k + 1)]
        # Δ̄^k f(x₀..x_k) − (−1)^k f(0) = (Δ_{x₀}…Δ_{x_k} f)(0)
        lhs = sym_delta_k(f, pts[1:], "recursive")(pts[0]) - (-1) ** k * f(Fraction(0))
        g = f
        for a in pts:
            g = delta(g, a)
        assert lhs == g(Fraction(0))


# --- binomial basis --------------------------------------------------------


def test_triangle_number_basis_oracle():
    # x(x+1)/2 = C(x,1) + C(x,2)
    f = RationalPoly([0, Fraction(1, 2), Fraction(1, 2)])
    assert basis_convert(f) == BinomialPoly([0, 1, 1])


def test_basis_roundtrip_100_random():
    rng = random.Random(13)
    for _ in range(100):
        f = random_poly(rng, max_deg=6)
        assert binomial_to_monomial(basis_convert(f)) == f


def test_binomial_polys_integer_valued_over_windows():
    for n in range(11):
        e = binomial_basis_poly(n)
        for x in range(-25, 26):
            v = e(Fraction(x))
            assert v.denominator == 1


def test_integer_valued_iff_integer_binomial_coeffs():
    # x^2/2 + x/2 is integer-valued; x^2/2 is not
    good = RationalPoly([0, Fraction(1, 2), Fraction(1, 2)])
    bad = RationalPoly([0, 0, Fraction(1, 2)])
    assert all(c.denominator == 1 for c in basis_convert(good).coeffs)
    assert any(c.denominator != 1 for c in basis_convert(bad).coeffs)
    # cross-check by direct evaluation
    assert all((good(Fraction(x))).denominator == 1 for x in range(-10, 10))
    assert any((bad(Fraction(x))).denominator != 1 for x in range(-10, 10))


@given(st.lists(rationals, min_size=1, max_size=6), rationals.filter(lambda a: a != 0))
@settings(max_examples=150, deadline=None)
def test_delta_degree_drop_property(coeffs, a):
    f = RationalPoly(coeffs)
    if f.degree == NEG_INF or f.degree == 0:
        assert delta(f, a).degree == NEG_INF
    else:
        assert delta(f, a).degree == f.degree - 1


# --- the Fraction subset-loop forms, kept as test-local oracles -------------
# sym_delta_k("explicit") groups the subsets by monomial on integer power
# sums, shift is a Taylor shift on ints and basis_convert reads a difference
# table; these are the direct forms they replaced, term by term.


def oracle_shift(f, a):
    a = Fraction(a)
    out = [Fraction(0)] * len(f.coeffs)
    for d, c in enumerate(f.coeffs):
        power = Fraction(1)
        for j in range(d, -1, -1):
            out[j] += c * comb(d, j) * power
            power *= a
    return RationalPoly(out)


def oracle_explicit(f, xs):
    xs = [Fraction(x) for x in xs]
    k = len(xs)
    total = RationalPoly([])
    for subset in range(1, 1 << (k + 1)):
        sign = (-1) ** (k + 1 - bin(subset).count("1"))
        rest = sum(xs[i - 1] for i in range(1, k + 1) if subset & (1 << i))
        term = oracle_shift(f, rest) if subset & 1 else RationalPoly([f(Fraction(rest))])
        total = total + (term if sign > 0 else -term)
    return total


def oracle_basis_convert(f):
    coeffs = []
    g = f
    while g.degree != NEG_INF or not coeffs:
        coeffs.append(g(Fraction(0)))
        if g.degree == NEG_INF:
            break
        g = oracle_shift(g, 1) - g
    return BinomialPoly(coeffs)


_POLYS = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=12), max_size=9
).map(RationalPoly)
_PARAMS = st.one_of(
    st.integers(min_value=-9, max_value=9).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=10),
)


@given(_POLYS, st.lists(_PARAMS, min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_explicit_matches_the_subset_loop(f, xs):
    assert sym_delta_k(f, xs, "explicit") == oracle_explicit(f, xs)


@given(_POLYS, _PARAMS)
@settings(max_examples=200, deadline=None)
def test_shift_delta_and_basis_match_the_direct_forms(f, a):
    shifted = oracle_shift(f, a)
    assert delta(f, a) == shifted - f
    assert sym_delta(f, a) == shifted - f - RationalPoly([f(a)])
    assert basis_convert(f) == oracle_basis_convert(f)


@pytest.mark.parametrize("xs", [[1], [2, -3], [Fraction(1, 2), Fraction(-2, 3), 5]])
def test_zero_polynomial_stays_zero(xs):
    z = RationalPoly([])
    assert delta(z, Fraction(1, 3)) == delta(z, 2) == sym_delta(z, 2) == z
    assert sym_delta_k(z, xs, "explicit") == sym_delta_k(z, xs, "recursive") == z
    assert basis_convert(z) == oracle_basis_convert(z) == BinomialPoly([])


@pytest.mark.parametrize(
    "obj",
    [
        {"binomial": ["1/0"]},
        {"monomial": [True, 1.5]},
        {"monomial": [1, 1.5]},
        {"monomial": "12"},
        {"monomial": [None]},
        {"monomial": ["x"]},
        ["monomial"],
    ],
)
def test_from_json_refuses_what_it_cannot_read_exactly(obj):
    with pytest.raises(ValueError):
        RationalPoly.from_json(obj)


def test_from_json_reads_exact_ints_and_rational_strings():
    assert RationalPoly.from_json({"monomial": [1, "-3/4", "0.5"]}) == RationalPoly(
        [1, Fraction(-3, 4), Fraction(1, 2)]
    )
