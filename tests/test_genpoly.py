"""Certified interval evaluation, digit systems, automata, and the finite
equidistribution diagnostics."""

import cmath
import copy
import pickle
from fractions import Fraction
from math import floor, isqrt, pi, sin

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ufw.errors import CapExceeded, ParseError, PrecisionExhausted, Underdetermined
from ufw.genpoly import (
    Dfao,
    DigitSystem,
    Interval,
    RealConst,
    base_change,
    dfao_eval,
    digit_map,
    eval_exact,
    fit_generating_function,
    parse_gpexpr,
    return_times,
    weyl_sum,
)
from ufw.genpoly import analysis
from ufw.genpoly.expr import eval_triple, precision_schedule
from ufw.genpoly.reals import sin_pi_bracket
from ufw.tokens import MAX_NESTING


def eval_interval(expr, n, bits):
    lo, hi, d = eval_triple(expr, n, bits)
    return Interval(Fraction(lo, d), Fraction(hi, d))


PI_REF = Fraction(
    3141592653589793238462643383279502884197169399375105820974944592307816406286,
    10**75,
)


# --- intervals and constants -----------------------------------------------


def test_interval_arithmetic_oracle():
    a = Interval(Fraction(1), Fraction(2))
    b = Interval(Fraction(-1), Fraction(3))
    assert (a + b) == Interval(Fraction(0), Fraction(5))
    assert (a * b) == Interval(Fraction(-2), Fraction(6))
    assert (a - b) == Interval(Fraction(-2), Fraction(3))


def test_interval_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        Interval(Fraction(2), Fraction(1))


@pytest.mark.parametrize("bits", [16, 64, 128])
def test_pi_bracket_contains_reference(bits):
    # the reference is exact to ~249 bits, enough for brackets up to 128 bits
    iv = RealConst.pi().bracket(bits)
    assert iv.lo <= PI_REF <= iv.hi
    assert iv.hi - iv.lo <= Fraction(1, 1 << bits)


def test_pi_bracket_width_at_256_bits():
    iv = RealConst.pi().bracket(256)
    assert iv.hi - iv.lo <= Fraction(1, 1 << 256)


def test_e_bracket():
    iv = RealConst.e().bracket(128)
    e_ref = Fraction(
        271828182845904523536028747135266249775724709369995957496696762772407663,
        10**71,
    )
    assert iv.lo <= e_ref <= iv.hi


def test_sqrt_bracket_squares_straddle():
    iv = RealConst.sqrt(2).bracket(200)
    assert iv.lo * iv.lo <= 2 <= iv.hi * iv.hi
    assert iv.hi - iv.lo <= Fraction(1, 1 << 200)


def test_sqrt_of_perfect_square_is_rational():
    c = RealConst.sqrt(49)
    assert c.kind == "rational" and c.payload[0] == 7


def test_golden_bracket_satisfies_equation():
    iv = RealConst.golden().bracket(100)
    # φ² = φ + 1
    assert iv.lo * iv.lo <= iv.hi + 1 and iv.hi * iv.hi >= iv.lo + 1


# --- rounding nodes --------------------------------------------------------


def _rational_text(q):
    """q in the grammar, which has no unary minus."""
    text = "%d/%d" % (abs(q.numerator), q.denominator)
    return text if q >= 0 else "(0 - %s)" % text


def test_nearest_rounds_half_up():
    for q, k in [(Fraction(1, 2), 1), (Fraction(-1, 2), 0), (Fraction(3, 2), 2),
                 (Fraction(-3, 2), -1)]:
        assert eval_exact(parse_gpexpr("round(%s)" % _rational_text(q)), 0) == k


@given(st.fractions(min_value=-100, max_value=100, max_denominator=997))
@settings(max_examples=200, deadline=None)
def test_signed_frac_range_and_identity(q):
    r = eval_exact(parse_gpexpr("frac(%s)" % _rational_text(q)), 0)
    assert Fraction(-1, 2) <= r < Fraction(1, 2)
    assert eval_exact(parse_gpexpr("round(%s)" % _rational_text(q)), 0) + r == q


# --- certified evaluation --------------------------------------------------


def test_eval_exact_floor_pi_n():
    expr = parse_gpexpr("floor(pi * n)")
    expect = [3, 6, 9, 12, 15, 18, 21, 25, 28, 31]
    assert [eval_exact(expr, n) for n in range(1, 11)] == expect


def test_eval_exact_rational_passthrough():
    expr = parse_gpexpr("n * 3/2 + 1")
    assert eval_exact(expr, 4) == 7
    assert eval_exact(expr, 3) == Fraction(11, 2)


def test_eval_interval_certifies_floor_decision():
    expr = parse_gpexpr("floor(sqrt 2 * n)")
    iv = eval_interval(expr, 5, 64)
    assert iv.lo == iv.hi == 7


def test_unresolvable_floor_raises_not_guesses():
    # interval arithmetic does not know that both brackets are e's, so e − e
    # straddles 0 at every precision
    with pytest.raises(PrecisionExhausted):
        eval_exact(parse_gpexpr("floor(e - e)"), 0)


def test_straddling_floor_is_retried_at_higher_precision():
    # pi·2⁷⁰ is known only to within 2⁶ at 64 bits, so its floor straddles an integer
    # there and is decided at 128
    expr, n = parse_gpexpr("floor(pi * n)"), 2**70
    with pytest.raises(PrecisionExhausted) as err:
        eval_interval(expr, n, 64)
    lo, hi = err.value.interval
    assert lo <= PI_REF * n <= hi and floor(lo) != floor(hi)
    assert eval_interval(expr, n, 128).lo == floor(PI_REF * n)
    assert eval_exact(expr, n) == floor(PI_REF * n)


def test_knife_edge_floor_exhausts_precision_with_its_interval():
    # sqrt2·sqrt2 = 2 exactly, so every bracket of the product contains 2
    with pytest.raises(PrecisionExhausted) as err:
        eval_exact(parse_gpexpr("floor(sqrt2 * sqrt2)"), 0)
    lo, hi = err.value.interval
    assert lo < 2 < hi


def test_irrational_value_exhausts_precision_with_its_interval():
    # the first pass decides every floor (there is none), so its 64-bit
    # interval is the one reported
    with pytest.raises(PrecisionExhausted) as err:
        eval_exact(parse_gpexpr("pi * n"), 3)
    lo, hi = err.value.interval
    assert lo < 3 * PI_REF < hi and hi - lo <= Fraction(1, 2**60)


def test_irrational_value_takes_one_pass(monkeypatch):
    from ufw.genpoly import expr as expr_module

    root = parse_gpexpr("pi * n")
    passes = []
    real = expr_module.eval_triple

    def counting(e, n, bits):
        if e is root:
            passes.append(bits)
        return real(e, n, bits)

    monkeypatch.setattr(expr_module, "eval_triple", counting)
    with pytest.raises(PrecisionExhausted):
        eval_exact(root, 3)
    assert passes == [64]


@pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))],
                         ids=["copy", "pickle"])
def test_a_duplicate_of_an_evaluated_program_reports_the_same_step(duplicate):
    # the floor, step 3 of e e sub floor n add, is never decided; a
    # duplicate carries the brackets filled so far and names the same step
    expr = parse_gpexpr("floor(e - e) + n")
    with pytest.raises(PrecisionExhausted) as err:
        eval_exact(expr, 0)
    assert err.value.node == 3
    twin = duplicate(expr)
    assert twin == expr and twin[0][1][1] == expr[0][1][1] != {}
    with pytest.raises(PrecisionExhausted) as again:
        eval_exact(twin, 0)
    assert (again.value.node, again.value.interval) == (3, err.value.interval)


def test_sqrt_of_a_negative_number_is_refused():
    with pytest.raises(ValueError, match="^sqrt of a negative number$"):
        RealConst.sqrt(-4)


# expression trees as nested tuples, (kind, children...) or ("const", c),
# printed with the fewest parentheses the grammar's precedence and left
# associativity allow, so the parser is covered along with the evaluator
_NAMED_TEXT = {
    RealConst.pi(): "pi", RealConst.e(): "e", RealConst.golden(): "golden",
    RealConst.sqrt(2): "sqrt2", RealConst.sqrt(3): "sqrt 3",
}
_LEAVES = st.one_of(
    st.sampled_from(sorted(_NAMED_TEXT, key=_NAMED_TEXT.get)),
    st.fractions(min_value=0, max_value=3, max_denominator=4).map(RealConst.rational),
).map(lambda c: ("const", c)) | st.just(("var",))
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul"]), kids, kids),
        st.tuples(st.sampled_from(["floor", "nearest", "frac"]), kids),
    ),
    max_leaves=10,
)
_OPS = {"add": "+", "sub": "-", "mul": "*"}
_CALLS = {"floor": "floor", "nearest": "round", "frac": "frac"}


def _text(tree):
    kind = tree[0]
    if kind == "var":
        return "n"
    if kind == "const":
        c = tree[1]
        if c in _NAMED_TEXT:
            return _NAMED_TEXT[c]
        q = c.payload[0]
        return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)
    if kind in _CALLS:
        return "%s(%s)" % (_CALLS[kind], _text(tree[1]))
    a, b = (_text(child) for child in tree[1:])
    # a left operand needs parentheses only as a sum under *; a right one
    # as a sum, or as a product under *
    weak = ("add", "sub") if kind != "mul" else ("add", "sub", "mul")
    if kind == "mul" and tree[1][0] in ("add", "sub"):
        a = "(%s)" % a
    if tree[2][0] in weak:
        b = "(%s)" % b
    return "%s %s %s" % (a, _OPS[kind], b)


def _steps(tree):
    """The post-order (kind, constant) steps of a tree, recursively."""
    steps = [step for child in tree[1:] if isinstance(child, tuple) for step in _steps(child)]
    return steps + [(tree[0], tree[1] if tree[0] == "const" else None)]


_EXPRS = _TREES.map(lambda tree: parse_gpexpr(_text(tree)))


@given(_TREES)
@settings(max_examples=300, deadline=None)
def test_parse_emits_the_post_order_steps_of_the_printed_tree(tree):
    expr = parse_gpexpr(_text(tree))
    assert [(kind, arg and arg[0]) for kind, arg in expr] == _steps(tree)
    assert all(arg is None or arg[1] == {} for _, arg in expr)


@given(_EXPRS, st.integers(min_value=-20, max_value=20))
@settings(max_examples=300, deadline=None)
def test_decided_passes_agree_on_exactness(expr, n):
    # eval_exact stops at its first decided pass: sound only if whether the
    # value is a point does not depend on the precision
    try:
        coarse = eval_interval(expr, n, 64)
        fine = eval_interval(expr, n, 256)
    except PrecisionExhausted:
        return
    assert (coarse.lo == coarse.hi) == (fine.lo == fine.hi)
    assert coarse.lo != coarse.hi or coarse == fine


# the Fraction/Interval evaluator that the integer kernel replaced, kept as a
# test-local oracle: the kernel must give the same rational intervals, raise
# at the same step with the same interval, and so decide alike everywhere


def oracle_interval(expr, n, bits):
    stack = []
    for i, (kind, arg) in enumerate(expr):
        if kind == "const":
            stack.append(arg[0].bracket(bits))
        elif kind == "var":
            stack.append(Interval.point(n))
        elif kind in ("add", "sub", "mul"):
            b, a = stack.pop(), stack.pop()
            stack.append(a + b if kind == "add" else a - b if kind == "sub" else a * b)
        else:
            arg = stack.pop()
            shift = 0 if kind == "floor" else Fraction(1, 2)
            k = floor(arg.lo + shift)
            if k != floor(arg.hi + shift):
                raise PrecisionExhausted(
                    "argument interval straddles an integer boundary", node=i,
                    interval=(arg.lo, arg.hi),
                )
            stack.append(Interval(arg.lo - k, arg.hi - k) if kind == "frac" else Interval.point(k))
    return stack[0]


def _outcome(evaluate, expr, n, bits):
    try:
        iv = evaluate(expr, n, bits)
    except PrecisionExhausted as err:
        return "exhausted", err.node, err.interval
    return "interval", iv.lo, iv.hi


def oracle_eval_exact(expr, n, schedule):
    """eval_exact as written on Interval passes: the first decided pass's
    point, or PrecisionExhausted."""
    last_err = None
    for bits in schedule:
        try:
            iv = oracle_interval(expr, n, bits)
        except PrecisionExhausted as err:
            last_err = err
            continue
        if iv.lo != iv.hi:
            raise PrecisionExhausted(
                "expression value is a non-degenerate interval (wrap irrational "
                "parts in floor/round to certify an exact value)",
                node=len(expr) - 1, interval=(iv.lo, iv.hi),
            )
        return iv.lo.numerator if iv.lo.denominator == 1 else iv.lo
    raise last_err


def _exact_outcome(evaluate, expr, n, schedule):
    try:
        value = evaluate(expr, n, schedule)
    except PrecisionExhausted as err:
        return "exhausted", str(err), err.node, err.interval
    return "value", type(value), value


@given(_EXPRS, st.integers(min_value=-50, max_value=50),
       st.sampled_from([(8, 16), precision_schedule(64, 1024)]))
@settings(max_examples=400, deadline=None)
def test_eval_exact_matches_the_interval_oracle(expr, n, schedule):
    want = _exact_outcome(oracle_eval_exact, expr, n, schedule)
    assert _exact_outcome(eval_exact, expr, n, schedule) == want


def _dist_to_int_verdict(iv, eps):
    """Certified three-way test for dist(x, ℤ) < eps on an interval, on
    Fractions: True / False / None (None = undecidable at this width)."""
    # Membership: the interval sits inside (k−eps, k+eps) for the integer
    # nearest its midpoint.
    k = floor((iv.lo + iv.hi) / 2 + Fraction(1, 2))
    if k - eps < iv.lo and iv.hi < k + eps:
        return True
    # Non-membership: the interval sits inside [k+eps, k+1−eps], and only
    # the cell k = ⌊lo⌋ can hold it.
    k = iv.lo.numerator // iv.lo.denominator
    if iv.lo >= k + eps and iv.hi <= k + 1 - eps:
        return False
    return None


def oracle_return_times(expr, eps, N, schedule):
    """return_times as written on Interval passes and Fraction verdicts."""
    members, ambiguous = [], []
    for n in range(1, N + 1):
        verdict = None
        for bits in schedule:
            try:
                iv = oracle_interval(expr, n, bits)
            except PrecisionExhausted:
                continue
            verdict = _dist_to_int_verdict(iv, eps)
            if verdict is not None:
                break
        if verdict is None:
            ambiguous.append(n)
        elif verdict:
            members.append(n)
    return members, ambiguous


def test_return_times_matches_the_verdict_oracle(monkeypatch):
    ambiguous = []

    @given(_EXPRS, st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=60),
           st.integers(min_value=0, max_value=12), st.sampled_from([(2, 4), (4, 8), (8, 32)]))
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def check(expr, eps, N, caps):
        assume(0 < eps < Fraction(1, 2))
        monkeypatch.setattr(analysis, "DEFAULT_CAP_BITS", caps[1])
        got = return_times(expr, eps, N, caps[0])
        assert got == oracle_return_times(expr, eps, N, precision_schedule(*caps))
        ambiguous.extend(got[1])

    check()
    # the small caps leave some n undecided, so both branches are compared
    assert ambiguous


@given(_EXPRS, st.integers(min_value=-50, max_value=50), st.sampled_from([8, 16, 64, 128]))
@settings(max_examples=400, deadline=None)
def test_integer_kernel_matches_the_interval_oracle(expr, n, bits):
    assert _outcome(eval_interval, expr, n, bits) == _outcome(oracle_interval, expr, n, bits)


@pytest.mark.parametrize(
    "text",
    ["round(pi * n)", "floor(sqrt2 * n * n)", "frac(golden * n) + 1/3 * n",
     "floor(pi * n) * floor(e * n) - round(golden * 3/7 * n)", "floor(sqrt2 * sqrt2)"],
)
def test_integer_kernel_matches_the_oracle_on_a_range_of_n(text):
    expr = parse_gpexpr(text)
    for n in range(-300, 301, 7):
        for bits in (16, 64):
            want = _outcome(oracle_interval, expr, n, bits)
            assert _outcome(eval_interval, expr, n, bits) == want


def test_round_pi_n_is_decided_at_n_99991():
    assert eval_exact(parse_gpexpr("round(pi * n)"), 99991) == round(PI_REF * 99991)


def test_a_long_flat_sum_evaluates_without_recursion():
    # a left-deep tree 1,200 nodes deep, which the recursive evaluator could
    # not walk
    terms = " + ".join(["n"] * 1200)
    assert eval_exact(parse_gpexpr(terms + " + floor(pi * n)"), 3) == 3600 + 9
    assert return_times(parse_gpexpr(terms + " + 1/3"), Fraction(1, 5), 3) == ([], [])


def test_a_long_flat_sum_parses_to_a_flat_program():
    # a left-deep sum is one step per term and operator, so printing,
    # comparing and pickling it walk no tree
    terms = "+".join(["n"] * 1200)
    expr = parse_gpexpr(terms)
    assert expr == (("var", None),) + (("var", None), ("add", None)) * 1199
    assert repr(expr).count("'add'") == 1199
    assert pickle.loads(pickle.dumps(expr)) == expr


def test_parse_refuses_nesting_past_its_limit():
    deep = "floor(" * MAX_NESTING + "pi * n" + ")" * MAX_NESTING
    assert eval_exact(parse_gpexpr(deep), 2) == 6
    with pytest.raises(ParseError) as err:
        parse_gpexpr("(" * (MAX_NESTING + 1) + "n" + ")" * (MAX_NESTING + 1))
    assert err.value.position == MAX_NESTING


def test_precision_schedule_doubles():
    assert list(precision_schedule(64, 1024)) == [64, 128, 256, 512, 1024]


def test_parse_print_oracles():
    e = parse_gpexpr("round(frac(golden * n) + 1/3)")
    assert eval_exact(e, 0) == 0
    with pytest.raises(ParseError):
        parse_gpexpr("floor(")
    with pytest.raises(ParseError):
        parse_gpexpr("2 $ 3")


def test_parse_names_the_bad_character_after_whitespace():
    with pytest.raises(ParseError, match="^unexpected character '\\$'$") as err:
        parse_gpexpr("2 $ 3")
    assert err.value.position == 2


def test_parse_rejects_a_zero_denominator_at_its_token():
    with pytest.raises(ParseError) as err:
        parse_gpexpr("n + 1/0")
    assert err.value.position == 4


def test_parse_precedence():
    assert eval_exact(parse_gpexpr("1 + 2 * 3"), 0) == 7
    assert eval_exact(parse_gpexpr("(1 + 2) * 3"), 0) == 9


# --- digit systems ---------------------------------------------------------


def test_base_digit_oracle():
    assert digit_map(13, DigitSystem.base(2)) == {"digits": [1, 0, 1, 1], "value": 13}
    assert digit_map(0, DigitSystem.base(7)) == {"digits": [], "value": 0}


def test_custom_mixed_radix():
    # hours:minutes:seconds style system, radices (60, 60, 24)
    sys = DigitSystem.custom((60, 60, 24))
    out = digit_map(3661, sys)
    assert out["digits"] == [1, 1, 1]
    assert out["value"] == 3661


def test_zeckendorf_oracle():
    # 100 = 89 + 8 + 3 over 1,2,3,5,8,13,21,34,55,89
    out = digit_map(100, DigitSystem.fibonacci())
    assert out["digits"] == [0, 0, 1, 0, 1, 0, 0, 0, 0, 1]
    assert out["value"] == 100


def test_zeckendorf_roundtrip_and_no_adjacent_window():
    for n in range(1, 5000):
        out = digit_map(n, DigitSystem.fibonacci())
        assert out["value"] == n
        d = out["digits"]
        assert all(v in (0, 1) for v in d)
        assert not any(d[i] and d[i + 1] for i in range(len(d) - 1))


def _fibonacci_digit_map_oracle(n):
    """Fibonacci digit_map as written before the place values were shared:
    each call rebuilds the Fibonacci numbers it needs."""
    sign, m = (-1 if n < 0 else 1), abs(n)
    fibs = []
    a, b = 1, 2
    while a <= m:
        fibs.append(a)
        a, b = b, a + b
    digits = [0] * len(fibs)
    for i in range(len(fibs) - 1, -1, -1):
        if fibs[i] <= m:
            digits[i] = 1
            m -= fibs[i]
    digits = [sign * d for d in digits]
    return {"digits": digits, "value": sum(d * f for d, f in zip(digits, fibs))}


def test_fibonacci_digit_map_matches_rebuilding_oracle():
    system = DigitSystem.fibonacci()
    # large n first, so the small ones read a list grown past them
    for n in [10**30, -(10**12), 832040, 832039] + list(range(-2000, 2001)):
        assert digit_map(n, system) == _fibonacci_digit_map_oracle(n)
    fibs = [1, 2]
    while len(fibs) < 40:
        fibs.append(fibs[-1] + fibs[-2])
    for count in range(-1, 41):
        assert system.place_values(count) == fibs[: max(count, 0)]


@pytest.mark.parametrize(
    "system, values",
    [
        (DigitSystem.base(10), [1, 10, 100, 1000]),
        (DigitSystem.custom((60, 60, 24)), [1, 60, 3600, 86400]),
        (DigitSystem.fibonacci(), [1, 2, 3, 5]),
    ],
    ids=["base", "custom", "fibonacci"],
)
def test_place_values_give_count_values_for_every_kind(system, values):
    for count in range(-1, 5):
        assert system.place_values(count) == values[: max(count, 0)]


def test_negative_numbers_negate_digits():
    out = digit_map(-13, DigitSystem.base(2))
    assert out["digits"] == [-1, 0, -1, -1] and out["value"] == -13


def test_base_change_oracle():
    # 5 = 101 in base 2 → 1·3² + 0·3 + 1 = 10 in base 3 reinterpretation
    assert base_change(5, 2, 3) == 10


def test_base_change_additive_on_disjoint_support():
    # digitwise-disjoint pairs add without carries
    x, y = 0o1010101, 0o0202020  # octal digits interleave
    assert base_change(x + y, 8, 10) == base_change(x, 8, 10) + base_change(y, 8, 10)


# --- automata --------------------------------------------------------------


def test_identity_dfao_is_identity():
    # one state, λ = digit, output base = input base
    m = Dfao(1, 0, [[0] * 3], [list(range(3))], 3, 3)
    for n in range(200):
        assert dfao_eval(m, n) == n


def test_digit_sum_dfao():
    # one state, λ = digit, output base 1
    m = Dfao(1, 0, [[0] * 10], [list(range(10))], 10, 1)
    assert dfao_eval(m, 1984) == 1 + 9 + 8 + 4


def test_thue_morse_style_parity_automaton():
    # two states tracking digit-sum parity in base 2; output the new parity bit
    m = Dfao(2, 0, [[0, 1], [1, 0]], [[0, 1], [1, 0]], 2, 2)
    for n in range(64):
        expect = sum(
            (bin(n >> (i + 1)).count("1") + 0) % 0 if False else 0 for i in []
        )
        # oracle: i-th output bit = parity of digits strictly below position i+1
        total = 0
        for i, d in enumerate(format(n, "b")[::-1]):
            total += (bin(n & ((1 << (i + 1)) - 1)).count("1") % 2) << i
        assert dfao_eval(m, n) == total


@pytest.mark.parametrize("in_base, out_base", [(1, 2), (0, 2), (True, 2), (2.0, 2), (2, 1.5)])
def test_dfao_rejects_bases_that_are_not_integers_or_below_two(in_base, out_base):
    # an input base of 1 made the digit expansion loop forever and one of 0
    # divide by zero; the rows fit the base, so only the base check can
    # refuse them, and no automaton is ever run
    digits = int(in_base)
    with pytest.raises(ValueError):
        Dfao(1, 0, [[0] * digits], [[0] * digits], in_base, out_base)


@pytest.mark.parametrize(
    "states, init, tau, lam",
    [
        (2, 0, [[True, 0], [0, 1]], [[1, 1], [0, 1]]),
        (2, 0, [[1, 0], [0, 1]], [[1, True], [0, 1]]),
        (2, 0, [[1, 0], [0, 1]], [[1, 1], [0.5, 1]]),
        (2, 0, [[1.0, 0], [0, 1]], [[1, 1], [0, 1]]),
        (2, True, [[1, 0], [0, 1]], [[1, 1], [0, 1]]),
        (2.0, 0, [[1, 0], [0, 1]], [[1, 1], [0, 1]]),
    ],
)
def test_dfao_rejects_entries_that_are_not_exact_integers(states, init, tau, lam):
    # JSON true passed as state or output 1, and a float in lam made
    # dfao_eval return a float
    with pytest.raises(ValueError):
        Dfao(states, init, tau, lam, 2, 2)


def test_dfao_json_roundtrip():
    m = Dfao(1, 0, [[0] * 4], [list(range(4))], 4, 1)
    assert Dfao.from_json(m.to_json()) == m


# --- diagnostics -----------------------------------------------------------


def test_return_times_rational_step():
    # g(n) = n/4: dist to ℤ < 1/4 at n ≡ 0 mod 4 exactly... and n≡±1 gives 1/4
    expr = parse_gpexpr("n * 1/4")
    members, ambiguous = return_times(expr, Fraction(1, 4), 12)
    assert members == [4, 8, 12]
    assert ambiguous == []


def test_return_times_retries_undecided_n_at_higher_precision(monkeypatch):
    # at 64 bits pi·n·2⁷⁰ is known only to about n·2⁶, so no n is decided
    expr = parse_gpexpr("pi * n * %d" % 2**70)
    with monkeypatch.context() as patch:
        patch.setattr(analysis, "DEFAULT_CAP_BITS", 64)
        assert return_times(expr, Fraction(1, 10), 5) == ([], [1, 2, 3, 4, 5])
    assert return_times(expr, Fraction(1, 10), 5) == ([4], [])
    # the reference agrees: only n = 4 lies within 1/10 of an integer
    values = [PI_REF * n * 2**70 for n in range(1, 6)]
    assert [n for n, v in enumerate(values, 1) if abs(v - round(v)) < Fraction(1, 10)] == [4]


def test_return_times_sqrt2_certified():
    expr = parse_gpexpr("sqrt 2 * n * n")
    members, ambiguous = return_times(expr, Fraction(1, 10), 50)
    assert ambiguous == []
    iv = RealConst.sqrt(2).bracket(256)
    for n in members:
        v = iv.lo * n * n
        dist = abs(v - round(v))
        assert dist < Fraction(1, 10) + Fraction(1, 1 << 100)


def test_weyl_sqrt2_small():
    assert weyl_sum([RealConst.sqrt(2)], [1], 10**5) <= 0.02


@pytest.mark.parametrize("N", [0, -5])
@pytest.mark.parametrize("alpha", [RealConst.sqrt(2), RealConst.rational(Fraction(1, 4))])
def test_weyl_rejects_empty_range(alpha, N):
    with pytest.raises(ValueError):
        weyl_sum([alpha], [4], N)


@pytest.mark.parametrize(
    "alphas, ks, N, value",
    [
        ([RealConst.golden()], [1], 10**5, 1.0192332239181872e-05),
        ([RealConst.pi(), RealConst.sqrt(2)], [1, -2], 50, 0.021111490644124244),
        # Nθ ∈ ℤ with θ ∉ ℤ: the numerator's bracket is the point 0
        ([RealConst.rational(Fraction(1, 4))], [1], 1000, 0.0),
        ([RealConst.rational(Fraction(1, 4))], [4], 1000, 1.0),
        ([RealConst.rational(Fraction(1, 3))], [3], 7, 1.0),
        # θ = 0 whose bracket is never a point: [1 − (πNw)²/6, 1]
        ([RealConst.sqrt(8), RealConst.sqrt(2)], [1, -2], 10**4, 1.0),
    ],
)
def test_weyl_closed_form_values(alphas, ks, N, value):
    assert weyl_sum(alphas, ks, N) == value


def test_weyl_sum_is_never_expanded():
    assert 0 < weyl_sum([RealConst.sqrt(2)], [1], 10**12) < 1e-12


def test_weyl_zero_sum_of_a_rational_not_given_as_one_exhausts():
    # θ = sqrt 8 − 2·sqrt 2 + 1/4 = 1/4, so |S_4| = 0, but no bracket of θ
    # is a point and the bracket of |S_4| keeps the lower end 0
    alphas = [RealConst.sqrt(8), RealConst.sqrt(2), RealConst.rational(Fraction(1, 4))]
    with pytest.raises(PrecisionExhausted) as err:
        weyl_sum(alphas, [1, -2, 1], 4)
    lo, hi = err.value.interval
    assert lo == 0 < hi < Fraction(1, 1 << 1000)


def direct_weyl(alphas, ks, N):
    """|S_N| by its definition, a float sum of N exponentials over θ mod 1."""
    theta = float(sum(k * a.bracket(64).lo for k, a in zip(ks, alphas)) % 1)
    return abs(sum(cmath.exp(2j * pi * theta * n) for n in range(1, N + 1))) / N


ALPHAS = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=60).map(RealConst.rational),
    st.integers(2, 50).map(RealConst.sqrt),
    st.sampled_from([RealConst.pi(), RealConst.e(), RealConst.golden()]),
)


@given(
    st.lists(st.tuples(ALPHAS, st.integers(-5, 5)), min_size=1, max_size=3),
    st.integers(1, 2000),
)
@settings(max_examples=150, deadline=None)
def test_weyl_matches_the_direct_sum(terms, N):
    alphas, ks = [a for a, _ in terms], [k for _, k in terms]
    assume(any(ks))
    direct = direct_weyl(alphas, ks, N)
    try:
        value = weyl_sum(alphas, ks, N)
    except PrecisionExhausted:
        # θ rational but not given as one, with Nθ ∈ ℤ: the sum is 0
        assert direct < 1e-9
        return
    assert abs(value - direct) < 1e-9


@given(
    st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=10**6),
    st.integers(8, 200),
)
@settings(max_examples=200, deadline=None)
def test_sin_pi_bracket_contains_sin(t, bits):
    iv = sin_pi_bracket(t, t, bits)
    # up to the float sine's own rounding
    assert iv.lo - 1e-15 <= sin(pi * t) <= iv.hi + 1e-15
    assert (iv.hi - iv.lo) * (1 << (bits - 2)) <= iv.hi


@pytest.mark.parametrize("t, value", [(0, 0), (Fraction(1, 6), Fraction(1, 2)), (Fraction(1, 2), 1)])
@pytest.mark.parametrize("bits", [8, 64, 256])
def test_sin_pi_bracket_holds_exact_values(t, value, bits):
    iv = sin_pi_bracket(t, t, bits)
    assert iv.lo <= value <= iv.hi


def test_fit_exact_linear():
    gens = [3, 5, 9, 17]
    out = fit_generating_function(lambda s: 2 * s + 1, gens, 1)
    assert out["exact"]
    assert out["c"] == 1
    assert out["u"][(0,)] == 6  # 2·3 for the first generator


def test_fit_reports_residual_for_nonlinear():
    gens = [1, 2, 4, 8]
    out = fit_generating_function(lambda s: s * s, gens, 1)
    assert not out["exact"]
    assert out["max_residual"] > 0 and out["failing_index_set"] is not None


def test_fit_refuses_more_than_4096_index_sets_before_building_a_row():
    class Sampled(Exception):
        pass

    def f(s):
        raise Sampled(s)

    # 2^12 − 1 = 4095 index sets are built, from the first one on; 2^13 − 1
    # = 8191 are refused before f is called
    with pytest.raises(Sampled):
        fit_generating_function(f, range(1, 13), 1)
    with pytest.raises(CapExceeded, match="^13 generators give 8191 index sets; cap 4096$"):
        fit_generating_function(f, range(1, 14), 1)


def test_fit_underdetermined():
    with pytest.raises(Underdetermined):
        fit_generating_function(lambda s: s, [1], 2)
