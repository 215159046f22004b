"""Generalized polynomials as post-order programs, and their certified
evaluation.

A parsed expression is its evaluation program: a tuple of (kind, arg)
steps, each node's step after its children's and a left operand's before
its sibling's.  The kinds are const, var, add, sub, mul, floor, nearest and
frac; a const step's arg is (RealConst, brackets), brackets holding the
constant's (lo, hi, den) bracket at each precision it was evaluated at, and
every other step's arg is None.

The nearest-integer map rounds half up: ⌈x⌋ = ⌊x + 1/2⌋, and the signed
fractional part is ⟨x⟩ = x − ⌈x⌋ ∈ [−1/2, 1/2).

Evaluation works over exact rational intervals.  Every floor/nearest
decision is certified: the argument interval must lie inside a single unit
cell, refining the precision (doubling bits) up to a configurable cap.
Precision exhaustion is always an explicit error, never a wrong answer.
"""

import re
from fractions import Fraction
from functools import lru_cache
from math import lcm

from ..errors import ParseError, PrecisionExhausted
from ..tokens import Cursor
from .reals import NAMED, RealConst

DEFAULT_START_BITS = 64
DEFAULT_CAP_BITS = 1024

# step kinds by grammar symbol, and the shift sn/sd each rounding kind adds
# before its floor
_BINARY = {"+": "add", "-": "sub", "*": "mul"}
_ROUNDING = {"floor": "floor", "round": "nearest", "frac": "frac"}
_BINARY_KINDS = frozenset(_BINARY.values())
_SHIFT = {"floor": (0, 1), "nearest": (1, 2), "frac": (1, 2)}


def _const_triple(const, bits):
    """The bracket of const at bits as (lo, hi, den)."""
    iv = const.bracket(bits)
    lo, hi = iv.lo, iv.hi
    den = lcm(lo.denominator, hi.denominator)
    return lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator), den


def eval_triple(expr, n, bits):
    """One pass over the program at the given precision: the value's
    interval as (lo, hi, den), meaning [lo/den, hi/den] with den > 0.

    Raises PrecisionExhausted, naming the step's index, when a
    floor/nearest argument straddles a decision boundary at this precision
    (the caller refines and retries).

    Each step's interval is carried on three ints with no gcd taken: the
    same rational intervals as Interval arithmetic gives, unreduced, so
    every decision is the same.
    """
    stack = []
    push, pop = stack.append, stack.pop
    for i, (kind, arg) in enumerate(expr):
        if kind == "const":
            const, brackets = arg
            triple = brackets.get(bits)
            if triple is None:
                triple = brackets[bits] = _const_triple(const, bits)
            push(triple)
        elif kind == "var":
            push((n, n, 1))
        elif kind in _BINARY_KINDS:
            blo, bhi, bd = pop()
            alo, ahi, ad = pop()
            if kind == "mul":
                p = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
                push((min(p), max(p), ad * bd))
                continue
            if ad != bd:
                alo, ahi, blo, bhi, ad = alo * bd, ahi * bd, blo * ad, bhi * ad, ad * bd
            push((alo + blo, ahi + bhi, ad) if kind == "add" else (alo - bhi, ahi - blo, ad))
        elif kind in _SHIFT:
            lo, hi, d = pop()
            sn, sd = _SHIFT[kind]
            k = (lo * sd + sn * d) // (d * sd)
            if k != (hi * sd + sn * d) // (d * sd):
                raise PrecisionExhausted(
                    "argument interval straddles an integer boundary",
                    node=i,
                    interval=(Fraction(lo, d), Fraction(hi, d)),
                )
            push((lo - k * d, hi - k * d, d) if kind == "frac" else (k, k, 1))
        else:
            raise ValueError("unknown step kind %r" % kind)
    return stack[0]


@lru_cache(maxsize=None)
def precision_schedule(start_bits=DEFAULT_START_BITS, cap_bits=DEFAULT_CAP_BITS):
    """Doubling precision schedule from start to cap (inclusive)."""
    bits = start_bits
    out = []
    while bits < cap_bits:
        out.append(bits)
        bits *= 2
    out.append(cap_bits)
    return tuple(out)


def eval_exact(expr, n, schedule=None):
    """Certified evaluation to an exact integer or rational.

    Stops at the first precision of the schedule where every floor and
    round is decided: the value is returned if that pass gives a point, and
    PrecisionExhausted is raised at once if not (never a guess).  One
    decided pass settles it, since whether a node's interval is a point
    does not depend on the precision: rational constants, n and decided
    floors and rounds are points of their true values; every irrational
    bracket has positive width; widths add under + and −; and a product is
    a point only when both factors are points or one is the point 0.  So
    the result is identical under any two sufficient schedules.
    """
    if schedule is None:
        schedule = precision_schedule()
    last_err = None
    for bits in schedule:
        try:
            lo, hi, d = eval_triple(expr, n, bits)
        except PrecisionExhausted as err:
            last_err = err
            continue
        if lo != hi:
            raise PrecisionExhausted(
                "expression value is a non-degenerate interval (wrap irrational "
                "parts in floor/round to certify an exact value)",
                node=len(expr) - 1,
                interval=(Fraction(lo, d), Fraction(hi, d)),
            )
        return lo // d if lo % d == 0 else Fraction(lo, d)
    raise last_err


# ---------------------------------------------------------------------------
# Text grammar:
#   expr   := term (("+"|"-") term)*
#   term   := factor ("*" factor)*
#   factor := num | "n" | const-name | "(" expr ")"
#           | ("floor"|"round"|"frac") "(" expr ")"
#   const-name := "pi" | "e" | "golden" | "sqrt" int

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+\.\d+|\d+|[A-Za-z_]+|[()+*-])")


def parse_gpexpr(text):
    """Parse the documented expression grammar into its program.  Each
    node's step is appended once its children are parsed, which is
    post-order.  Parentheses, including those of floor, round and frac,
    nest at most MAX_NESTING deep; a deeper input is a ParseError."""
    cur = Cursor(_TOKEN, text, "parentheses")
    peek, take = cur.peek, cur.take
    steps = []
    step = steps.append

    def parse_expr():
        parse_term()
        while peek() in ("+", "-"):
            op, _ = take()
            parse_term()
            step((_BINARY[op], None))

    def parse_term():
        parse_factor()
        while peek() == "*":
            take()
            parse_factor()
            step(("mul", None))

    def parse_group():
        parse_expr()
        take(")")

    def constant(c):
        step(("const", (c, {})))

    def parse_factor():
        tok, pos = take()
        if tok == "(":
            cur.nested(pos, parse_group)
        elif tok in _ROUNDING:
            _, pos = take("(")
            cur.nested(pos, parse_group)
            step((_ROUNDING[tok], None))
        elif tok == "n":
            step(("var", None))
        elif tok in NAMED:
            constant(NAMED[tok])
        elif tok == "sqrt":
            d, _ = take()
            if not d.isdigit():
                raise ParseError("sqrt expects an integer", position=pos)
            constant(RealConst.sqrt(int(d)))
        elif tok[0].isdigit():  # the tokenizer's numerals: int, p/q or decimal
            try:
                constant(RealConst.rational(Fraction(tok)))
            except ZeroDivisionError:
                raise ParseError("zero denominator in %r" % tok, position=pos)
        else:
            raise ParseError("unexpected token %r" % tok, position=pos)

    parse_expr()
    return cur.finish(tuple(steps))
