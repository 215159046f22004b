"""Generalized-polynomial expression trees and certified evaluation.

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
from ..record import Record
from ..tokens import Cursor
from .reals import NAMED, RealConst

DEFAULT_START_BITS = 64
DEFAULT_CAP_BITS = 1024

# node kinds by grammar symbol, and the shift sn/sd each rounding kind adds
# before its floor
_BINARY = {"+": "add", "-": "sub", "*": "mul"}
_ROUNDING = {"floor": "floor", "round": "nearest", "frac": "frac"}
_SYMBOL = {kind: name for table in (_BINARY, _ROUNDING) for name, kind in table.items()}
_BINARY_KINDS = frozenset(_BINARY.values())
_SHIFT = {"floor": (0, 1), "nearest": (1, 2), "frac": (1, 2)}


class GPExpr(Record):
    """Node kinds: const(RealConst), var, add, sub, mul, floor, nearest,
    frac.  Nodes compare and hash by identity, so no tree, however deep,
    is walked recursively to compare or hash it."""

    _fields = ("kind", "children", "const")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, kind, children=(), const=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "const", const)

    def __reduce__(self):
        # a copy or pickle leaves the compiled programs behind (see _program):
        # their steps name this tree's nodes, not the copy's
        return GPExpr, (self.kind, self.children, self.const)

    # -- construction helpers ------------------------------------------------
    @classmethod
    def constant(cls, c):
        if not isinstance(c, RealConst):
            c = RealConst.rational(c)
        return cls("const", (), c)

    @classmethod
    def var(cls):
        return cls("var")

    def __add__(self, other):
        return GPExpr("add", (self, _coerce(other)))

    def __sub__(self, other):
        return GPExpr("sub", (self, _coerce(other)))

    def __mul__(self, other):
        return GPExpr("mul", (self, _coerce(other)))

    def floor(self):
        return GPExpr("floor", (self,))

    def nearest(self):
        return GPExpr("nearest", (self,))

    def frac(self):
        return GPExpr("frac", (self,))

    def __repr__(self):
        texts = []
        for node in _postorder(self):
            kind = node.kind
            if kind == "const":
                texts.append(repr(node.const))
            elif kind == "var":
                texts.append("n")
            elif kind in _BINARY_KINDS:
                b = texts.pop()
                texts.append("(%s %s %s)" % (texts.pop(), _SYMBOL[kind], b))
            else:
                texts.append("%s(%s)" % (_SYMBOL[kind], texts.pop()))
        return texts[0]


def _coerce(x):
    if isinstance(x, GPExpr):
        return x
    return GPExpr.constant(x)


def _postorder(expr):
    """The nodes of expr, each after its children and a left child before
    its sibling: the order the recursive definition evaluates them in."""
    order, todo = [], [expr]
    while todo:
        node = todo.pop()
        order.append(node)
        todo.extend(node.children)
    order.reverse()
    return order


def _const_triple(const, bits):
    """The bracket of const at bits as (lo, hi, den)."""
    iv = const.bracket(bits)
    lo, hi = iv.lo, iv.hi
    den = lcm(lo.denominator, hi.denominator)
    return lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator), den


def _program(expr, bits):
    """The evaluation program of expr at bits: its nodes in post-order as
    (kind, arg) steps, arg being a constant's bracket at bits as
    (lo, hi, den) and the node itself otherwise.  Built on first use at each
    precision and kept on the expression (one entry per precision it was
    evaluated at), so it lives exactly as long as the tree does."""
    try:
        return vars(expr)["_programs"][bits]
    except KeyError:
        pass
    steps = tuple(
        (node.kind, _const_triple(node.const, bits) if node.kind == "const" else node)
        for node in _postorder(expr)
    )
    vars(expr).setdefault("_programs", {})[bits] = steps
    return steps


def eval_triple(expr, n, bits):
    """One bottom-up pass at the given precision: the value's interval as
    (lo, hi, den), meaning [lo/den, hi/den] with den > 0.

    Raises PrecisionExhausted when a floor/nearest argument straddles a
    decision boundary at this precision (the caller refines and retries).

    Each node's interval is carried on three ints with no gcd taken: the
    same rational intervals as Interval arithmetic gives, unreduced, so
    every decision is the same.
    """
    stack = []
    push, pop = stack.append, stack.pop
    for kind, arg in _program(expr, bits):
        if kind == "const":
            push(arg)
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
                    node=arg,
                    interval=(Fraction(lo, d), Fraction(hi, d)),
                )
            push((lo - k * d, hi - k * d, d) if kind == "frac" else (k, k, 1))
        else:
            raise ValueError("unknown GPExpr kind %r" % kind)
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
                node=expr,
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
    """Parse the documented expression grammar into a GPExpr.  Parentheses,
    including those of floor, round and frac, nest at most MAX_NESTING
    deep; a deeper input is a ParseError."""
    cur = Cursor(_TOKEN, text, "parentheses")
    peek, take = cur.peek, cur.take

    def parse_expr():
        node = parse_term()
        while peek() in ("+", "-"):
            op, _ = take()
            node = GPExpr(_BINARY[op], (node, parse_term()))
        return node

    def parse_term():
        node = parse_factor()
        while peek() == "*":
            take()
            node = GPExpr("mul", (node, parse_factor()))
        return node

    def parse_group():
        node = parse_expr()
        take(")")
        return node

    def parse_factor():
        tok, pos = take()
        if tok == "(":
            return cur.nested(pos, parse_group)
        if tok in _ROUNDING:
            _, pos = take("(")
            return GPExpr(_ROUNDING[tok], (cur.nested(pos, parse_group),))
        if tok == "n":
            return GPExpr.var()
        if tok in NAMED:
            return GPExpr.constant(NAMED[tok])
        if tok == "sqrt":
            d, _ = take()
            if not d.isdigit():
                raise ParseError("sqrt expects an integer", position=pos)
            return GPExpr.constant(RealConst.sqrt(int(d)))
        if tok[0].isdigit():  # the tokenizer's numerals: int, p/q or decimal
            try:
                return GPExpr.constant(Fraction(tok))
            except ZeroDivisionError:
                raise ParseError("zero denominator in %r" % tok, position=pos)
        raise ParseError("unexpected token %r" % tok, position=pos)

    return cur.finish(parse_expr())
