"""Generalized-polynomial expression trees and certified evaluation.

The nearest-integer map rounds half up: ⌈x⌋ = ⌊x + 1/2⌋, and the signed
fractional part is ⟨x⟩ = x − ⌈x⌋ ∈ [−1/2, 1/2).

Evaluation works over exact rational intervals.  Every floor/nearest
decision is certified: the argument interval must lie inside a single unit
cell, refining the precision (doubling bits) up to a configurable cap.
Precision exhaustion is always an explicit error, never a wrong answer.
"""

import re
from dataclasses import dataclass
from fractions import Fraction

from ..errors import ParseError, PrecisionExhausted
from .reals import Interval, RealConst

DEFAULT_START_BITS = 64
DEFAULT_CAP_BITS = 1024


@dataclass(frozen=True)
class GPExpr:
    """Node kinds: const(RealConst), var, add, sub, mul, floor, nearest,
    frac."""

    kind: str
    children: tuple = ()
    const: RealConst = None

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
        if self.kind == "const":
            return repr(self.const)
        if self.kind == "var":
            return "n"
        if self.kind in ("add", "sub", "mul"):
            op = {"add": "+", "sub": "-", "mul": "*"}[self.kind]
            return "(%r %s %r)" % (self.children[0], op, self.children[1])
        name = {"floor": "floor", "nearest": "round", "frac": "frac"}[self.kind]
        return "%s(%r)" % (name, self.children[0])


def _coerce(x):
    if isinstance(x, GPExpr):
        return x
    return GPExpr.constant(x)


def nearest_int(q):
    """⌈q⌋ = ⌊q + 1/2⌋ on exact rationals."""
    q = Fraction(q)
    num = 2 * q.numerator + q.denominator
    return num // (2 * q.denominator)


def signed_frac(q):
    """⟨q⟩ = q − ⌈q⌋ ∈ [−1/2, 1/2) on exact rationals."""
    q = Fraction(q)
    return q - nearest_int(q)


def _floor_fraction(q):
    return q.numerator // q.denominator


def eval_interval(expr, n, bits):
    """One bottom-up interval pass at the given precision.

    Raises PrecisionExhausted when a floor/nearest argument straddles a
    decision boundary at this precision (the caller refines and retries).
    """
    if expr.kind == "const":
        return expr.const.bracket(bits)
    if expr.kind == "var":
        return Interval.point(n)
    if expr.kind == "add":
        return eval_interval(expr.children[0], n, bits) + eval_interval(
            expr.children[1], n, bits
        )
    if expr.kind == "sub":
        return eval_interval(expr.children[0], n, bits) - eval_interval(
            expr.children[1], n, bits
        )
    if expr.kind == "mul":
        return eval_interval(expr.children[0], n, bits) * eval_interval(
            expr.children[1], n, bits
        )
    if expr.kind in ("floor", "nearest", "frac"):
        arg = eval_interval(expr.children[0], n, bits)
        if expr.kind == "floor":
            shifted = arg
        else:
            half = Interval.point(Fraction(1, 2))
            shifted = arg + half
        flo = _floor_fraction(shifted.lo)
        fhi = _floor_fraction(shifted.hi)
        if flo != fhi:
            raise PrecisionExhausted(
                "argument interval straddles an integer boundary",
                node=expr,
                interval=(arg.lo, arg.hi),
            )
        if expr.kind == "floor":
            return Interval.point(flo)
        if expr.kind == "nearest":
            return Interval.point(flo)
        return arg - Interval.point(flo)
    raise ValueError("unknown GPExpr kind %r" % expr.kind)


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

    The result is identical under any two sufficient precision schedules;
    an expression whose value cannot be certified exactly raises
    PrecisionExhausted (never returns a guess).
    """
    if schedule is None:
        schedule = precision_schedule()
    last_err = None
    for bits in schedule:
        try:
            iv = eval_interval(expr, n, bits)
        except PrecisionExhausted as err:
            last_err = err
            continue
        if iv.exact:
            q = iv.lo
            return q.numerator if q.denominator == 1 else q
        last_err = PrecisionExhausted(
            "expression value is a non-degenerate interval (wrap irrational "
            "parts in floor/round to certify an exact value)",
            node=expr,
            interval=(iv.lo, iv.hi),
        )
    raise last_err


# ---------------------------------------------------------------------------
# Text grammar:
#   expr   := term (("+"|"-") term)*
#   term   := factor ("*" factor)*
#   factor := num | "n" | const-name | "(" expr ")"
#           | ("floor"|"round"|"frac") "(" expr ")"
#   const-name := "pi" | "e" | "golden" | "sqrt" int

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+\.\d+|\d+|[A-Za-z_]+|[()+*-])")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError("unexpected character %r" % text[pos], position=pos)
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


def parse_gpexpr(text):
    """Parse the documented expression grammar into a GPExpr."""
    tokens = _tokenize(text)
    idx = 0

    def peek():
        return tokens[idx][0] if idx < len(tokens) else None

    def take(expected=None):
        nonlocal idx
        if idx >= len(tokens):
            raise ParseError("unexpected end of input", position=len(text))
        tok, pos = tokens[idx]
        if expected is not None and tok != expected:
            raise ParseError("expected %r, found %r" % (expected, tok), position=pos)
        idx += 1
        return tok, pos

    def parse_expr():
        node = parse_term()
        while peek() in ("+", "-"):
            op, _ = take()
            rhs = parse_term()
            node = GPExpr("add" if op == "+" else "sub", (node, rhs))
        return node

    def parse_term():
        node = parse_factor()
        while peek() == "*":
            take()
            node = GPExpr("mul", (node, parse_factor()))
        return node

    def parse_factor():
        tok, pos = take()
        if tok == "(":
            node = parse_expr()
            take(")")
            return node
        if tok in ("floor", "round", "frac"):
            take("(")
            node = parse_expr()
            take(")")
            kind = {"floor": "floor", "round": "nearest", "frac": "frac"}[tok]
            return GPExpr(kind, (node,))
        if tok == "n":
            return GPExpr.var()
        if tok == "pi":
            return GPExpr.constant(RealConst.pi())
        if tok == "e":
            return GPExpr.constant(RealConst.e())
        if tok == "golden":
            return GPExpr.constant(RealConst.golden())
        if tok == "sqrt":
            d, _ = take()
            if not d.isdigit():
                raise ParseError("sqrt expects an integer", position=pos)
            return GPExpr.constant(RealConst.sqrt(int(d)))
        if re.fullmatch(r"\d+/\d+", tok) or tok.isdigit():
            return GPExpr.constant(Fraction(tok))
        if re.fullmatch(r"\d+\.\d+", tok):
            whole, frac_part = tok.split(".")
            q = Fraction(int(whole + frac_part), 10 ** len(frac_part))
            return GPExpr.constant(q)
        raise ParseError("unexpected token %r" % tok, position=pos)

    node = parse_expr()
    if idx != len(tokens):
        raise ParseError("trailing input %r" % tokens[idx][0], position=tokens[idx][1])
    return node
