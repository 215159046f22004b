"""Signatures, terms, formulas, and the text grammar.

Terms and formulas are plain tagged tuples:
  terms:    ("var", name) | ("const", name) | ("app", fname, (args...))
  formulas: ("atom", rel, (terms...)) | ("not", f) |
            ("and"|"or"|"imp"|"iff", f, g) | ("exists"|"forall", var, f)

Grammar:
  F     := atom | "!" F | "(" F op F ")" | ("A"|"E") var "." F
  op    := "&" | "|" | "->" | "<->"
  atom  := rname "(" term {"," term} ")" | term "=" term
  term  := var | const | fname "(" term {"," term} ")"

The printer emits a canonical form that re-parses to the same tree.
"""

import re

from ..errors import ArityMismatch, ParseError
from ..record import Record
from ..tokens import Cursor


class Signature(Record):
    """Function/relation symbols with arities, plus constants.  The binary
    relation "=" is always present and distinguished (but non-logical: a
    structure interprets it, subject to the equality axioms)."""

    _fields = ("functions", "relations", "constants")

    def __init__(self, functions=(), relations=(), constants=()):
        functions = tuple(sorted(dict(functions).items()))
        relations = dict(relations)
        relations["="] = 2
        relations = tuple(sorted(relations.items()))
        names = [n for n, _ in functions] + [n for n, _ in relations] + list(constants)
        if len(set(names)) != len(names):
            raise ValueError("symbol names must be unique")
        object.__setattr__(self, "functions", functions)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "constants", tuple(constants))

    @property
    def function_arity(self):
        return dict(self.functions)

    @property
    def relation_arity(self):
        return dict(self.relations)

    def to_json(self):
        return {
            "functions": dict(self.functions),
            "relations": {n: a for n, a in self.relations if n != "="},
            "constants": list(self.constants),
        }

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError("a signature is a JSON object")
        constants = obj.get("constants", [])
        if not isinstance(constants, list):
            raise ValueError("signature constants must be a list of names")
        for name in constants:
            if type(name) is not str:
                raise ValueError("constant name %r is not a string" % (name,))
        return cls(
            _arities(obj.get("functions", {}), "function"),
            _arities(obj.get("relations", {}), "relation"),
            tuple(constants),
        )


def _arities(items, kind):
    """The (name, arity) pairs of a signature's object of name: arity."""
    if not isinstance(items, dict):
        raise ValueError("signature %ss must be an object of name: arity" % kind)
    for name, arity in items.items():
        # type(), not isinstance(): True and False are ints too
        if type(arity) is not int or arity < 0:
            raise ValueError("%s %r has arity %r, not an integer >= 0" % (kind, name, arity))
    return tuple(items.items())


_TOKEN = re.compile(r"\s*(<->|->|[A-Za-z_][A-Za-z_0-9]*|[!&|().,=])")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

_BINOPS = {"&": "and", "|": "or", "->": "imp", "<->": "iff"}
_BINOP_TEXT = {v: k for k, v in _BINOPS.items()}


def parse_formula(text, sig):
    """Parse the grammar above into a formula tree.  Negations, quantifier
    bodies, parentheses and function applications together nest at most
    MAX_NESTING (from ufw.tokens) deep, a "(" right after "!" counting as
    part of that negation's level; a deeper input is a ParseError."""
    cur = Cursor(_TOKEN, text, "formulas and terms")
    peek, take = cur.peek, cur.take
    farity = sig.function_arity
    rarity = sig.relation_arity
    consts = set(sig.constants)

    def parse_args(kind, name, arity):
        take("(")
        args = [parse_term()]
        while peek() == ",":
            take(",")
            args.append(parse_term())
        take(")")
        if len(args) != arity:
            raise ArityMismatch(
                "%s %s expects %d arguments, got %d" % (kind, name, arity, len(args))
            )
        return tuple(args)

    def parse_term():
        tok, pos = take()
        if not _NAME.fullmatch(tok):
            raise ParseError("expected a term, found %r" % tok, position=pos)
        if tok in farity:
            return ("app", tok, cur.nested(pos, parse_args, "function", tok, farity[tok]))
        if tok in consts:
            return ("const", tok)
        return ("var", tok)

    def parse_f():
        tok = peek()  # at the end of the input, parse_atom reports it
        if tok == "!":
            _, pos = take()
            if peek() == "(":
                # a "(" right after "!" shares the negation's level, so the
                # printer's "!(x = c)" nests no deeper than "!x = c"
                take()
                return ("not", cur.nested(pos, parse_paren))
            return ("not", cur.nested(pos, parse_f))
        if tok in ("A", "E"):
            _, pos = take()
            var, vpos = take()
            if not _NAME.fullmatch(var) or var in farity or var in consts:
                raise ParseError("expected a variable after quantifier", position=vpos)
            take(".")
            return ("forall" if tok == "A" else "exists", var, cur.nested(pos, parse_f))
        if tok == "(":
            _, pos = take()
            return cur.nested(pos, parse_paren)
        return parse_atom()

    def parse_paren():
        lhs = parse_f()
        op, opos = take()
        if op == ")":  # plain parenthesized formula, e.g. "!(x = c)"
            return lhs
        if op not in _BINOPS:
            raise ParseError("expected a connective, found %r" % op, position=opos)
        rhs = parse_f()
        take(")")
        return (_BINOPS[op], lhs, rhs)

    def parse_atom():
        tok = peek()
        if tok in rarity and tok != "=":
            take()
            return ("atom", tok, parse_args("relation", tok, rarity[tok]))
        lhs = parse_term()
        take("=")
        rhs = parse_term()
        return ("atom", "=", (lhs, rhs))

    return cur.finish(parse_f())


def print_term(t):
    tag = t[0]
    if tag in ("var", "const"):
        return t[1]
    return "%s(%s)" % (t[1], ", ".join(print_term(a) for a in t[2]))


def print_formula(phi):
    tag = phi[0]
    if tag == "atom":
        if phi[1] == "=":
            return "%s = %s" % (print_term(phi[2][0]), print_term(phi[2][1]))
        return "%s(%s)" % (phi[1], ", ".join(print_term(a) for a in phi[2]))
    if tag == "not":
        return "!%s" % _wrap_unary(phi[1])
    if tag in _BINOP_TEXT:
        return "(%s %s %s)" % (print_formula(phi[1]), _BINOP_TEXT[tag], print_formula(phi[2]))
    if tag in ("forall", "exists"):
        return "%s %s. %s" % ("A" if tag == "forall" else "E", phi[1], print_formula(phi[2]))
    raise ValueError("unknown formula tag %r" % tag)


def _wrap_unary(phi):
    """Negation binds tighter than '='; parenthesize atoms so the canonical
    text re-parses unambiguously."""
    text = print_formula(phi)
    if phi[0] == "atom" and phi[1] == "=":
        return "(%s)" % text
    return text


def _term_vars(t, acc):
    if t[0] == "var":
        acc.add(t[1])
    elif t[0] == "app":
        for a in t[2]:
            _term_vars(a, acc)


def free_vars(phi):
    tag = phi[0]
    if tag == "atom":
        acc = set()
        for t in phi[2]:
            _term_vars(t, acc)
        return acc
    if tag == "not":
        return free_vars(phi[1])
    if tag in _BINOP_TEXT:
        return free_vars(phi[1]) | free_vars(phi[2])
    return free_vars(phi[2]) - {phi[1]}
