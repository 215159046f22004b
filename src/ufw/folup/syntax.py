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
from dataclasses import dataclass
from itertools import product as iproduct

from ..errors import ArityMismatch, ParseError


@dataclass(frozen=True)
class Signature:
    """Function/relation symbols with arities, plus constants.  The binary
    relation "=" is always present and distinguished (but non-logical: a
    structure interprets it, subject to the equality axioms)."""

    functions: tuple = ()
    relations: tuple = ()
    constants: tuple = ()

    def __post_init__(self):
        functions = tuple(sorted(dict(self.functions).items()))
        relations = dict(self.relations)
        relations["="] = 2
        relations = tuple(sorted(relations.items()))
        names = [n for n, _ in functions] + [n for n, _ in relations] + list(self.constants)
        if len(set(names)) != len(names):
            raise ValueError("symbol names must be unique")
        object.__setattr__(self, "functions", functions)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "constants", tuple(self.constants))

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
        return cls(
            tuple(dict(obj.get("functions", {})).items()),
            tuple(dict(obj.get("relations", {})).items()),
            tuple(obj.get("constants", ())),
        )


_TOKEN = re.compile(r"\s*(<->|->|[A-Za-z_][A-Za-z_0-9]*|[!&|().,=])")

_BINOPS = {"&": "and", "|": "or", "->": "imp", "<->": "iff"}
_BINOP_TEXT = {v: k for k, v in _BINOPS.items()}


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


def parse_formula(text, sig):
    """Parse the grammar above into a formula tree."""
    tokens = _tokenize(text)
    idx = 0
    farity = sig.function_arity
    rarity = sig.relation_arity
    consts = set(sig.constants)

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

    def parse_term():
        tok, pos = take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
            raise ParseError("expected a term, found %r" % tok, position=pos)
        if tok in farity:
            take("(")
            args = [parse_term()]
            while peek() == ",":
                take(",")
                args.append(parse_term())
            take(")")
            if len(args) != farity[tok]:
                raise ArityMismatch(
                    "function %s expects %d arguments, got %d" % (tok, farity[tok], len(args))
                )
            return ("app", tok, tuple(args))
        if tok in consts:
            return ("const", tok)
        return ("var", tok)

    def parse_f():
        tok = peek()
        if tok is None:
            raise ParseError("unexpected end of input", position=len(text))
        if tok == "!":
            take()
            return ("not", parse_f())
        if tok in ("A", "E"):
            take()
            var, vpos = take()
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", var) or var in farity or var in consts:
                raise ParseError("expected a variable after quantifier", position=vpos)
            take(".")
            body = parse_f()
            return ("forall" if tok == "A" else "exists", var, body)
        if tok == "(":
            take()
            lhs = parse_f()
            op, opos = take()
            if op == ")":  # plain parenthesized formula, e.g. "!(x = c)"
                return lhs
            if op not in _BINOPS:
                raise ParseError("expected a connective, found %r" % op, position=opos)
            rhs = parse_f()
            take(")")
            return (_BINOPS[op], lhs, rhs)
        return parse_atom()

    def parse_atom():
        tok = peek()
        pos = tokens[idx][1]
        if tok in rarity and tok != "=":
            take()
            take("(")
            args = [parse_term()]
            while peek() == ",":
                take(",")
                args.append(parse_term())
            take(")")
            if len(args) != rarity[tok]:
                raise ArityMismatch(
                    "relation %s expects %d arguments, got %d" % (tok, rarity[tok], len(args))
                )
            return ("atom", tok, tuple(args))
        lhs = parse_term()
        take("=")
        rhs = parse_term()
        return ("atom", "=", (lhs, rhs))

    out = parse_f()
    if idx != len(tokens):
        raise ParseError("trailing input %r" % tokens[idx][0], position=tokens[idx][1])
    return out


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


def formula_vars(phi):
    """All variables (free or bound)."""
    acc = set()

    def walk(f):
        tag = f[0]
        if tag == "atom":
            for t in f[2]:
                _term_vars(t, acc)
        elif tag == "not":
            walk(f[1])
        elif tag in ("and", "or", "imp", "iff"):
            walk(f[1])
            walk(f[2])
        else:
            acc.add(f[1])
            walk(f[2])

    walk(phi)
    return acc


def free_vars(phi):
    tag = phi[0]
    if tag == "atom":
        acc = set()
        for t in phi[2]:
            _term_vars(t, acc)
        return acc
    if tag == "not":
        return free_vars(phi[1])
    if tag in ("and", "or", "imp", "iff"):
        return free_vars(phi[1]) | free_vars(phi[2])
    return free_vars(phi[2]) - {phi[1]}


def generate_formulas(sig, depth, nvars):
    """All formulas up to the given AST depth (atoms count 1; every
    connective/quantifier adds 1) over the first ``nvars`` variable names,
    deduplicated by printed form.  The atoms' terms are the variables, the
    constants, and each function applied to those.  Deterministic order: by
    depth, then by enumeration order within each depth."""
    var_names = ("x", "y", "z", "w")[:nvars]
    terms = [("var", v) for v in var_names] + [("const", c) for c in sig.constants]
    terms += [
        ("app", fname, args)
        for fname, arity in sig.functions
        for args in iproduct(terms, repeat=arity)
    ]
    atoms = [
        ("atom", rname, args)
        for rname, arity in sig.relations
        for args in iproduct(terms, repeat=arity)
    ]
    if depth < 1:
        return []
    layers = [atoms]
    for _ in range(depth - 1):
        prev = layers[-1]
        everything = [f for layer in layers for f in layer]
        new = []
        for f in prev:
            new.append(("not", f))
            for v in var_names:
                new.append(("exists", v, f))
                new.append(("forall", v, f))
        for f in prev:
            for g in everything:
                new.append(("and", f, g))
                new.append(("or", f, g))
                new.append(("imp", f, g))
                new.append(("iff", f, g))
        for f in everything:
            if f not in prev:
                for g in prev:
                    new.append(("and", f, g))
                    new.append(("or", f, g))
                    new.append(("imp", f, g))
                    new.append(("iff", f, g))
        layers.append(new)
    seen = set()
    out = []
    for layer in layers:
        for f in layer:
            text = print_formula(f)
            if text not in seen:
                seen.add(text)
                out.append(f)
    return out
