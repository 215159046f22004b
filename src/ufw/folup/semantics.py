"""Finite structures and Tarskian evaluation.

A structure interprets every symbol by a total table.  Equality is an
interpreted relation: it must be an equivalence that is a congruence for
every symbol (checked on load), but it need not be literal identity —
such "non-normal" structures arise naturally as ultraproducts and are
collapsed by :func:`normalize`.

Evaluation reads every connective and quantifier directly, so each
subformula is evaluated at most once per assignment of its free variables
(↔ rewritten as (a→b)∧(b→a) would evaluate both sides twice per level).
"""

from heapq import merge
from itertools import product as iproduct

from ..record import Record


class Structure(Record):
    """universe: size n (elements 0..n-1); funcs: name → nested tuple table;
    rels: name → frozenset of argument tuples; consts: name → element.
    Structures compare and hash by identity: their tables are dicts."""

    __slots__ = ("sig", "size", "funcs", "rels", "consts")
    _fields = ("sig", "size", "funcs", "rels", "consts")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, sig, size, funcs=None, rels=None, consts=None, validate=True):
        funcs = dict(funcs or {})
        rels = {name: frozenset(map(tuple, tups)) for name, tups in dict(rels or {}).items()}
        consts = dict(consts or {})
        # type(), not isinstance(): True and False are ints too
        if type(size) is not int:
            raise ValueError("universe size must be an integer")
        if size < 1:
            raise ValueError("universe must be non-empty")
        if "=" not in rels:
            rels["="] = frozenset((i, i) for i in range(size))
        for name, arity in sig.functions:
            if name not in funcs:
                raise ValueError("missing function table %r" % name)
            funcs[name] = _freeze_table(funcs[name], arity, size, name)
        for name, arity in sig.relations:
            if name not in rels:
                raise ValueError("missing relation table %r" % name)
            for tup in rels[name]:
                if len(tup) != arity or not all(_is_element(v, size) for v in tup):
                    raise ValueError("relation %r contains invalid tuple %r" % (name, tup))
        for name in sig.constants:
            if name not in consts or not _is_element(consts[name], size):
                raise ValueError("missing or invalid constant %r" % name)
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "funcs", funcs)
        object.__setattr__(self, "rels", rels)
        object.__setattr__(self, "consts", consts)
        if validate:
            witness = equality_axiom_witness(self)
            if witness is not None:
                raise ValueError("equality axioms violated: %s" % (witness,))

    def __reduce__(self):
        # unchecked: a structure built with validate=False copies as it is
        return Structure, (*self._values, False)

    def apply(self, fname, args):
        table = self.funcs[fname]
        for a in args:
            table = table[a]
        return table

    def holds(self, rname, args):
        return tuple(args) in self.rels[rname]

    def to_json(self):
        return {
            "universe": self.size,
            "functions": {n: _table_to_json(self.funcs[n]) for n, _ in self.sig.functions},
            "relations": {n: sorted(map(list, self.rels[n])) for n, _ in self.sig.relations},
            "constants": dict(self.consts),
        }

    @classmethod
    def from_json(cls, sig, obj):
        if not isinstance(obj, dict):
            raise ValueError("a structure is a JSON object")
        if "universe" not in obj:
            raise ValueError("a structure needs a universe size")
        funcs, rels, consts = (
            _json_object(obj, key) for key in ("functions", "relations", "constants")
        )
        for name, tups in rels.items():
            if not isinstance(tups, list):
                raise ValueError("relation %r is not a list of tuples" % name)
            for tup in tups:
                if not isinstance(tup, list) or not all(type(v) is int for v in tup):
                    raise ValueError("relation %r contains invalid tuple %r" % (name, tup))
        return cls(sig, obj["universe"], funcs=funcs, rels=rels, consts=consts)


def _json_object(obj, key):
    value = obj.get(key, {})
    if not isinstance(value, dict):
        raise ValueError("structure %s must be an object keyed by symbol name" % key)
    return value


def _is_element(v, size):
    return type(v) is int and 0 <= v < size


def _freeze_table(table, arity, size, name):
    if arity == 0:
        if not _is_element(table, size):
            raise ValueError("function %r has entry %r outside the universe" % (name, table))
        return table
    if not isinstance(table, (list, tuple)) or len(table) != size:
        raise ValueError("function table %r has wrong shape" % name)
    return tuple(_freeze_table(row, arity - 1, size, name) for row in table)


def _table_to_json(table):
    if isinstance(table, int):
        return table
    return [_table_to_json(row) for row in table]


def equality_axiom_witness(s):
    """None if "=" is an equivalence and a congruence for every symbol;
    otherwise a human-readable witness tuple."""
    n = s.size
    eq = s.rels["="]
    for a in range(n):
        if (a, a) not in eq:
            return ("not-reflexive", a)
    for a, b in eq:
        if (b, a) not in eq:
            return ("not-symmetric", a, b)
    cls = [[] for _ in range(n)]
    for a, b in sorted(eq):
        cls[a].append(b)
    # the c with (b, c) in "=" are cls[b], in ascending order
    for a, b in eq:
        for c in cls[b]:
            if (a, c) not in eq:
                return ("not-transitive", a, b, c)

    def equivalent(firsts):
        # every (args1, args2) whose i-th entries are equal under "=" for
        # each i, in lexicographic order: args2 ranges over the classes of
        # args1's entries only
        for args1 in firsts:
            for args2 in iproduct(*(cls[a] for a in args1)):
                yield args1, args2

    for name, arity in s.sig.functions:
        for args1, args2 in equivalent(iproduct(range(n), repeat=arity)):
            if (s.apply(name, args1), s.apply(name, args2)) not in eq:
                return ("function-congruence", name, args1, args2)
    for name, arity in s.sig.relations:
        if name == "=":
            continue
        # an args1 equivalent to no member has no member among its args2,
        # so args1 walks, lazily and in lexicographic order, the class
        # products of the members: one per class tuple (named by its least
        # elements), so no two overlap and the merge repeats nothing
        keys = {tuple(cls[a][0] for a in m) for m in s.rels[name]}
        firsts = merge(*(iproduct(*(cls[a] for a in key)) for key in keys))
        for args1, args2 in equivalent(firsts):
            if s.holds(name, args1) != s.holds(name, args2):
                return ("relation-congruence", name, args1, args2)
    # "=" itself must be a congruence for "=": guaranteed by
    # symmetry+transitivity, no separate scan needed.
    return None


def eval_term(s, t, env):
    tag = t[0]
    if tag == "var":
        return env[t[1]]
    if tag == "const":
        return s.consts[t[1]]
    return s.apply(t[1], [eval_term(s, a, env) for a in t[2]])


def eval_formula(s, phi, env=None):
    """Tarskian truth over the finite universe (quantifiers range over all
    elements; equality atoms use the structure's "=" table)."""
    env = dict(env or {})
    return _eval(s, phi, env)


def _eval(s, phi, env):
    tag = phi[0]
    if tag == "atom":
        args = [eval_term(s, t, env) for t in phi[2]]
        return s.holds(phi[1], args)
    if tag == "not":
        return not _eval(s, phi[1], env)
    if tag == "and":
        return _eval(s, phi[1], env) and _eval(s, phi[2], env)
    if tag == "or":
        return _eval(s, phi[1], env) or _eval(s, phi[2], env)
    if tag == "imp":
        return not _eval(s, phi[1], env) or _eval(s, phi[2], env)
    if tag == "iff":
        return _eval(s, phi[1], env) == _eval(s, phi[2], env)
    if tag in ("exists", "forall"):
        # ∃ stops at the first element that satisfies the body, ∀ at the
        # first that does not
        var, body, want = phi[1], phi[2], tag == "exists"
        saved = env.get(var, _MISSING)
        found = False
        for v in range(s.size):
            env[var] = v
            if _eval(s, body, env) == want:
                found = True
                break
        _restore(env, var, saved)
        return found == want
    raise ValueError("unknown formula tag %r" % tag)


_MISSING = object()


def _restore(env, var, saved):
    if saved is _MISSING:
        env.pop(var, None)
    else:
        env[var] = saved


def normalize(s):
    """Quotient a structure by its equality relation.

    The result's universe is the set of equivalence classes (indexed by
    ascending least representative) and its equality is literal identity.
    Congruence (validated on construction) makes every interpretation
    well-defined on classes, so each relation of the quotient is the image
    of its members under the class map: the cost is the member count, not
    the number of argument tuples.  The least representatives are read off
    the "=" pairs in one pass.
    """
    rep = list(range(s.size))
    for a, b in s.rels["="]:
        if b < rep[a]:
            rep[a] = b
    reps = sorted(set(rep))
    cls = {r: i for i, r in enumerate(reps)}
    of = [cls[r] for r in rep]

    def build(fname, arity):
        def rec(prefix):
            if len(prefix) == arity:
                return of[s.apply(fname, [reps[i] for i in prefix])]
            return tuple(rec(prefix + (i,)) for i in range(len(reps)))

        return rec(())

    funcs = {name: build(name, arity) for name, arity in s.sig.functions}
    rels = {
        name: frozenset(tuple(of[a] for a in args) for args in s.rels[name])
        for name, _ in s.sig.relations
        if name != "="
    }
    consts = {name: of[v] for name, v in s.consts.items()}
    return Structure(s.sig, len(reps), funcs=funcs, rels=rels, consts=consts)
