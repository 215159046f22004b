"""First-order evaluation over finite structures, ultraproducts, and the
transfer property: parser/printer roundtrips, evaluation oracles, product
construction laws, and the bit-parallel sweep cross-checked against the slow
evaluator."""

import random
import time
from collections import Counter
from itertools import product as iproduct
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ufw.bitsets import mask_of
from ufw.errors import ArityMismatch, CapExceeded, NotUltrafilter, ParseError
from ufw.folup import (
    Signature,
    Structure,
    UltraproductSpec,
    eval_formula,
    exhaustive_transfer_sweep,
    free_vars,
    los_check,
    normalize,
    parse_formula,
    print_formula,
    ultraproduct,
)
from ufw.folup.semantics import equality_axiom_witness, eval_term
from ufw.folup import products, sweep
from ufw.folup.sweep import build_corpus, factor_structures
from ufw.setfam import GroundSet, SetFamily, principal_ultrafilter
from ufw.tokens import MAX_NESTING

SIG = Signature(functions=(("f", 2),), constants=("c",))

# Z/3 with addition; c = 1
Z3 = Structure(
    SIG,
    3,
    funcs={"f": [[(a + b) % 3 for b in range(3)] for a in range(3)]},
    consts={"c": 1},
)
# {0,1} with max; c = 0
MAX2 = Structure(SIG, 2, funcs={"f": [[0, 1], [1, 1]]}, consts={"c": 0})


# --- syntax ----------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "x = y",
        "!(x = y)",
        "(x = y & f(x, c) = y)",
        "A x. E y. f(x, y) = c",
        "((x = x -> y = y) <-> !(c = c))",
        "E x. (f(x, x) = x | x = c)",
    ],
)
def test_parse_print_roundtrip(text):
    phi = parse_formula(text, SIG)
    assert parse_formula(print_formula(phi), SIG) == phi


RSIG = Signature(functions=(("f", 2),), relations=(("R", 2),), constants=("c",))


@pytest.mark.parametrize(
    "text, atom",
    [
        ("R(x, y)", ("atom", "R", (("var", "x"), ("var", "y")))),
        (
            "!R(f(x, c), y)",
            ("atom", "R", (("app", "f", (("var", "x"), ("const", "c"))), ("var", "y"))),
        ),
        ("A x. (R(x, c) -> E y. R(y, x))", ("atom", "R", (("var", "x"), ("const", "c")))),
        ("(R(x, x) & x = c)", ("atom", "R", (("var", "x"), ("var", "x")))),
    ],
)
def test_parse_print_roundtrip_with_a_binary_relation(text, atom):
    phi = parse_formula(text, RSIG)
    assert print_formula(phi) == text
    assert parse_formula(print_formula(phi), RSIG) == phi
    # the first R atom in the tree, reached through the left children
    while phi[0] != "atom":
        phi = phi[-1] if phi[0] in ("not", "exists", "forall") else phi[1]
    assert phi == atom


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_formula("x =", SIG)
    with pytest.raises(ParseError):
        parse_formula("(x = y", SIG)
    with pytest.raises(ParseError):
        parse_formula("x = y )", SIG)
    with pytest.raises(ArityMismatch):
        parse_formula("f(x) = y", SIG)


def test_parse_names_the_bad_character_after_whitespace():
    with pytest.raises(ParseError, match="^unexpected character '#'$") as err:
        parse_formula("x = #", SIG)
    assert err.value.position == 4


@pytest.mark.parametrize(
    "text",
    [
        "!" * 3000 + "(x = x)",
        "(" * 3000 + "x = x" + ")" * 3000,
        "A x. " * 3000 + "x = x",
        "f(" * 3000 + "x" + ", x)" * 3000 + " = x",
        "(x = x & " * 3000 + "x = x" + ")" * 3000,
    ],
    ids=["not", "paren", "forall", "app", "and"],
)
def test_deep_formulas_are_parse_errors(text):
    # each of these once ended in a RecursionError
    with pytest.raises(ParseError, match="^formulas and terms nest deeper than 100$"):
        parse_formula(text, SIG)


def test_formulas_at_the_nesting_limit_parse():
    # negations and function applications count alike
    phi = parse_formula("!" * MAX_NESTING + "x = c", SIG)
    assert free_vars(phi) == {"x"}
    assert eval_formula(Z3, phi, {"x": 0}) is False
    assert print_formula(phi) == "!" * MAX_NESTING + "(x = c)"
    # the "(" the printer puts after the last "!" shares that negation's
    # level, so the canonical text re-parses at the limit
    assert parse_formula(print_formula(phi), SIG) == phi
    with pytest.raises(ParseError) as err:
        parse_formula("!" * MAX_NESTING + "f(x, c) = x", SIG)
    assert err.value.position == MAX_NESTING
    for text in ("!" * (MAX_NESTING + 1) + "x = c", "!" * (MAX_NESTING + 1) + "(x = c)",
                 "!" * MAX_NESTING + "((x = c))"):
        with pytest.raises(ParseError, match="^formulas and terms nest deeper than 100$"):
            parse_formula(text, SIG)


def test_variable_sets():
    phi = parse_formula("E x. f(x, y) = c", SIG)
    assert free_vars(phi) == {"y"}


# --- evaluation ------------------------------------------------------------


def test_eval_oracles_z3():
    assert eval_formula(Z3, parse_formula("A x. E y. f(x, y) = c", SIG))
    assert eval_formula(Z3, parse_formula("E x. f(x, x) = x", SIG))
    assert not eval_formula(Z3, parse_formula("A x. f(x, x) = x", SIG))
    assert eval_formula(Z3, parse_formula("f(c, c) = y", SIG), {"y": 2})
    assert not eval_formula(Z3, parse_formula("f(c, c) = y", SIG), {"y": 0})


def test_eval_desugared_connectives():
    env = {"x": 0, "y": 1}
    assert eval_formula(Z3, parse_formula("(x = x | x = y)", SIG), env)
    assert eval_formula(Z3, parse_formula("(x = y -> c = c)", SIG), env)
    assert eval_formula(Z3, parse_formula("(x = y <-> y = x)", SIG), env)
    assert not eval_formula(Z3, parse_formula("(x = x & x = y)", SIG), env)


def test_iff_chain_at_the_nesting_limit_evaluates_at_once():
    # ↔ was rewritten as (a→b)∧(b→a), so every level evaluated both sides
    # twice: a 16-deep chain took 0.6 s, and two more levels took 4× longer
    text = "x = c"
    for _ in range(MAX_NESTING):
        text = "(x = c <-> %s)" % text
    phi = parse_formula(text, SIG)
    start = time.perf_counter()
    # a ↔ a is true and a ↔ true is a, so an even chain is x = c
    assert [eval_formula(Z3, phi, {"x": x}) for x in range(3)] == [False, True, False]
    assert time.perf_counter() - start < 1.0


def _rewriting_eval(s, phi, env):
    """Evaluation as it was: ∨, →, ↔ and ∀ rewritten into the ¬/∧/∃ core."""
    tag = phi[0]
    if tag == "atom":
        return s.holds(phi[1], [eval_term(s, t, env) for t in phi[2]])
    if tag == "not":
        return not _rewriting_eval(s, phi[1], env)
    if tag == "and":
        return _rewriting_eval(s, phi[1], env) and _rewriting_eval(s, phi[2], env)
    if tag == "or":
        return _rewriting_eval(s, ("not", ("and", ("not", phi[1]), ("not", phi[2]))), env)
    if tag == "imp":
        return _rewriting_eval(s, ("or", ("not", phi[1]), phi[2]), env)
    if tag == "iff":
        return _rewriting_eval(s, ("and", ("imp", phi[1], phi[2]), ("imp", phi[2], phi[1])), env)
    if tag == "exists":
        return any(_rewriting_eval(s, phi[2], {**env, phi[1]: v}) for v in range(s.size))
    return _rewriting_eval(s, ("not", ("exists", phi[1], ("not", phi[2]))), env)


_RTERMS = st.recursive(
    st.sampled_from([("var", "x"), ("var", "y"), ("const", "c")]),
    lambda kids: st.tuples(st.just("app"), st.just("f"), st.tuples(kids, kids)),
    max_leaves=3,
)
_RFORMULAS = st.recursive(
    st.one_of(
        st.tuples(st.just("atom"), st.just("="), st.tuples(_RTERMS, _RTERMS)),
        st.tuples(st.just("atom"), st.just("R"), st.tuples(_RTERMS, _RTERMS)),
    ),
    lambda kids: st.one_of(
        st.tuples(st.just("not"), kids),
        st.tuples(st.sampled_from(["and", "or", "imp", "iff"]), kids, kids),
        st.tuples(st.sampled_from(["exists", "forall"]), st.sampled_from(["x", "y"]), kids),
    ),
    max_leaves=10,
)


@st.composite
def _rsig_structures(draw):
    size = draw(st.integers(1, 3))
    element = st.integers(0, size - 1)
    row = st.lists(element, min_size=size, max_size=size)
    return Structure(
        RSIG,
        size,
        funcs={"f": draw(st.lists(row, min_size=size, max_size=size))},
        rels={"R": draw(st.sets(st.tuples(element, element)))},
        consts={"c": draw(element)},
    )


@given(_rsig_structures(), _RFORMULAS, st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=300, deadline=None)
def test_direct_evaluation_matches_the_rewriting_evaluator(s, phi, x, y):
    env = {"x": x % s.size, "y": y % s.size}
    assert eval_formula(s, phi, env) == _rewriting_eval(s, phi, env)


def test_structure_rejects_broken_equality():
    # "=" missing symmetry: (0,1) without (1,0)
    with pytest.raises(ValueError, match="equality axioms"):
        Structure(
            Signature(),
            2,
            rels={"=": [(0, 0), (1, 1), (0, 1)]},
        )


def test_equality_axiom_witness_congruence():
    # R distinguishes the two equal elements
    s = Structure(
        Signature(relations=(("R", 1),)),
        2,
        rels={"=": [(0, 0), (1, 1), (0, 1), (1, 0)], "R": [(0,)]},
        validate=False,
    )
    w = equality_axiom_witness(s)
    assert w is not None and w[0] == "relation-congruence"


def _scanning_witness(s):
    """equality_axiom_witness as it was: the congruence checks walk all
    n^(2k) pairs of argument tuples and keep the equivalent ones."""
    n = s.size
    eq = s.rels["="]
    for a in range(n):
        if (a, a) not in eq:
            return ("not-reflexive", a)
    for a, b in eq:
        if (b, a) not in eq:
            return ("not-symmetric", a, b)
    for a, b in eq:
        for c in range(n):
            if (b, c) in eq and (a, c) not in eq:
                return ("not-transitive", a, b, c)
    for name, arity in s.sig.functions:
        for args1 in iproduct(range(n), repeat=arity):
            for args2 in iproduct(range(n), repeat=arity):
                if all((u, v) in eq for u, v in zip(args1, args2)):
                    if (s.apply(name, args1), s.apply(name, args2)) not in eq:
                        return ("function-congruence", name, args1, args2)
    for name, arity in s.sig.relations:
        if name == "=":
            continue
        for args1 in iproduct(range(n), repeat=arity):
            for args2 in iproduct(range(n), repeat=arity):
                if all((u, v) in eq for u, v in zip(args1, args2)):
                    if s.holds(name, args1) != s.holds(name, args2):
                        return ("relation-congruence", name, args1, args2)
    return None


def _random_structure(rng, max_rarity=2, density=0.5):
    """A structure with one function of arity 1 or 2 and one relation of
    arity 1 to max_rarity, over a random partition; its tables respect the
    partition or not, each tuple is held with probability density, and its
    equality is sometimes broken by one dropped pair."""
    n = rng.randint(1, 4)
    label = [rng.randrange(n) for _ in range(n)]
    eq = {(a, b) for a in range(n) for b in range(n) if label[a] == label[b]}
    if rng.random() < 0.2:
        eq.discard(rng.choice(sorted(eq)))
    farity, rarity = rng.randint(1, 2), rng.randint(1, max_rarity)
    congruent = rng.random() < 0.5
    # one class per tuple of labels, so a congruent table picks its value
    # from the same class for equivalent arguments
    target = {}

    def table(prefix):
        if len(prefix) < farity:
            return [table(prefix + (a,)) for a in range(n)]
        if not congruent:
            return rng.randrange(n)
        c = target.setdefault(tuple(label[a] for a in prefix), rng.randrange(n))
        return rng.choice([b for b in range(n) if label[b] == label[c]])

    tuples = list(iproduct(range(n), repeat=rarity))
    held = {t for t in tuples if rng.random() < density}
    if rng.random() < 0.5:
        labels = {tuple(label[a] for a in t) for t in held}
        held = {t for t in tuples if tuple(label[a] for a in t) in labels}
    sig = Signature(functions=(("g", farity),), relations=(("R", rarity),))
    return Structure(sig, n, funcs={"g": table(())}, rels={"=": eq, "R": held}, validate=False)


def test_equality_axiom_witness_matches_the_full_scan():
    # args2 walks only the classes of args1, in the order the full scan
    # met them, so the first witness is the same one
    rng = random.Random(24)
    kinds = Counter()
    for _ in range(3000):
        s = _random_structure(rng)
        witness = equality_axiom_witness(s)
        assert witness == _scanning_witness(s)
        kinds[witness and witness[0]] += 1
    assert {None, "function-congruence", "relation-congruence"} <= set(kinds)


def test_transitivity_walk_matches_the_full_scan():
    # c walks the class of b in ascending order, not the whole universe, so
    # the first failing c is the full scan's; a random graph with loops is
    # reflexive and symmetric but seldom transitive
    rng = random.Random(26)
    kinds = Counter()
    for _ in range(500):
        n = rng.randint(1, 6)
        edges = {(a, b) for a in range(n) for b in range(a) if rng.random() < 0.4}
        eq = {(a, a) for a in range(n)} | edges | {(b, a) for a, b in edges}
        s = Structure(Signature(), n, rels={"=": eq}, validate=False)
        witness = equality_axiom_witness(s)
        assert witness == _scanning_witness(s)
        kinds[witness and witness[0]] += 1
    assert set(kinds) == {None, "not-transitive"}


def test_relation_walk_matches_the_full_scan_on_sparse_relations():
    # args1 walks only the class products of a relation's members, merged
    # in lexicographic order; on empty, sparse and dense relations up to
    # arity 3 the first witness is still the full scan's
    rng = random.Random(25)
    kinds = Counter()
    for _ in range(400):
        s = _random_structure(rng, max_rarity=3, density=rng.choice((0.0, 0.05, 0.5)))
        witness = equality_axiom_witness(s)
        assert witness == _scanning_witness(s)
        kinds[witness and witness[0]] += 1
    assert {None, "relation-congruence"} <= set(kinds)


def test_normalize_collapses_everything_equal():
    s = Structure(
        Signature(),
        3,
        rels={"=": [(a, b) for a in range(3) for b in range(3)]},
    )
    n = normalize(s)
    assert n.size == 1
    assert n.rels["="] == frozenset({(0, 0)})


def test_normalize_quotients_functions_and_relations():
    # 0 = 2 in a universe of four, so the classes, by least member, are
    # {0, 2}, {1} and {3}; g and R respect the equality
    sig = Signature(functions=(("g", 1),), relations=(("R", 2),), constants=("c",))
    eq = [(a, b) for a in range(4) for b in range(4) if a == b or {a, b} == {0, 2}]
    rel = [(0, 1), (2, 1), (3, 0), (3, 2), (1, 1)]
    s = Structure(sig, 4, funcs={"g": [1, 3, 1, 0]}, rels={"=": eq, "R": rel}, consts={"c": 2})
    n = normalize(s)
    cls = [0, 1, 0, 2]
    assert n.size == 3 and n.consts == {"c": cls[2]}
    assert n.rels["="] == frozenset((i, i) for i in range(3))
    for a in range(4):
        assert n.apply("g", [cls[a]]) == cls[s.apply("g", [a])]
        for b in range(4):
            assert n.holds("R", [cls[a], cls[b]]) == s.holds("R", [a, b])
    assert n.rels["R"] == {(0, 1), (2, 0), (1, 1)}


def test_normalize_is_identity_on_normal_structures():
    n = normalize(Z3)
    assert n.size == Z3.size and n.funcs == Z3.funcs and n.consts == Z3.consts


def _normalize_by_scan(s):
    """normalize as it was built before relations were mapped through the
    classes: representatives from a test of every pair, and each
    relation by a walk over every tuple of representatives."""
    n = s.size
    rep = list(range(n))
    for a in range(n):
        for b in range(a):
            if (a, b) in s.rels["="]:
                rep[a] = rep[b]
                break
    reps = sorted(set(rep))
    cls = {r: i for i, r in enumerate(reps)}
    of = [cls[rep[a]] for a in range(n)]

    def build(fname, arity):
        def rec(prefix):
            if len(prefix) == arity:
                return of[s.apply(fname, [reps[i] for i in prefix])]
            return tuple(rec(prefix + (i,)) for i in range(len(reps)))

        return rec(())

    funcs = {name: build(name, arity) for name, arity in s.sig.functions}
    rels = {}
    for name, arity in s.sig.relations:
        if name == "=":
            continue
        rels[name] = frozenset(
            args
            for args in iproduct(range(len(reps)), repeat=arity)
            if s.holds(name, [reps[i] for i in args])
        )
    consts = {name: of[v] for name, v in s.consts.items()}
    return Structure(s.sig, len(reps), funcs=funcs, rels=rels, consts=consts)


@st.composite
def _congruent_structures(draw):
    """A structure whose equality is a random partition of 1 to 4 elements
    and whose function, relation and constant respect it: each value is
    drawn from the class chosen for its arguments' classes, and each
    relation holds on whole class tuples."""
    n = draw(st.integers(1, 4))
    label = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    members = {c: [a for a in range(n) if label[a] == c] for c in label}
    farity, rarity = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    target = {}

    def table(prefix):
        if len(prefix) < farity:
            return [table(prefix + (a,)) for a in range(n)]
        key = tuple(label[a] for a in prefix)
        c = target.setdefault(key, draw(st.sampled_from(sorted(members))))
        return draw(st.sampled_from(members[c]))

    funcs = {"g": table(())}
    held = draw(st.sets(st.tuples(*[st.sampled_from(sorted(members))] * rarity)))
    rel = [t for t in iproduct(range(n), repeat=rarity) if tuple(label[a] for a in t) in held]
    eq = [(a, b) for a in range(n) for b in range(n) if label[a] == label[b]]
    sig = Signature(functions=(("g", farity),), relations=(("R", rarity),), constants=("c",))
    consts = {"c": draw(st.integers(0, n - 1))}
    return Structure(sig, n, funcs=funcs, rels={"=": eq, "R": rel}, consts=consts)


@settings(max_examples=200, deadline=None)
@given(_congruent_structures())
def test_normalize_agrees_with_the_tuple_scan(s):
    got, want = normalize(s), _normalize_by_scan(s)
    assert (got.size, got.funcs, got.rels, got.consts) == (
        want.size, want.funcs, want.rels, want.consts)


def test_normalize_maps_an_empty_8_ary_relation_at_once():
    # nine elements, 0 = 1, so eight classes: a walk over every tuple of
    # representatives would visit 8^8 = 16,777,216 of them
    sig = Signature(functions=(("g", 1),), relations=(("R", 8),))
    eq = [(a, b) for a in range(9) for b in range(9) if a == b or {a, b} == {0, 1}]
    g = [0, 0, 3, 4, 5, 6, 7, 8, 1]
    s = Structure(sig, 9, funcs={"g": g}, rels={"=": eq, "R": []})
    start = time.monotonic()
    n = normalize(s)
    assert time.monotonic() - start < 1.0
    assert n.size == 8 and n.rels["R"] == frozenset()
    assert n.funcs["g"] == (0, 2, 3, 4, 5, 6, 7, 0)


def test_structure_json_roundtrip():
    again = Structure.from_json(SIG, Z3.to_json())
    assert again.funcs == Z3.funcs and again.rels == Z3.rels and again.consts == Z3.consts


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"functions": [["f"]]}, "signature functions must be an object of name: arity"),
        ({"functions": {"f": -1}}, "function 'f' has arity -1, not an integer >= 0"),
        ({"relations": {"R": True}}, "relation 'R' has arity True, not an integer >= 0"),
        ({"relations": {"R": 2.0}}, "relation 'R' has arity 2.0, not an integer >= 0"),
        ({"constants": ["c", None]}, "constant name None is not a string"),
        ({"constants": "c"}, "signature constants must be a list of names"),
    ],
)
def test_signature_json_errors_name_the_symbol(obj, message):
    with pytest.raises(ValueError) as err:
        Signature.from_json(obj)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "change, message",
    [
        ({"universe": None}, "a structure needs a universe size"),
        ({"functions": [[0, 1, 2]]}, "structure functions must be an object keyed by symbol name"),
        ({"functions": {"f": 3}}, "function table 'f' has wrong shape"),
        ({"relations": {"r": [0]}}, "relation 'r' contains invalid tuple 0"),
        ({"relations": {"r": 0}}, "relation 'r' is not a list of tuples"),
        ({"constants": ["c"]}, "structure constants must be an object keyed by symbol name"),
    ],
)
def test_structure_json_errors_name_the_problem(change, message):
    # None drops the key
    obj = {k: v for k, v in dict(Z3.to_json(), **change).items() if v is not None}
    with pytest.raises(ValueError) as err:
        Structure.from_json(SIG, obj)
    assert str(err.value) == message


# --- ultraproducts ---------------------------------------------------------


def _spec(factors, j):
    return UltraproductSpec(factors, principal_ultrafilter(GroundSet(len(factors)), j))


def test_spec_rejects_non_ultrafilter():
    fam = SetFamily(GroundSet(2), [(0,), (1,), (0, 1)])
    with pytest.raises(NotUltrafilter):
        UltraproductSpec((Z3, Z3), fam)


def test_spec_rejects_mixed_signatures():
    other = Structure(Signature(), 2)
    with pytest.raises(ValueError):
        UltraproductSpec((Z3, other), principal_ultrafilter(GroundSet(2), 0))


def test_product_functions_act_coordinatewise():
    spec = _spec((Z3, MAX2), 0)
    prod = ultraproduct(spec)
    assert prod.size == 6
    universe = [(a, b) for a in range(3) for b in range(2)]
    index = {t: i for i, t in enumerate(universe)}
    for a in universe:
        for b in universe:
            expect = ((a[0] + b[0]) % 3, max(a[1], b[1]))
            assert prod.apply("f", (index[a], index[b])) == index[expect]
    assert prod.consts["c"] == index[(1, 0)]


@pytest.mark.parametrize("g", [0, 1, 2])
def test_product_equality_is_coordinate_agreement(g):
    # principal at g: equality iff the g-coordinates agree
    spec = _spec((Z3, MAX2, Z3), g)
    universe = list(iproduct(range(3), range(2), range(3)))
    assert spec.point == g
    assert ultraproduct(spec).rels["="] == {
        (i, j)
        for i, s in enumerate(universe)
        for j, t in enumerate(universe)
        if s[g] == t[g]
    }


def test_product_normalizes_to_chosen_factor():
    for j, factor in enumerate((Z3, MAX2)):
        spec = _spec((Z3, MAX2), j)
        n = normalize(ultraproduct(spec))
        assert n.size == factor.size
        phi = parse_formula("A x. E y. f(x, y) = c", SIG)
        assert eval_formula(n, phi) == eval_formula(factor, phi)


def test_product_equality_axioms_hold():
    spec = _spec((Z3, MAX2, MAX2), 1)
    assert equality_axiom_witness(ultraproduct(spec)) is None


def test_product_cap():
    with pytest.raises(CapExceeded):
        ultraproduct(_spec((Z3,) * 9, 0))


# --- transfer --------------------------------------------------------------


TRANSFER_FORMULAS = [
    "x = y",
    "f(x, y) = f(y, x)",
    "E z. f(x, z) = y",
    "A z. (f(z, z) = z -> z = c)",
    "(E z. f(z, z) = c & !(x = c))",
]


@pytest.mark.parametrize("text", TRANSFER_FORMULAS)
@pytest.mark.parametrize("j", [0, 1])
def test_los_no_violations_exhaustive(text, j):
    spec = _spec((Z3, MAX2), j)
    report = los_check(spec, parse_formula(text, SIG))
    assert report["violations"] == []
    assert report["checked"] > 0


def test_los_exhaustive_three_factors():
    spec = _spec((MAX2, MAX2, Z3), 2)
    phi = parse_formula("E z. f(x, z) = y", SIG)
    report = los_check(spec, phi)
    assert report["checked"] == 144 and report["violations"] == []


def test_los_detects_corrupted_product():
    # mutation check: a hand-broken "product" must trip the transfer test.
    # los_check rebuilds the product itself, so corrupt the ultrafilter side
    # instead by lying about which factor is selected.
    spec_true = _spec((Z3, MAX2), 0)
    prod = ultraproduct(spec_true)
    phi = parse_formula("A x. E y. f(x, y) = c", SIG)
    wrong_factor = MAX2  # principal at 0 selects Z3
    assert eval_formula(prod, phi) == eval_formula(Z3, phi)
    assert eval_formula(prod, phi) != eval_formula(wrong_factor, phi)


def test_assignment_cap(monkeypatch):
    # 6⁴ = 1,296 assignments, 3⁴ = 81 over the classes of the first coordinate
    spec = _spec((Z3, MAX2), 0)
    phi = parse_formula("(x = y & z = w)", SIG)
    monkeypatch.setattr(products, "ASSIGNMENT_CAP", 100)
    assert los_check(spec, phi) == {"checked": 81, "violations": []}
    monkeypatch.setattr(products, "ASSIGNMENT_CAP", 80)
    with pytest.raises(CapExceeded, match="assignment space 1296, 81 over the g-classes"):
        los_check(spec, phi)


USIG = Signature(functions=(("f", 2),), relations=(("r", 1),), constants=("c",))

_UTERMS = st.recursive(
    st.sampled_from([("var", "x"), ("var", "y"), ("var", "z"), ("const", "c")]),
    lambda kids: st.tuples(st.just("app"), st.just("f"), st.tuples(kids, kids)),
    max_leaves=3,
)
_UFORMULAS = st.recursive(
    st.one_of(
        st.tuples(st.just("atom"), st.just("="), st.tuples(_UTERMS, _UTERMS)),
        st.tuples(st.just("atom"), st.just("r"), st.tuples(_UTERMS)),
    ),
    lambda kids: st.one_of(
        st.tuples(st.just("not"), kids),
        st.tuples(st.sampled_from(["and", "or", "imp", "iff"]), kids, kids),
        st.tuples(st.sampled_from(["exists", "forall"]), st.sampled_from(["x", "y", "z"]), kids),
    ),
    max_leaves=4,
)


@st.composite
def _usig_structures(draw):
    size = draw(st.integers(1, 3))
    element = st.integers(0, size - 1)
    row = st.lists(element, min_size=size, max_size=size)
    return Structure(
        USIG,
        size,
        funcs={"f": draw(st.lists(row, min_size=size, max_size=size))},
        rels={"r": draw(st.sets(st.tuples(element)))},
        consts={"c": draw(element)},
    )


@given(st.lists(_usig_structures(), min_size=2, max_size=3), _UFORMULAS, st.data())
@settings(max_examples=150, deadline=None)
def test_class_walk_agrees_with_the_raw_walk(factors, phi, data):
    g = data.draw(st.integers(0, len(factors) - 1))
    spec = _spec(factors, g)
    n = prod(f.size for f in factors)
    k = len(free_vars(phi))
    classes = factors[g].size ** k
    assume(classes < n**k <= 512)
    # the relations are the definition's: agreement sets in the ultrafilter
    built = ultraproduct(spec)
    universe = products.product_universe(spec)
    for name, arity in USIG.relations:
        assert built.rels[name] == {
            args
            for args in iproduct(range(n), repeat=arity)
            if spec.ultrafilter.has_mask(mask_of(
                x for x, f in enumerate(factors) if f.holds(name, [universe[i][x] for i in args])
            ))
        }
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(products, "ASSIGNMENT_CAP", n**k)
        raw = los_check(spec, phi)
        mp.setattr(products, "ASSIGNMENT_CAP", classes)
        by_class = los_check(spec, phi)
    assert raw == {"checked": n**k, "violations": []}
    assert by_class == {"checked": classes, "violations": []}


# --- sweep -----------------------------------------------------------------


def test_sweep_tiny_is_clean():
    report = exhaustive_transfer_sweep(max_x=2, max_nodes=3)
    assert report["violations"] == []
    assert report["pairs"] == 17 + 2 * 17**2


# (formulas, pairs, checked) for max_x = 1..3 and max_nodes = 1..3, recorded
# before the sweep evaluated int truth tables once per distinct context
SWEEP_COUNTS = {
    (1, 1): (36, 17, 2340),
    (1, 2): (144, 17, 9360),
    (1, 3): (1764, 17, 114660),
    (2, 1): (36, 595, 306540),
    (2, 2): (144, 595, 1226160),
    (2, 3): (1764, 595, 15020460),
    (3, 1): (36, 15334, 29966040),
    (3, 2): (144, 15334, 119864160),
    (3, 3): (1764, 15334, 1468335960),
}


@pytest.mark.parametrize("max_x, max_nodes", sorted(SWEEP_COUNTS))
def test_sweep_counts_pinned(max_x, max_nodes):
    report = exhaustive_transfer_sweep(max_x, max_nodes)
    assert report["violations"] == []
    counts = (report["formulas"], report["pairs"], report["checked"])
    assert counts == SWEEP_COUNTS[max_x, max_nodes]


def test_sweep_reports_a_corrupted_product(monkeypatch):
    # one flipped cell in plane 0 of the product of factors 5 and 9 (both
    # of size 2, so the product has 4 elements)
    build = sweep._product

    def corrupted(tup, structs, prefixes):
        u, planes = build(tup, structs, prefixes)
        if tup == (5, 9):
            planes = [planes[0] ^ 1 << (1 * 8 + 2)] + planes[1:]
        return u, planes

    monkeypatch.setattr(sweep, "_product", corrupted)
    violations = exhaustive_transfer_sweep(max_x=2, max_nodes=3)["violations"]
    assert violations
    assert {v["factors"] for v in violations} == {(5, 9)}


def _product_table(tup, structs, prefixes):
    """Universe size and row-major u×u f-table of the direct product of the
    factors named by ``tup``, elements numbered in lex order of their
    coordinate tuples; extends the table of ``tup[:-1]`` in ``prefixes``.
    The sweep built its products this way before it built their planes."""
    v, prev = prefixes[tup[:-1]]
    s, last = structs[tup[-1]]
    return v * s, [
        prev[a * v + b] * s + last[c][d]
        for a in range(v)
        for c in range(s)
        for b in range(v)
        for d in range(s)
    ]


def _context(u, table, stride, size):
    """(valid, x mask, y mask, f(x,y) mask) of one coordinate of a product,
    read cell by cell off its f-table."""
    bits = [e // stride % size for e in range(u)]
    cells = [(a, b) for a in range(u) for b in range(u)]
    valid = sum(1 << (a * 8 + b) for a, b in cells)
    px = sum(1 << (a * 8 + b) for a, b in cells if bits[a])
    py = sum(1 << (a * 8 + b) for a, b in cells if bits[b])
    fxy = sum(1 << (a * 8 + b) for (a, b), e in zip(cells, table) if bits[e])
    return valid, px, py, fxy


def test_sweep_planes_match_product_tables():
    # every tuple of at most 3 factors, every coordinate: the spread and
    # last planes equal the f-masks read off the product's table
    structs = factor_structures()
    tables = {(): (1, [0])}
    products = {(): (1, [])}
    seen = 0
    for _ in range(3):
        next_tables, next_products = {}, {}
        for tup in (p + (f,) for p in tables for f in range(len(structs))):
            u, table = next_tables[tup] = _product_table(tup, structs, tables)
            v, planes = next_products[tup] = sweep._product(tup, structs, products)
            assert v == u and len(planes) == len(tup)
            sizes = [structs[f][0] for f in tup]
            for j in range(len(tup)):
                stride = prod(sizes[j + 1 :])
                context = _context(u, table, stride, sizes[j])
                assert sweep._coordinate(u, stride, sizes[j]) == context[:3]
                assert planes[j] == context[3], (tup, j)
            seen += 1
        tables, products = next_tables, next_products
    assert seen == 17 + 17**2 + 17**3


def corpus_formula(nodes, idx):
    """A sweep corpus node as a syntax-module formula tree, for the slow
    evaluator."""
    terms = [
        ("var", "x"),
        ("var", "y"),
        ("app", "f", (("var", "x"), ("var", "x"))),
        ("app", "f", (("var", "x"), ("var", "y"))),
        ("app", "f", (("var", "y"), ("var", "x"))),
        ("app", "f", (("var", "y"), ("var", "y"))),
    ]
    node = nodes[idx]
    if node[0] == "atom":
        return ("atom", "=", (terms[node[1]], terms[node[2]]))
    if node[0] == "not":
        return ("not", corpus_formula(nodes, node[1]))
    if node[0] == "ex":
        return ("exists", "xy"[node[1]], corpus_formula(nodes, node[2]))
    return ("and", corpus_formula(nodes, node[1]), corpus_formula(nodes, node[2]))


def test_sweep_truth_tables_match_slow_evaluator():
    # every formula with <= 3 nodes on every factor, at every assignment: a
    # mistake that both sides of the sweep share (say, f(y,x) read as
    # f(x,y)) keeps the transfer property and shows only here
    nodes = build_corpus(3)
    sig = Signature(functions=(("f", 2),))
    for size, f in factor_structures():
        structure = Structure(sig, size, funcs={"f": f})
        masks = sweep._masks(nodes, *sweep._coordinate(size, 1, size), sweep._last_plane(1, f))
        for i, m in enumerate(masks):
            phi = corpus_formula(nodes, i)
            for vx in range(size):
                for vy in range(size):
                    expected = eval_formula(structure, phi, {"x": vx, "y": vy})
                    assert (m >> (vx * 8 + vy) & 1) == expected, (i, vx, vy)


def test_sweep_rejects_products_beyond_the_cell_layout():
    # four 2-element factors make 16 elements; the 8×8 layout holds 8
    with pytest.raises(ValueError):
        exhaustive_transfer_sweep(max_x=4, max_nodes=1)


def test_corpus_counts():
    assert len(build_corpus(1)) == 36  # atoms over the 6 terms
    # each extra size layer adds negations, 2 quantifiers, and conjunctions
    assert len(build_corpus(2)) == 36 + 3 * 36


def test_sweep_agrees_with_slow_evaluator_sampled():
    structs = factor_structures()
    nodes = build_corpus(3)
    sig = Signature(functions=(("f", 2),))
    built = {}
    rng = random.Random(11)
    for _ in range(60):
        nx = rng.randrange(1, 3)
        tup = tuple(rng.randrange(len(structs)) for _ in range(nx))
        j = rng.randrange(nx)
        idx = rng.randrange(len(nodes))
        phi = corpus_formula(nodes, idx)
        factors = []
        for fid in tup:
            if fid not in built:
                size, table = structs[fid]
                built[fid] = Structure(sig, size, funcs={"f": table})
            factors.append(built[fid])
        spec = UltraproductSpec(
            tuple(factors), principal_ultrafilter(GroundSet(nx), j)
        )
        report = los_check(spec, phi)
        assert report["violations"] == []
        # and the product's truth must match the selected factor's
        prod = normalize(ultraproduct(spec))
        for vx in range(factors[j].size):
            for vy in range(factors[j].size):
                env = {"x": vx, "y": vy}
                assert eval_formula(prod, phi, env) == eval_formula(
                    factors[j], phi, env
                )
