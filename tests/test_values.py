"""Value semantics of the package's record classes: constructor signatures
and defaults, the ``Name(field=value, …)`` repr, equality and hash by the
field tuple (by identity for structures), immutability, copy and pickle."""

import ast
import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from ufw.arrow import Election, _rank_table, dictator_rule
from ufw.discalc import BinomialPoly, RationalPoly
from ufw.folup import Signature, Structure, UltraproductSpec
from ufw.genpoly import Dfao, DigitSystem, Interval, RealConst
from ufw.largeness.search import (
    APWitness,
    EdgeColoring,
    FSWitness,
    IntervalColoring,
    LineWitness,
    ThresholdResult,
    WordColoring,
)
from ufw.semigroup import CayleyTable
from ufw.setfam import FamilyVerdict, GroundSet, SetFamily, principal_ultrafilter

Z2 = ((0, 1), (1, 0))
SIG = Signature(functions=(("f", 1),))
STRUCT = Structure(SIG, 2, funcs={"f": (1, 0)})
U2 = principal_ultrafilter(GroundSet(2), 0)

#: (make, fields, repr): make() builds a fresh instance, fields names its
#: fields in order, and repr is its expected repr (None where a field's own
#: repr is not a fixed string)
RECORDS = {
    "IntervalColoring": (
        lambda: IntervalColoring(3, [0, 1, 0]),
        ("n", "colors"),
        "IntervalColoring(n=3, colors=(0, 1, 0))",
    ),
    "EdgeColoring": (
        lambda: EdgeColoring(3, 2, (0, 1, 1)),
        ("n", "k", "colors"),
        "EdgeColoring(n=3, k=2, colors=(0, 1, 1))",
    ),
    "WordColoring": (
        lambda: WordColoring(2, 1, (1, 0)),
        ("sigma", "n", "colors"),
        "WordColoring(sigma=2, n=1, colors=(1, 0))",
    ),
    "FSWitness": (
        lambda: FSWitness((1, 2), 0, (1, 2, 3)),
        ("generators", "color", "sums"),
        "FSWitness(generators=(1, 2), color=0, sums=(1, 2, 3))",
    ),
    "APWitness": (
        lambda: APWitness(1, 2, 3, 0),
        ("start", "step", "length", "color"),
        "APWitness(start=1, step=2, length=3, color=0)",
    ),
    "LineWitness": (
        lambda: LineWitness((0, None), 1),
        ("word", "color"),
        "LineWitness(word=(0, None), color=1)",
    ),
    "ThresholdResult": (
        lambda: ThresholdResult(("ap", 3), 2, 9, 12, (0, 0, 1)),
        ("pattern", "r", "value", "cap", "failure_coloring"),
        "ThresholdResult(pattern=('ap', 3), r=2, value=9, cap=12, failure_coloring=(0, 0, 1))",
    ),
    "Election": (
        lambda: Election(2, 3),
        ("voters", "candidates"),
        "Election(voters=2, candidates=3)",
    ),
    "_RankTable": (
        lambda: _rank_table(Election(1, 2)),
        ("pos", "below", "raised", "profiles", "weights"),
        "_RankTable(pos=((0, 1), (1, 0)), below=((0, 1), (2, 0)), "
        "raised=((1, None), (None, 0)), profiles=((0,), (1,)), weights=(1,))",
    ),
    "DigitSystem": (
        lambda: DigitSystem.custom([60, 60]),
        ("kind", "payload"),
        "DigitSystem(kind='custom', payload=(60, 60))",
    ),
    "Interval": (
        lambda: Interval(Fraction(1, 2), Fraction(1)),
        ("lo", "hi"),
        "Interval(lo=Fraction(1, 2), hi=Fraction(1, 1))",
    ),
    "RealConst": (
        lambda: RealConst.sqrt(2),
        ("kind", "payload"),
        "RealConst(sqrt 2)",
    ),
    "Dfao": (
        lambda: Dfao(1, 0, [[0, 0]], [[0, 1]], 2, 2),
        ("states", "init", "tau", "lam", "in_base", "out_base"),
        "Dfao(states=1, init=0, tau=((0, 0),), lam=((0, 1),), in_base=2, out_base=2)",
    ),
    "UltraproductSpec": (
        lambda: UltraproductSpec([STRUCT, STRUCT], U2),
        ("factors", "ultrafilter"),
        None,
    ),
    "Signature": (
        lambda: Signature(functions=(("f", 1),), constants=["c"]),
        ("functions", "relations", "constants"),
        "Signature(functions=(('f', 1),), relations=(('=', 2),), constants=('c',))",
    ),
    "CayleyTable": (
        lambda: CayleyTable([[0, 0], [0, 1]]),
        ("mul", "n", "assoc_witness", "comm_witness"),
        "CayleyTable(mul=((0, 0), (0, 1)), n=2, assoc_witness=None, comm_witness=None)",
    ),
    "GroundSet": (lambda: GroundSet(3), ("size",), "GroundSet(size=3)"),
    "FamilyVerdict": (
        lambda: FamilyVerdict("filter", ((0,),)),
        ("kind", "witness"),
        "FamilyVerdict(kind='filter', witness=((0,),))",
    ),
    "SetFamily": (
        lambda: SetFamily(GroundSet(2), [[0, 1], [0]]),
        ("ground", "masks"),
        "SetFamily(ground=GroundSet(size=2), masks=(1, 3))",
    ),
    "AggregationRule": (
        lambda: dictator_rule(Election(1, 2), 0),
        ("election", "table"),
        "AggregationRule(election=Election(voters=1, candidates=2), table=(0, 1))",
    ),
    "RationalPoly": (
        lambda: RationalPoly([1, Fraction(1, 2), 0]),
        ("coeffs",),
        "RationalPoly(coeffs=(Fraction(1, 1), Fraction(1, 2)))",
    ),
    "BinomialPoly": (
        lambda: BinomialPoly([0, 2]),
        ("coeffs",),
        "BinomialPoly(coeffs=(Fraction(0, 1), Fraction(2, 1)))",
    ),
    "Structure": (
        lambda: Structure(SIG, 2, funcs={"f": (1, 0)}),
        ("sig", "size", "funcs", "rels", "consts"),
        None,
    ),
}

#: what a copy shares with the original, for the records that are or hold
#: structures, which compare and hash by identity
BY_IDENTITY = {
    "Structure": Structure.to_json,
    "UltraproductSpec": lambda spec: (
        [s.to_json() for s in spec.factors],
        spec.ultrafilter,
    ),
}


def values(obj, fields):
    return tuple(getattr(obj, f) for f in fields)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr(name):
    make, fields, expected = RECORDS[name]
    obj = make()
    if expected is None:
        expected = "%s(%s)" % (
            name, ", ".join("%s=%r" % (f, getattr(obj, f)) for f in fields)
        )
    assert repr(obj) == expected


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"Structure"}))
def test_equality_and_hash_follow_the_fields(name):
    make, fields, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b or name == "_RankTable"  # the rank table is cached
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(values(a, fields))
    # another class with the same field values is not equal
    assert a != values(a, fields)
    assert (a == values(a, fields)) is False


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned_or_deleted(name):
    make, fields, _ = RECORDS[name]
    obj = make()
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(obj, f, 0)
        with pytest.raises(AttributeError):
            delattr(obj, f)
    with pytest.raises(AttributeError):
        obj.not_a_field = 0


def test_structures_compare_and_hash_by_identity():
    # their tables are dicts, and UltraproductSpec hashes its factors
    a, b = (RECORDS["Structure"][0]() for _ in range(2))
    assert a == a and a != b and a.to_json() == b.to_json()
    assert hash(a) == object.__hash__(a)
    assert UltraproductSpec([a, a], U2) != UltraproductSpec([b, b], U2)


def test_unchecked_structures_copy_unchecked():
    # "=" is not reflexive here: a copy that re-checked it would raise
    s = Structure(Signature(), 2, rels={"=": [(0, 0)]}, validate=False)
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert twin.to_json() == s.to_json()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_copies_and_pickles_equal(name):
    obj = RECORDS[name][0]()
    key = BY_IDENTITY.get(name, lambda record: record)
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj) and key(twin) == key(obj)


def test_only_record_defines_assignment_or_value_equality():
    # every other class gets __setattr__, __delattr__, __eq__ and __hash__
    # from Record; Structure rebinds the last two to object's, by assignment
    own = {"__setattr__", "__delattr__", "__eq__", "__hash__"}
    src = Path(__file__).resolve().parent.parent / "src" / "ufw"
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and node.name != "Record":
                found += [
                    (node.name, item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name in own
                ]
    assert found == []


def test_unequal_fields_compare_unequal():
    assert IntervalColoring(3, (0, 1, 0)) != IntervalColoring(3, (0, 1, 1))
    assert APWitness(1, 2, 3, 0) != APWitness(1, 2, 3, 1)
    assert Election(2, 3) != Election(3, 2)
    assert GroundSet(3) != GroundSet(4)
    assert FamilyVerdict("filter") != FamilyVerdict("ultrafilter")
    assert CayleyTable(Z2) != CayleyTable([[0, 0], [0, 1]])
    assert RealConst.pi() != RealConst.e()
    assert RealConst.rational(2) == RealConst.sqrt(4)
    assert Interval(Fraction(0), Fraction(1)) != Interval(Fraction(0), Fraction(2))


def test_constructor_defaults_and_normalisation():
    assert IntervalColoring(n=3, colors=[0, 0, 0]).colors == (0, 0, 0)
    assert WordColoring(2, 2, (0, 0, 0, 2)).colors == (0, 0, 0, 2)
    assert ThresholdResult(("ap", 3), 2, None, 5).failure_coloring is None
    assert Election(candidates=2, voters=1) == Election(1, 2)
    assert DigitSystem.fibonacci() == DigitSystem("fibonacci", ())
    assert RealConst("pi").payload == ()
    assert RealConst.rational(Fraction(1, 3)).payload == (Fraction(1, 3),)
    iv = Interval(lo=Fraction(1), hi=Fraction(2))
    assert (iv.lo, iv.hi) == (1, 2)
    sig = Signature()
    assert (sig.functions, sig.relations, sig.constants) == ((), (("=", 2),), ())
    assert Signature(functions={"g": 2, "f": 1}).functions == (("f", 1), ("g", 2))
    assert Signature(relations=(("<", 2),)).relations == (("<", 2), ("=", 2))
    spec = UltraproductSpec(factors=[STRUCT], ultrafilter=principal_ultrafilter(GroundSet(1), 0))
    assert spec.factors == (STRUCT,) and spec.sig is SIG
    assert UltraproductSpec((STRUCT, STRUCT), U2).ultrafilter is U2
    table = CayleyTable(mul=[[0, 1], [1, 0]])
    assert table.mul == Z2 and table.n == 2
    assert table.assoc_witness is None and table.comm_witness is None
    assert CayleyTable(((0, 0), (1, 1))).comm_witness == (0, 1)
    assert CayleyTable(((1, 0), (0, 0))).assoc_witness == (0, 0, 1)
    assert FamilyVerdict("ultrafilter").witness is None
    assert FamilyVerdict(kind="not-fip", witness=((),)).witness == ((),)
    assert GroundSet(size=2).full_mask == 3
    dfao = Dfao(states=1, init=0, tau=((0, 0),), lam=((1, 1),), in_base=2, out_base=10)
    assert dfao.tau == ((0, 0),) and dfao.out_base == 10


@pytest.mark.parametrize(
    "make",
    [
        lambda: IntervalColoring(0, ()),
        lambda: EdgeColoring(3, 2, (0, 1)),
        lambda: WordColoring(2, 2, (0, -1, 0, 0)),
        lambda: IntervalColoring(2, (0, True)),
        lambda: EdgeColoring(2, 2, (False,)),
        lambda: WordColoring(1, 2, (0, 1.0)),
        lambda: IntervalColoring(1, ("0",)),
        lambda: Election(1, 1),
        lambda: Election(True, 2),
        lambda: Interval(Fraction(1), Fraction(0)),
        lambda: Dfao(1, 0, ((0,),), ((0,),), 1, 2),
        lambda: UltraproductSpec((), U2),
        lambda: Signature(functions=(("f", 1),), constants=("f",)),
        lambda: CayleyTable(()),
        lambda: CayleyTable(((0, 2), (0, 0))),
        lambda: GroundSet(0),
        lambda: GroundSet(True),
    ],
)
def test_constructors_still_validate(make):
    with pytest.raises(ValueError):
        make()


def test_colorings_of_an_empty_domain_construct():
    # no 3-subsets of two vertices and no words over an empty alphabet
    assert EdgeColoring(2, 3, ()).colors == ()
    assert WordColoring(0, 2, ()).colors == ()


def test_derived_table_fields_are_not_parameters():
    with pytest.raises(TypeError):
        CayleyTable(Z2, 2)
    with pytest.raises(TypeError):
        CayleyTable(Z2, n=2)
    with pytest.raises(TypeError):
        IntervalColoring(3)


def test_cayley_preimage_masks_are_cached():
    table = CayleyTable(Z2)
    masks = table.preimage_masks
    assert masks is table.preimage_masks
    assert masks == ((0, 1, 2, 3), (0, 2, 1, 3))
    # the cache does not take part in equality, hashing or the repr
    assert table == CayleyTable(Z2) and hash(table) == hash(CayleyTable(Z2))
    assert "preimage_masks" not in repr(table)
