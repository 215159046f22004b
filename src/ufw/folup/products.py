"""Ultraproducts over finite index sets and the fundamental transfer check.

The product universe consists of the raw index-tuples (no quotient);
functions act coordinatewise, and a relation holds of a tuple of product
elements exactly when its agreement set belongs to the ultrafilter.  The
product equality is therefore 𝒰-agreement — a congruence, but usually not
identity, which is why :func:`ufw.folup.semantics.normalize` exists as a
separate step.
"""

import random
from itertools import product as iproduct

from ..bitsets import mask_of
from ..errors import CapExceeded, NotUltrafilter
from ..record import Record
from ..setfam import classify_family
from .semantics import Structure, eval_formula
from .syntax import free_vars

PRODUCT_CAP = 4096
ASSIGNMENT_CAP = 4096


class UltraproductSpec(Record):
    """factors: one Structure per index; ultrafilter: SetFamily over the
    index set."""

    _fields = ("factors", "ultrafilter")

    def __init__(self, factors, ultrafilter):
        factors = tuple(factors)
        if not factors:
            raise ValueError("need at least one factor")
        sig = factors[0].sig
        if any(f.sig != sig for f in factors):
            raise ValueError("factors must share one signature")
        if ultrafilter.ground.size != len(factors):
            raise ValueError("ultrafilter ground must be the index set")
        verdict = classify_family(ultrafilter)
        if verdict.kind != "ultrafilter":
            raise NotUltrafilter("index family is %s" % verdict.kind, verdict.witness)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "ultrafilter", ultrafilter)

    @property
    def sig(self):
        return self.factors[0].sig


def product_universe(spec):
    """All index-tuples, lexicographic; element i of the product is tuple i."""
    return list(iproduct(*(range(f.size) for f in spec.factors)))


def ultraproduct(spec):
    """Construct the ultraproduct structure (universe = raw tuples)."""
    universe = product_universe(spec)
    if len(universe) > PRODUCT_CAP:
        raise CapExceeded("product universe %d exceeds cap %d" % (len(universe), PRODUCT_CAP))
    index = {t: i for i, t in enumerate(universe)}
    sig = spec.sig
    u = spec.ultrafilter
    nx = len(spec.factors)

    def fn_table(name, arity):
        def rec(prefix):
            if len(prefix) == arity:
                coords = tuple(
                    spec.factors[x].apply(name, [universe[i][x] for i in prefix])
                    for x in range(nx)
                )
                return index[coords]
            return tuple(rec(prefix + (i,)) for i in range(len(universe)))

        return rec(())

    funcs = {name: fn_table(name, arity) for name, arity in sig.functions}
    rels = {}
    for name, arity in sig.relations:
        members = []
        for args in iproduct(range(len(universe)), repeat=arity):
            agree = mask_of(
                x
                for x in range(nx)
                if spec.factors[x].holds(name, [universe[i][x] for i in args])
            )
            if u.has_mask(agree):
                members.append(args)
        rels[name] = frozenset(members)
    consts = {
        name: index[tuple(f.consts[name] for f in spec.factors)] for name in sig.constants
    }
    # Equality axioms hold by construction (ultrafilter closure properties);
    # skip the O(n^4) re-validation here — it is exercised in the test suite.
    return Structure(sig, len(universe), funcs=funcs, rels=rels, consts=consts, validate=False)


def los_check(spec, phi, samples=None, seed=0):
    """Check the transfer equivalence for one formula.

    For each assignment a of the free variables:
      product ⊨ φ(a)  ⇔  {x : S_x ⊨ φ(a_x)} ∈ 𝒰.
    Assignments are exhaustive when ``samples`` is None, otherwise that
    many seeded random assignments, at least one.  Either way at most
    ASSIGNMENT_CAP assignments are checked: a larger space or sample count
    raises CapExceeded before any is drawn.  Returns a report dict;
    ``violations`` is expected to stay empty.
    """
    if samples is not None:
        if samples < 1:
            raise ValueError("need at least one sample, got %d" % samples)
        if samples > ASSIGNMENT_CAP:
            raise CapExceeded("sample count %d exceeds cap %d" % (samples, ASSIGNMENT_CAP))
    prod = ultraproduct(spec)
    universe = product_universe(spec)
    fv = sorted(free_vars(phi))
    u = spec.ultrafilter
    nx = len(spec.factors)

    if samples is None:
        total = len(universe) ** len(fv)
        if total > ASSIGNMENT_CAP:
            raise CapExceeded("assignment space %d exceeds cap %d" % (total, ASSIGNMENT_CAP))
        assignments = iproduct(range(len(universe)), repeat=len(fv))
    else:
        rng = random.Random(seed)
        assignments = [
            tuple(rng.randrange(len(universe)) for _ in fv) for _ in range(samples)
        ]

    checked = 0
    violations = []
    for assign in assignments:
        env = dict(zip(fv, assign))
        lhs = eval_formula(prod, phi, env)
        agree = mask_of(
            x
            for x in range(nx)
            if eval_formula(
                spec.factors[x], phi, {v: universe[i][x] for v, i in env.items()}
            )
        )
        rhs = u.has_mask(agree)
        checked += 1
        if lhs != rhs:
            violations.append({"assignment": env, "product": lhs, "factors_member": rhs})
    return {"checked": checked, "violations": violations}
