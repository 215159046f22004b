"""Ultraproducts over finite index sets and the fundamental transfer check.

The product universe consists of the raw index-tuples (no quotient);
functions act coordinatewise, and a relation holds of a tuple of product
elements exactly when its agreement set belongs to the ultrafilter.  The
product equality is therefore 𝒰-agreement — a congruence, but usually not
identity, which is why :func:`ufw.folup.semantics.normalize` exists as a
separate step.

On a finite index set every ultrafilter is principal, at the one element g
of the meet of its members, so an agreement set belongs to 𝒰 exactly when
it contains g: every relation, "=" included, is read off the g-coordinates.
"""

from itertools import product as iproduct
from math import prod

from ..bitsets import mask_of
from ..errors import CapExceeded, NotUltrafilter
from ..record import Record
from ..setfam import _meet, classify_family
from .semantics import Structure, eval_formula
from .syntax import free_vars

PRODUCT_CAP = 4096
#: most function-table cells plus relation members a built product holds
CELL_CAP = 65536
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

    @property
    def point(self):
        """The index g at which the ultrafilter is principal."""
        return _meet(self.ultrafilter).bit_length() - 1


def product_universe(spec):
    """All index-tuples, lexicographic; element i of the product is tuple i."""
    size = prod(f.size for f in spec.factors)
    if size > PRODUCT_CAP:
        raise CapExceeded("product universe %d exceeds cap %d" % (size, PRODUCT_CAP))
    return list(iproduct(*(range(f.size) for f in spec.factors)))


def ultraproduct(spec):
    """Construct the ultraproduct structure (universe = raw tuples).

    A relation's members are the tuples whose g-coordinates form a member
    of R in factor g: each member there contributes the product of its
    entries' g-fibres.  Before building anything, the function cells
    (|U|^arity a function) and the relation members are counted, and a
    count above CELL_CAP raises CapExceeded.
    """
    universe = product_universe(spec)
    n = len(universe)
    sig = spec.sig
    g = spec.point
    at_g = spec.factors[g]
    cells = sum(n**arity for _, arity in sig.functions) + sum(
        len(at_g.rels[name]) * (n // at_g.size) ** arity for name, arity in sig.relations
    )
    if cells > CELL_CAP:
        raise CapExceeded("product of %d cells exceeds cap %d" % (cells, CELL_CAP))
    index = {t: i for i, t in enumerate(universe)}
    nx = len(spec.factors)

    def fn_table(name, arity):
        def rec(prefix):
            if len(prefix) == arity:
                coords = tuple(
                    spec.factors[x].apply(name, [universe[i][x] for i in prefix])
                    for x in range(nx)
                )
                return index[coords]
            return tuple(rec(prefix + (i,)) for i in range(n))

        return rec(())

    funcs = {name: fn_table(name, arity) for name, arity in sig.functions}
    # fibres[v]: the product elements whose g-coordinate is v
    fibres = [[] for _ in range(at_g.size)]
    for i, t in enumerate(universe):
        fibres[t[g]].append(i)
    rels = {
        name: frozenset(
            args for tup in at_g.rels[name] for args in iproduct(*(fibres[v] for v in tup))
        )
        for name, _ in sig.relations
    }
    consts = {
        name: index[tuple(f.consts[name] for f in spec.factors)] for name in sig.constants
    }
    # Equality axioms hold by construction ("=" is factor g's equality read
    # off the g-coordinates); skip the O(n^4) re-validation here — it is
    # exercised in the test suite.
    return Structure(sig, n, funcs=funcs, rels=rels, consts=consts, validate=False)


def los_check(spec, phi):
    """Check the transfer equivalence for one formula.

    For each assignment a of the free variables:
      product ⊨ φ(a)  ⇔  {x : S_x ⊨ φ(a_x)} ∈ 𝒰.
    While the |U|^k assignments of k free variables number at most
    ASSIGNMENT_CAP, all of them are checked.  Past it, one assignment per
    class is: each variable ranges over the least element of each
    g-coordinate, |S_g|^k assignments, and CapExceeded is raised before
    any is checked only when those exceed the cap too.

    The class walk is sound because both sides depend on a's g-coordinates
    only.  By induction on φ: a term's value has the g-coordinate that
    factor g's function gives the g-coordinates of its arguments, since
    functions act coordinatewise; an atom, "=" included, holds iff its
    arguments' g-coordinates satisfy it in S_g; connectives combine such
    verdicts; and ∃y ψ(a, y) or ∀y ψ(a, y) reads ψ(a, b) at every element
    b, each a verdict on the g-coordinates of a and b.  On the index side,
    an agreement set is in 𝒰 iff it contains g, that is iff S_g ⊨ φ(a_g).
    Returns a report dict; ``violations`` is expected to stay empty.
    """
    fv = sorted(free_vars(phi))
    universe = product_universe(spec)
    elements = range(len(universe))
    if len(universe) ** len(fv) > ASSIGNMENT_CAP:
        # in lexicographic order, the least element with g-coordinate v is
        # v times the product of the later factors' sizes
        g = spec.point
        stride = prod(f.size for f in spec.factors[g + 1:])
        elements = range(0, stride * spec.factors[g].size, stride)
        if len(elements) ** len(fv) > ASSIGNMENT_CAP:
            raise CapExceeded(
                "assignment space %d, %d over the g-classes, exceeds cap %d"
                % (len(universe) ** len(fv), len(elements) ** len(fv), ASSIGNMENT_CAP)
            )
    ultra = ultraproduct(spec)
    u = spec.ultrafilter
    nx = len(spec.factors)

    checked = 0
    violations = []
    for assign in iproduct(elements, repeat=len(fv)):
        env = dict(zip(fv, assign))
        lhs = eval_formula(ultra, phi, env)
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
