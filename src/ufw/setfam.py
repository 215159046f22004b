"""Families of subsets of a finite ground set: filters, ultrafilters, the
star operation, 0/1-valued measures, and limits along a filter.

Subsets are sorted index lists at the API boundary and bitmasks internally.
Families are canonicalized sorted-by-mask.  Witnesses always refer to the
lexicographically least violating instance under the documented scan order.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .bitsets import indices_of, mask_of, subsets_lex
from .errors import (
    CapExceeded,
    IndexOutOfRange,
    NotAFilter,
    NotFIP,
    NotMeasure,
    NotUltrafilter,
)

#: largest ground size for which operations materialize the full powerset
POWERSET_CAP = 16

#: largest ground size for enumerate_ultrafilters
ULTRAFILTER_CAP = 6


@dataclass(frozen=True)
class GroundSet:
    """The finite ground set {0..size-1}, optionally with display labels."""

    size: int
    labels: tuple = None

    def __post_init__(self):
        # type(), not isinstance(): True and False are ints too
        if type(self.size) is not int:
            raise ValueError("ground set size must be an integer")
        if self.size < 1:
            raise ValueError("ground set must be non-empty")
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != self.size or len(set(labels)) != self.size:
                raise ValueError("labels must be pairwise distinct, one per element")
            object.__setattr__(self, "labels", labels)

    @property
    def full_mask(self):
        return (1 << self.size) - 1


class SetFamily:
    """An immutable family of subsets of a ground set."""

    __slots__ = ("ground", "masks", "_mask_set")

    def __init__(self, ground, members):
        """``members``: iterable of index-iterables (or of ready masks via
        :meth:`from_masks`)."""
        masks = set()
        for member in members:
            indices = tuple(member)
            # type(), not isinstance(): JSON true would read as element 1
            if any(type(i) is not int for i in indices):
                raise ValueError("member %r has a non-integer element" % (member,))
            m = mask_of(indices)
            if m > ground.full_mask:
                raise IndexOutOfRange("member %r outside ground set" % (member,))
            masks.add(m)
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "masks", tuple(sorted(masks)))
        object.__setattr__(self, "_mask_set", frozenset(masks))

    def __setattr__(self, name, value):
        raise AttributeError("SetFamily is immutable")

    @classmethod
    def from_masks(cls, ground, masks):
        fam = cls.__new__(cls)
        masks = set(masks)
        for m in masks:
            if m > ground.full_mask:
                raise IndexOutOfRange("mask %d outside ground set" % m)
        object.__setattr__(fam, "ground", ground)
        object.__setattr__(fam, "masks", tuple(sorted(masks)))
        object.__setattr__(fam, "_mask_set", frozenset(masks))
        return fam

    @property
    def members(self):
        """Members as sorted index tuples, in canonical (mask) order."""
        return tuple(indices_of(m) for m in self.masks)

    def has_mask(self, mask):
        return mask in self._mask_set

    def __len__(self):
        return len(self.masks)

    def __eq__(self, other):
        return (
            isinstance(other, SetFamily)
            and self.ground.size == other.ground.size
            and self._mask_set == other._mask_set
        )

    def __hash__(self):
        return hash((self.ground.size, self._mask_set))

    def __repr__(self):
        return "SetFamily(ground=%d, members=%r)" % (self.ground.size, list(self.members))

    def to_json(self):
        return {"ground": self.ground.size, "members": [list(m) for m in self.members]}

    @classmethod
    def from_json(cls, obj):
        return cls(GroundSet(obj["ground"]), obj["members"])


@dataclass(frozen=True)
class FamilyVerdict:
    """Classification of a family with the first failing axiom instance.

    ``kind`` is one of ``not-fip``, ``fip-only``, ``filter``, ``ultrafilter``;
    ``witness`` (a tuple of sorted index tuples) is present exactly when the
    family is not an ultrafilter, and pinpoints why the next-stronger axiom
    fails.
    """

    kind: str
    witness: tuple = None


def fip_check(f):
    """Finite intersection property.

    Returns ``(True, None)`` or ``(False, witness)`` where the witness is the
    smallest (then lexicographically least) sub-family with empty
    intersection.  Sub-families of size ≤ ground+1 suffice: each member added
    to a minimal witness must strictly shrink the running intersection.
    """
    masks = f.masks
    if not masks:
        return True, None
    total = f.ground.full_mask
    for m in masks:
        total &= m
    if total:
        return True, None
    max_size = min(len(masks), f.ground.size + 1)
    masks_lex = sorted(masks, key=indices_of)
    for size in range(1, max_size + 1):
        for combo in combinations(masks_lex, size):
            inter = f.ground.full_mask
            for m in combo:
                inter &= m
            if not inter:
                return False, tuple(indices_of(m) for m in combo)
    raise AssertionError("unreachable: empty total intersection implies a witness")


def _filter_axiom_witness(f):
    """First failing filter-axiom instance, or None.

    Scan order: (1) X ∈ F, (2) ∅ ∉ F, (3) upward closure, (4) closure under
    pairwise intersection; subsets in lexicographic index order.
    """
    n = f.ground.size
    full = f.ground.full_mask
    if not f.has_mask(full):
        return (tuple(range(n)),)
    if f.has_mask(0):
        return ((),)
    all_subs = subsets_lex(n)
    lex_members = [m for m in all_subs if f.has_mask(m)]
    for a in lex_members:
        for b in all_subs:
            if (a & b) == a and not f.has_mask(b):
                return (indices_of(a), indices_of(b))
    for a in lex_members:
        for b in lex_members:
            if not f.has_mask(a & b):
                return (indices_of(a), indices_of(b))
    return None


def _union_split_witness(f):
    """For a filter: first A with neither A nor its complement a member."""
    full = f.ground.full_mask
    for a in subsets_lex(f.ground.size):
        if not f.has_mask(a) and not f.has_mask(full & ~a):
            return (indices_of(a), indices_of(full & ~a))
    return None


def classify_family(f):
    """Classify a family as not-fip / fip-only / filter / ultrafilter.

    For a filter, the ultrafilter test uses the complement form of the
    union-splitting axiom (equivalent over filters): some A has neither A nor
    A^c in the family.
    """
    ok, witness = fip_check(f)
    if not ok:
        return FamilyVerdict("not-fip", witness)
    witness = _filter_axiom_witness(f)
    if witness is not None:
        return FamilyVerdict("fip-only", witness)
    witness = _union_split_witness(f)
    if witness is not None:
        return FamilyVerdict("filter", witness)
    return FamilyVerdict("ultrafilter", None)


def filter_closure(f):
    """Smallest filter containing ``f``: all supersets of finite
    intersections of members."""
    ok, witness = fip_check(f)
    if not ok:
        raise NotFIP("family lacks the finite intersection property", witness)
    n = f.ground.size
    if n > POWERSET_CAP:
        raise CapExceeded("filter_closure materializes the powerset; ground ≤ %d" % POWERSET_CAP)
    full = f.ground.full_mask
    # Closure of {X} ∪ members under pairwise intersection = all finite
    # intersections of members.
    bases = {full}
    frontier = [full]
    while frontier:
        a = frontier.pop()
        for m in f.masks:
            b = a & m
            if b not in bases:
                bases.add(b)
                frontier.append(b)
    minimal = [b for b in bases if not any(c != b and (c & b) == c for c in bases)]
    out = [a for a in range(1 << n) if any((b & a) == b for b in minimal)]
    return SetFamily.from_masks(f.ground, out)


def enumerate_ultrafilters(ground):
    """All ultrafilters on the ground set: exactly the principal ones."""
    if ground.size > ULTRAFILTER_CAP:
        raise CapExceeded("ground size %d exceeds cap %d" % (ground.size, ULTRAFILTER_CAP))
    return [principal_ultrafilter(ground, x) for x in range(ground.size)]


def principal_ultrafilter(ground, x):
    """The family of all subsets containing ``x``."""
    if not 0 <= x < ground.size:
        raise IndexOutOfRange("element %d outside ground set" % x)
    return SetFamily.from_masks(
        ground, [a for a in range(1 << ground.size) if a & (1 << x)]
    )


@lru_cache(maxsize=None)
def _hit_rows(n):
    """hit_rows[a] = bitmask over all subsets b of whether a ∩ b ≠ ∅."""
    rows = []
    for a in range(1 << n):
        row = 0
        for b in range(1 << n):
            if a & b:
                row |= 1 << b
        rows.append(row)
    return tuple(rows)


def _star_bits(n, masks):
    """Star of a family given by member masks, as a bitmask over all subsets."""
    acc = (1 << (1 << n)) - 1
    rows = _hit_rows(n)
    for a in masks:
        acc &= rows[a]
    return acc


def star(f):
    """{B : every member of f meets B}."""
    n = f.ground.size
    if n > POWERSET_CAP:
        raise CapExceeded("star materializes the powerset; ground ≤ %d" % POWERSET_CAP)
    bits = _star_bits(n, f.masks)
    out = [b for b in range(1 << n) if (bits >> b) & 1]
    return SetFamily.from_masks(f.ground, out)


@dataclass(frozen=True)
class Measure01:
    """A {0,1}-valued finitely additive measure, stored by its 1-class."""

    ground: GroundSet
    one_masks: frozenset

    def value(self, subset):
        return 1 if mask_of(subset) in self.one_masks else 0


def to_measure(u):
    """Ultrafilter → point-mass-style measure (indicator of membership)."""
    verdict = classify_family(u)
    if verdict.kind != "ultrafilter":
        raise NotUltrafilter("family is %s, not an ultrafilter" % verdict.kind, verdict.witness)
    return Measure01(u.ground, frozenset(u.masks))


def from_measure(m):
    """Measure → ultrafilter, validating the measure axioms first.

    Witness order: value(∅)=0, value(X)=1, then additivity over
    lexicographic disjoint pairs.
    """
    full = m.ground.full_mask
    if 0 in m.one_masks:
        raise NotMeasure("value(∅) must be 0", ((),))
    if full not in m.one_masks:
        raise NotMeasure("value(X) must be 1", (indices_of(full),))
    subs = subsets_lex(m.ground.size)
    for a in subs:
        for b in subs:
            if a & b:
                continue
            va = 1 if a in m.one_masks else 0
            vb = 1 if b in m.one_masks else 0
            vu = 1 if (a | b) in m.one_masks else 0
            if va + vb != vu:
                raise NotMeasure(
                    "not additive on disjoint pair", (indices_of(a), indices_of(b))
                )
    fam = SetFamily.from_masks(m.ground, m.one_masks)
    verdict = classify_family(fam)
    if verdict.kind != "ultrafilter":  # pragma: no cover - excluded by the axioms
        raise NotMeasure("1-class is not an ultrafilter", verdict.witness)
    return fam


def generalized_limit(f, fam):
    """The limit of ``f`` (a length-n sequence of values) along a filter.

    Returns the unique z with f⁻¹({z}) ∈ fam, or None when no such value
    exists (possible for non-ultra filters).
    """
    verdict = classify_family(fam)
    if verdict.kind not in ("filter", "ultrafilter"):
        raise NotAFilter("family is %s" % verdict.kind, verdict.witness)
    values = list(f)
    if len(values) != fam.ground.size:
        raise ValueError("f must assign a value to every ground element")
    for z in sorted(set(values), key=repr):
        pre = mask_of(i for i, v in enumerate(values) if v == z)
        if fam.has_mask(pre):
            return z
    return None


def quotient_set(mul, x, A, side="left"):
    """Quotient set of A by x in a finite semigroup given by its table.

    left:  x⁻¹A = {y : x·y ∈ A};  right:  A·x⁻¹ = {y : y·x ∈ A}.
    """
    table = getattr(mul, "mul", mul)
    n = len(table)
    if not 0 <= x < n:
        raise IndexOutOfRange("element %d outside table of order %d" % (x, n))
    a_mask = mask_of(A)
    if a_mask >> n:
        raise IndexOutOfRange("subset %r outside table of order %d" % (A, n))
    if side == "left":
        return tuple(y for y in range(n) if a_mask & (1 << table[x][y]))
    if side == "right":
        return tuple(y for y in range(n) if a_mask & (1 << table[y][x]))
    raise ValueError("side must be 'left' or 'right'")
