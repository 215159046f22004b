"""Families of subsets of a finite ground set: filters, ultrafilters and
the star operation.

Subsets are sorted index lists at the API boundary and bitmasks internally.
Families are canonicalized sorted-by-mask.  Witnesses always refer to the
lexicographically least violating instance under the documented scan order.
"""

from .bitsets import indices_of, mask_of
from .errors import CapExceeded, IndexOutOfRange, NotFIP
from .record import Record

#: largest ground size for which operations materialize the full powerset
POWERSET_CAP = 16

#: largest ground size for enumerate_ultrafilters
ULTRAFILTER_CAP = 6


class GroundSet(Record):
    """The finite ground set {0..size-1}."""

    _fields = ("size",)

    def __init__(self, size):
        # type(), not isinstance(): True and False are ints too
        if type(size) is not int:
            raise ValueError("ground set size must be an integer")
        if size < 1:
            raise ValueError("ground set must be non-empty")
        object.__setattr__(self, "size", size)

    @property
    def full_mask(self):
        return (1 << self.size) - 1


class SetFamily(Record):
    """An immutable family of subsets of a ground set."""

    __slots__ = ("ground", "masks", "_mask_set")
    _fields = ("ground", "masks")

    def __init__(self, ground, members):
        """``members``: iterable of index-iterables (or of ready masks via
        :meth:`from_masks`)."""
        masks = set()
        for member in members:
            indices = tuple(member)
            # type(), not isinstance(): JSON true would read as element 1
            if any(type(i) is not int for i in indices):
                raise ValueError("member %r has a non-integer element" % (member,))
            # before the mask is built: 1 << i for a huge i is a huge int
            if indices and (min(indices) < 0 or max(indices) >= ground.size):
                raise IndexOutOfRange("member %r outside ground set" % (member,))
            masks.add(mask_of(indices))
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "masks", tuple(sorted(masks)))
        object.__setattr__(self, "_mask_set", frozenset(masks))

    @classmethod
    def from_masks(cls, ground, masks):
        mask_set = frozenset(masks)
        ordered = tuple(sorted(mask_set))
        full = ground.full_mask
        # sorted, so only the largest mask need be compared with the ground
        if ordered and ordered[-1] > full:
            least = next(m for m in ordered if m > full)
            raise IndexOutOfRange("mask %d outside ground set" % least)
        fam = cls.__new__(cls)
        object.__setattr__(fam, "ground", ground)
        object.__setattr__(fam, "masks", ordered)
        object.__setattr__(fam, "_mask_set", mask_set)
        return fam

    def __reduce__(self):
        # the constructor reads members as index lists, not masks
        return SetFamily.from_masks, (self.ground, self.masks)

    @property
    def members(self):
        """Members as sorted index tuples, in canonical (mask) order."""
        return tuple(indices_of(m) for m in self.masks)

    def has_mask(self, mask):
        return mask in self._mask_set

    def __len__(self):
        return len(self.masks)

    def to_json(self):
        return {"ground": self.ground.size, "members": [list(m) for m in self.members]}

    @classmethod
    def from_json(cls, obj):
        return cls(GroundSet(obj["ground"]), obj["members"])


class FamilyVerdict(Record):
    """Classification of a family with the first failing axiom instance.

    ``kind`` is one of ``not-fip``, ``fip-only``, ``filter``, ``ultrafilter``;
    ``witness`` (a tuple of sorted index tuples) is present exactly when the
    family is not an ultrafilter, and pinpoints why the next-stronger axiom
    fails.
    """

    _fields = ("kind", "witness")

    def __init__(self, kind, witness=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "witness", witness)


def _meet(f):
    """Intersection of all members (the ground set for the empty family)."""
    meet = f.ground.full_mask
    for m in f.masks:
        meet &= m
    return meet


def _supersets(a, full):
    """Every mask between ``a`` and ``full``."""
    free = full & ~a
    s = free
    while True:
        yield a | s
        if not s:
            return
        s = (s - 1) & free


def _lex_first(masks):
    """The mask whose sorted index tuple is lexicographically least."""
    return min(masks, key=indices_of)


def _fip_witness(f):
    """The smallest, then lexicographically least, sub-family with empty
    intersection, for a family whose meet is empty.

    For k = ceil(|X| / cut(X)), k + 1, … walk the k-combinations of the
    members, sorted by index tuple, in lexicographic order; the first whose
    intersection is empty is the witness.  A node is u, the intersection so
    far, with ``left`` members still to take from those after the last one
    taken.  A member that leaves u whole is skipped, and a child c = u ∩ m
    needs at least ceil(|c| / cut(u)) more members, cut(u) being the most
    any member removes from u (and so from c ⊆ u).

    ``short[u]`` is the most members proven too few to empty u, by any
    members at all.  When the walk fails below u with ``left`` members to go,
    suppose some set T of at most ``left`` members empties u.  The prefix P
    taken so far and T make a combination of at most k members with empty
    intersection, and fewer than k cannot do that, by the bound or an
    earlier pass.  So T misses P and has exactly ``left`` members, and one
    of them comes before the last member of P, or the walk below u would
    have found P ∪ T.  Then P ∪ T, sorted, precedes every combination that
    begins with P: the walk reached it first and would already have
    returned it.  So the memo holds across nodes and passes.
    """
    lex = sorted(f.masks, key=indices_of)

    def cut(u):
        return u.bit_count() - min((u & m).bit_count() for m in lex)

    short = {}
    full = f.ground.full_mask
    k = -(-full.bit_count() // cut(full))
    while True:
        # a frame is [u, left, just past the member last tried, cut(u)]; an
        # explicit stack, as a witness can have as many members as the ground
        stack = [[full, k, 0, cut(full)]]
        while stack:
            frame = stack[-1]
            u, left, pos, cut_u = frame
            for i in range(pos, len(lex)):
                c = u & lex[i]
                if c == u:
                    continue
                frame[2] = i + 1
                if not c:
                    return tuple(indices_of(lex[fr[2] - 1]) for fr in stack)
                if -(-c.bit_count() // cut_u) < left and short.get(c, 0) < left - 1:
                    stack.append([c, left - 1, i + 1, cut(c)])
                    break
            else:
                # short[u] < left when u was pushed, and since then only
                # proper subsets of u were recorded
                short[u] = left
                stack.pop()
        k += 1


def _first_missing_superset(f, a, n):
    """The lexicographically first superset of ``a`` outside ``f``, for an
    ``a`` that has one.  Index tuples are walked in lex order, each before
    its extensions, and a tuple is extended only by elements up to the least
    element of ``a`` it lacks, so each tuple walked extends to a superset of
    ``a``.  The supersets walked before the answer are distinct members, so
    the walk visits at most |F| + 1 supersets, not all 2^(n−|a|)."""

    def walk(t, start):
        lacking = a & ~t
        if not lacking and not f.has_mask(t):
            return t
        stop = (lacking & -lacking).bit_length() if lacking else n
        for e in range(start, stop):
            found = walk(t | 1 << e, e + 1)
            if found is not None:
                return found
        return None

    return walk(0, 0)


def _filter_axiom_witness(f):
    """First failing filter-axiom instance of a family that has a non-empty
    meet but is not a filter.

    Scan order: (1) X ∈ F, (2) ∅ ∉ F, (3) upward closure, (4) closure under
    pairwise intersection; members and subsets in lexicographic index order,
    and (3) and (4) report the first member with a failing partner, then its
    first failing partner.  Step (2) cannot fail once the meet is non-empty.
    """
    n = f.ground.size
    full = f.ground.full_mask
    if not f.has_mask(full):
        return (tuple(range(n)),)
    # (3) a has a superset outside F iff removing one element at a time,
    # inside F, leads down to a from a member with a one-element extension
    # outside F: on a chain from a up to that superset, the first non-member
    # lies just above a member.  So the walk visits members alone.
    failing = [c for c in f.masks if any(not f.has_mask(c | 1 << i) for i in indices_of(full ^ c))]
    reached = set(failing)
    for c in failing:
        for i in indices_of(c):
            d = c ^ 1 << i
            if d not in reached and f.has_mask(d):
                reached.add(d)
                failing.append(d)
    if failing:
        a = _lex_first(failing)
        b = _first_missing_superset(f, a, n)
        return (indices_of(a), indices_of(b))
    # (4) F is now an up-set.  a ∩ b ∈ F for every member b iff a contains
    # every minimal member, that is their union: for minimal b, a ∩ b ⊆ b is
    # a member only if it is b itself.  i belongs to that union iff some
    # member c ∋ i has c ∖ {i} outside F.
    union = 0
    for c in f.masks:
        for i in indices_of(c):
            if not f.has_mask(c ^ (1 << i)):
                union |= 1 << i
    a = _lex_first(a for a in f.masks if a & union != union)
    b = _lex_first(b for b in f.masks if not f.has_mask(a & b))
    return (indices_of(a), indices_of(b))


def _union_split_witness(ground, meet):
    """For the principal filter at ``meet``, |meet| ≥ 2: the first A in
    lexicographic order with neither A nor its complement a member.

    A member must contain all of meet, its complement none of it, so A must
    cut meet.  Every tuple before (0, 1, …, min meet) in lexicographic order
    is a shorter prefix of it, which misses meet, and that prefix itself
    meets meet in {min meet} alone.
    """
    low = meet & -meet
    a = (low << 1) - 1
    return (indices_of(a), indices_of(ground.full_mask & ~a))


def classify_family(f):
    """Classify a family as not-fip / fip-only / filter / ultrafilter.

    On a finite ground set every filter is the principal filter at the meet
    m of its members, so F is a filter iff m is non-empty and F has all
    2^(n−|m|) supersets of m as members (it cannot have more), and an
    ultrafilter iff also |m| = 1.  Witnesses are searched only when a test
    fails.  For a filter, the ultrafilter test uses the complement form of
    the union-splitting axiom (equivalent over filters): some A has neither A
    nor A^c in the family.
    """
    meet = _meet(f)
    if not meet:
        return FamilyVerdict("not-fip", _fip_witness(f))
    if len(f.masks) == 1 << (f.ground.size - meet.bit_count()):
        if meet.bit_count() == 1:
            return FamilyVerdict("ultrafilter", None)
        return FamilyVerdict("filter", _union_split_witness(f.ground, meet))
    return FamilyVerdict("fip-only", _filter_axiom_witness(f))


def filter_closure(f):
    """Smallest filter containing ``f``: all supersets of finite
    intersections of members, which is the principal filter at their meet."""
    meet = _meet(f)
    if not meet:
        raise NotFIP("family lacks the finite intersection property", _fip_witness(f))
    if f.ground.size > POWERSET_CAP:
        raise CapExceeded("filter_closure materializes the powerset; ground ≤ %d" % POWERSET_CAP)
    return SetFamily.from_masks(f.ground, _supersets(meet, f.ground.full_mask))


def enumerate_ultrafilters(ground):
    """All ultrafilters on the ground set: exactly the principal ones."""
    if ground.size > ULTRAFILTER_CAP:
        raise CapExceeded("ground size %d exceeds cap %d" % (ground.size, ULTRAFILTER_CAP))
    return [principal_ultrafilter(ground, x) for x in range(ground.size)]


def principal_ultrafilter(ground, x):
    """The family of all subsets containing ``x``."""
    if not 0 <= x < ground.size:
        raise IndexOutOfRange("element %d outside ground set" % x)
    return SetFamily.from_masks(ground, _supersets(1 << x, ground.full_mask))


# A family of subsets of {0..n-1} as one int of 2ⁿ bits: bit a is set iff
# the subset with mask a belongs to it.


def _family_bits(masks):
    if not masks:
        return 0
    buf = bytearray((max(masks) >> 3) + 1)
    for m in masks:
        buf[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(buf, "little")


def _digits(bits, n):
    """``bits`` as a 2ⁿ-digit binary numeral: digit j is bit 2ⁿ−1−j, which
    is the bit of the complement X∖j."""
    return format(bits, "0%db" % (1 << n))


def _without(n, i):
    """The subsets of {0..n-1} that do not contain i."""
    step = 1 << i
    bits, width = (1 << step) - 1, 2 * step
    while width < 1 << n:
        bits |= bits << width
        width *= 2
    return bits


def _up_closure(bits, n):
    """Every subset that contains a subset in ``bits``: one sweep per element."""
    for i in range(n):
        bits |= (bits & _without(n, i)) << (1 << i)
    return bits


def star(f):
    """{B : every member of f meets B}: B belongs iff X∖B contains no member."""
    n = f.ground.size
    if n > POWERSET_CAP:
        raise CapExceeded("star materializes the powerset; ground ≤ %d" % POWERSET_CAP)
    digits = _digits(_up_closure(_family_bits(f.masks), n), n)
    return SetFamily.from_masks(f.ground, [b for b, d in enumerate(digits) if d == "0"])
