"""Finite-semigroup algebra on Cayley tables: idempotents, minimal left
ideals, the smallest two-sided ideal K(S), the idempotent order, direct
products, and the ultrafilter product on the element set.

Elements are 0-based indices; the pair (a, b) in a direct product of orders
(m, n) becomes index a·n + b.  The ideal questions are decided on bitmasks
(bit x for element x): one pass over the table's columns gives every
principal left ideal S·x, and the minimal left ideals, the kernel and the
ideal report all come from the masks of the minimal ones.

A table keeps its fields in slots, with no instance dict, and its rows are
tuples that the table enumerator shares between the tables it lists: order
5 lists 183,732 tables, so the bytes of each one count.
"""

from operator import itemgetter

from .bitsets import indices_of
from .errors import CapExceeded, NotAssociative, NotUltrafilter
from .record import Record
from .setfam import SetFamily, classify_family

#: largest order of a direct product, which fills (and the CLI prints) order² cells
PRODUCT_ORDER_CAP = 400


class CayleyTable(Record):
    """A finite semigroup given by its multiplication table.  The
    constructor checks shape and entries, then raises NotAssociative with
    the lex-first (a, b, c) where (a·b)·c ≠ a·(b·c), so no function here
    checks a table again.  Rows that are already tuples are kept as they
    are, not copied."""

    __slots__ = ("mul", "n", "_preimage_masks")
    _fields = ("mul", "n")

    def __init__(self, mul):
        mul = tuple(tuple(row) for row in mul)
        n = len(mul)
        if n < 1:
            raise ValueError("table must have order ≥ 1")
        for row in mul:
            # type(), not isinstance(): True and False are ints too
            if len(row) != n or any(type(v) is not int or not 0 <= v < n for v in row):
                raise ValueError("table rows must be length n with integer entries < n")
        witness = _assoc_witness(mul)
        if witness is not None:
            raise NotAssociative("table is not associative", witness)
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_preimage_masks", None)

    @classmethod
    def _proven(cls, mul):
        """The table of ``mul``, a tuple of row tuples, stored unchecked.
        Its two callers build semigroups by proof: an enumerated leaf has
        every cell set, and propagation compared each triple once its last
        cell was set; a direct product's factors are semigroups by type."""
        table = object.__new__(cls)
        object.__setattr__(table, "mul", mul)
        object.__setattr__(table, "n", len(mul))
        object.__setattr__(table, "_preimage_masks", None)
        return table

    def __reduce__(self):
        # the constructor takes the rows alone, and checks them again
        return type(self), (self.mul,)

    def __call__(self, x, y):
        return self.mul[x][y]

    @property
    def preimage_masks(self):
        """``preimage_masks[x][a]`` is the mask of x⁻¹A = {y : x·y ∈ A} for
        A the set of mask a.  Built on first read, not on construction, so
        tables that never meet an ultrafilter product do not pay for it, and
        kept in the table's ``_preimage_masks`` slot.  n·2ⁿ steps: with
        col[z] the y with x·y = z, x⁻¹A = x⁻¹(A ∖ {z}) ∪ col[z] for z the
        top element of A, so each doubling of a row adds one element z."""
        if self._preimage_masks is not None:
            return self._preimage_masks
        out = []
        for row in self.mul:
            col = [0] * self.n
            for y, z in enumerate(row):
                col[z] |= 1 << y
            pre = [0]
            for c in col:
                pre += [p | c for p in pre]
            out.append(tuple(pre))
        object.__setattr__(self, "_preimage_masks", tuple(out))
        return self._preimage_masks

    def to_json(self):
        return {"n": self.n, "mul": [list(row) for row in self.mul]}

    @classmethod
    def from_json(cls, obj):
        # a declared order is read before the scan: a file that disagrees
        # with itself is bad input, whatever its table's laws
        mul = obj["mul"]
        if "n" in obj and obj["n"] != len(mul):
            raise ValueError("declared order disagrees with the table")
        return cls(mul)


def _assoc_witness(mul):
    """The lex-first (a, b, c) with (a·b)·c ≠ a·(b·c), or None.  One
    comparison per b decides every (a, c): mapping column b through the
    rows gives row a·b, which is (a·b)·c over c, and itemgetter(*row b)
    picks from row a the products a·(b·c) over c.  The triple loop runs
    only to name the witness once some b mismatches, and at order 1, where
    an itemgetter of one index returns a bare value, not a tuple."""
    n = len(mul)
    if n > 1 and all(
        list(map(mul.__getitem__, col)) == list(map(itemgetter(*row), mul))
        for row, col in zip(mul, zip(*mul))
    ):
        return None
    for a in range(n):
        for b in range(n):
            ab = mul[a][b]
            for c in range(n):
                if mul[ab][c] != mul[a][mul[b][c]]:
                    return (a, b, c)
    return None


def idempotents(table):
    """{x : x·x = x}; non-empty for every finite semigroup."""
    return tuple(x for x in range(table.n) if table.mul[x][x] == x)


def _minimal_left_masks(table):
    """The masks of the minimal left ideals, from one pass over the columns:
    S·x is the OR of 1 << z over column x, and L = S·x is minimal iff
    S·y = L for every y in L (the principal-ideal minimality criterion),
    tested by walking the set bits of L."""
    principal = []
    for col in zip(*table.mul):
        m = 0
        for z in col:
            m |= 1 << z
        principal.append(m)
    minimal = set()
    for L in set(principal):
        rest = L
        while rest:
            low = rest & -rest
            if principal[low.bit_length() - 1] != L:
                break
            rest ^= low
        else:
            minimal.add(L)
    return minimal


def minimal_left_ideals(table):
    """All minimal left ideals, as sorted tuples in sorted order."""
    return sorted(indices_of(L) for L in _minimal_left_masks(table))


def kernel(table):
    """K(S): the smallest two-sided ideal, as the union of all minimal left
    ideals.  Distinct minimal left ideals are disjoint, so the mask of
    their union is the sum of their masks."""
    return indices_of(sum(_minimal_left_masks(table)))


def is_minimal_element(table, x):
    """x ∈ K(S) iff for every y some z solves z·y·x = x."""
    mul = table.mul
    for y in range(table.n):
        yx = mul[y][x]
        if all(mul[z][yx] != x for z in range(table.n)):
            return False
    return True


def ideal_report(table):
    """One-stop structural report used by the CLI."""
    idems = idempotents(table)
    masks = _minimal_left_masks(table)
    ker = sum(masks)
    mul = table.mul
    return {
        "minimal_left_ideals": sorted(indices_of(L) for L in masks),
        "kernel": indices_of(ker),
        "idempotents": idems,
        "minimal_idempotents": tuple(e for e in idems if ker >> e & 1),
        "order_pairs": [(p, q) for p in idems for q in idems if mul[p][q] == p == mul[q][p]],
    }


def direct_product(table_s, table_t):
    """Componentwise product; (a, b) ↦ a·n_T + b, stored unchecked.  A
    product of order above PRODUCT_ORDER_CAP raises CapExceeded before its
    table is filled."""
    ns, nt = table_s.n, table_t.n
    if ns * nt > PRODUCT_ORDER_CAP:
        raise CapExceeded("product order %d exceeds cap %d" % (ns * nt, PRODUCT_ORDER_CAP))
    return CayleyTable._proven(tuple(
        tuple(v * nt + w for v in row_s for w in row_t)
        for row_s in table_s.mul
        for row_t in table_t.mul
    ))


def ultrafilter_product(table, u, v):
    """The product ultrafilter: A ∈ 𝓤·𝓥 iff {x : x⁻¹A ∈ 𝓥} ∈ 𝓤, decided
    for every A ⊆ X.  The quotients x⁻¹A are read from the table's
    ``preimage_masks``, built once per table on the first product over it
    and kept on the table; both families are classified on every call."""
    n = table.n
    for name, fam in (("first", u), ("second", v)):
        if fam.ground.size != n:
            raise ValueError("%s family ground size must equal the table order" % name)
        verdict = classify_family(fam)
        if verdict.kind != "ultrafilter":
            raise NotUltrafilter(
                "%s argument is %s, not an ultrafilter" % (name, verdict.kind),
                verdict.witness,
            )
    # inner[a] collects the x with x⁻¹A ∈ 𝓥, one bit per row of quotients
    in_u, in_v = u._mask_set, v._mask_set
    inner = [0] * (1 << n)
    for x, quotients in enumerate(table.preimage_masks):
        bit = 1 << x
        inner = [s | bit if q in in_v else s for s, q in zip(inner, quotients)]
    return SetFamily.from_masks(u.ground, [a for a, s in enumerate(inner) if s in in_u])


# ---------------------------------------------------------------------------
# Table zoo and enumeration


def cyclic_table(n):
    """ℤ/n under addition."""
    return CayleyTable([[(a + b) % n for b in range(n)] for a in range(n)])


def mult_mod_table(n):
    """{0..n-1} under multiplication mod n."""
    return CayleyTable([[(a * b) % n for b in range(n)] for a in range(n)])


def left_zero_table(n):
    """x·y = x."""
    return CayleyTable([[a for _ in range(n)] for a in range(n)])


def right_zero_table(n):
    """x·y = y."""
    return CayleyTable([[b for b in range(n)] for _ in range(n)])


def enumerate_associative_tables(n):
    """Every associative table of order n, lazily, in lexicographic order of
    the row-major flattening of ``mul`` (the order of
    ``itertools.product(range(n), repeat=n*n)``).  Callers read the tables
    by index, so this order is part of the contract.

    Depth-first on an explicit stack: the search branches on the first
    unset cell in row-major order (unset cells hold -1), values ascending,
    and each value is propagated before the search goes deeper.  Setting a
    cell (i, j) visits every triple (a, b, c) in which it is one of the four
    cells (a,b), (b,c), (ab,c), (a,bc): as (a,b) or (b,c) it meets n
    triples each, as (ab,c) or (a,bc) the triples (a, b, j) with a·b = i
    and (i, b, c) with b·c = j, read from ``pre[i]`` and ``pre[j]``, where
    ``pre[v]`` lists the set cells of product v.  A visited triple with all
    four cells set must associate, or the branch is dead; one with (a,b),
    (b,c) and one of (ab,c), (a,bc) set forces the other of those two to
    the same value, and the forced cell is visited in turn.  Every cell
    set, by a branch or a force, goes on a trail: the cells after a mark
    are the ones still to visit, and backtracking pops the trail back to
    the mark, so ``pre[v]`` grows and shrinks last in, first out.

    A forced value is the only value that cell takes in any associative
    table that agrees with the cells set so far, and a conflict leaves no
    such table: propagation prunes only subtrees that hold no table.  Every
    cell before the branching cell is set, so the branches' subtrees follow
    one another in lexicographic order.  The tables and their order are
    therefore those of filtering all n^(n²) tables.  A leaf has every cell
    set, so every triple of it has been compared: it is a semigroup, and
    becomes a CayleyTable without a second scan.

    Each leaf's rows are interned in a dict kept for the call (at most nⁿ
    rows), so the tables listed share their row objects: 3,492 tables of
    order 4 hold at most 256 rows."""
    size = n * n
    mul = [[-1] * n for _ in range(n)]
    pre = [[] for _ in range(n)]  # pre[v]: the set cells (a, b) with a·b = v
    trail = []  # every set cell, in the order it was set
    rows = {}  # each leaf row, keyed by itself

    def put(a, b, v):
        mul[a][b] = v
        pre[v].append((a, b))
        trail.append((a, b))

    def undo(mark):
        while len(trail) > mark:
            a, b = trail.pop()
            row = mul[a]
            pre[row[b]].pop()
            row[b] = -1

    def propagate(mark):
        """Visit the triples of each cell set since ``mark``, forcing cells
        as they go; False on a triple that cannot associate."""
        while mark < len(trail):
            i, j = trail[mark]
            mark += 1
            row_i, row_j = mul[i], mul[j]
            v = row_i[j]
            row_v = mul[v]
            # (i, j) as (a, b): (i·j)·c = i·(j·c)
            for c, jc in enumerate(row_j):
                if jc >= 0:
                    left, right = row_v[c], row_i[jc]
                    if left != right:
                        if left < 0:
                            put(v, c, right)
                        elif right < 0:
                            put(i, jc, left)
                        else:
                            return False
            # (i, j) as (b, c): (a·i)·j = a·(i·j)
            for a, row_a in enumerate(mul):
                ai = row_a[i]
                if ai >= 0:
                    left, right = mul[ai][j], row_a[v]
                    if left != right:
                        if left < 0:
                            put(ai, j, right)
                        elif right < 0:
                            put(a, v, left)
                        else:
                            return False
            # (i, j) as (ab, c): i·j = a·(b·j) for each set a·b = i
            for a, b in pre[i]:
                bj = mul[b][j]
                if bj >= 0:
                    right = mul[a][bj]
                    if right != v:
                        if right >= 0:
                            return False
                        put(a, bj, v)
            # (i, j) as (a, bc): i·j = (i·b)·c for each set b·c = j
            for b, c in pre[j]:
                ib = row_i[b]
                if ib >= 0:
                    left = mul[ib][c]
                    if left != v:
                        if left >= 0:
                            return False
                        put(ib, c, v)
        return True

    stack = []  # (cell, value, trail mark) of each branch on the path
    pos = v = 0  # the branch cell to try next, from value v
    while True:
        while pos < size and mul[pos // n][pos % n] >= 0:
            pos += 1
        if pos < size:
            i, j = divmod(pos, n)
            mark = len(trail)
            while v < n:
                put(i, j, v)
                if propagate(mark):
                    break
                undo(mark)
                v += 1
            if v < n:
                stack.append((pos, v, mark))
                v = 0
                continue
        else:
            yield CayleyTable._proven(tuple(rows.setdefault(row, row) for row in map(tuple, mul)))
        if not stack:
            return
        pos, v, mark = stack.pop()
        undo(mark)
        v += 1
