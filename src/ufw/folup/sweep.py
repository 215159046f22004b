"""Exhaustive transfer sweep over tiny vocabularies, bit-parallel.

Scope: signature {binary f, =}; factors of size ≤ 2 (all 17 such structures
up to the choice of f: one of size 1, the 16 binary operations on {0,1});
index sets |X| ≤ 3 with every principal ultrafilter; the full corpus of
formulas with ≤ 4 AST nodes over variables x, y in the minimal vocabulary
{¬, ∧, ∃} (the other connectives are definable and would explode the
corpus); and every assignment of the free variables.

Strategy: for every (factor-tuple, ultrafilter) pair, the truth table of a
formula over assignments (vx, vy) ∈ universe² is one int used as a 64-bit
mask in a fixed 8×8 cell layout (cell = vx·8 + vy), so a product holds at
most 8 elements.  Masks are computed bottom-up over the shared subformula
DAG:

  ¬φ    : m ^ valid
  φ∧ψ   : m1 & m2
  ∃x φ  : OR-fold of the 8 rows, broadcast back over rows
  ∃y φ  : OR-fold of the 8 columns within each row, broadcast back

The principal ultrafilter at j identifies product elements with equal j-th
coordinates, and a coordinate is 0 or 1, so an atom t1 = t2 holds at a cell
iff t1 and t2 project to the same bit there.  A pair's *context* is the
valid-cell mask, the masks of cells where x, y and f(x,y) project to 1 (those
of f(x,x), f(y,x) and f(y,y) follow from the last), and the id of factor j.

A product is built in that bit-sliced form, never as a table: plane j of a
product is the mask of cells (x, y) where coordinate j of f(x, y) is 1.
The product of a v-element prefix with an s-element last factor numbers its
elements a·s+c, so each prefix plane is *spread* (cell (a·s+c, b·s+d) takes
the bit of cell (a, b)) and the last plane has f_last(c, d) there.  Both
depend only on (plane, v, s) and (v, last factor), so each is one cached
lookup per tuple, and a pair's context is its coordinate's valid, x and y
masks plus plane j.

The transfer property for the pair is a mask equation: every product-side
mask must equal the pullback of the factor-j mask through the projection,
and both sides are functions of the context.  So the corpus is evaluated and
compared once per distinct context (99 of them for the 15,334 pairs of the
full sweep), in one list comparison, and the verdict applies to every pair
that shares it.  The test suite checks the planes against product tables
built cell by cell, and the masks against the plain recursive evaluator.
"""

from functools import lru_cache
from math import prod
from operator import xor

#: bit 0 of each of the 8 rows
_ROWS = 0x0101010101010101


def factor_structures():
    """The 17 factor structures: (universe size, f table)."""
    out = [(1, ((0,),))]
    for bits in range(16):
        table = tuple(
            tuple((bits >> (a * 2 + b)) & 1 for b in range(2)) for a in range(2)
        )
        out.append((2, table))
    return out


def build_corpus(max_nodes=4):
    """All formulas with ≤ max_nodes AST nodes in the minimal vocabulary.

    Returns a list of nodes in dependency order (children before parents):
      ("atom", t1, t2)   — term ids into the 6-term list
      ("not", i) / ("ex", var, i) / ("and", i, j) — child indices.
    """
    by_size = {0: []}
    nodes = []

    def add(node):
        nodes.append(node)
        return len(nodes) - 1

    by_size[1] = [add(("atom", t1, t2)) for t1 in range(6) for t2 in range(6)]
    for size in range(2, max_nodes + 1):
        layer = []
        for i in by_size[size - 1]:
            layer.append(add(("not", i)))
        for var in (0, 1):
            for i in by_size[size - 1]:
                layer.append(add(("ex", var, i)))
        for left_size in range(1, size - 1):
            for i in by_size[left_size]:
                for j in by_size[size - 1 - left_size]:
                    layer.append(add(("and", i, j)))
        by_size[size] = layer
    return nodes


@lru_cache(maxsize=None)
def _spread(plane, v, s):
    """A plane of a v-element prefix, spread over its product with an
    s-element factor: cell (a·s+c, b·s+d) takes the bit of cell (a, b)."""
    return sum(
        1 << ((a * s + c) * 8 + b * s + d)
        for a in range(v)
        for b in range(v)
        if plane >> (a * 8 + b) & 1
        for c in range(s)
        for d in range(s)
    )


@lru_cache(maxsize=None)
def _last_plane(v, table):
    """The plane of the last factor in its product with a v-element prefix:
    cell (a·s+c, b·s+d) is f(c, d) of the s-element factor's ``table``."""
    s = len(table)
    return sum(
        1 << ((a * s + c) * 8 + b * s + d)
        for a in range(v)
        for b in range(v)
        for c in range(s)
        for d in range(s)
        if table[c][d]
    )


def _product(tup, structs, prefixes):
    """Universe size and f-planes of the direct product of the factors named
    by ``tup``, elements numbered in lex order of their coordinate tuples:
    plane j masks the cells (x, y) where coordinate j of f(x, y) is 1.
    Extends the product of ``tup[:-1]`` in ``prefixes``."""
    v, planes = prefixes[tup[:-1]]
    s, table = structs[tup[-1]]
    return v * s, [_spread(p, v, s) for p in planes] + [_last_plane(v, table)]


@lru_cache(maxsize=None)
def _coordinate(u, stride, size):
    """For a u-element product whose coordinate j has the given stride and
    factor size: the valid-cell mask and the masks of cells where x and
    where y project to 1."""
    bits = [e // stride % size for e in range(u)]
    cells = [(a, b) for a in range(u) for b in range(u)]
    valid = sum(1 << (a * 8 + b) for a, b in cells)
    px = sum(1 << (a * 8 + b) for a, b in cells if bits[a])
    py = sum(1 << (a * 8 + b) for a, b in cells if bits[b])
    return valid, px, py


def _masks(nodes, valid, px, py, fxy):
    """Truth-table masks of every corpus node in one context."""
    fyx = sum(1 << (b * 8 + a) for a in range(8) for b in range(8) if fxy >> (a * 8 + b) & 1)
    diagonal = [a for a in range(8) if fxy >> (a * 9) & 1]
    fxx = sum(0xFF << (a * 8) for a in diagonal) & valid
    fyy = sum(_ROWS << a for a in diagonal) & valid
    terms = (px, py, fxx, fxy, fyx, fyy)
    masks = []
    for node in nodes:
        tag = node[0]
        if tag == "atom":
            m = terms[node[1]] ^ terms[node[2]] ^ valid
        elif tag == "not":
            m = masks[node[1]] ^ valid
        elif tag == "and":
            m = masks[node[1]] & masks[node[2]]
        elif node[1] == 0:  # ∃x
            m = masks[node[2]]
            m |= m >> 32
            m |= m >> 16
            m |= m >> 8
            m = (m & 0xFF) * _ROWS & valid
        else:  # ∃y
            m = masks[node[2]]
            m |= m >> 1
            m |= m >> 2
            m |= m >> 4
            m = (m & _ROWS) * 0xFF & valid
        masks.append(m)
    return masks


def _verdict(nodes, valid, px, py, fxy, codes):
    """(formula index, first differing cell) of every formula whose
    product-side mask differs from the pullback of its factor-side mask.

    ``codes`` packs each factor-side mask into 4 bits, one per factor cell
    (0,0), (0,1), (1,0), (1,1)."""
    over = (valid ^ (px | py), py & ~px, px & ~py, px & py)
    pullback = [sum(m for k, m in enumerate(over) if code >> k & 1) for code in range(16)]
    masks = _masks(nodes, valid, px, py, fxy)
    expected = list(map(pullback.__getitem__, codes))
    if masks == expected:
        return []
    return [
        (i, (diff & -diff).bit_length() - 1)
        for i, diff in enumerate(map(xor, masks, expected))
        if diff
    ]


def exhaustive_transfer_sweep(max_x=3, max_nodes=4):
    """Run the full sweep; returns a report with the combination count and
    any violations (expected none).

    A violation entry identifies (factor tuple, principal index, formula
    index, cell) so it can be replayed against the slow evaluator.
    """
    if max_x > 3:
        raise ValueError(
            "the 8×8 cell layout holds products of at most 3 factors, got max_x=%d" % max_x
        )
    structs = factor_structures()
    nodes = build_corpus(max_nodes)
    # factor side: each formula's mask on each factor, as a 4-bit code
    codes = []
    for size, f in structs:
        masks = _masks(nodes, *_coordinate(size, 1, size), _last_plane(1, f))
        codes.append([m & 3 | m >> 6 & 12 for m in masks])

    verdicts = {}
    violations = []
    pairs = cells = 0
    prefixes = {(): (1, [])}
    for nx in range(1, max_x + 1):
        products = {}
        for tup in (p + (f,) for p in prefixes for f in range(len(structs))):
            u, planes = products[tup] = _product(tup, structs, prefixes)
            sizes = [structs[f][0] for f in tup]
            pairs += nx
            cells += nx * u * u
            for j, f in enumerate(tup):
                context = _coordinate(u, prod(sizes[j + 1 :]), sizes[j]) + (planes[j],)
                key = context + (f,)  # the rest implies f only if the plane is right
                if key not in verdicts:
                    verdicts[key] = _verdict(nodes, *context, codes[f])
                for i, cell in verdicts[key]:
                    violations.append(
                        {
                            "factors": tup,
                            "principal_index": j,
                            "formula_index": i,
                            "cell": (cell // 8, cell % 8),
                        }
                    )
        prefixes = products
    return {
        "formulas": len(nodes),
        "pairs": pairs,
        "checked": cells * len(nodes),
        "violations": violations,
    }
