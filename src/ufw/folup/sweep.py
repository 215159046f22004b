"""Exhaustive transfer sweep over tiny vocabularies, vectorized.

Scope: signature {binary f, =}; factors of size ≤ 2 (all 17 such structures
up to the choice of f: one of size 1, the 16 binary operations on {0,1});
index sets |X| ≤ 3 with every principal ultrafilter; the full corpus of
formulas with ≤ 4 AST nodes over variables x, y in the minimal vocabulary
{¬, ∧, ∃} (the other connectives are definable and would explode the
corpus); and every assignment of the free variables.

Strategy: for every (factor-tuple, ultrafilter) pair, the truth table of a
formula over assignments (vx, vy) ∈ universe² is a single 64-bit mask in a
fixed 8×8 cell layout (cell = vx·8 + vy).  Masks are computed bottom-up
over the shared subformula DAG, vectorized across all pairs with numpy
uint64 arrays:

  ¬φ    : ~m & valid
  φ∧ψ   : m1 & m2
  ∃x φ  : OR-fold of the 8 rows, broadcast back over rows
  ∃y φ  : OR-fold of the 8 columns within each row, broadcast back

The transfer property for the principal ultrafilter at j reduces to a mask
equation: the product-side mask must equal the pullback of the factor-j
mask through the coordinate projection, which is precomputed per pair as
four "cell masks" (product cells mapping to each factor cell).  A plain
recursive evaluator cross-checks sampled combinations in the test suite.
"""

from itertools import product as iproduct

import numpy as np

_SHIFTS = np.arange(64, dtype=np.uint64)
_ROW_LSB = np.uint64(0x0101010101010101)
_LOW_ROW = np.uint64(0x00000000000000FF)
_BYTE_FILL = np.uint64(0xFF)

#: (factor tuple, principal index) pairs evaluated per vectorized batch
CHUNK = 8192

#: term ids: x, y, f(x,x), f(x,y), f(y,x), f(y,y)
TERM_ARGS = ((0, 0), (0, 1), (1, 0), (1, 1))


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


def corpus_formula(nodes, idx):
    """Convert a corpus node to a syntax-module formula tree."""
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


def _pack(bool_mat):
    """(N, 64) boolean → (N,) uint64 masks."""
    return np.bitwise_or.reduce(bool_mat.astype(np.uint64) << _SHIFTS, axis=1)


class _Contexts:
    """Vectorized per-(factor-tuple, coordinate) data for a batch of pairs."""

    def __init__(self, tuples, coords, structs):
        n = len(tuples)
        cell_vx = np.arange(64) // 8
        cell_vy = np.arange(64) % 8
        f_flat = np.zeros((n, 64), dtype=np.uint8)
        proj = np.zeros((n, 8), dtype=np.uint8)
        valid_mat = np.zeros((n, 64), dtype=bool)
        fid = np.zeros(n, dtype=np.int64)
        table_cache = {}
        for row, (tup, j) in enumerate(zip(tuples, coords)):
            if tup not in table_cache:
                table_cache[tup] = _product_table(tup, structs)
            universe, flat = table_cache[tup]
            u = len(universe)
            f_flat[row, : len(flat)] = flat
            for e, element in enumerate(universe):
                proj[row, e] = element[j]
            valid_mat[row] = (cell_vx < u) & (cell_vy < u)
            fid[row] = tup[j]
        self.f_flat = f_flat
        self.proj = proj
        self.valid_mat = valid_mat
        self.valid = _pack(valid_mat)
        self.fid = fid
        self.universe_sizes = np.array(
            [len(table_cache[t][0]) for t in tuples], dtype=np.int64
        )
        rows = np.arange(n)[:, None]
        # Term value tables over cells (garbage at invalid cells, masked later).
        vx = np.minimum(cell_vx, self.universe_sizes[:, None] - 1).astype(np.intp)
        vy = np.minimum(cell_vy, self.universe_sizes[:, None] - 1).astype(np.intp)
        term_vals = [vx.astype(np.uint8), vy.astype(np.uint8)]
        for a, b in TERM_ARGS:
            idx = (term_vals[a].astype(np.intp) * 8 + term_vals[b]).astype(np.intp)
            term_vals.append(np.take_along_axis(f_flat, idx, axis=1))
        self.term_vals = term_vals
        # Pullback cell masks: product cells projecting onto factor cell (i,k).
        pa = np.take_along_axis(proj, vx, axis=1)
        pb = np.take_along_axis(proj, vy, axis=1)
        self.cellmask = np.stack(
            [
                _pack(((pa == i) & (pb == k)) & valid_mat)
                for i in range(2)
                for k in range(2)
            ],
            axis=1,
        )

    def atom_mask(self, t1, t2):
        rows = np.arange(self.f_flat.shape[0])[:, None]
        p1 = self.proj[rows, self.term_vals[t1].astype(np.intp)]
        p2 = self.proj[rows, self.term_vals[t2].astype(np.intp)]
        return _pack((p1 == p2) & self.valid_mat)


def _product_table(tup, structs):
    """Universe (lex tuples) and flattened 8x8 function table of the direct
    product of the factors named by ``tup``."""
    sizes = [structs[f][0] for f in tup]
    universe = list(iproduct(*(range(s) for s in sizes)))
    index = {t: i for i, t in enumerate(universe)}
    u = len(universe)
    flat = [0] * 64
    for a in range(u):
        for b in range(u):
            res = tuple(
                structs[f][1][universe[a][x]][universe[b][x]] for x, f in enumerate(tup)
            )
            flat[a * 8 + b] = index[res]
    return universe, flat


def _exists_x(m, valid):
    t = m.copy()
    t |= t >> np.uint64(8)
    t |= t >> np.uint64(16)
    t |= t >> np.uint64(32)
    row0 = t & _LOW_ROW
    return (row0 * _ROW_LSB) & valid


def _exists_y(m, valid):
    c = np.zeros_like(m)
    for s in range(8):
        c |= m >> np.uint64(s)
    c &= _ROW_LSB
    return (c * _BYTE_FILL) & valid


def _formula_masks(nodes, ctx, store_limit):
    """Yield (index, mask-array) in dependency order; masks for node indices
    < store_limit are kept for parent lookups."""
    stored = {}
    for i, node in enumerate(nodes):
        tag = node[0]
        if tag == "atom":
            m = ctx.atom_mask(node[1], node[2])
        elif tag == "not":
            m = ~stored[node[1]] & ctx.valid
        elif tag == "ex":
            child = stored[node[2]]
            m = _exists_x(child, ctx.valid) if node[1] == 0 else _exists_y(child, ctx.valid)
        else:
            m = stored[node[1]] & stored[node[2]]
        if i < store_limit:
            stored[i] = m
        yield i, m


def exhaustive_transfer_sweep(max_x=3, max_nodes=4):
    """Run the full sweep; returns a report with the combination count and
    any violations (expected none).

    A violation entry identifies (factor tuple, principal index, formula
    index, cell) so it can be replayed against the slow evaluator.
    """
    structs = factor_structures()
    nodes = build_corpus(max_nodes)
    n_structs = len(structs)
    # Parents only ever reference nodes of smaller size; nodes of maximal
    # size are never referenced, so they need not be stored.
    max_size = _node_sizes(nodes)
    store_limit = next(
        (i for i, s in enumerate(max_size) if s == max(max_size)), len(nodes)
    )

    # Pass 1: factor-side masks for every formula, on the 17 base structures.
    base_ctx = _Contexts([(f,) for f in range(n_structs)], [0] * n_structs, structs)
    factor_masks = np.zeros((len(nodes), n_structs), dtype=np.uint64)
    for i, m in _formula_masks(nodes, base_ctx, store_limit):
        factor_masks[i] = m

    # Pass 2: all (tuple, principal index) pairs, chunked.
    pairs = []
    for nx in range(1, max_x + 1):
        for tup in iproduct(range(n_structs), repeat=nx):
            for j in range(nx):
                pairs.append((tup, j))

    bit_positions = [np.uint64(i * 8 + k) for i in range(2) for k in range(2)]
    one = np.uint64(1)
    checked = 0
    violations = []
    for start in range(0, len(pairs), CHUNK):
        batch = pairs[start : start + CHUNK]
        ctx = _Contexts([p[0] for p in batch], [p[1] for p in batch], structs)
        n_assign = ctx.universe_sizes.astype(np.int64) ** 2
        fids = ctx.fid
        for i, prod_mask in _formula_masks(nodes, ctx, store_limit):
            fb = factor_masks[i][fids]
            pulled = np.zeros_like(prod_mask)
            for c, pos in enumerate(bit_positions):
                bit = (fb >> pos) & one
                pulled |= ctx.cellmask[:, c] * bit
            bad = np.nonzero(pulled != prod_mask)[0]
            checked += int(n_assign.sum())
            for row in bad:
                tup, j = batch[row]
                diff = int(pulled[row] ^ prod_mask[row])
                cell = (diff & -diff).bit_length() - 1
                violations.append(
                    {
                        "factors": tup,
                        "principal_index": j,
                        "formula_index": i,
                        "cell": (cell // 8, cell % 8),
                    }
                )
    return {
        "formulas": len(nodes),
        "pairs": len(pairs),
        "checked": checked,
        "violations": violations,
    }


def _node_sizes(nodes):
    sizes = []
    for node in nodes:
        if node[0] == "atom":
            sizes.append(1)
        elif node[0] == "not":
            sizes.append(1 + sizes[node[1]])
        elif node[0] == "ex":
            sizes.append(1 + sizes[node[2]])
        else:
            sizes.append(1 + sizes[node[1]] + sizes[node[2]])
    return sizes
