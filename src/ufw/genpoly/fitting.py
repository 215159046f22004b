"""Exact generating-function fitting over index-set sums of a generalized
polynomial's sampled values."""

from fractions import Fraction
from itertools import combinations

from ..errors import CapExceeded, Underdetermined

# the fit builds one row of Fractions per non-empty index set, 2^r − 1 rows
# for r generators, and eliminates over all of them
ROW_CAP = 4096


def fit_generating_function(f, generators, d):
    """Fit f(Σ_{i∈I} aᵢ) = Σ_{α⊆I, 1≤|α|≤d} u(α) + c over all non-empty
    I ⊆ [r], exactly over the rationals.  Raises CapExceeded, before any
    row is built, when the 2^r − 1 index sets exceed ROW_CAP (r ≥ 13).

    Returns {"exact": True, "u": {α: value}, "c": value} on an exact fit,
    otherwise the same data for the best (pivot-row) solution plus
    {"max_residual", "failing_index_set"}.
    """
    generators = list(generators)
    r = len(generators)
    if r < d + 1:
        raise Underdetermined("need at least d+1 = %d generators, got %d" % (d + 1, r))
    if (1 << r) - 1 > ROW_CAP:
        raise CapExceeded("%d generators give %d index sets; cap %d" % (r, (1 << r) - 1, ROW_CAP))
    unknowns = []
    for size in range(1, d + 1):
        unknowns.extend(combinations(range(r), size))
    ncols = len(unknowns) + 1  # + constant c
    col_of = {a: i for i, a in enumerate(unknowns)}
    rows = []
    index_sets = []
    for imask in range(1, 1 << r):
        members = tuple(i for i in range(r) if imask & (1 << i))
        row = [Fraction(0)] * ncols
        for size in range(1, min(d, len(members)) + 1):
            for alpha in combinations(members, size):
                row[col_of[alpha]] = Fraction(1)
        row[-1] = Fraction(1)
        rhs = Fraction(f(sum(generators[i] for i in members)))
        rows.append((row, rhs))
        index_sets.append(members)

    # Exact Gaussian elimination; free variables pinned to 0.
    m = [row[:] + [rhs] for row, rhs in rows]
    nrows = len(m)
    pivot_cols = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        pivot_cols.append(col)
        rank += 1
    solution = [Fraction(0)] * ncols
    for i, col in enumerate(pivot_cols):
        solution[col] = m[i][-1]

    max_residual = Fraction(0)
    failing = None
    for (row, rhs), members in zip(rows, index_sets):
        resid = abs(sum(a * x for a, x in zip(row, solution)) - rhs)
        if resid > max_residual:
            max_residual = resid
            failing = members
    u = {alpha: solution[col_of[alpha]] for alpha in unknowns}
    out = {"exact": max_residual == 0, "u": u, "c": solution[-1]}
    if max_residual != 0:
        out["max_residual"] = max_residual
        out["failing_index_set"] = failing
    return out
