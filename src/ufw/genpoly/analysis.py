"""Finite diagnostics for generalized polynomials: certified return-time
sets, (explicitly non-certified) Weyl-sum magnitudes, exact
generating-function fitting over index-set sums, and the sampled symmetric
degree."""

import random
from fractions import Fraction
from itertools import combinations

from ..discalc import sym_delta_k_eval
from ..errors import Inconclusive, PrecisionExhausted, Underdetermined
from .expr import (
    DEFAULT_CAP_BITS,
    DEFAULT_START_BITS,
    eval_interval,
    nearest_int,
    precision_schedule,
)


def _dist_to_int_verdict(iv, eps):
    """Certified three-way test for dist(x, ℤ) < eps on an interval.

    Returns True / False / None (None = undecidable at this width).
    """
    # Membership: the interval sits inside (k−eps, k+eps) for the integer
    # nearest its midpoint.
    k = nearest_int((iv.lo + iv.hi) / 2)
    if k - eps < iv.lo and iv.hi < k + eps:
        return True
    # Non-membership: the interval sits inside [k+eps, k+1−eps], and only
    # the cell k = ⌊lo⌋ can hold it.
    k = iv.lo.numerator // iv.lo.denominator
    if iv.lo >= k + eps and iv.hi <= k + 1 - eps:
        return False
    return None


def return_times(expr, eps, N, start_bits=DEFAULT_START_BITS, cap_bits=DEFAULT_CAP_BITS):
    """A_ε = {n ∈ [1..N] : dist(g(n), ℤ) < ε}, decided by certified interval
    comparison; undecidable n (at the precision cap) land in ``ambiguous``.
    """
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 2):
        raise ValueError("eps must lie in (0, 1/2)")
    members = []
    ambiguous = []
    schedule = precision_schedule(start_bits, cap_bits)
    for n in range(1, N + 1):
        verdict = None
        for bits in schedule:
            try:
                iv = eval_interval(expr, n, bits)
            except PrecisionExhausted:
                continue
            verdict = _dist_to_int_verdict(iv, eps)
            if verdict is not None:
                break
        if verdict is None:
            ambiguous.append(n)
        elif verdict:
            members.append(n)
    return members, ambiguous


def weyl_sum(alphas, ks, N):
    """|S_N| = |(1/N) Σ_{n=1..N} e^{2πi (k·α) n}|.

    Floating-point diagnostic — explicitly NOT certified.  The one exact
    special case: when k·α is an exact rational integer the summand is
    constantly 1 and the magnitude is returned as exactly 1.0.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if all(k == 0 for k in ks):
        raise ValueError("k must be non-zero")
    if len(alphas) != len(ks):
        raise ValueError("alphas and ks must have equal length")
    if all(a.kind == "rational" for a in alphas):
        theta = sum(Fraction(k) * a.payload[0] for k, a in zip(ks, alphas))
        if theta.denominator == 1:
            return 1.0
        theta_f = float(theta)
    else:
        theta_f = 0.0
        for k, a in zip(ks, alphas):
            iv = a.bracket(64)
            theta_f += k * float((iv.lo + iv.hi) / 2)
    import numpy as np  # the package's only numpy use, so loaded here

    n = np.arange(1, N + 1, dtype=np.float64)
    s = np.exp(2j * np.pi * theta_f * n).sum() / N
    return float(abs(s))


def fit_generating_function(f, generators, d):
    """Fit f(Σ_{i∈I} aᵢ) = Σ_{α⊆I, 1≤|α|≤d} u(α) + c over all non-empty
    I ⊆ [r], exactly over the rationals.

    Returns {"exact": True, "u": {α: value}, "c": value} on an exact fit,
    otherwise the same data for the best (pivot-row) solution plus
    {"max_residual", "failing_index_set"}.
    """
    generators = list(generators)
    r = len(generators)
    if r < d + 1:
        raise Underdetermined("need at least d+1 = %d generators, got %d" % (d + 1, r))
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


def empirical_sym_degree(f, window, trials, seed, cap=8):
    """Smallest k such that Δ̄^k f is constant on all sampled tuples, with
    that constant; each tuple's k+1 points are drawn uniformly from
    [1..window].  A finite-shadow diagnostic: for true polynomials it
    recovers deg f with constant (−1)^{deg f} f(0).
    """
    if window < 1 or trials < 1:
        raise ValueError("window and trials must be positive")
    rng = random.Random(seed)
    for k in range(1, cap + 1):
        values = set()
        for _ in range(trials):
            points = [rng.randint(1, window) for _ in range(k + 1)]
            values.add(sym_delta_k_eval(f, points))
            if len(values) > 1:
                break
        if len(values) == 1:
            return k, values.pop()
    raise Inconclusive("no k ≤ %d gave a constant k-fold difference" % cap)
