"""Independent witness checkers.

These re-validate certificates produced by the searches from first
principles, deliberately sharing no code with :mod:`ufw.largeness.search`
(no pruning, no shared enumeration helpers).  Each checker takes plain
data so it can also validate certificates loaded from JSON.
"""

from itertools import combinations, product as iproduct
from math import comb, factorial

# the number of parameters of each pattern kind
_PARAMS = {"ap": 1, "fs": 1, "clique": 2, "line": 1}


def _ints(values):
    """Every value is an exact int.  type(), not isinstance(): True and
    False are ints too, and a float such as 0.0 compares equal to one."""
    return all(type(v) is int for v in values)


def check_fs_witness(colors, generators, color, sums=None, distinct=True):
    """colors: color of i at colors[i-1] for [1..N]; generators strictly
    increasing positive (non-decreasing when ``distinct`` is False); all
    2^k−1 index-subset sums in range and of the stated color; ``sums`` (if
    given) must equal the recomputed distinct sums."""
    gens = list(generators)
    n = len(colors)
    if not _ints(colors) or not _ints(gens) or type(color) is not int:
        return False
    if sums is not None and not _ints(sums):
        return False
    if not gens or any(g <= 0 for g in gens):
        return False
    if any(a > b or (distinct and a == b) for a, b in zip(gens, gens[1:])):
        return False
    k = len(gens)
    all_sums = set()
    for size in range(1, k + 1):
        for idxs in combinations(range(k), size):
            all_sums.add(sum(gens[i] for i in idxs))
    if distinct and len(all_sums) != 2**k - 1:
        return False
    if sums is not None and sorted(all_sums) != sorted(sums):
        return False
    for s in all_sums:
        if not 1 <= s <= n or colors[s - 1] != color:
            return False
    return True


def check_ap_witness(colors, start, step, length, color):
    n = len(colors)
    if not _ints(colors) or not _ints((start, step, length, color)):
        return False
    if start < 1 or step < 1 or length < 1:
        return False
    for i in range(length):
        t = start + i * step
        if not 1 <= t <= n or colors[t - 1] != color:
            return False
    return True


def check_line_witness(colors, sigma, word, color):
    """colors: one per word of Σ^n in lex order, n = len(word); ``word``
    uses None for the variable positions (at least one required)."""
    if not any(w is None for w in word):
        return False
    if not _ints(colors) or not _ints(w for w in word if w is not None):
        return False
    if type(sigma) is not int or type(color) is not int:
        return False
    if sigma < 1 or len(colors) != sigma ** len(word):
        return False
    if any(w is not None and not 0 <= w < sigma for w in word):
        return False
    for a in range(sigma):
        idx = 0
        for w in word:
            idx = idx * sigma + (a if w is None else w)
        if colors[idx] != color:
            return False
    return True


def check_clique_witness(colors, nvertices, k, subset, color):
    """colors: one per k-subset of {0..n-1} in colex order; the subset
    must hold at least one k-edge."""
    if not _ints(colors) or not _ints(subset) or not _ints((nvertices, k, color)):
        return False
    subset = sorted(subset)
    if len(set(subset)) != len(subset) or not 1 <= k <= len(subset):
        return False
    if len(colors) != comb(nvertices, k):
        return False
    if any(not 0 <= v < nvertices for v in subset):
        return False
    for edge in combinations(subset, k):
        rank = 0
        for i, v in enumerate(edge):
            c = 1
            for j in range(i + 1):
                c = c * (v - j) // (j + 1)
            rank += c if v >= i + 1 else 0
        if colors[rank] != color:
            return False
    return True


def check_avoiding_coloring(pattern, r, colors):
    """Confirm an avoiding coloring from a threshold certificate: no
    instance of the pattern is monochromatic.  Recomputes the instances
    with plain itertools enumeration.  A pattern with an unknown kind, the
    wrong number of parameters, or a parameter below 1 (or a clique smaller
    than its edges) names no instances: ValueError."""
    kind = pattern[0] if pattern else None
    params = pattern[1:]
    if (
        kind not in _PARAMS
        or len(params) != _PARAMS[kind]
        or any(type(p) is not int or p < 1 for p in params)
        or (kind == "clique" and params[1] < params[0])
    ):
        raise ValueError("not a pattern: %r" % (pattern,))
    if type(r) is not int or not _ints(colors) or any(not 0 <= c < r for c in colors):
        return False
    if kind == "ap":
        n, length = len(colors), pattern[1]
        for start in range(1, n + 1):
            for step in range(1, n + 1):
                if start + (length - 1) * step > n:
                    break
                if len({colors[start + i * step - 1] for i in range(length)}) == 1:
                    return False
        return True
    if kind == "fs":
        n, k = len(colors), pattern[1]
        for gens in _sum_bounded_tuples(k, n):
            sums = {0}
            for g in gens:
                sums |= {s + g for s in sums}
            sums.discard(0)
            if len({colors[s - 1] for s in sums}) == 1:
                return False
        return True
    if kind == "clique":
        k, m = pattern[1], pattern[2]
        nv = 0
        while True:
            count = 1
            for i in range(k):
                count = count * (nv - i) // (i + 1)
            if count == len(colors):
                break
            nv += 1
            if nv > len(colors) + k + 1:
                return False
        edges = sorted(combinations(range(nv), k), key=lambda e: tuple(reversed(e)))
        rank = {e: i for i, e in enumerate(edges)}
        for subset in combinations(range(nv), m):
            cs = {colors[rank[e]] for e in combinations(subset, k)}
            if len(cs) == 1:
                return False
        return True
    if kind == "line":
        sigma = pattern[1]
        n = 0
        while sigma > 1 and sigma**n < len(colors):
            n += 1
        if sigma**n != len(colors):
            return False
        words = list(iproduct(range(sigma), repeat=n))
        rank = {w: i for i, w in enumerate(words)}
        for spots in iproduct(range(sigma + 1), repeat=n):
            if sigma not in spots:
                continue
            pts = [
                tuple(a if w == sigma else w for w in spots) for a in range(sigma)
            ]
            if len({colors[rank[p]] for p in pts}) == 1:
                return False
        return True


def _sum_bounded_tuples(k, n):
    """The non-decreasing k-tuples of positive ints whose total, their
    largest subset sum, is at most n, in lex order."""
    gens = [1] * k
    while sum(gens) <= n:
        yield tuple(gens)
        # raise the rightmost entry that can grow, and all after it to match
        head = sum(gens)
        for i in range(k - 1, -1, -1):
            head -= gens[i]
            if head + (k - i) * (gens[i] + 1) <= n:
                gens[i:] = [gens[i] + 1] * (k - i)
                break
        else:
            return


def check_dictator(voters, candidates, table, dictator):
    """Confirm a dictatorship certificate for an aggregation rule given as
    a table of order indices over all profiles.  Decodes profiles and
    orders locally (orders = permutations in lex order, worst to best;
    voter 0 is the most significant digit of the profile index).  The
    dictator must be an exact int in [0, voters)."""
    if type(dictator) is not int or not 0 <= dictator < voters:
        return False
    if not _ints(table):
        return False
    # refuse a table too short for its claim by bit lengths, before building
    # the big numbers: c! ≥ 2^(c−1), and c!^v ≥ 2^v once c! ≥ 2
    bits = len(table).bit_length()
    if type(candidates) is int and candidates > bits:
        return False
    fact = factorial(candidates)
    if fact >= 2 and voters > bits:
        return False
    if len(table) != fact**voters:
        return False
    for pidx, out in enumerate(table):
        digits = []
        rest = pidx
        for _ in range(voters):
            digits.append(rest % fact)
            rest //= fact
        digits.reverse()
        if out != digits[dictator]:
            return False
    return True
