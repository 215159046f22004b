"""Reference answers for the benchmark's correctness gate.

Nothing here imports ``ufw``: every expected value is either a frozen
constant (OEIS counts, known Ramsey-type thresholds, digits of pi) or is
recomputed from first principles with plain loops, so a defect in the code
under test cannot also hide in its oracle.
"""

from fractions import Fraction
from itertools import combinations, permutations

# --- frozen constants --------------------------------------------------------

#: labelled semigroups of order n (OEIS A023814)
SEMIGROUP_COUNTS = {1: 1, 2: 8, 3: 113, 4: 3492}

#: least sizes at which every 2-colouring contains the pattern:
#: R(3,3), W(3;2), Schur S(2)+1 (x+x counts), Hales-Jewett HJ(2,2)
THRESHOLDS_R2 = {
    ("clique", 2, 3): 6,
    ("ap", 3): 9,
    ("fs", 2): 5,
    ("line", 2): 2,
}

#: Schur number S(3) = 13: [1..13] has a 3-colouring with no x, y, x+y (x <= y)
SCHUR_3 = 13

#: pi to 64 decimals; enough to round pi*n exactly for n far beyond 10^6
PI = Fraction("3.1415926535897932384626433832795028841971693993751058209749445923")
_PI_ERROR = Fraction(1, 10**64)


def round_pi_times(n):
    """round(pi * n) for an integer n, certified against the digits above."""
    q = PI * n
    frac = q - (q.numerator // q.denominator)
    if abs(frac - Fraction(1, 2)) <= abs(n) * _PI_ERROR:
        raise ValueError("pi digits too short to round pi * %d" % n)
    return (2 * q.numerator + q.denominator) // (2 * q.denominator)


# --- colourings ----------------------------------------------------------------


def ap_instances(n, length):
    """Every arithmetic progression of ``length`` terms inside [1..n]."""
    out = []
    for start in range(1, n + 1):
        for step in range(1, n):
            last = start + (length - 1) * step
            if last > n:
                break
            out.append([start + i * step for i in range(length)])
    return out


def avoids_ap(colors, length):
    """True when no ``length``-term progression of [1..len(colors)] is
    monochromatic."""
    return all(
        len({colors[t - 1] for t in terms}) > 1 for terms in ap_instances(len(colors), length)
    )


def avoids_schur(colors):
    """True when no x <= y with x + y <= n has x, y, x+y of one colour."""
    n = len(colors)
    for x in range(1, n + 1):
        for y in range(x, n + 1 - x):
            if colors[x - 1] == colors[y - 1] == colors[x + y - 1]:
                return False
    return True


def colex_edges(nvertices):
    """Edges of K_n in colex order (sorted by larger endpoint first)."""
    return [(a, b) for b in range(nvertices) for a in range(b)]


def avoids_triangle(colors):
    """True when the edge colouring (colex order) has no monochromatic K_3."""
    nv = 0
    while nv * (nv - 1) // 2 < len(colors):
        nv += 1
    rank = {e: i for i, e in enumerate(colex_edges(nv))}
    for a, b, c in combinations(range(nv), 3):
        if colors[rank[(a, b)]] == colors[rank[(a, c)]] == colors[rank[(b, c)]]:
            return False
    return True


def avoids_binary_line(colors):
    """True when the colouring of {0,1}^d (lex order) has no monochromatic
    combinatorial line."""
    d = (len(colors) - 1).bit_length()
    for spec in range(3**d):
        word, rest, has_var = [], spec, False
        for _ in range(d):
            word.append(rest % 3)
            has_var |= rest % 3 == 2
            rest //= 3
        if not has_var:
            continue
        points = []
        for a in (0, 1):
            idx = 0
            for w in reversed(word):
                idx = idx * 2 + (a if w == 2 else w)
            points.append(idx)
        if colors[points[0]] == colors[points[1]]:
            return False
    return True


#: pattern kind -> avoidance test, for the patterns the benchmark uses:
#: ("ap", length), ("fs", 2), ("clique", 2, 3) and ("line", 2)
AVOIDS = {
    "ap": lambda colors, pattern: avoids_ap(colors, pattern[1]),
    "fs": lambda colors, pattern: avoids_schur(colors),
    "clique": lambda colors, pattern: avoids_triangle(colors),
    "line": lambda colors, pattern: avoids_binary_line(colors),
}


def ipstar_holds(members, n, k):
    """Does ``members`` meet FS(x_1 < ... < x_k) for every tuple whose sums
    all lie in [1..n]?  Brute force over k-subsets."""
    members = set(members)
    for gens in combinations(range(1, n + 1), k):
        sums = {sum(s) for size in range(1, k + 1) for s in combinations(gens, size)}
        if max(sums) <= n and not sums & members:
            return False
    return True


# --- semigroups -------------------------------------------------------------------


def kernel(mul):
    """K(S) as the intersection of the principal ideals S^1 x S^1."""
    n = len(mul)
    out = set(range(n))
    for x in range(n):
        left = {x} | {mul[s][x] for s in range(n)}
        ideal = left | {mul[a][t] for a in left for t in range(n)}
        out &= ideal
    return tuple(sorted(out))


def minimal_left_ideals(mul):
    """The minimal left ideals S k for k in K(S), sorted."""
    n = len(mul)
    return sorted({tuple(sorted({mul[s][k] for s in range(n)})) for k in kernel(mul)})


def idempotents(mul):
    return tuple(x for x in range(len(mul)) if mul[x][x] == x)


def is_associative(mul):
    n = len(mul)
    return all(
        mul[mul[a][b]][c] == mul[a][mul[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def direct_product(mul_s, mul_t):
    ns, nt = len(mul_s), len(mul_t)
    return [
        [mul_s[a // nt][c // nt] * nt + mul_t[a % nt][c % nt] for c in range(ns * nt)]
        for a in range(ns * nt)
    ]


# --- set families -------------------------------------------------------------------


def principal_masks(n, x):
    return [m for m in range(1 << n) if m >> x & 1]


def classify(n, masks):
    """not-fip / fip-only / filter / ultrafilter, straight from the axioms."""
    masks = set(masks)
    full = (1 << n) - 1
    inter = full
    for m in masks:
        inter &= m
    if masks and not inter:
        return "not-fip"
    upward = all(b in masks for a in masks for b in range(1 << n) if a & b == a)
    meets = all(a & b in masks for a in masks for b in masks)
    if not (full in masks and 0 not in masks and upward and meets):
        return "fip-only"
    if all(a in masks or full & ~a in masks for a in range(1 << n)):
        return "ultrafilter"
    return "filter"


def random_family(rng, n):
    """A seeded family on {0..n-1} as sorted masks: an ultrafilter, a
    principal filter, arbitrary members, or members sharing a point."""
    kind = rng.randrange(4)
    full = (1 << n) - 1
    if kind == 0:  # principal ultrafilter
        return principal_masks(n, rng.randrange(n))
    if kind == 1:  # principal filter of a random non-empty set
        base = rng.randrange(1, full + 1)
        return [a for a in range(full + 1) if a & base == base]
    if kind == 2:  # random members
        return sorted(rng.sample(range(full + 1), rng.randrange(1, 6)))
    # random members with a common point
    x = 1 << rng.randrange(n)
    return sorted({rng.randrange(full + 1) | x for _ in range(rng.randrange(1, 6))})


def star(n, masks):
    return [b for b in range(1 << n) if all(a & b for a in masks)]


def filter_closure(n, masks):
    """Supersets of finite intersections of the members (and of X)."""
    bases = {(1 << n) - 1}
    for m in masks:
        bases |= {b & m for b in bases}
    return [a for a in range(1 << n) if any(b & a == b for b in bases)]


def to_masks(members):
    out = []
    for member in members:
        m = 0
        for i in member:
            m |= 1 << i
        out.append(m)
    return sorted(out)


# --- elections ------------------------------------------------------------------------


def orders(m):
    """Strict orders on m candidates, worst to best, lexicographic."""
    return list(permutations(range(m)))


def profile(voters, m, pidx):
    """Per-voter order indices; voter 0 is the most significant digit."""
    base = len(orders(m))
    digits = []
    for _ in range(voters):
        digits.append(pidx % base)
        pidx //= base
    return digits[::-1]


def dictator_table(voters, m, dictator):
    fact = len(orders(m))
    return [profile(voters, m, p)[dictator] for p in range(fact**voters)]


def is_dictatorship(voters, m, table):
    return any(table == dictator_table(voters, m, v) for v in range(voters))


def prefers(order, a, b):
    """a below b in the worst-to-best order."""
    return order.index(a) < order.index(b)


def iia_witness_holds(voters, m, table, witness):
    """An IIA witness (p1, p2, (a, b)): every voter compares a, b alike in
    both profiles, yet the social orders disagree on a, b."""
    p1, p2, (a, b) = witness
    ords = orders(m)
    o1, o2 = profile(voters, m, p1), profile(voters, m, p2)
    voters_agree = all(
        prefers(ords[x], a, b) == prefers(ords[y], a, b) for x, y in zip(o1, o2)
    )
    return voters_agree and prefers(ords[table[p1]], a, b) != prefers(ords[table[p2]], a, b)


def unanimity_witness_holds(voters, m, table, witness):
    """A unanimity witness (p, p, (a, b)): all voters share one order that
    puts a below b, and the social order does not."""
    p, _, (a, b) = witness
    ords = orders(m)
    digits = profile(voters, m, p)
    return (
        len(set(digits)) == 1
        and prefers(ords[digits[0]], a, b)
        and not prefers(ords[table[p]], a, b)
    )


def borda_table(voters, m):
    """Borda count, ties to the lower candidate index; never dictatorial for
    two or more voters."""
    ords = orders(m)
    lookup = {o: i for i, o in enumerate(ords)}
    table = []
    for p in range(len(ords) ** voters):
        score = [0] * m
        for oi in profile(voters, m, p):
            for pos, cand in enumerate(ords[oi]):
                score[cand] += pos
        table.append(lookup[tuple(sorted(range(m), key=lambda c: (score[c], -c)))])
    return table


# --- exact arithmetic ---------------------------------------------------------------------


def horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def sym_delta_k_value(coeffs, x0, xs):
    """The k-fold symmetric difference at (x0, x1..xk) by inclusion-exclusion
    over the non-empty index sets of the k+1 points."""
    points = [x0] + list(xs)
    k = len(xs)
    total = Fraction(0)
    for subset in range(1, 1 << (k + 1)):
        size = bin(subset).count("1")
        s = sum(points[i] for i in range(k + 1) if subset >> i & 1)
        total += (-1) ** (k + 1 - size) * horner(coeffs, s)
    return total


def binomial(x, n):
    out = Fraction(1)
    for i in range(n):
        out = out * (x - i) / (i + 1)
    return out


def zeckendorf(n):
    """Digits of n >= 1 over the weights 1, 2, 3, 5, ... (least significant
    first) by the greedy rule."""
    weights = [1, 2]
    while weights[-1] <= n:
        weights.append(weights[-1] + weights[-2])
    digits = [0] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        if weights[i] <= n:
            digits[i] = 1
            n -= weights[i]
    while digits and digits[-1] == 0:
        digits.pop()
    return digits


def dfao_value(tau, lam, init, in_base, out_base, n):
    """f(n) = sum_i lam(q_i, d_i) out_base^i over the base-``in_base``
    digits d_i of n, least significant first."""
    q, total, i = init, 0, 0
    while n:
        d = n % in_base
        total += lam[q][d] * out_base**i
        q = tau[q][d]
        n //= in_base
        i += 1
    return total
