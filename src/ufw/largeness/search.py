"""Monochromatic-structure searches over finite colored domains.

Domains: integer intervals [1..N] (1-based), edge sets of complete
k-uniform hypergraphs (vertices 0-based, edges in colex order), and word
cubes Σ^n (alphabet 0-based, words in lex order with position 0 most
significant).  Abstract index sets [m] elsewhere in the package are
0-based; intervals here start at 1.

One enumerator, :func:`_instances`, lists the instances of each pattern
in a fixed order.  The point searches (``find_mono_*``) return the first
monochromatic one, and :func:`pattern_configs` hands all of them to the
universal (for-all-colorings) check behind :func:`threshold_number`, a
pruned depth-first search, :func:`first_uncovered_coloring`, with color 0
pinned at the first domain position (a sound color-symmetry reduction).

The finite-sums searches and each universal check open their own node
meter, which raises BudgetExhausted once NODE_CAP nodes are visited or
TIME_CAP_MS milliseconds have passed.
"""

import time
from itertools import combinations, product as iproduct
from math import comb

from ..errors import BudgetExhausted
from ..record import Record

NODE_CAP = 10**7
TIME_CAP_MS = 60000


class IntervalColoring(Record):
    """Coloring of [1..n]; colors[i-1] is the color of i."""

    _fields = ("n", "colors")

    def __init__(self, n, colors):
        if n < 1:
            raise ValueError("need one color per element of [1..n]")
        object.__setattr__(self, "n", n)
        _store_colors(self, colors, n, "element of [1..n]")


class EdgeColoring(Record):
    """Coloring of the complete k-uniform hypergraph on vertices 0..n-1;
    colors[j] is the color of the j-th k-subset in colex order."""

    _fields = ("n", "k", "colors")

    def __init__(self, n, k, colors):
        if n < 1:
            raise ValueError("vertex count must be at least 1, got %d" % n)
        if k < 1:
            raise ValueError("uniformity must be at least 1, got %d" % k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        _store_colors(self, colors, comb(n, k), "%d-subset" % k)


class WordColoring(Record):
    """Coloring of Σ^n for Σ = {0..sigma-1}; colors[j] is the color of the
    j-th word in lex order (position 0 most significant)."""

    _fields = ("sigma", "n", "colors")

    def __init__(self, sigma, n, colors):
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "n", n)
        _store_colors(self, colors, sigma**n, "word of length %d" % n)


def _store_colors(coloring, colors, count, what):
    """Set a coloring's colors, frozen, which must be one per domain element
    (count of them), each an int ≥ 0 (checked with type(): True and False
    are ints too)."""
    colors = tuple(colors)
    if len(colors) != count:
        raise ValueError("need one color per %s" % what)
    if any(type(c) is not int or c < 0 for c in colors):
        raise ValueError("colors must be integers ≥ 0")
    object.__setattr__(coloring, "colors", colors)


def edge_list(n, k):
    """All k-subsets of {0..n-1} in colex order (sorted by reversed tuple)."""
    return sorted(combinations(range(n), k), key=lambda e: tuple(reversed(e)))


class FSWitness(Record):
    """Strictly increasing generators whose non-empty subset sums all share
    one color; ``sums`` lists the distinct sums in increasing order."""

    _fields = ("generators", "color", "sums")

    def __init__(self, generators, color, sums):
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "color", color)
        object.__setattr__(self, "sums", sums)


class APWitness(Record):
    _fields = ("start", "step", "length", "color")

    def __init__(self, start, step, length, color):
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "color", color)


class LineWitness(Record):
    """Variable word: tuple over Σ ∪ {None}, None marking the variable
    positions (at least one)."""

    _fields = ("word", "color")

    def __init__(self, word, color):
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "color", color)


def _node_meter():
    """A function to call with the number of search nodes visited since the
    last call (one by default).  It raises BudgetExhausted once the nodes
    exceed NODE_CAP or TIME_CAP_MS has passed, each read when the meter
    opens."""
    node_cap = NODE_CAP
    deadline = time.monotonic() + TIME_CAP_MS / 1000.0
    nodes = 0

    def tick(count=1):
        nonlocal nodes
        nodes += count
        if nodes > node_cap or time.monotonic() > deadline:
            raise BudgetExhausted("search budget exhausted", nodes=nodes)

    return tick


def _fs_tuples(n, k, gap, bounded, tick, keep):
    """Yield (generators, sums) for each tuple of k generators in [1..n],
    in lex order, each generator at least ``gap`` above the one before;
    ``sums`` lists the 2^k−1 index-subset sums, repeats included.

    ``bounded`` requires every sum ≤ n.  ``tick()`` is called once per
    generator tried, and ``keep(sums, new)`` decides whether the tuple so
    far, with sums ``sums`` and the latest generator's new sums ``new``,
    is extended.
    """

    def walk(gens, sums):
        if len(gens) == k:
            yield gens, sums
            return
        for g in range(gens[-1] + gap if gens else 1, n + 1):
            tick()
            new = [g] + [s + g for s in sums]
            if bounded and new[-1] > n:
                break  # sums only grow with g; no larger generator can fit
            if keep(sums, new):
                yield from walk(gens + (g,), sums + new)

    return walk((), [])


def _keep_all(sums, new):
    return True


def _instances(pattern, size):
    """Yield (key, positions) for each instance of ``pattern`` in the
    size-``size`` domain (see :func:`pattern_configs`), in scan order:

    - ap: key (start, step), by start then step;
    - fs: key the generator tuple, non-decreasing (x+x=2x counts, so fs(2)
      is the classical Schur pattern {x, y, x+y} with x ≤ y), lex order;
    - clique: key the vertex subset, lex order;
    - line: key the variable word (None marks the variable), lex order
      over Σ ∪ {variable} with the variable last.

    ``positions`` is the sorted tuple of distinct domain positions.
    """
    _check_pattern(pattern)
    kind = pattern[0]
    if kind == "ap":
        length = pattern[1]
        for start in range(size):
            steps = (size - 1 - start) // (length - 1) if length > 1 else 1
            for step in range(1, steps + 1):
                yield (start + 1, step), tuple(range(start, start + length * step, step))
    elif kind == "fs":
        for gens, sums in _fs_tuples(size, pattern[1], 0, True, lambda: None, _keep_all):
            yield gens, tuple(sorted({s - 1 for s in sums}))
    elif kind == "clique":
        k, m = pattern[1], pattern[2]
        # the edge e_0 < … < e_(k-1) has colex rank Σ C(e_i, i+1), its index
        # in edge_list(size, k)
        weights = [[comb(e, i + 1) for e in range(size)] for i in range(k)]
        for subset in combinations(range(size), m):
            ranks = [sum(map(list.__getitem__, weights, e)) for e in combinations(subset, k)]
            yield subset, tuple(sorted(ranks))
    elif kind == "line":
        sigma = pattern[1]
        powers = [sigma ** (size - 1 - i) for i in range(size)]
        for letters in iproduct(range(sigma + 1), repeat=size):
            if sigma not in letters:
                continue
            # the point whose variable letter is a has lex rank base + a·weight
            base = sum(p * a for p, a in zip(powers, letters) if a != sigma)
            weight = sum(p for p, a in zip(powers, letters) if a == sigma)
            word = tuple(None if a == sigma else a for a in letters)
            yield word, tuple(base + a * weight for a in range(sigma))
    else:
        raise ValueError("unknown pattern kind %r" % (kind,))


def _first_mono(colors, instances):
    """(key, color) of the first instance whose positions all share one
    color, or None."""
    for key, positions in instances:
        c = colors[positions[0]]
        for p in positions:
            if colors[p] != c:
                break
        else:
            return key, c
    return None


def find_mono_fs(coloring, k, distinct=True):
    """Search [1..N] for generators x_1<…<x_k whose 2^k−1 index-subset sums
    are all ≤ N and monochromatic.

    ``distinct=False`` relaxes to non-decreasing generators (the classical
    Schur reading at k=2, where x+x=2x counts).  Returns an FSWitness, or
    None when the exhaustive search proves no witness exists.  Raises
    BudgetExhausted when the node meter runs out first (a strictly weaker
    answer than None).
    """
    _check_pattern(("fs", k))
    colors = coloring.colors

    def keep(sums, new):
        if distinct and len(set(sums + new)) < len(sums) + len(new):
            return False  # proper FS witnesses carry 2^k−1 pairwise distinct sums
        c = colors[(sums or new)[0] - 1]
        for s in new:
            if colors[s - 1] != c:
                return False
        return True

    tuples = _fs_tuples(coloring.n, k, 1 if distinct else 0, True, _node_meter(), keep)
    for gens, sums in tuples:  # the first tuple kept to length k
        return FSWitness(gens, colors[gens[0] - 1] if gens else None, tuple(sorted(set(sums))))
    return None


def find_mono_ap(coloring, length):
    """First monochromatic arithmetic progression of the given length in
    [1..N] (by start, then step), or None; the scan is exhaustive."""
    hit = _first_mono(coloring.colors, _instances(("ap", length), coloring.n))
    return None if hit is None else APWitness(*hit[0], length, hit[1])


def find_mono_line(coloring):
    """First monochromatic combinatorial line of the word coloring, or
    None; the scan over all variable words is exhaustive."""
    hit = _first_mono(coloring.colors, _instances(("line", coloring.sigma), coloring.n))
    return None if hit is None else LineWitness(*hit)


def find_mono_clique(coloring, m):
    """First vertex subset of size m (lex order) whose k-edges all share
    one color, as (subset, color), or None; the scan is exhaustive."""
    _check_pattern(("clique", coloring.k, m))
    return _first_mono(coloring.colors, _instances(("clique", coloring.k, m), coloring.n))


# --- universal checks / threshold numbers ---------------------------------


def pattern_configs(pattern, size):
    """(domain_size, configs) for the universal check at the given size.

    Domains: ap/fs → [1..size] (position = value−1); clique → edges of the
    complete k-graph on ``size`` vertices, colex; line → words of Σ^size,
    lex.  Each config is the sorted tuple of positions of one pattern
    instance.
    """
    configs = [positions for _, positions in _instances(pattern, size)]
    if pattern[0] == "clique":
        return comb(size, pattern[1]), configs
    if pattern[0] == "line":
        return pattern[1] ** size, configs
    return size, configs


class ThresholdResult(Record):
    """value: least domain size at which every r-coloring contains the
    pattern (None when the cap was reached first); failure_coloring: an
    explicit avoiding coloring at value−1 (None when value ≤ 1)."""

    _fields = ("pattern", "r", "value", "cap", "failure_coloring")

    def __init__(self, pattern, r, value, cap, failure_coloring=None):
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "failure_coloring", failure_coloring)


def coloring_from_index(idx, domain_size, r):
    colors = []
    for _ in range(domain_size):
        colors.append(idx % r)
        idx //= r
    return tuple(colors)


def first_uncovered_coloring(domain_size, r, configs):
    """Index of the first r-coloring of ``domain_size`` positions with no
    monochromatic config, or -1 when every coloring has one.

    A config is a tuple of positions.  Colorings are ordered as an odometer
    (index = Σ colors[p]·r^p, position 0 least significant), and position 0
    is pinned to color 0, a sound symmetry reduction for universal checks
    since color permutations preserve monochromatic configs.

    Depth-first search: positions are colored from the most significant
    down, colors tried in ascending order, so the first full coloring
    reached has the least index.  Each config is checked once, when its
    lowest position is colored, and a color completing a monochromatic
    config is rejected there.  Iterative, so large domains cannot exhaust
    the recursion limit.  Each backtrack, which closes one node of the
    search tree, ticks the node meter in batches of 1024; BudgetExhausted
    is raised when its node or time cap runs out first.
    """
    if any(not cfg for cfg in configs):
        return -1  # an empty config is monochromatic under every coloring
    # closing[p]: the other positions of each config whose lowest one is p
    closing = [[] for _ in range(domain_size)]
    for cfg in configs:
        low = min(cfg)
        closing[low].append(tuple(q for q in cfg if q != low))
    colors = [-1] * domain_size
    p = domain_size - 1
    tick = _node_meter()
    nodes = 0  # not yet passed to tick
    while p >= 0:
        c = colors[p] + 1
        if c == (r if p else 1):  # colors at p exhausted: backtrack
            colors[p] = -1
            p += 1
            if p == domain_size:
                return -1
            nodes += 1
            if nodes == 1024:
                tick(nodes)
                nodes = 0
            continue
        colors[p] = c
        for rest in closing[p]:
            for q in rest:
                if colors[q] != c:
                    break
            else:
                break  # monochromatic config: try the next color at p
        else:
            p -= 1
    index = 0
    for c in reversed(colors):
        index = index * r + c
    return index


def universal_check(pattern, r, size):
    """(covered, avoiding) — covered is True when every r-coloring of the
    size-``size`` domain contains the pattern; otherwise ``avoiding`` is an
    explicit avoiding coloring (tuple of colors per position)."""
    _check_colors(r)
    domain, configs = pattern_configs(pattern, size)
    idx = first_uncovered_coloring(domain, r, configs)
    if idx < 0:
        return True, None
    return False, coloring_from_index(idx, domain, r)


def threshold_number(pattern, r, cap):
    """Least domain size at which the pattern is unavoidable for r colors.

    Verified in both directions: an explicit avoiding coloring below the
    threshold, and an exhaustive universal check at it.  ``pattern`` is
    ("ap", len) | ("fs", k) | ("line", sigma) | ("clique", k, m).
    """
    _check_colors(r)
    _check_pattern(pattern)
    last_avoiding = None
    start = 1 if pattern[0] != "clique" else pattern[1]
    for size in range(start, cap + 1):
        covered, avoiding = universal_check(pattern, r, size)
        if covered:
            return ThresholdResult(pattern, r, size, cap, last_avoiding)
        last_avoiding = avoiding
    return ThresholdResult(pattern, r, None, cap, last_avoiding)


def _check_colors(r):
    if r < 1:
        raise ValueError("need at least one color, got %d" % r)


def _check_pattern(pattern):
    """Every parameter is at least 1 (a progression's length, a generator
    count, an edge size, an alphabet size), and a clique has at least one
    edge: m ≥ k."""
    if pattern[0] == "ap" and pattern[1] < 1:
        raise ValueError("a progression needs at least one term, got length %d" % pattern[1])
    if any(p < 1 for p in pattern[1:]):
        raise ValueError("pattern parameters must be at least 1, got %r" % (pattern,))
    if pattern[0] == "clique" and pattern[2] < pattern[1]:
        _, k, m = pattern
        raise ValueError("a clique of size %d has no %d-edges to color" % (m, k))


# --- IP* probe -----------------------------------------------------------


def ipstar_probe(a, n, k, scope="sums"):
    """Does ``a`` ⊆ [1..n] meet FS(x_1..x_k) for every increasing tuple?

    ``scope`` controls the tuple space: "sums" requires every subset sum
    ≤ n (the default bounded reading), "generators" only bounds the
    generators themselves by n, with sums allowed to leave [1..n].
    The counterexample is the lexicographically least failing tuple.  A
    prefix whose sums already meet ``a`` cannot fail, so it is not
    extended.  Each generator tried is one node of the node meter;
    BudgetExhausted is raised when its node or time cap runs out first.
    """
    if scope not in ("sums", "generators"):
        raise ValueError("scope must be 'sums' or 'generators'")
    if n < 1 or k < 1:
        raise ValueError("n and k must be at least 1")
    a = set(a)
    keep = lambda sums, new: a.isdisjoint(new)
    for gens, _ in _fs_tuples(n, k, 1, scope == "sums", _node_meter(), keep):
        return {"holds": False, "counterexample": gens}  # its sums all miss a
    return {"holds": True, "counterexample": None}


def fs_multiple_window(xs):
    """For a positive-integer sequence of length m, a non-empty contiguous
    index window whose sum is divisible by m (always exists: two of the
    m+1 prefix sums agree mod m).  Returns (i, j) with sum(xs[i:j]) ≡ 0."""
    xs = list(xs)
    m = len(xs)
    seen = {0: 0}
    total = 0
    for j, x in enumerate(xs, start=1):
        total = (total + x) % m
        if total in seen:
            return seen[total], j
        seen[total] = j
    raise AssertionError("pigeonhole cannot fail on %d prefixes" % (m + 1))
