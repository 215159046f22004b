"""`search` workload: Ramsey-type searches and semigroup enumeration, called
in-process.

It mixes full scans that prove a pattern unavoidable with scans that stop at
an avoiding colouring, and the two-colour bitmask path with the three-colour
odometer path, so a search rewrite that helps one kind and hurts the other
shows in ``pass_s``.  Semigroup enumeration to order 4 rides along.  Every
avoiding colouring and witness is re-checked by ``largeness.checkers`` and by
the plain-loop oracles.
"""

import itertools
import random

from harness import expect
import oracles

from ufw import largeness, semigroup
from ufw.largeness import checkers

#: order-4 tables per kernel-query task
QUERY_CHUNK = 175
#: seeded colourings per point-search task (about 7 ms each), and tasks
#: per search kind
POINT_BATCH = {"ap": 375, "schur": 275, "clique": 160, "line": 90}
POINT_TASKS = 3


def _certify_avoiding(ctx, pattern, r, colors, domain):
    expect(colors is not None and len(colors) == domain, "largeness",
           "%s: no avoiding colouring of the %d-position domain" % (pattern, domain))
    ok = ctx.call("largeness.checkers", checkers.check_avoiding_coloring, pattern, r, colors)
    ctx.count("largeness.checkers.certificates")
    expect(ok, "largeness.checkers", "%s: checker rejected an avoiding colouring" % (pattern,))
    expect(oracles.AVOIDS[pattern[0]](colors, pattern) and max(colors) < r, "largeness",
           "%s: colouring contains the pattern" % (pattern,))


def _domain(pattern, size):
    kind = pattern[0]
    if kind == "clique":
        return size * (size - 1) // 2
    if kind == "line":
        return pattern[1] ** size
    return size


def threshold_task(pattern, r, cap, expected):
    """threshold_number against a frozen value (None: not reached by cap)."""
    start = pattern[1] if pattern[0] == "clique" else 1

    def run(ctx):
        res = ctx.call("largeness", largeness.threshold_number, pattern, r, cap)
        last = cap if res.value is None else res.value
        ctx.count("largeness.sizes_scanned", last - start + 1)
        expect(res.value == expected, "largeness",
               "%s r=%d: threshold %s, expected %s" % (pattern, r, res.value, expected))
        # the avoiding colouring is for the largest size that is not covered
        avoided = cap if res.value is None else res.value - 1
        _certify_avoiding(ctx, pattern, r, res.failure_coloring, _domain(pattern, avoided))

    return run


def universal_task(pattern, r, size, covered):
    def run(ctx):
        got, avoiding = ctx.call("largeness", largeness.universal_check, pattern, r, size)
        ctx.count("largeness.sizes_scanned")
        expect(got == covered, "largeness",
               "%s r=%d n=%d: covered=%s, expected %s" % (pattern, r, size, got, covered))
        if covered:
            expect(avoiding is None, "largeness", "covered check returned a colouring")
        else:
            _certify_avoiding(ctx, pattern, r, avoiding, _domain(pattern, size))

    return run


def enumerate_task(n, store):
    def run(ctx):
        tables = ctx.call("semigroup", lambda: list(semigroup.enumerate_associative_tables(n)))
        ctx.count("semigroup.tables", len(tables))
        muls = [t.mul for t in tables]
        expect(len(muls) == oracles.SEMIGROUP_COUNTS[n], "semigroup",
               "order %d: %d tables, A023814 says %d"
               % (n, len(muls), oracles.SEMIGROUP_COUNTS[n]))
        expect(len(set(muls)) == len(muls), "semigroup", "order %d: duplicate tables" % n)
        expect(all(oracles.is_associative(m) for m in muls), "semigroup",
               "order %d: a non-associative table" % n)
        store[n] = tables

    return run


def kernel_query_task(orders, chunk, store):
    """kernel and minimal_left_ideals on a slice of the enumerated tables."""

    def queries(tables):
        return [(semigroup.kernel(t), semigroup.minimal_left_ideals(t)) for t in tables]

    def run(ctx):
        tables = [t for n in orders for t in store[n]][chunk]
        answers = ctx.call("semigroup", queries, tables)
        for table, (ker, lefts) in zip(tables, answers):
            expect(tuple(ker) == oracles.kernel(table.mul), "semigroup",
                   "kernel of %s" % (table.mul,))
            expect(sorted(map(tuple, lefts)) == oracles.minimal_left_ideals(table.mul),
                   "semigroup", "minimal left ideals of %s" % (table.mul,))

    return run


def _colourings(rng, count, sizes, length_of):
    out = []
    for _ in range(count):
        size = rng.choice(sizes)
        out.append((size, tuple(rng.randrange(2) for _ in range(length_of(size)))))
    return out


def ap_point_task(inputs):
    """Every 2-colouring of [1..n], n >= W(3;2) = 9, has a monochromatic 3-AP."""

    def run(ctx):
        found = ctx.call("largeness", lambda: [
            largeness.find_mono_ap(largeness.IntervalColoring(n, c), 3) for n, c in inputs])
        expect(all(w is not None for w in found), "largeness", "no 3-AP found")
        ok = ctx.call("largeness.checkers", lambda: [
            checkers.check_ap_witness(c, w.start, w.step, w.length, w.color)
            for (_, c), w in zip(inputs, found)])
        ctx.count("largeness.checkers.certificates", len(ok))
        expect(all(ok), "largeness.checkers", "3-AP witness rejected")

    return run


def clique_point_task(inputs):
    """Every 2-colouring of K_6 (R(3,3) = 6) has a monochromatic triangle."""

    def run(ctx):
        found = ctx.call("largeness", lambda: [
            largeness.find_mono_clique(largeness.EdgeColoring(n, 2, c), 3) for n, c in inputs])
        expect(all(w is not None for w in found), "largeness", "no triangle found")
        ok = ctx.call("largeness.checkers", lambda: [
            checkers.check_clique_witness(c, n, 2, subset, color)
            for (n, c), (subset, color) in zip(inputs, found)])
        ctx.count("largeness.checkers.certificates", len(ok))
        expect(all(ok), "largeness.checkers", "triangle witness rejected")

    return run


def schur_point_task(inputs):
    """Every 2-colouring of [1..n], n >= 5, has x <= y with x, y, x+y alike."""

    def run(ctx):
        found = ctx.call("largeness", lambda: [
            largeness.find_mono_fs(largeness.IntervalColoring(n, c), 2, distinct=False)
            for n, c in inputs])
        expect(all(w is not None for w in found), "largeness", "no Schur triple found")
        ok = ctx.call("largeness.checkers", lambda: [
            checkers.check_fs_witness(c, w.generators, w.color, w.sums, distinct=False)
            for (_, c), w in zip(inputs, found)])
        ctx.count("largeness.checkers.certificates", len(ok))
        expect(all(ok), "largeness.checkers", "Schur witness rejected")

    return run


def line_point_task(inputs):
    """Every 2-colouring of {0,1}^d, d >= HJ(2,2) = 2, has a monochromatic line."""

    def run(ctx):
        found = ctx.call("largeness", lambda: [
            largeness.find_mono_line(largeness.WordColoring(2, d, c)) for d, c in inputs])
        expect(all(w is not None for w in found), "largeness", "no line found")
        ok = ctx.call("largeness.checkers", lambda: [
            checkers.check_line_witness(c, 2, w.word, w.color)
            for (_, c), w in zip(inputs, found)])
        ctx.count("largeness.checkers.certificates", len(ok))
        expect(all(ok), "largeness.checkers", "line witness rejected")

    return run


def _all(*parts):
    def run(ctx):
        for part in parts:
            part(ctx)

    return run


def _spread(short, long):
    """The short tasks in ``len(long) + 1`` runs with one long task between
    each two.  The short tasks set the median latency; spread out, they meet
    the host's drifting speed all through a pass, not in one burst."""
    out = []
    parts = len(long) + 1
    for i in range(parts):
        out += short[i * len(short) // parts:(i + 1) * len(short) // parts]
        out += long[i:i + 1]
    return out


def build(seed, workdir):
    """The fixed task list for one seed: [(task id, task)].

    Task sizes are chosen so that the median task latency falls inside the
    kernel queries (~10-20 ms; the point searches sit below them) and the
    90th percentile among the two shortest big scans, not on a boundary
    between kinds of task.
    The enumerations come first, since the kernel queries use their tables.
    """
    rng = random.Random(seed)
    store = {}
    frozen = oracles.THRESHOLDS_R2
    first = [
        ("enumerate-order<=3", _all(*(enumerate_task(n, store) for n in (1, 2, 3)))),
        ("enumerate-order4", enumerate_task(4, store)),
    ]
    scans = [
        # W(3;2) = 9 <= 22: an exhaustive scan of every colouring
        ("covered-ap3-r2-n22", universal_task(("ap", 3), 2, 22, True)),
        # W(4;2) = 35 > 26: the bitmask scan exits far into the order
        ("avoidable-ap4-r2-n26", universal_task(("ap", 4), 2, 26, False)),
        # W(3;3) = 27 > 14: every size up to the cap is avoidable (odometer path)
        ("threshold-ap3-r3-cap14", threshold_task(("ap", 3), 3, 14, None)),
        # S(3) = 13: [1..13] still has a sum-free 3-colouring
        ("avoidable-fs2-r3-n13", universal_task(("fs", 2), 3, oracles.SCHUR_3, False)),
    ]
    kernels = [("kernels-order<=3", kernel_query_task((1, 2, 3), slice(None), store))]
    for i in range(0, oracles.SEMIGROUP_COUNTS[4], QUERY_CHUNK):
        chunk = slice(i, i + QUERY_CHUNK)
        kernels.append(("kernels-order4-%d" % i, kernel_query_task((4,), chunk, store)))
    points = [
        ("ap", ap_point_task, range(9, 15), lambda n: n),
        ("clique", clique_point_task, (6, 7), lambda n: n * (n - 1) // 2),
        ("schur", schur_point_task, range(5, 13), lambda n: n),
        ("line", line_point_task, (2, 3, 4), lambda d: 2**d),
    ]
    searches = [("thresholds-r2", _all(*(threshold_task(p, 2, cap, frozen[p]) for p, cap in (
        (("clique", 2, 3), 8), (("ap", 3), 12), (("fs", 2), 8), (("line", 2), 3)))))]
    for i in range(POINT_TASKS):
        for name, make, sizes, length_of in points:
            inputs = _colourings(rng, POINT_BATCH[name], sizes, length_of)
            searches.append(("point-%s-%d" % (name, i), make(inputs)))
    short = [t for pair in itertools.zip_longest(kernels, searches) for t in pair if t]
    return first + _spread(short, scans)


def warm_up():
    """Small calls that fill import-time and first-call caches."""
    largeness.threshold_number(("ap", 3), 2, 9)
    list(semigroup.enumerate_associative_tables(2))
