"""Monochromatic-structure searches: frozen threshold oracles, witness
validity under the independent checkers, agreement of the search kernel
with a brute-force oracle, and exhaustiveness of proven-absent answers."""

import sys
from itertools import combinations, combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufw.errors import BudgetExhausted
from ufw.largeness import (
    APWitness,
    EdgeColoring,
    FSWitness,
    IntervalColoring,
    WordColoring,
    coloring_from_index,
    edge_list,
    find_mono_ap,
    find_mono_clique,
    find_mono_fs,
    find_mono_line,
    first_uncovered_coloring,
    fs_multiple_window,
    ipstar_probe,
    pattern_configs,
    threshold_number,
    universal_check,
)
from ufw.largeness import checkers, search


# --- finite-sums search ----------------------------------------------------


def test_fs_witness_on_constant_coloring():
    c = IntervalColoring(8, (0,) * 8)
    w = find_mono_fs(c, 3)
    assert w.generators == (1, 2, 4)
    assert set(w.sums) == set(range(1, 8))
    assert checkers.check_fs_witness(c.colors, w.generators, w.color, w.sums)


def test_fs_proven_absent_small_split():
    c = IntervalColoring(4, (0, 0, 1, 1))
    assert find_mono_fs(c, 2) is None


def test_fs_every_2coloring_of_5_has_witness_with_repeats():
    for idx in range(2**5):
        c = IntervalColoring(5, tuple((idx >> i) & 1 for i in range(5)))
        w = find_mono_fs(c, 2, distinct=False)
        assert w is not None
        assert checkers.check_fs_witness(c.colors, w.generators, w.color, distinct=False)


def test_fs_strict_counterexample_at_5():
    assert find_mono_fs(IntervalColoring(5, (0, 1, 0, 1, 0)), 2) is None


@pytest.mark.parametrize("k", [0, -1])
def test_fs_needs_a_generator(k):
    # no witness with no colour, and no "proven absent" for a pattern that
    # does not exist
    with pytest.raises(ValueError):
        find_mono_fs(IntervalColoring(3, (0, 1, 0)), k)


def test_fs_budget_exhaustion_distinguished(monkeypatch):
    c = IntervalColoring(12, tuple(i % 2 for i in range(12)))
    monkeypatch.setattr(search, "NODE_CAP", 3)
    with pytest.raises(BudgetExhausted) as err:
        find_mono_fs(c, 4)
    assert err.value.nodes is not None


def test_fs_proven_absent_stable_under_bigger_budget(monkeypatch):
    c = IntervalColoring(6, (0, 1, 1, 0, 1, 0))
    monkeypatch.setattr(search, "NODE_CAP", 10**5)
    small = find_mono_fs(c, 3)
    monkeypatch.setattr(search, "NODE_CAP", 2 * 10**5)
    big = find_mono_fs(c, 3)
    assert small is None and big is None


@given(st.integers(0, 2**10 - 1))
@settings(max_examples=100, deadline=None)
def test_fs_found_witnesses_validate(bits):
    c = IntervalColoring(10, tuple((bits >> i) & 1 for i in range(10)))
    w = find_mono_fs(c, 2)
    if w is not None:
        assert checkers.check_fs_witness(c.colors, w.generators, w.color, w.sums)


# --- arithmetic progressions -----------------------------------------------


def test_ap_constant_coloring():
    w = find_mono_ap(IntervalColoring(9, (0,) * 9), 3)
    assert (w.start, w.step, w.color) == (1, 1, 0)


def test_ap_rrbbrrbb_avoids():
    assert find_mono_ap(IntervalColoring(8, (0, 0, 1, 1, 0, 0, 1, 1)), 3) is None


def test_ap_every_2coloring_of_9():
    for bits in range(2**9):
        c = IntervalColoring(9, tuple((bits >> i) & 1 for i in range(9)))
        w = find_mono_ap(c, 3)
        assert w is not None
        assert checkers.check_ap_witness(c.colors, w.start, w.step, 3, w.color)


# --- combinatorial lines ---------------------------------------------------


def test_line_absent_for_split_singletons():
    assert find_mono_line(WordColoring(2, 1, (0, 1))) is None


def test_line_every_2coloring_of_2cube():
    for bits in range(2**4):
        c = WordColoring(2, 2, tuple((bits >> i) & 1 for i in range(4)))
        w = find_mono_line(c)
        assert w is not None
        assert checkers.check_line_witness(c.colors, 2, w.word, w.color)


def test_line_constant_coloring_all_variable():
    w = find_mono_line(WordColoring(2, 3, (0,) * 8))
    assert any(x is None for x in w.word)


# --- cliques ---------------------------------------------------------------


def test_pentagon_pentagram_has_no_mono_triangle():
    edges = edge_list(5, 2)
    pent = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    colors = tuple(0 if e in pent else 1 for e in edges)
    assert find_mono_clique(EdgeColoring(5, 2, colors), 3) is None
    assert checkers.check_avoiding_coloring(("clique", 2, 3), 2, colors)


@pytest.mark.parametrize("n", range(1, 10))
def test_clique_positions_are_edge_list_indices(n):
    # a k-clique is one k-edge, so its one position is that edge's colex
    # rank Σ C(e_i, i+1), which must be its index in edge_list
    for k in range(1, min(n, 4) + 1):
        index = {e: i for i, e in enumerate(edge_list(n, k))}
        domain, configs = pattern_configs(("clique", k, k), n)
        assert domain == len(index)
        assert configs == [(index[e],) for e in combinations(range(n), k)]
        assert all(index[e] == sum(comb(v, i + 1) for i, v in enumerate(e)) for e in index)


@pytest.mark.parametrize(
    "n, k, what",
    [(-3, 2, "vertex count"), (0, 2, "vertex count"), (4, -1, "uniformity"), (4, 0, "uniformity")],
)
def test_edge_coloring_refuses_a_count_below_one(n, k, what):
    with pytest.raises(ValueError, match=what):
        EdgeColoring(n, k, ())


def test_constant_k4():
    subset, color = find_mono_clique(EdgeColoring(4, 2, (0,) * 6), 4)
    assert subset == (0, 1, 2, 3)
    assert checkers.check_clique_witness((0,) * 6, 4, 2, subset, color)


def test_checkers_refuse_claims_they_cannot_read():
    # a subset smaller than an edge has no edge to be monochromatic, and an
    # empty alphabet has no line
    assert not checkers.check_clique_witness((0,) * 6, 4, 2, [1], 0)
    assert not checkers.check_line_witness([], 0, (None,), 0)
    # Σ^n has one word for every n when σ = 1, so only n = 0 can be read
    assert not checkers.check_avoiding_coloring(("line", 1), 2, [0, 0])
    # patterns too large for the domain have no instance, found without
    # listing a billion terms or every 40-tuple of generators
    assert checkers.check_avoiding_coloring(("ap", 10**9), 2, [0, 1])
    assert checkers.check_avoiding_coloring(("fs", 40), 2, [0, 1, 1, 0])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_fs_avoiding_check_matches_listing_every_tuple(k):
    # the checker lists only the tuples whose total is at most n; every
    # other tuple has a sum past n, so the verdicts are those of listing all
    def avoids(colors):
        n = len(colors)
        for gens in combinations_with_replacement(range(1, n + 1), k):
            sums = {sum(c) for size in range(1, k + 1) for c in combinations(gens, size)}
            if max(sums) <= n and len({colors[s - 1] for s in sums}) == 1:
                return False
        return True

    for n in range(1, 9):
        for bits in range(2**n):
            colors = [(bits >> i) & 1 for i in range(n)]
            assert checkers.check_avoiding_coloring(("fs", k), 2, colors) == avoids(colors)


def test_every_2coloring_of_k6_has_mono_triangle():
    covered, avoiding = universal_check(("clique", 2, 3), 2, 6)
    assert covered and avoiding is None


# --- thresholds ------------------------------------------------------------


def test_threshold_oracles():
    assert threshold_number(("clique", 2, 3), 2, 8).value == 6
    assert threshold_number(("ap", 3), 2, 12).value == 9
    assert threshold_number(("fs", 2), 2, 8).value == 5
    # W(4;2) = 35, Schur S(3) = 13 (covered at 14), W(3;3) = 27
    for pattern, r, cap, value in (
        (("ap", 4), 2, 36, 35),
        (("fs", 2), 3, 15, 14),
        (("ap", 3), 3, 27, 27),
    ):
        res = threshold_number(pattern, r, cap)
        assert res.value == value
        assert len(res.failure_coloring) == value - 1
        assert checkers.check_avoiding_coloring(pattern, r, res.failure_coloring)


def test_threshold_failure_colorings_recheck():
    for pattern in (("clique", 2, 3), ("ap", 3), ("fs", 2)):
        res = threshold_number(pattern, 2, 10)
        assert res.value is not None
        assert checkers.check_avoiding_coloring(pattern, 2, res.failure_coloring)


def test_threshold_unknown_at_cap():
    res = threshold_number(("ap", 3), 2, 5)
    assert res.value is None and res.cap == 5
    assert checkers.check_avoiding_coloring(("ap", 3), 2, res.failure_coloring)


def test_threshold_monotone_in_colors():
    two = threshold_number(("ap", 3), 2, 12).value
    one = threshold_number(("ap", 3), 1, 12).value
    assert one <= two


def test_threshold_monotone_in_pattern_size():
    m3 = threshold_number(("ap", 3), 2, 12).value
    m4 = threshold_number(("ap", 4), 2, 12).value
    assert m4 is None or m3 <= m4


@pytest.mark.parametrize(
    "pattern",
    [
        ("ap", 0), ("ap", -2), ("fs", -1), ("line", -1), ("clique", -1, 3), ("clique", 2, -1),
        ("fs", 0), ("line", 0), ("clique", 0, 3), ("clique", 2, 1), ("clique", 3, 2),
    ],
)
def test_bad_pattern_parameters_raise(pattern):
    with pytest.raises(ValueError):
        pattern_configs(pattern, 4)
    with pytest.raises(ValueError):
        universal_check(pattern, 2, 4)
    # also when the cap leaves no size to scan
    with pytest.raises(ValueError):
        threshold_number(pattern, 2, 0)


# --- agreement with scan-order oracles ---------------------------------------
#
# Plain-loop references for the order in which each pattern's instances are
# scanned, sharing no code with the searches.  Each returns (key, values)
# pairs: the point searches must return the first monochromatic instance
# and ``pattern_configs`` the position tuples of all of them.


def _ap_oracle(n, length):
    """Progressions in [1..n] by start, then step; one step for 1 term."""
    out = []
    for start in range(1, n + 1):
        for step in range(1, n + 1 if length > 1 else 2):
            terms = [start + i * step for i in range(length)]
            if terms[-1] <= n:
                out.append(((start, step), terms))
    return out


def _fs_oracle(n, k, distinct, bounded=True):
    """Generator tuples in [1..n] in lex order (increasing when
    ``distinct``, else non-decreasing) with their index-subset sums, which
    must all be ≤ n when ``bounded``."""
    tuples = combinations if distinct else combinations_with_replacement
    out = []
    for gens in tuples(range(1, n + 1), k):
        sums = [sum(sub) for j in range(1, k + 1) for sub in combinations(gens, j)]
        if not bounded or sum(gens) <= n:
            out.append((gens, sums))
    return out


def _clique_oracle(n, k, m):
    """Vertex subsets in lex order with the colex ranks of their k-edges."""
    rank = {e: i for i, e in enumerate(sorted(combinations(range(n), k), key=lambda e: e[::-1]))}
    return [(sub, [rank[e] for e in combinations(sub, k)]) for sub in combinations(range(n), m)]


def _line_oracle(sigma, n):
    """Variable words (None marks the variable) in lex order over
    0 < … < σ−1 < variable, with the lex ranks of their points."""
    out = []
    for letters in product(list(range(sigma)) + [None], repeat=n):
        if None not in letters:
            continue
        ranks = []
        for a in range(sigma):
            rank = 0
            for x in letters:
                rank = rank * sigma + (a if x is None else x)
            ranks.append(rank)
        out.append((letters, ranks))
    return out


def _first_mono_oracle(colors, instances, offset=0):
    for key, values in instances:
        if len({colors[v - offset] for v in values}) == 1:
            return key, colors[values[0] - offset]
    return None


def _colors(draw, count, r):
    return tuple(draw(st.lists(st.integers(0, r - 1), min_size=count, max_size=count)))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_point_searches_match_scan_order_oracles(data):
    draw = data.draw
    r = draw(st.integers(1, 3))

    n, length = draw(st.integers(1, 14)), draw(st.integers(1, 5))
    colors = _colors(draw, n, r)
    hit = _first_mono_oracle(colors, _ap_oracle(n, length), offset=1)
    expect = None if hit is None else APWitness(*hit[0], length, hit[1])
    assert find_mono_ap(IntervalColoring(n, colors), length) == expect

    n, k = draw(st.integers(1, 16)), draw(st.integers(1, 3))
    colors = _colors(draw, n, r)
    for distinct in (True, False):
        expect = None
        for gens, sums in _fs_oracle(n, k, distinct):
            proper = not distinct or len(set(sums)) == len(sums)
            if proper and len({colors[s - 1] for s in sums}) == 1:
                expect = FSWitness(gens, colors[gens[0] - 1], tuple(sorted(set(sums))))
                break
        assert find_mono_fs(IntervalColoring(n, colors), k, distinct=distinct) == expect

    k = draw(st.integers(1, 3))
    n, m = draw(st.integers(k, 7)), draw(st.integers(k, 5))
    colors = _colors(draw, len(edge_list(n, k)), r)
    expect = _first_mono_oracle(colors, _clique_oracle(n, k, m))
    assert find_mono_clique(EdgeColoring(n, k, colors), m) == expect

    sigma = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    colors = _colors(draw, sigma**n, r)
    hit = _first_mono_oracle(colors, _line_oracle(sigma, n))
    got = find_mono_line(WordColoring(sigma, n, colors))
    assert (None if got is None else (got.word, got.color)) == hit


@given(st.integers(1, 20), st.integers(1, 4), st.sets(st.integers(1, 25)))
@settings(max_examples=150, deadline=None)
def test_ipstar_matches_lex_order_oracle(n, k, a):
    for scope in ("sums", "generators"):
        missing = [
            gens
            for gens, sums in _fs_oracle(n, k, True, bounded=scope == "sums")
            if a.isdisjoint(sums)
        ]
        expect = {"holds": not missing, "counterexample": missing[0] if missing else None}
        assert ipstar_probe(a, n, k, scope=scope) == expect


@pytest.mark.parametrize(
    "kind,params,sizes",
    [
        ("ap", (1,), range(0, 6)),
        ("ap", (2,), range(0, 8)),
        ("ap", (3,), range(0, 16)),
        ("ap", (5,), range(0, 16)),
        ("fs", (4,), range(0, 16)),
        ("fs", (1,), range(0, 6)),
        ("fs", (2,), range(0, 16)),
        ("fs", (3,), range(0, 20)),
        ("clique", (2, 2), range(0, 5)),
        ("clique", (2, 3), range(0, 8)),
        ("clique", (2, 4), range(0, 7)),
        ("clique", (3, 4), range(0, 7)),
        ("line", (4,), range(0, 3)),
        ("line", (1,), range(0, 4)),
        ("line", (2,), range(0, 5)),
        ("line", (3,), range(0, 4)),
    ],
)
def test_pattern_configs_match_scan_order_oracles(kind, params, sizes):
    for size in sizes:
        if kind == "ap":
            domain, instances, offset = size, _ap_oracle(size, *params), 1
        elif kind == "fs":
            domain, instances, offset = size, _fs_oracle(size, *params, distinct=False), 1
        elif kind == "clique":
            instances, offset = _clique_oracle(size, *params), 0
            domain = len(list(combinations(range(size), params[0])))
        else:
            domain, instances, offset = params[0] ** size, _line_oracle(params[0], size), 0
        configs = [tuple(sorted({v - offset for v in values})) for _, values in instances]
        assert pattern_configs((kind,) + params, size) == (domain, configs)


# Least node caps at which these searches finish; each generator tried is
# one node.  The find_mono_fs counts were measured before the searches
# shared one walker, and the ipstar_probe counts once the probe stopped
# extending a prefix whose sums meet the set.
@pytest.mark.parametrize(
    "run,nodes,result",
    [
        (lambda: find_mono_fs(IntervalColoring(12, (0, 1) * 6), 4), 61, None),
        (
            lambda: find_mono_fs(IntervalColoring(12, (0, 1) * 6), 2),
            15,
            FSWitness((2, 4), 1, (2, 4, 6)),
        ),
        (
            lambda: ipstar_probe({1}, 30, 3, "generators"),
            4,
            {"holds": False, "counterexample": (2, 3, 4)},
        ),
        (
            lambda: ipstar_probe(set(range(1, 11, 2)), 10, 2, "sums"),
            4,
            {"holds": False, "counterexample": (2, 4)},
        ),
        (
            lambda: ipstar_probe(set(range(3, 31, 3)), 30, 3, "sums"),
            362,
            {"holds": True, "counterexample": None},
        ),
    ],
)
def test_budget_node_counts_pinned(monkeypatch, run, nodes, result):
    monkeypatch.setattr(search, "NODE_CAP", nodes)
    assert run() == result
    monkeypatch.setattr(search, "NODE_CAP", nodes - 1)
    with pytest.raises(BudgetExhausted) as err:
        run()
    assert err.value.nodes == nodes


def test_one_term_progression_in_a_singleton():
    colors = (0,)
    assert find_mono_ap(IntervalColoring(1, colors), 1) == APWitness(1, 1, 1, 0)
    assert checkers.check_ap_witness(colors, 1, 1, 1, 0)
    # a 1-term progression needs one step only
    assert pattern_configs(("ap", 1), 4) == (4, [(0,), (1,), (2,), (3,)])


def test_point_searches_reject_empty_patterns():
    with pytest.raises(ValueError):
        find_mono_ap(IntervalColoring(3, (0, 1, 0)), 0)
    # a vertex subset smaller than an edge has no edges to color
    with pytest.raises(ValueError):
        find_mono_clique(EdgeColoring(4, 2, (0,) * 6), 1)


# --- kernel ----------------------------------------------------------------


def _odometer(domain_size, r, configs, pinned):
    """Brute-force reference for ``first_uncovered_coloring``, sharing no code
    with it: scan r-colorings in odometer order (position 0 least
    significant) and return the index of the first with no monochromatic
    config, or -1.  ``pinned`` scans only colorings giving position 0 color 0."""
    step = r if pinned else 1
    if r == 2:  # bit p of the index is the color of position p
        masks = [sum(1 << p for p in set(cfg)) for cfg in configs]
        for index in range(0, 1 << domain_size, step):
            for m in masks:
                x = index & m
                if x == 0 or x == m:
                    break
            else:
                return index
        return -1
    colors = [0] * domain_size
    index = 0
    while True:
        for cfg in configs:
            c = colors[cfg[0]]
            for p in cfg:
                if colors[p] != c:
                    break
            else:
                break  # monochromatic config
        else:
            return index
        p = 1 if pinned else 0
        while p < domain_size and colors[p] == r - 1:
            colors[p] = 0
            p += 1
        if p >= domain_size:
            return -1
        colors[p] += 1
        index += step


@pytest.mark.parametrize(
    "pattern,r,size",
    [
        (("ap", 3), 2, 8),
        (("ap", 3), 2, 9),
        (("ap", 3), 3, 6),
        (("fs", 2), 2, 4),
        (("fs", 2), 2, 5),
        (("clique", 2, 3), 2, 5),
        (("clique", 2, 3), 2, 6),
        (("line", 2), 2, 2),
        (("line", 2), 3, 2),
        (("ap", 3), 2, 22),
        (("ap", 4), 2, 26),
        (("fs", 2), 3, 13),
        (("ap", 3), 3, 14),
    ],
)
def test_backends_agree(pattern, r, size):
    domain, configs = pattern_configs(pattern, size)
    dfs = first_uncovered_coloring(domain, r, configs)
    assert dfs == _odometer(domain, r, configs, pinned=True)
    # Unpinned, the least avoiding coloring is the pinned one when it gives
    # position 0 color 0; otherwise it precedes it.  Either way pinning
    # never changes whether the pattern is covered.
    free = _odometer(domain, r, configs, pinned=False)
    if free < 0 or free % r == 0:
        assert dfs == free
    else:
        assert dfs > free


@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(1, 3),
            st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=4), max_size=12),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_kernel_matches_oracle_on_arbitrary_configs(case):
    n, r, configs = case
    configs = [tuple(cfg) for cfg in configs]
    assert first_uncovered_coloring(n, r, configs) == _odometer(n, r, configs, pinned=True)


def test_kernel_handles_domains_past_the_recursion_limit():
    # adjacent positions must differ: the first descent gives the top
    # position color 0 and fails at the pinned position 0, so the search
    # backtracks through the whole domain before it finds the alternating
    # coloring
    n = 2 * sys.getrecursionlimit()
    idx = first_uncovered_coloring(n, 2, [(p, p + 1) for p in range(n - 1)])
    assert idx == sum(1 << p for p in range(1, n, 2))


def test_uncovered_index_decodes_to_avoiding_coloring():
    domain, configs = pattern_configs(("ap", 3), 8)
    idx = first_uncovered_coloring(domain, 2, configs)
    colors = coloring_from_index(idx, domain, 2)
    assert checkers.check_avoiding_coloring(("ap", 3), 2, colors)
    assert colors[0] == 0  # first position pinned by symmetry reduction


def test_empty_config_list():
    assert first_uncovered_coloring(3, 2, []) == 0
    # an empty config (a clique of size 1 has no edges) is vacuously monochromatic
    assert first_uncovered_coloring(3, 3, [(), (0, 1)]) == -1


# --- probes, pigeonhole ----------------------------------------------------


def test_ipstar_multiples_of_three():
    assert ipstar_probe(set(range(3, 31, 3)), 30, 3)["holds"]


def test_ipstar_counterexamples_lex_least():
    assert ipstar_probe({1}, 10, 2) == {"holds": False, "counterexample": (2, 3)}
    assert ipstar_probe(set(range(1, 11, 2)), 10, 2)["counterexample"] == (2, 4)


def test_ipstar_generator_scope_differs():
    # {10} misses FS(1,2)={1,2,3} under either scope, but generator scope
    # admits tuples whose sums exceed the interval
    sums = ipstar_probe({9, 10}, 6, 2, scope="sums")
    gens = ipstar_probe({9, 10}, 6, 2, scope="generators")
    assert not sums["holds"] and not gens["holds"]
    assert ipstar_probe(set(range(1, 7)), 6, 2, scope="sums")["holds"]


def test_ipstar_budget_exhausts(monkeypatch):
    # no triple of generators in [1..200] has all its sums off the multiples
    # of 3, so the search tries every generator not itself a multiple of 3
    # at each level: 303,174 of them
    monkeypatch.setattr(search, "NODE_CAP", 10**4)
    with pytest.raises(BudgetExhausted):
        ipstar_probe(set(range(3, 601, 3)), 200, 3, scope="generators")


@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_fs_contains_multiple_of_length(xs):
    i, j = fs_multiple_window(xs)
    assert 0 <= i < j <= len(xs)
    assert sum(xs[i:j]) % len(xs) == 0
