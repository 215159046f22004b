"""End-to-end acceptance suite: fifteen numbered criteria, each printing a
single pass/fail line (visible with -s; the -v test lines mirror them)."""

import random
import time
from fractions import Fraction
from itertools import combinations, product as iproduct

from ufw import arrow, discalc, folup, largeness, semigroup, setfam
from ufw.discalc import NEG_INF, BinomialPoly, RationalPoly
from ufw.genpoly import (
    DigitSystem,
    RealConst,
    base_change,
    digit_map,
    eval_exact,
    parse_gpexpr,
    return_times,
    weyl_sum,
)
from ufw.genpoly.expr import precision_schedule
from ufw.largeness import checkers


def report(num, name, ok, elapsed):
    print("criterion %02d %-28s %s (%.2fs)" % (num, name, "PASS" if ok else "FAIL", elapsed))
    assert ok, "criterion %d (%s) failed" % (num, name)


def timed(num, name):
    start = time.monotonic()

    def finish(ok, limit=None):
        elapsed = time.monotonic() - start
        if limit is not None:
            ok = ok and elapsed <= limit
        report(num, name, ok, elapsed)

    return finish


def test_criterion_01_ramsey_threshold():
    finish = timed(1, "ramsey clique(3) r=2")
    res = largeness.threshold_number(("clique", 2, 3), 2, 8)
    ok = res.value == 6
    # independent recheck of the K5 witness coloring: one color per edge,
    # edges in edge_list's colex order, and two colors on every triangle
    edges = largeness.edge_list(5, 2)
    color = dict(zip(edges, res.failure_coloring))
    ok = ok and len(res.failure_coloring) == len(edges) == 10
    ok = ok and all(
        len({color[e] for e in combinations(t, 2)}) == 2 for t in combinations(range(5), 3))
    ok = ok and checkers.check_avoiding_coloring(("clique", 2, 3), 2, res.failure_coloring)
    covered, avoiding = largeness.universal_check(("clique", 2, 3), 2, 6)
    ok = ok and covered and avoiding is None
    finish(ok, limit=5.0)


def test_criterion_02_van_der_waerden():
    finish = timed(2, "van der Waerden ap(3) r=2")
    res = largeness.threshold_number(("ap", 3), 2, 12)
    ok = res.value == 9
    ok = ok and checkers.check_avoiding_coloring(("ap", 3), 2, res.failure_coloring)
    covered, _ = largeness.universal_check(("ap", 3), 2, 9)
    uncov, avoiding = largeness.universal_check(("ap", 3), 2, 8)
    ok = ok and covered and not uncov and avoiding is not None
    finish(ok, limit=1.0)


def test_criterion_03_schur_shadow():
    finish = timed(3, "finite-sums fs(2) r=2")
    res = largeness.threshold_number(("fs", 2), 2, 8)
    ok = res.value == 5
    ok = ok and checkers.check_avoiding_coloring(("fs", 2), 2, res.failure_coloring)
    finish(ok, limit=1.0)


def test_criterion_04_hales_jewett_shadow():
    finish = timed(4, "combinatorial lines {0,1}^2")
    covered, avoiding = largeness.universal_check(("line", 2), 2, 2)
    ok = covered and avoiding is None
    uncov, avoiding1 = largeness.universal_check(("line", 2), 2, 1)
    ok = ok and not uncov and avoiding1 is not None
    ok = ok and checkers.check_avoiding_coloring(("line", 2), 2, avoiding1)
    finish(ok)


def _random_poly(rng, max_deg, int_valued=False):
    deg = rng.randrange(max_deg + 1)
    if int_valued:
        return discalc.binomial_to_monomial(
            BinomialPoly([rng.randrange(-5, 6) for _ in range(deg + 1)])
        )
    return RationalPoly(
        [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(deg + 1)]
    )


def test_criterion_05_discrete_calculus():
    finish = timed(5, "symmetric differences")
    rng = random.Random(2024)
    ok = True
    for _ in range(200):
        f = _random_poly(rng, 6)
        k = rng.randrange(1, 6)
        xs = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(k)]
        ok = ok and discalc.sym_delta_k(f, xs, "recursive") == discalc.sym_delta_k(
            f, xs, "explicit"
        )
    done = 0
    while done < 100:
        f = _random_poly(rng, 5, int_valued=True)
        d = f.degree
        if d == NEG_INF or d < 1:
            continue
        done += 1
        xs = [Fraction(rng.randrange(1, 8)) for _ in range(d)]
        g = discalc.sym_delta_k(f, xs, "recursive")
        ok = ok and g == RationalPoly([(-1) ** d * f(Fraction(0))])
    for d in range(1, 9):
        mono = RationalPoly([0] * d + [1])
        for a in (1, 2, Fraction(1, 2), Fraction(-3, 2)):
            deg, lc = discalc.degree_leading(mono, a)
            ok = ok and deg == d - 1 and lc == d * Fraction(a)
    finish(ok)


def test_criterion_06_binomial_basis():
    finish = timed(6, "binomial basis")
    triangle = RationalPoly([0, Fraction(1, 2), Fraction(1, 2)])
    ok = discalc.basis_convert(triangle) == BinomialPoly([0, 1, 1])
    rng = random.Random(99)
    for _ in range(100):
        f = _random_poly(rng, 6)
        ok = ok and discalc.binomial_to_monomial(discalc.basis_convert(f)) == f
    for n in range(11):
        e = discalc.binomial_basis_poly(n)
        ok = ok and all(e(Fraction(x)).denominator == 1 for x in range(-30, 31))
    finish(ok)


def _kernel_invariants(table):
    idem = semigroup.idempotents(table)
    if not idem:
        return False
    ker = set(semigroup.kernel(table))
    if not ker:
        return False
    union = set()
    for left in semigroup.minimal_left_ideals(table):
        union.update(left)
    if union != ker:
        return False
    minimal = {x for x in range(table.n) if semigroup.is_minimal_element(table, x)}
    if minimal != ker:
        return False
    # idempotent-order minimality iff kernel membership
    for e in idem:
        order_minimal = all(
            not (semigroup.idempotent_leq(table, f, e) and f != e) for f in idem
        )
        if order_minimal != (e in ker):
            return False
    if table.comm_witness is None:
        group = semigroup.commutative_kernel_group(table)
        if group["identity"] not in ker:
            return False
    return True


def test_criterion_07_semigroup_invariants():
    finish = timed(7, "semigroup kernels order<=4")
    tables = []
    for n in (1, 2, 3):
        tables.extend(semigroup.enumerate_associative_tables(n))
    ok = len(tables) == 1 + 8 + 113
    ok = ok and all(_kernel_invariants(t) for t in tables)
    # product law on all pairs of order <= 3 tables
    for s in tables:
        ks = semigroup.kernel(s)
        for t in tables:
            kt = semigroup.kernel(t)
            prod = semigroup.direct_product(s, t)
            expect = {a * t.n + b for a in ks for b in kt}
            if set(semigroup.kernel(prod)) != expect:
                ok = False
                break
        if not ok:
            break
    order4 = list(semigroup.enumerate_associative_tables(4))
    ok = ok and len(order4) == 3492
    ok = ok and all(_kernel_invariants(t) for t in order4)
    finish(ok, limit=60.0)


def test_criterion_08_ultrafilter_algebra():
    finish = timed(8, "ultrafilter products + star")
    ok = True
    pool = []
    for n in (1, 2, 3):
        pool.extend(semigroup.enumerate_associative_tables(n))
    pool.extend(
        [
            semigroup.cyclic_table(4),
            semigroup.mult_mod_table(4),
            semigroup.left_zero_table(4),
            semigroup.right_zero_table(4),
        ]
    )
    for table in pool:
        ground = setfam.GroundSet(table.n)
        ufs = {x: setfam.principal_ultrafilter(ground, x) for x in range(table.n)}
        for x in range(table.n):
            for y in range(table.n):
                prod = semigroup.ultrafilter_product(table, ufs[x], ufs[y])
                if prod != ufs[table.mul[x][y]]:
                    ok = False
        for x in range(table.n):
            for y in range(table.n):
                for z in range(table.n):
                    left = semigroup.ultrafilter_product(
                        table, semigroup.ultrafilter_product(table, ufs[x], ufs[y]), ufs[z]
                    )
                    right = semigroup.ultrafilter_product(
                        table, ufs[x], semigroup.ultrafilter_product(table, ufs[y], ufs[z])
                    )
                    if left != right:
                        ok = False
    # star identities on every family over grounds <= 3, fixed points on
    # every ultrafilter over grounds <= 4
    for n in (1, 2, 3):
        ground = setfam.GroundSet(n)
        subsets = [tuple(i for i in range(n) if (m >> i) & 1) for m in range(1, 1 << n)]
        for fam_bits in range(1, 1 << len(subsets)):
            members = [subsets[i] for i in range(len(subsets)) if (fam_bits >> i) & 1]
            fam = setfam.SetFamily(ground, members)
            starred = setfam.star(fam)
            ok = ok and setfam.star(setfam.star(starred)) == starred
        if not ok:
            break
    for n in (1, 2, 3, 4):
        for u in setfam.enumerate_ultrafilters(setfam.GroundSet(n)):
            ok = ok and setfam.star(u) == u
    finish(ok)


def test_criterion_09_aggregation_bundle():
    finish = timed(9, "preference aggregation")
    ok = True
    for voters in (1, 2, 3):
        el = arrow.Election(voters, 3)
        for voter in range(voters):
            out = arrow.verify_arrow(arrow.dictator_rule(el, voter))
            ok = ok and out["family_verdict"] == "ultrafilter" and out["dictator"] == voter
            axioms = out["axioms"]
            ok = ok and axioms["iia"] and axioms["monotone"] and axioms["unanimity"]
    el4 = arrow.Election(4, 3)
    for u in setfam.enumerate_ultrafilters(setfam.GroundSet(4)):
        rule = arrow.rule_from_ultrafilter(u, el4)
        ok = ok and arrow.decisive_family(rule) == u
    iia_ok, witness = arrow.check_iia(arrow.borda_rule(arrow.Election(2, 3)))
    ok = ok and not iia_ok and witness is not None
    try:
        arrow.pairwise_majority_rule(arrow.Election(3, 3))
        ok = False
    except Exception:
        pass
    finish(ok, limit=10.0)


def test_criterion_10_transfer_sweep():
    finish = timed(10, "transfer sweep")
    out = folup.exhaustive_transfer_sweep(max_x=3, max_nodes=4)
    ok = out["violations"] == [] and out["checked"] > 10**9
    # principal-projection law: the normalized product is the chosen factor
    sig = folup.Signature(functions=(("f", 2),))
    z2 = folup.Structure(sig, 2, funcs={"f": [[0, 1], [1, 0]]})
    mx = folup.Structure(sig, 2, funcs={"f": [[0, 0], [0, 1]]})
    for j, factor in enumerate((z2, mx)):
        spec = folup.UltraproductSpec(
            (z2, mx), setfam.principal_ultrafilter(setfam.GroundSet(2), j)
        )
        norm = folup.normalize(folup.ultraproduct(spec))
        ok = ok and norm.size == factor.size and norm.funcs == factor.funcs
    finish(ok, limit=120.0)


def test_criterion_11_digit_systems():
    finish = timed(11, "digit systems")
    fib = DigitSystem.fibonacci()
    ok = True
    for n in range(1, 10**5 + 1):
        out = digit_map(n, fib)
        d = out["digits"]
        if out["value"] != n or any(v not in (0, 1) for v in d):
            ok = False
            break
        if any(d[i] and d[i + 1] for i in range(len(d) - 1)):
            ok = False
            break
    rng = random.Random(8)
    for _ in range(10**4):
        base = rng.randrange(3, 11)
        positions = rng.sample(range(12), rng.randrange(2, 9))
        split = rng.randrange(1, len(positions))
        x = sum(rng.randrange(1, base) * base**p for p in positions[:split])
        y = sum(rng.randrange(1, base) * base**p for p in positions[split:])
        to = rng.randrange(2, 11)
        if base_change(x + y, base, to) != base_change(x, base, to) + base_change(
            y, base, to
        ):
            ok = False
            break
    finish(ok)


def test_criterion_12_certified_evaluation():
    finish = timed(12, "certified dual precision")
    expr = parse_gpexpr("round(pi * n)")
    lo = [eval_exact(expr, n, precision_schedule(64, 1024)) for n in range(1, 10**4 + 1)]
    hi = [eval_exact(expr, n, precision_schedule(128, 1024)) for n in range(1, 10**4 + 1)]
    ok = lo == hi
    g = parse_gpexpr("sqrt 2 * n * n")
    coarse = return_times(g, Fraction(1, 10), 10**3, start_bits=64)
    fine = return_times(g, Fraction(1, 10), 10**3, start_bits=128)
    ok = ok and coarse == fine and coarse[1] == []
    finish(ok)


def test_criterion_13_weyl_diagnostic():
    finish = timed(13, "equidistribution diagnostic")
    exact = weyl_sum([RealConst.rational(Fraction(1, 4))], [4], 1000)
    ok = exact == 1.0
    diag = weyl_sum([RealConst.sqrt(2)], [1], 10**6)
    ok = ok and diag <= 0.02
    finish(ok, limit=5.0)


def test_criterion_14_pigeonhole_multiples():
    finish = timed(14, "pigeonhole sum windows")
    rng = random.Random(14)
    ok = True
    for _ in range(1000):
        m = rng.randrange(1, 13)
        xs = [rng.randrange(1, 10**6) for _ in range(m)]
        i, j = largeness.fs_multiple_window(xs)
        if not (0 <= i < j <= m and sum(xs[i:j]) % m == 0):
            ok = False
            break
    finish(ok)


def test_criterion_15_aggregation_five_voters():
    # 7,776 profiles: a pairwise monotonicity scan would compare about 38M
    # pairs per rule; the single-raise check took 0.11 s a rule, 0.56 s in
    # all on a 2-vCPU host
    finish = timed(15, "aggregation 5x3")
    el = arrow.Election(5, 3)
    ok = True
    for voter in range(5):
        u = setfam.principal_ultrafilter(setfam.GroundSet(5), voter)
        out = arrow.verify_arrow(arrow.rule_from_ultrafilter(u, el))
        axioms = out["axioms"]
        ok = ok and axioms["iia"] and axioms["monotone"] and axioms["unanimity"]
        ok = ok and out["family_verdict"] == "ultrafilter" and out["dictator"] == voter
    finish(ok, limit=5.0)
