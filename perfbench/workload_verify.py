"""`verify` workload: checking and exact evaluation, with no searches.

Arrow axiom checks on a rule built from an ultrafilter, the exhaustive
transfer sweep and Łoś checks, ultrafilter products over every semigroup of
order <= 3, set-family classification, certified evaluation of round(pi*n),
Fibonacci digit maps and a seeded exact-calculus batch.  Arrow rank tables,
the folup/genpoly/discalc layers and semigroup *products* show here; the
largeness searches do no work at all.
"""

import random
from fractions import Fraction

from harness import expect
import oracles

from ufw import arrow, discalc, folup, genpoly, semigroup, setfam
from ufw.largeness import checkers

#: formulas for the Łoś checks, with their number of free variables
LOS_FORMULAS = (
    ("E x. f(x, x) = x", 0),
    ("A x. E y. f(x, y) = x", 0),
    ("f(x, y) = f(y, x)", 2),
    ("(f(x, x) = x & !(x = y))", 2),
    ("E y. f(x, y) = y", 1),
    ("A y. (f(x, y) = y -> f(y, x) = y)", 1),
)
#: corpus size of the sweep at <= 3 AST nodes, and the factor-tuple
#: arithmetic behind its ``checked`` count: 17 factors (one of size 1, sixteen
#: of size 2), so a tuple of length k contributes sum over tuples of
#: 4^(number of size-2 factors) = 65^k assignment cells per principal index
SWEEP_FORMULAS = 1764
SWEEP_CHECKED = SWEEP_FORMULAS * sum(k * 65**k for k in (1, 2, 3))

EVAL_CHUNK = 1000
EVAL_TASKS = 10
DIGIT_CHUNK = 2500
DIGIT_TASKS = 4
CALC_ROUNDS = 25
CALC_TASKS = 8
FAMILY_BATCH = 40
FAMILY_TASKS = 4
UFPROD_TASKS = 4


def dictator_task(voters, m, generator):
    """rule_from_ultrafilter on the principal ultrafilter at ``generator``:
    by construction the rule copies that voter."""

    def run(ctx):
        ground = setfam.GroundSet(voters)
        u = ctx.call("setfam", setfam.principal_ultrafilter, ground, generator)
        ctx.count("setfam.families")
        rule = ctx.call("arrow", arrow.rule_from_ultrafilter, u, arrow.Election(voters, m))
        report = ctx.call("arrow", arrow.verify_arrow, rule)
        ctx.count("arrow.profiles", rule.election.profile_count)
        axioms = report["axioms"]
        expect(axioms["iia"] and axioms["monotone"] and axioms["unanimity"], "arrow",
               "a dictatorship fails an axiom")
        expect(report["family_verdict"] == "ultrafilter", "arrow", "decisive family not ultra")
        expect(report["dictator"] == generator, "arrow",
               "dictator %s, generator %d" % (report["dictator"], generator))
        table = list(rule.table)
        expect(table == oracles.dictator_table(voters, m, generator), "arrow",
               "rule is not the generator's dictatorship")
        ok = ctx.call("largeness.checkers", checkers.check_dictator, voters, m, table, generator)
        ctx.count("largeness.checkers.certificates")
        expect(ok, "largeness.checkers", "dictator certificate rejected")

    return run


def failing_rule_task(voters, m, table):
    """A non-dictatorial rule on >= 3 candidates fails some axiom (Arrow);
    the reported IIA and unanimity witnesses must replay."""
    rule = arrow.AggregationRule(arrow.Election(voters, m), table=table)

    def run(ctx):
        report = ctx.call("arrow", arrow.verify_arrow, rule)
        ctx.count("arrow.profiles", rule.election.profile_count)
        axioms = report["axioms"]
        expect(report["dictator"] is None, "arrow", "dictator named for a non-dictatorial rule")
        expect(not (axioms["iia"] and axioms["monotone"] and axioms["unanimity"]), "arrow",
               "every axiom holds for a non-dictatorial rule")
        if not axioms["iia"]:
            expect(oracles.iia_witness_holds(voters, m, table, axioms["iia_witness"]), "arrow",
                   "IIA witness does not replay")
        if not axioms["unanimity"]:
            witness = axioms["unanimity_witness"]
            expect(oracles.unanimity_witness_holds(voters, m, table, witness), "arrow",
                   "unanimity witness does not replay")

    return run


def sweep_task(ctx):
    out = ctx.call("folup", folup.exhaustive_transfer_sweep, 3, 3)
    ctx.count("folup.checked", out["checked"])
    expect(out["violations"] == [], "folup", "transfer violations %s" % out["violations"][:3])
    expect(out["formulas"] == SWEEP_FORMULAS and out["checked"] == SWEEP_CHECKED, "folup",
           "sweep covered %s formulas / %s cells" % (out["formulas"], out["checked"]))


def los_task(sizes, tables, index, formula, free):
    sig = folup.Signature(functions=(("f", 2),))
    factors = tuple(folup.Structure(sig, n, funcs={"f": t}) for n, t in zip(sizes, tables))
    u = setfam.SetFamily.from_masks(
        setfam.GroundSet(len(sizes)), oracles.principal_masks(len(sizes), index)
    )
    spec = folup.UltraproductSpec(factors, u)
    phi = folup.parse_formula(formula, sig)

    def run(ctx):
        report = ctx.call("folup", folup.los_check, spec, phi)
        ctx.count("folup.checked", report["checked"])
        universe = 1
        for n in sizes:
            universe *= n
        expect(report["violations"] == [], "folup", "Łoś violated for %r" % formula)
        expect(report["checked"] == universe**free, "folup",
               "%r: %d assignments checked, expected %d"
               % (formula, report["checked"], universe**free))

    return run


def ufprod_task(pool):
    """Products of principal ultrafilters: U_x . U_y = U_(xy), and the product
    is associative."""

    def products(table, ufs):
        n = table.n
        ufp = semigroup.ultrafilter_product
        out = {}
        for x in range(n):
            for y in range(n):
                xy = ufp(table, ufs[x], ufs[y])
                for z in range(n):
                    left = ufp(table, xy, ufs[z])
                    right = ufp(table, ufs[x], ufp(table, ufs[y], ufs[z]))
                    out[x, y, z] = (left, right)
        return out

    def run(ctx):
        for table, ufs in pool:
            out = ctx.call("semigroup", products, table, ufs)
            ctx.count("semigroup.tables")
            n, mul = table.n, table.mul
            for (x, y, z), (left, right) in out.items():
                expect(left == right, "semigroup", "product not associative on %s" % (mul,))
                expect(list(left.masks) == oracles.principal_masks(n, mul[mul[x][y]][z]),
                       "semigroup", "U_%d U_%d U_%d is not principal at the product" % (x, y, z))

    return run


def family_task(n, families):
    def checks(fams):
        return [(setfam.classify_family(f).kind, setfam.star(f).masks) for f in fams]

    fams = [setfam.SetFamily.from_masks(setfam.GroundSet(n), masks) for masks in families]

    def run(ctx):
        answers = ctx.call("setfam", checks, fams)
        ctx.count("setfam.families", len(fams))
        for masks, (kind, starred) in zip(families, answers):
            expect(kind == oracles.classify(n, masks), "setfam",
                   "family %s classified %s" % (masks, kind))
            expect(list(starred) == oracles.star(n, masks), "setfam", "star of %s" % (masks,))

    return run


def eval_task(expr, ns):
    def run(ctx):
        values = ctx.call("genpoly", lambda: [genpoly.eval_exact(expr, n) for n in ns])
        ctx.count("genpoly.evals", len(values))
        for n, v in zip(ns, values):
            expect(v == oracles.round_pi_times(n), "genpoly", "round(pi * %d) = %s" % (n, v))

    return run


def digits_task(ns):
    fib = genpoly.DigitSystem.fibonacci()

    def run(ctx):
        out = ctx.call("genpoly", lambda: [genpoly.digit_map(n, fib) for n in ns])
        ctx.count("genpoly.evals", len(out))
        for n, d in zip(ns, out):
            expect(d["value"] == n and d["digits"] == oracles.zeckendorf(n), "genpoly",
                   "Fibonacci digits of %d: %s" % (n, d["digits"]))

    return run


def calc_task(rounds):
    """Symmetric differences both ways and the binomial basis, checked by
    direct inclusion-exclusion and evaluation."""

    def ops(f, xs):
        return (
            discalc.sym_delta_k(f, xs, "recursive"),
            discalc.sym_delta_k(f, xs, "explicit"),
            discalc.basis_convert(f),
        )

    polys = [discalc.RationalPoly(coeffs) for coeffs, _, _ in rounds]

    def run(ctx):
        for f, (coeffs, xs, x0) in zip(polys, rounds):
            rec, exp, basis = ctx.call("discalc", ops, f, xs)
            ctx.count("discalc.ops", 3)
            want = oracles.sym_delta_k_value(coeffs, x0, xs)
            expect(oracles.horner(rec.coeffs, x0) == want, "discalc", "recursive sym_delta_k")
            expect(oracles.horner(exp.coeffs, x0) == want, "discalc", "explicit sym_delta_k")
            for x in range(len(coeffs) + 2):
                got = sum(c * oracles.binomial(x, k) for k, c in enumerate(basis.coeffs))
                expect(got == oracles.horner(coeffs, x), "discalc", "binomial basis at %d" % x)

    return run


def _random_table(rng, voters, m):
    while True:
        fact = len(oracles.orders(m))
        table = [rng.randrange(fact) for _ in range(fact**voters)]
        if not oracles.is_dictatorship(voters, m, table):
            return table


def build(seed, workdir):
    """The fixed task list for one seed: [(task id, task)]."""
    rng = random.Random(seed)
    tasks = [
        ("arrow-dictator-4x3", dictator_task(4, 3, rng.randrange(4))),
        ("arrow-dictator-3x3", dictator_task(3, 3, rng.randrange(3))),
        ("arrow-borda-2x3", failing_rule_task(2, 3, oracles.borda_table(2, 3))),
        ("arrow-borda-3x3", failing_rule_task(3, 3, oracles.borda_table(3, 3))),
        ("arrow-random-2x3", failing_rule_task(2, 3, _random_table(rng, 2, 3))),
        ("folup-sweep-3-3", sweep_task),
    ]
    for i, (formula, free) in enumerate(LOS_FORMULAS):
        sizes = [rng.randrange(1, 4) for _ in range(rng.randrange(2, 4))]
        tables = [[[rng.randrange(n) for _ in range(n)] for _ in range(n)] for n in sizes]
        index = rng.randrange(len(sizes))
        tasks.append(("folup-los-%d" % i, los_task(sizes, tables, index, formula, free)))

    pool = []
    for n in (1, 2, 3):
        for table in semigroup.enumerate_associative_tables(n):
            ufs = [
                setfam.SetFamily.from_masks(setfam.GroundSet(n), oracles.principal_masks(n, x))
                for x in range(n)
            ]
            pool.append((table, ufs))
    if len(pool) != sum(oracles.SEMIGROUP_COUNTS[n] for n in (1, 2, 3)) or not all(
        oracles.is_associative(table.mul) for table, _ in pool
    ):
        raise RuntimeError("semigroup inputs for the product tasks are wrong")
    for i in range(UFPROD_TASKS):
        tasks.append(("semigroup-ufprod-%d" % i, ufprod_task(pool[i::UFPROD_TASKS])))

    for i in range(FAMILY_TASKS):
        n = rng.randrange(3, 6)
        families = [oracles.random_family(rng, n) for _ in range(FAMILY_BATCH)]
        tasks.append(("setfam-families-%d" % i, family_task(n, families)))

    expr = genpoly.parse_gpexpr("round(pi * n)")
    start = rng.randrange(1, 10**5)
    for i in range(EVAL_TASKS):
        ns = range(start + i * EVAL_CHUNK, start + (i + 1) * EVAL_CHUNK)
        tasks.append(("genpoly-eval-%d" % i, eval_task(expr, ns)))
    start = rng.randrange(1, 10**6)
    for i in range(DIGIT_TASKS):
        ns = range(start + i * DIGIT_CHUNK, start + (i + 1) * DIGIT_CHUNK)
        tasks.append(("genpoly-digits-%d" % i, digits_task(ns)))

    for i in range(CALC_TASKS):
        rounds = []
        for _ in range(CALC_ROUNDS):
            coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                      for _ in range(rng.randrange(1, 8))]
            xs = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
                  for _ in range(rng.randrange(1, 6))]
            rounds.append((coeffs, xs, Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))))
        tasks.append(("discalc-batch-%d" % i, calc_task(rounds)))
    return tasks


def warm_up():
    """Small calls that fill import-time and first-call caches."""
    rule = arrow.dictator_rule(arrow.Election(2, 3), 0)
    arrow.verify_arrow(rule)
    folup.exhaustive_transfer_sweep(1, 2)
    genpoly.eval_exact(genpoly.parse_gpexpr("round(pi * n)"), 1)
