"""`cli` workload: ``python -m ufw.cli`` subprocess calls, one after another.

This is what a user pays per call: interpreter start, imports, argument
parsing, the handler and JSON output.  Start-up and import dominate and the
handlers do little, so a lazy import shows here and a kernel change must
not.  The calls cover every subcommand and every exit code (0, 1, 2, 3); the
JSON inputs are generated from the seed during set-up, and certificates the
searches print are re-validated by a ``ufw verify`` round trip.

This module does not import ``ufw``: the benchmark process stays a plain
client of the command line.
"""

import json
import os
import random
import select
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from harness import child_env, expect
import oracles

#: subcommand -> the layer its handler runs in
HANDLER_LAYER = {
    "setfam": "setfam",
    "sg": "semigroup",
    "search": "largeness",
    "calc": "discalc",
    "gp": "genpoly",
    "arrow": "arrow",
    "fol": "folup",
    "verify": "largeness.checkers",
}
CALL_TIMEOUT_S = 60


class CliRunner:
    """Runs ``python -m ufw.cli`` from the source tree with only the
    generated inputs; records per-call start-up, handler time and peak RSS."""

    def __init__(self, root, workdir):
        self.root = Path(root)
        self.workdir = Path(workdir)
        self.env = child_env(self.root / "src")

    def path(self, name):
        return str(self.workdir / name)

    def write(self, name, obj):
        with open(self.path(name), "w") as fh:
            if isinstance(obj, str):
                fh.write(obj)
            else:
                json.dump(obj, fh)
        return self.path(name)

    def invoke(self, ctx, argv):
        """(exit code, parsed stdout or None, stderr text) of one call."""
        start = time.perf_counter_ns()
        with open(self.path("stderr.txt"), "w+b") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "ufw.cli", *argv],
                stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=self.root,
            )
            out = self._read_all(proc)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            end = time.perf_counter_ns()
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        if out is None:
            raise TimeoutError("ufw %s did not finish in %d s" % (" ".join(argv), CALL_TIMEOUT_S))
        try:
            body = json.loads(out)
        except ValueError:
            body = None
        handler_ns = 0
        if isinstance(body, dict) and "manifest" in body:
            handler_ns = int(body["manifest"]["wall_time_ms"]) * 1_000_000
        ctx.add_span(HANDLER_LAYER[argv[0]], end - handler_ns, end)
        ctx.sample("cli.startup_ns", end - start - handler_ns)
        ctx.sample("cli.maxrss_kb", usage.ru_maxrss)
        ctx.count("cli.handler_ns", handler_ns)
        return code, body, stderr

    @staticmethod
    def _read_all(proc):
        """Stdout until EOF, or None (child killed) past the time limit."""
        deadline = time.monotonic() + CALL_TIMEOUT_S
        fd = proc.stdout.fileno()
        chunks = []
        try:
            while True:
                ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
                if not ready:
                    proc.kill()
                    return None
                data = os.read(fd, 1 << 16)
                if not data:
                    return b"".join(chunks)
                chunks.append(data)
        finally:
            proc.stdout.close()


def cli_task(runner, argv, expected, check=None):
    """One call: exit code, a JSON body without a traceback, and ``check``
    on the result (blamed on the handler's layer)."""
    layer = HANDLER_LAYER[argv[0]]

    def run(ctx):
        code, body, stderr = ctx.call("cli", runner.invoke, ctx, argv)
        expect("Traceback" not in stderr, "cli", "traceback from ufw %s" % argv[0])
        expect(isinstance(body, dict) and "result" in body, "cli", "no JSON result")
        expect(code == expected, layer,
               "ufw %s exited %d, expected %d" % (" ".join(argv[:2]), code, expected))
        if check is not None:
            check(body["result"])

    return run


def _fraction(value):
    return Fraction(str(value))


def _poly_values(obj):
    return [_fraction(c) for c in obj["monomial"]]


# --- checks on results ------------------------------------------------------------


def threshold_check(pattern, expected, runner=None, save=None):
    def check(result):
        expect(result["threshold"] == expected, "largeness",
               "threshold %s, expected %s" % (result["threshold"], expected))
        colors = result["failure_coloring"]
        expect(oracles.AVOIDS[pattern[0]](colors, pattern), "largeness",
               "failure colouring contains the pattern")
        if save:
            runner.write(save, result["certificate"])

    return check


def valid_check(valid):
    def check(result):
        expect(result.get("valid") is valid, "largeness.checkers",
               "certificate valid=%s, expected %s" % (result.get("valid"), valid))

    return check


def error_check(result):
    expect("error" in result, "cli", "exit 3 without an error message")


def build(seed, workdir, root):
    """The fixed task list for one seed; writes the inputs into ``workdir``."""
    rng = random.Random(seed)
    runner = CliRunner(root, workdir)
    w = runner.write
    tasks = []

    def add(name, argv, expected, check=None):
        tasks.append((name, cli_task(runner, argv, expected, check)))

    frozen = oracles.THRESHOLDS_R2

    # search: thresholds with certificate round trips, a cap below W(3;2)
    add("search-vdw", ["search", "vdw", "--len", "3", "--cap", "12"], 0,
        threshold_check(("ap", 3), frozen[("ap", 3)], runner, "cert-vdw.json"))
    add("verify-vdw-roundtrip", ["verify", "--certificate", runner.path("cert-vdw.json")], 0,
        valid_check(True))
    add("search-vdw-capped", ["search", "vdw", "--len", "3", "--cap", "8"], 2,
        threshold_check(("ap", 3), None))
    add("search-ramsey", ["search", "ramsey", "--size", "3", "--cap", "8"], 0,
        threshold_check(("clique", 2, 3), frozen[("clique", 2, 3)], runner, "cert-ramsey.json"))
    add("verify-ramsey-roundtrip", ["verify", "--certificate", runner.path("cert-ramsey.json")],
        0, valid_check(True))
    add("search-hindman", ["search", "hindman", "--k", "2", "--cap", "8"], 0,
        threshold_check(("fs", 2), frozen[("fs", 2)]))
    add("search-hj", ["search", "hj", "--sigma", "2", "--cap", "3"], 0,
        threshold_check(("line", 2), frozen[("line", 2)]))
    members = sorted(rng.sample(range(1, 11), rng.randrange(3, 8)))
    holds = oracles.ipstar_holds(members, 10, 2)

    def ipstar_check(result):
        expect(result["ipstar"]["holds"] is holds, "largeness", "ipstar verdict")

    add("search-ipstar", ["search", "ipstar", "--members", ",".join(map(str, members)),
                          "--n", "10", "--k", "2"], 0 if holds else 1, ipstar_check)

    # verify: an avoiding colouring made here, the same with one colour
    # flipped onto a monochromatic progression, malformed JSON, a dictator
    avoiding = [c for c in (tuple(m >> i & 1 for i in range(8)) for m in range(256))
                if oracles.avoids_ap(c, 3)]
    colors = list(rng.choice(avoiding))
    cert = {"kind": "avoiding", "pattern": ["ap", 3], "r": 2, "colors": colors}
    add("verify-avoiding", ["verify", "--certificate", w("avoiding.json", cert)], 0,
        valid_check(True))
    flips = [i for i in range(8)
             if not oracles.avoids_ap(colors[:i] + [1 - colors[i]] + colors[i + 1:], 3)]
    i = rng.choice(flips)
    tampered = dict(cert, colors=colors[:i] + [1 - colors[i]] + colors[i + 1:])
    add("verify-tampered", ["verify", "--certificate", w("tampered.json", tampered)], 1,
        valid_check(False))
    add("verify-malformed", ["verify", "--certificate", w("malformed.json", '{"kind": "ap", ')],
        3, error_check)
    voter = rng.randrange(3)
    dictator = {"kind": "dictator", "voters": 3, "candidates": 3,
                "table": oracles.dictator_table(3, 3, voter), "dictator": voter}
    add("verify-dictator", ["verify", "--certificate", w("dictator.json", dictator)], 0,
        valid_check(True))

    # setfam
    n = rng.randrange(3, 6)
    fam = oracles.random_family(rng, n)
    w("family.json", {"ground": n, "members": [_bits(m) for m in fam]})

    def classify_check(result):
        expect(result["kind"] == oracles.classify(n, fam), "setfam", "classify")

    def star_check(result):
        got = oracles.to_masks(result["star"]["members"])
        expect(got == oracles.star(n, fam), "setfam", "star")

    add("setfam-classify", ["setfam", "classify", "--in", runner.path("family.json")], 0,
        classify_check)
    add("setfam-star", ["setfam", "star", "--in", runner.path("family.json")], 0, star_check)
    point = 1 << rng.randrange(n)
    fip = sorted({rng.randrange(1 << n) | point for _ in range(3)})
    w("fip.json", {"ground": n, "members": [_bits(m) for m in fip]})

    def closure_check(result):
        got = oracles.to_masks(result["closure"]["members"])
        expect(got == oracles.filter_closure(n, fip), "setfam", "filter closure")

    add("setfam-closure", ["setfam", "closure", "--in", runner.path("fip.json")], 0,
        closure_check)

    # sg: tables from a zoo built here
    zoo = [
        lambda k: [[(a * b) % k for b in range(k)] for a in range(k)],
        lambda k: [[(a + b) % k for b in range(k)] for a in range(k)],
        lambda k: [[max(a, b) for b in range(k)] for a in range(k)],
        lambda k: [[a for _ in range(k)] for a in range(k)],
        lambda k: [[b for b in range(k)] for _ in range(k)],
    ]
    mul_a = rng.choice(zoo)(rng.randrange(2, 6))
    mul_b = rng.choice(zoo)(rng.randrange(2, 4))
    w("table-a.json", {"n": len(mul_a), "mul": mul_a})
    w("table-b.json", {"n": len(mul_b), "mul": mul_b})

    def report_check(result):
        rep = result["report"]
        expect(tuple(rep["kernel"]) == oracles.kernel(mul_a), "semigroup", "kernel")
        lefts = sorted(map(tuple, rep["minimal_left_ideals"]))
        expect(lefts == oracles.minimal_left_ideals(mul_a), "semigroup", "minimal left ideals")
        expect(tuple(rep["idempotents"]) == oracles.idempotents(mul_a), "semigroup", "idempotents")

    def product_check(result):
        expect(result["product"]["mul"] == oracles.direct_product(mul_a, mul_b), "semigroup",
               "direct product")

    x, y = rng.randrange(len(mul_a)), rng.randrange(len(mul_a))
    for name, z in (("uf-x.json", x), ("uf-y.json", y)):
        w(name, {"ground": len(mul_a),
                 "members": [_bits(m) for m in oracles.principal_masks(len(mul_a), z)]})

    def ufprod_check(result):
        got = oracles.to_masks(result["product_ultrafilter"]["members"])
        expect(got == oracles.principal_masks(len(mul_a), mul_a[x][y]), "semigroup",
               "U_x U_y is not principal at xy")

    while True:
        bad = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
        if not oracles.is_associative(bad):
            break
    w("table-bad.json", {"n": 3, "mul": bad})
    add("sg-report", ["sg", "report", "--in", runner.path("table-a.json")], 0, report_check)
    add("sg-product", ["sg", "product", "--in", runner.path("table-a.json"),
                       "--in2", runner.path("table-b.json")], 0, product_check)
    add("sg-ufprod", ["sg", "ufprod", "--in", runner.path("table-a.json"),
                      "--uf", runner.path("uf-x.json"), "--uf2", runner.path("uf-y.json")], 0,
        ufprod_check)
    add("sg-report-nonassociative", ["sg", "report", "--in", runner.path("table-bad.json")], 1)

    # calc: checked by evaluation at a few points
    coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
              for _ in range(rng.randrange(2, 7))]
    w("poly.json", {"monomial": ["%d/%d" % (c.numerator, c.denominator) for c in coeffs]})
    shift = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    def f(t):
        return oracles.horner(coeffs, t)

    points = [Fraction(t, 3) for t in range(-4, 5)]

    def delta_check(result):
        g = _poly_values(result["delta"])
        expect(all(oracles.horner(g, t) == f(t + shift) - f(t) for t in points), "discalc",
               "delta")

    def symdelta_check(result):
        g = _poly_values(result["symdelta"])
        expect(all(oracles.horner(g, t) == f(t + shift) - f(t) - f(shift) for t in points),
               "discalc", "symmetric delta")

    def basis_check(result):
        b = [_fraction(c) for c in result["binomial"]["binomial"]]
        expect(all(sum(c * oracles.binomial(t, k) for k, c in enumerate(b)) == f(t)
                   for t in range(len(coeffs) + 2)), "discalc", "binomial basis")

    a = "%d/%d" % (shift.numerator, shift.denominator)
    add("calc-delta", ["calc", "delta", "--poly", runner.path("poly.json"), "-a=" + a], 0,
        delta_check)
    add("calc-symdelta", ["calc", "symdelta", "--poly", runner.path("poly.json"), "-a=" + a], 0,
        symdelta_check)
    add("calc-basis", ["calc", "basis", "--poly", runner.path("poly.json")], 0, basis_check)

    # gp
    n_eval = rng.randrange(1, 10**6)

    def eval_check(result):
        expect(result["value"] == oracles.round_pi_times(n_eval), "genpoly", "round(pi * n)")

    add("gp-eval", ["gp", "eval", "--expr", "round(pi * n)", "-n", str(n_eval)], 0, eval_check)
    n_digits = rng.randrange(1, 10**9)

    def digits_check(result):
        expect(result["map"]["digits"] == oracles.zeckendorf(n_digits)
               and result["map"]["value"] == n_digits, "genpoly", "Fibonacci digits")

    add("gp-digits", ["gp", "digits", "--system", "fib", "-n", str(n_digits)], 0, digits_check)
    states, in_base, out_base = rng.randrange(2, 4), rng.randrange(2, 4), rng.randrange(2, 5)
    tau = [[rng.randrange(states) for _ in range(in_base)] for _ in range(states)]
    lam = [[rng.randrange(4) for _ in range(in_base)] for _ in range(states)]
    w("dfao.json", {"states": states, "init": 0, "tau": tau, "lam": lam,
                    "in_base": in_base, "out_base": out_base})
    n_dfao = rng.randrange(1, 10**6)

    def dfao_check(result):
        expect(result["value"] == oracles.dfao_value(tau, lam, 0, in_base, out_base, n_dfao),
               "genpoly", "automaton output")

    add("gp-dfao", ["gp", "dfao", "--in", runner.path("dfao.json"), "-n", str(n_dfao)], 0,
        dfao_check)
    gens = sorted(rng.sample(range(1, 20), 3))
    sums = {sum(gens[i] for i in range(3) if s >> i & 1) for s in range(1, 8)}
    # x^2 is a sum over pairs of generators, so the degree-2 fit is exact;
    # x^3 is not affine in the generators, so the degree-1 fit is not
    w("fit-exact.json", {"values": {str(s): s * s for s in sums}, "generators": gens, "d": 2})
    w("fit-inexact.json", {"values": {str(s): s**3 for s in sums}, "generators": gens, "d": 1})

    def fit_check(result):
        fit = result["fit"]
        u = {tuple(int(i) for i in k.split(",")): _fraction(v) for k, v in fit["u"].items()}
        c = _fraction(fit["c"])
        for s in range(1, 8):
            members = [i for i in range(3) if s >> i & 1]
            total = sum(v for alpha, v in u.items() if set(alpha) <= set(members)) + c
            expect(total == sum(gens[i] for i in members) ** 2, "genpoly", "fit residual")

    add("gp-fit-exact", ["gp", "fit", "--in", runner.path("fit-exact.json")], 0, fit_check)
    add("gp-fit-inexact", ["gp", "fit", "--in", runner.path("fit-inexact.json")], 1)

    # arrow: the dictator is the generator by construction; Borda fails
    gen = rng.randrange(3)
    w("uf-voters.json",
      {"ground": 3, "members": [_bits(m) for m in oracles.principal_masks(3, gen)]})
    w("rule-dictator.json",
      {"voters": 3, "candidates": 3, "table": oracles.dictator_table(3, 3, gen)})
    w("rule-borda.json", {"voters": 2, "candidates": 3, "table": oracles.borda_table(2, 3)})

    def from_uf_check(result):
        expect(result["rule"]["table"] == oracles.dictator_table(3, 3, gen), "arrow",
               "rule from ultrafilter is not the generator's dictatorship")

    def dictator_check(result):
        expect(result["dictator"] == gen, "arrow",
               "dictator %s, generator %d" % (result["dictator"], gen))

    def decisive_check(result):
        got = oracles.to_masks(result["decisive"]["members"])
        expect(got == oracles.principal_masks(3, gen), "arrow", "decisive family")

    def borda_check(result):
        expect(result["dictator"] is None, "arrow", "dictator named for Borda")

    add("arrow-from-uf", ["arrow", "from-uf", "--uf", runner.path("uf-voters.json"),
                          "--voters", "3", "--candidates", "3"], 0, from_uf_check)
    add("arrow-verify-dictator", ["arrow", "verify", "--rule", runner.path("rule-dictator.json")],
        0, dictator_check)
    add("arrow-verify-borda", ["arrow", "verify", "--rule", runner.path("rule-borda.json")], 1,
        borda_check)
    add("arrow-decisive", ["arrow", "decisive", "--rule", runner.path("rule-dictator.json")], 0,
        decisive_check)

    # fol: two random magmas, a principal ultrafilter on the index set
    sizes = [rng.randrange(1, 4), rng.randrange(1, 4)]
    tables = [[[rng.randrange(k) for _ in range(k)] for _ in range(k)] for k in sizes]
    j = rng.randrange(2)
    w("sig.json", {"functions": {"f": 2}})
    structs = [w("struct-%d.json" % i, {"universe": k, "functions": {"f": t}})
               for i, (k, t) in enumerate(zip(sizes, tables))]
    w("uf-index.json", {"ground": 2, "members": [_bits(m) for m in oracles.principal_masks(2, j)]})
    fol = ["--sig", runner.path("sig.json"), "--structs", *structs]

    def eval_fol_check(result):
        want = [any(t[v][v] == v for v in range(len(t))) for t in tables]
        expect(result["values"] == want, "folup", "E x. f(x, x) = x")

    def uprod_check(result):
        expect(result["ultraproduct"]["universe"] == sizes[0] * sizes[1], "folup",
               "ultraproduct universe size")

    def los_check(result):
        expect(result["los"]["violations"] == [] and
               result["los"]["checked"] == (sizes[0] * sizes[1]) ** 2, "folup", "Łoś check")

    add("fol-eval", ["fol", "eval", *fol, "--formula", "E x. f(x, x) = x"], 0, eval_fol_check)
    add("fol-uprod", ["fol", "uprod", *fol, "--uf", runner.path("uf-index.json"),
                      "--formula", "E x. f(x, x) = x"], 0, uprod_check)
    add("fol-los", ["fol", "los", *fol, "--uf", runner.path("uf-index.json"),
                    "--formula", "f(x, y) = f(y, x)"], 0, los_check)
    return tasks, runner


def _bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def warm_up(ctx, runner):
    """One call, so later calls find compiled bytecode and warm file caches."""
    runner.invoke(ctx, ["gp", "eval", "--expr", "n", "-n", "1"])
