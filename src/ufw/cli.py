"""Unified command-line front end.

Subcommands: setfam, sg, search, calc, gp, arrow, fol, verify.  All output
is JSON on stdout, wrapped with a run manifest (command, version, seed,
input digests, output digest, wall time).  Numbers that may exceed the
53-bit float mantissa are serialized as decimal strings.

Exit codes: 0 success with a positive result; 1 verified negative (proven
absent, failed verification, failed axiom); 2 budget or cap exhausted;
3 input error.  A run whose stdout closes before the output is written
(``ufw … | head``) exits 141, the shell's status for SIGPIPE.

Each handler imports the layers it uses, and the lazy packages load only
the submodules whose names it reads, so a call loads only the modules it
runs (``verify`` the checkers, not the searches; ``gp eval`` the expression
evaluator, not the digit systems or numpy, which only the Weyl sum loads).
"""

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .errors import (
    ArityMismatch,
    BudgetExhausted,
    CapExceeded,
    IndexOutOfRange,
    ParseError,
    UfwError,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3
EXIT_PIPE = 141

_BIG = 1 << 53


def _jsonable(obj):
    """Lossless JSON projection: Fractions as 'p/q', over-53-bit ints as
    decimal strings, tuples/sets as lists, dict keys as strings."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) >= _BIG else obj
    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return _jsonable(obj.numerator)
        return "%d/%d" % (obj.numerator, obj.denominator)
    if isinstance(obj, float):
        return obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {_key(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_jsonable(v) for v in obj)
    if hasattr(obj, "to_json"):
        return _jsonable(obj.to_json())
    return repr(obj)


def _key(k):
    if isinstance(k, str):
        return k
    if isinstance(k, (tuple, list)):
        return ",".join(str(v) for v in k)
    return str(k)


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _load_json(path, digests):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise _InputError("cannot read %s: %s" % (path, err))
    digests[path] = _digest(raw)
    try:
        return json.loads(raw)
    except json.JSONDecodeError as err:
        raise _InputError("malformed JSON in %s at position %d: %s" % (path, err.pos, err.msg))
    except RecursionError:
        raise _InputError("JSON in %s nests too deeply" % path)


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as input errors, so they get a JSON body too."""

    def error(self, message):
        raise _InputError("%s: %s" % (self.prog, message))


def _parse_fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _InputError("not a rational number: %r" % text)


def _int_list(text):
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise _InputError("expected a comma-separated integer list, got %r" % text)


# --- subcommand handlers ---------------------------------------------------


def _cmd_setfam(args, digests):
    from . import setfam

    fam = setfam.SetFamily.from_json(_load_json(args.infile, digests))
    if args.action == "classify":
        verdict = setfam.classify_family(fam)
        result = {"kind": verdict.kind, "witness": verdict.witness}
        return result, EXIT_OK
    if args.action == "closure":
        closed = setfam.filter_closure(fam)
        return {"closure": closed.to_json()}, EXIT_OK
    if args.action == "star":
        starred = setfam.star(fam)
        return {"star": starred.to_json()}, EXIT_OK
    if args.action == "ultrafilters":
        ufs = setfam.enumerate_ultrafilters(fam.ground)
        return {"ultrafilters": [u.to_json() for u in ufs]}, EXIT_OK
    raise _InputError("unknown setfam action %r" % args.action)


def _cmd_sg(args, digests):
    from . import semigroup, setfam

    table = semigroup.CayleyTable.from_json(_load_json(args.infile, digests))
    if args.action == "report":
        return {"report": semigroup.ideal_report(table)}, EXIT_OK
    if args.action == "product":
        if not args.infile2:
            raise _InputError("product needs --in2 with a second table")
        other = semigroup.CayleyTable.from_json(_load_json(args.infile2, digests))
        prod = semigroup.direct_product(table, other)
        return {"product": prod.to_json()}, EXIT_OK
    if args.action == "ufprod":
        if not (args.uf and args.uf2):
            raise _InputError("ufprod needs --uf and --uf2 ultrafilter files")
        u = setfam.SetFamily.from_json(_load_json(args.uf, digests))
        v = setfam.SetFamily.from_json(_load_json(args.uf2, digests))
        out = semigroup.ultrafilter_product(table, u, v)
        return {"product_ultrafilter": out.to_json()}, EXIT_OK
    raise _InputError("unknown sg action %r" % args.action)


_SEARCH_PATTERNS = {
    "vdw": lambda a: ("ap", a.length),
    "ramsey": lambda a: ("clique", a.uniform, a.size),
    "hj": lambda a: ("line", a.sigma),
    "hindman": lambda a: ("fs", a.k),
}


def _cmd_search(args, digests):
    from . import largeness

    if args.problem == "ipstar":
        members = set(_int_list(args.members))
        report = largeness.ipstar_probe(members, args.n, args.k, scope=args.scope)
        return {"ipstar": report}, EXIT_OK if report["holds"] else EXIT_NEGATIVE
    pattern = _SEARCH_PATTERNS[args.problem](args)
    res = largeness.threshold_number(pattern, args.colors, args.cap)
    result = {
        "pattern": list(pattern),
        "colors": args.colors,
        "threshold": res.value,
        "cap": res.cap,
    }
    if res.failure_coloring is not None:
        result["failure_coloring"] = list(res.failure_coloring)
        result["certificate"] = {
            "kind": "avoiding",
            "pattern": list(pattern),
            "r": args.colors,
            "colors": list(res.failure_coloring),
        }
    return result, EXIT_OK if res.value is not None else EXIT_BUDGET


def _cmd_calc(args, digests):
    from . import discalc

    poly = discalc.RationalPoly.from_json(_load_json(args.poly, digests))
    a = _parse_fraction(args.a)
    if args.action == "delta":
        return {"delta": discalc.delta(poly, a).to_json()}, EXIT_OK
    if args.action == "symdelta":
        if args.points:
            xs = [_parse_fraction(p) for p in args.points.split(",")]
            out = discalc.sym_delta_k(poly, xs)
        else:
            out = discalc.sym_delta(poly, a)
        return {"symdelta": out.to_json()}, EXIT_OK
    if args.action == "basis":
        b = discalc.basis_convert(poly)
        return {"binomial": b.to_json()}, EXIT_OK
    raise _InputError("unknown calc action %r" % args.action)


def _real_const(text):
    from .genpoly.reals import NAMED, RealConst

    if text in NAMED:
        return NAMED[text]
    if text.startswith("sqrt"):
        return RealConst.sqrt(int(text[4:].strip()))
    return RealConst.rational(_parse_fraction(text))


def _digit_system(text):
    from . import genpoly

    if text == "fib":
        return genpoly.DigitSystem.fibonacci()
    if text.startswith("base:"):
        return genpoly.DigitSystem.base(int(text.split(":", 1)[1]))
    if text.startswith("custom:"):
        return genpoly.DigitSystem.custom(_int_list(text.split(":", 1)[1]))
    raise _InputError("unknown digit system %r (use fib, base:A, custom:d0,d1,…)" % text)


def _cmd_gp(args, digests):
    from . import genpoly

    if args.action == "eval":
        expr = genpoly.parse_gpexpr(args.expr)
        value = genpoly.eval_exact(expr, args.n)
        return {"expr": args.expr, "n": args.n, "value": value}, EXIT_OK
    if args.action == "digits":
        system = _digit_system(args.system)
        return {"n": args.n, "map": genpoly.digit_map(args.n, system)}, EXIT_OK
    if args.action == "dfao":
        m = genpoly.Dfao.from_json(_load_json(args.infile, digests))
        return {"n": args.n, "value": genpoly.dfao_eval(m, args.n)}, EXIT_OK
    if args.action == "returns":
        expr = genpoly.parse_gpexpr(args.expr)
        members, ambiguous = genpoly.return_times(expr, _parse_fraction(args.eps), args.n)
        return {"members": members, "ambiguous": ambiguous}, EXIT_OK
    if args.action == "weyl":
        alphas = [_real_const(v.strip()) for v in args.alphas.split(",")]
        ks = _int_list(args.ks)
        return {"weyl": genpoly.weyl_sum(alphas, ks, args.n)}, EXIT_OK
    if args.action == "fit":
        obj = _load_json(args.infile, digests)
        values = {int(k): _parse_fraction(str(v)) for k, v in obj["values"].items()}
        report = genpoly.fit_generating_function(
            lambda x: values[x], obj["generators"], obj["d"]
        )
        return {"fit": report}, EXIT_OK if report["exact"] else EXIT_NEGATIVE
    raise _InputError("unknown gp action %r" % args.action)


def _cmd_arrow(args, digests):
    from . import arrow, setfam

    if args.action == "from-uf":
        u = setfam.SetFamily.from_json(_load_json(args.uf, digests))
        el = arrow.Election(args.voters, args.candidates)
        rule = arrow.rule_from_ultrafilter(u, el)
        return {"rule": rule.to_json()}, EXIT_OK
    rule = arrow.AggregationRule.from_json(_load_json(args.rule, digests))
    if args.action == "check":
        report = arrow.check_axioms(rule)
        ok = report["iia"] and report["monotone"] and report["unanimity"]
        return {"axioms": report}, EXIT_OK if ok else EXIT_NEGATIVE
    if args.action == "decisive":
        fam = arrow.decisive_family(rule)
        return {"decisive": fam.to_json()}, EXIT_OK
    if args.action == "verify":
        report = arrow.verify_arrow(rule)
        result = {
            "axioms": report["axioms"],
            "family_verdict": report["family_verdict"],
            "dictator": report["dictator"],
        }
        if report.get("decisive_family") is not None:
            result["decisive"] = report["decisive_family"].to_json()
        ok = report["dictator"] is not None
        return result, EXIT_OK if ok else EXIT_NEGATIVE
    raise _InputError("unknown arrow action %r" % args.action)


def _cmd_fol(args, digests):
    from . import folup, setfam

    sig = folup.Signature.from_json(_load_json(args.sig, digests))
    structs = [
        folup.Structure.from_json(sig, _load_json(path, digests)) for path in args.structs
    ]
    phi = folup.parse_formula(args.formula, sig)
    if args.action == "eval":
        env = {}
        size = min(s.size for s in structs)
        for item in args.env.split(",") if args.env else []:
            name, _, value = item.partition("=")
            value = int(value)
            # a negative value would index a table from its end
            if not 0 <= value < size:
                raise IndexOutOfRange("%s is outside a universe of size %d" % (item.strip(), size))
            env[name.strip()] = value
        values = [folup.eval_formula(s, phi, env) for s in structs]
        return {"formula": folup.print_formula(phi), "values": values}, EXIT_OK
    u = setfam.SetFamily.from_json(_load_json(args.uf, digests))
    spec = folup.UltraproductSpec(tuple(structs), u)
    if args.action == "uprod":
        prod = folup.ultraproduct(spec)
        return {"ultraproduct": prod.to_json()}, EXIT_OK
    if args.action == "los":
        report = folup.los_check(spec, phi, samples=args.samples, seed=args.seed)
        code = EXIT_OK if not report["violations"] else EXIT_NEGATIVE
        return {"los": report}, code
    raise _InputError("unknown fol action %r" % args.action)


def verify_certificate(cert):
    """Re-validate a witness certificate with the independent checkers
    (never the producing search).  Returns (valid, mismatch-or-None)."""
    from .largeness import checkers

    if not isinstance(cert, dict):
        raise _InputError("a certificate is a JSON object, got %s" % type(cert).__name__)
    kind = cert.get("kind")
    if kind == "fs":
        ok = checkers.check_fs_witness(
            cert["colors"],
            cert["generators"],
            cert["color"],
            cert.get("sums"),
            distinct=cert.get("distinct", True),
        )
        return ok, None if ok else "finite-sums witness failed recheck"
    if kind == "ap":
        ok = checkers.check_ap_witness(
            cert["colors"], cert["start"], cert["step"], cert["length"], cert["color"]
        )
        return ok, None if ok else "arithmetic-progression witness failed recheck"
    if kind == "line":
        word = tuple(None if w is None else int(w) for w in cert["word"])
        ok = checkers.check_line_witness(cert["colors"], cert["sigma"], word, cert["color"])
        return ok, None if ok else "combinatorial-line witness failed recheck"
    if kind == "clique":
        ok = checkers.check_clique_witness(
            cert["colors"], cert["n"], cert["k"], cert["subset"], cert["color"]
        )
        return ok, None if ok else "clique witness failed recheck"
    if kind == "avoiding":
        ok = checkers.check_avoiding_coloring(
            tuple(cert["pattern"]), cert["r"], cert["colors"]
        )
        return ok, None if ok else "avoiding coloring contains the pattern"
    if kind == "dictator":
        ok = checkers.check_dictator(
            cert["voters"], cert["candidates"], cert["table"], cert["dictator"]
        )
        return ok, None if ok else "rule disagrees with the claimed dictator"
    if kind == "los":
        from . import folup, setfam

        sig = folup.Signature.from_json(cert["sig"])
        structs = tuple(folup.Structure.from_json(sig, s) for s in cert["structs"])
        u = setfam.SetFamily.from_json(cert["uf"])
        phi = folup.parse_formula(cert["formula"], sig)
        report = folup.los_check(folup.UltraproductSpec(structs, u), phi)
        ok = not report["violations"]
        return ok, None if ok else "transfer equivalence failed recheck"
    raise _InputError("unknown certificate kind %r" % kind)


def _cmd_verify(args, digests):
    cert = _load_json(args.certificate, digests)
    ok, mismatch = verify_certificate(cert)
    result = {"valid": ok}
    if mismatch:
        result["mismatch"] = mismatch
    return result, EXIT_OK if ok else EXIT_NEGATIVE


# --- argument parsing ------------------------------------------------------


def _build_parser():
    parser = _Parser(prog="ufw")
    parser.add_argument("--seed", type=int, default=None, help="random seed (or UFW_SEED)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("setfam")
    p.add_argument("action", choices=["classify", "closure", "star", "ultrafilters"])
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("sg")
    p.add_argument("action", choices=["report", "product", "ufprod"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--in2", dest="infile2")
    p.add_argument("--uf")
    p.add_argument("--uf2")

    p = sub.add_parser("search")
    p.add_argument("problem", choices=["vdw", "ramsey", "hj", "hindman", "ipstar"])
    p.add_argument("--colors", type=int, default=2)
    p.add_argument("--cap", type=int, default=16)
    p.add_argument("--len", dest="length", type=int, default=3, help="progression length")
    p.add_argument("--size", type=int, default=3, help="clique size")
    p.add_argument("--uniform", type=int, default=2, help="hypergraph uniformity")
    p.add_argument("--sigma", type=int, default=2, help="alphabet size")
    p.add_argument("--k", type=int, default=2, help="generator count")
    p.add_argument("--members", default="", help="ipstar set, comma-separated")
    p.add_argument("--n", type=int, default=10, help="ipstar interval bound")
    p.add_argument("--scope", choices=["sums", "generators"], default="sums")

    p = sub.add_parser("calc")
    p.add_argument("action", choices=["delta", "symdelta", "basis"])
    p.add_argument("--poly", required=True)
    p.add_argument("-a", default="1", help="shift as a rational")
    p.add_argument("--points", default="", help="comma-separated rationals")

    p = sub.add_parser("gp")
    p.add_argument("action", choices=["eval", "digits", "dfao", "returns", "weyl", "fit"])
    p.add_argument("--expr", default="n")
    p.add_argument("-n", type=int, default=0)
    p.add_argument("--system", default="fib")
    p.add_argument("--in", dest="infile")
    p.add_argument("--eps", default="1/10")
    p.add_argument("--alphas", default="")
    p.add_argument("--ks", default="")

    p = sub.add_parser("arrow")
    p.add_argument("action", choices=["check", "decisive", "verify", "from-uf"])
    p.add_argument("--rule")
    p.add_argument("--uf")
    p.add_argument("--voters", type=int, default=2)
    p.add_argument("--candidates", type=int, default=3)

    p = sub.add_parser("fol")
    p.add_argument("action", choices=["eval", "uprod", "los"])
    p.add_argument("--sig", required=True)
    p.add_argument("--structs", nargs="+", required=True)
    p.add_argument("--uf")
    p.add_argument("--formula", required=True)
    p.add_argument("--env", default="", help="assignment, e.g. x=0,y=1")
    p.add_argument("--samples", type=int, default=None)

    p = sub.add_parser("verify")
    p.add_argument("--certificate", required=True)

    return parser


_HANDLERS = {
    "setfam": _cmd_setfam,
    "sg": _cmd_sg,
    "search": _cmd_search,
    "calc": _cmd_calc,
    "gp": _cmd_gp,
    "arrow": _cmd_arrow,
    "fol": _cmd_fol,
    "verify": _cmd_verify,
}


def _seed(flag):
    """The --seed value, else UFW_SEED, else 0."""
    if flag is not None:
        return flag
    text = os.environ.get("UFW_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise _InputError("UFW_SEED is not an integer: %r" % text)


def run(argv):
    try:
        args = _build_parser().parse_args(argv)
    except _InputError as err:
        _emit({"error": str(err)}, argv, None, {}, time.monotonic())
        return EXIT_INPUT
    except SystemExit:  # --help printed usage; errors raise _InputError instead
        return EXIT_OK

    digests = {}
    start = time.monotonic()
    seed = None
    try:
        seed = args.seed = _seed(args.seed)
        result, code = _HANDLERS[args.command](args, digests)
    except _InputError as err:
        _emit({"error": str(err)}, argv, seed, digests, start)
        return EXIT_INPUT
    except (ParseError, IndexOutOfRange, ArityMismatch, ValueError, KeyError, TypeError) as err:
        _emit({"error": "%s: %s" % (type(err).__name__, err)}, argv, seed, digests, start)
        return EXIT_INPUT
    except (BudgetExhausted, CapExceeded) as err:
        _emit({"error": "%s: %s" % (type(err).__name__, err)}, argv, seed, digests, start)
        return EXIT_BUDGET
    except UfwError as err:
        payload = {"error": "%s: %s" % (type(err).__name__, err)}
        witness = getattr(err, "witness", None)
        if witness is not None:
            payload["witness"] = witness
        _emit(payload, argv, seed, digests, start)
        return EXIT_NEGATIVE
    _emit(result, argv, seed, digests, start)
    return code


def _emit(result, argv, seed, digests, start):
    body = _jsonable(result)
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    report = {
        "result": body,
        "manifest": {
            "command": list(argv),
            "version": __version__,
            "seed": seed,
            "input_digests": digests,
            "output_digest": _digest(canonical),
            "wall_time_ms": int((time.monotonic() - start) * 1000),
        },
    }
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull, so that the flush at
        # interpreter exit cannot fail again, and exit without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
