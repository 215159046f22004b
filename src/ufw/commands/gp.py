"""``ufw gp``: certified evaluation, return times and Weyl sums of
generalized polynomials; digit maps, automata and generating-function fits."""

from .. import genpoly
from . import EXIT_NEGATIVE, EXIT_OK, InputError, int_list, load_json, parse_fraction


def _real_const(text):
    from ..genpoly.reals import NAMED, RealConst

    if text in NAMED:
        return NAMED[text]
    if text.startswith("sqrt"):
        try:
            d = int(text[4:].strip())
        except ValueError:
            raise InputError("alpha %r: sqrt takes an integer, as in sqrt2" % text)
        return RealConst.sqrt(d)
    return RealConst.rational(parse_fraction(text))


def _digit_system(text):
    if text == "fib":
        return genpoly.DigitSystem.fibonacci()
    if text.startswith("base:"):
        try:
            base = int(text[5:])
        except ValueError:
            raise InputError("digit system %r: base takes an integer, as in base:10" % text)
        return genpoly.DigitSystem.base(base)
    if text.startswith("custom:"):
        return genpoly.DigitSystem.custom(int_list(text.split(":", 1)[1]))
    raise InputError("unknown digit system %r (use fib, base:A, custom:d0,d1,…)" % text)


def _load_in(args, what, digests):
    if not args.infile:
        raise InputError("%s needs --in with %s file" % (args.action, what))
    return load_json(args.infile, digests)


def run(args, digests):
    if args.action == "eval":
        expr = genpoly.parse_gpexpr(args.expr)
        value = genpoly.eval_exact(expr, args.n)
        return {"expr": args.expr, "n": args.n, "value": value}, EXIT_OK
    if args.action == "digits":
        system = _digit_system(args.system)
        return {"n": args.n, "map": genpoly.digit_map(args.n, system)}, EXIT_OK
    if args.action == "dfao":
        m = genpoly.Dfao.from_json(_load_in(args, "an automaton", digests))
        return {"n": args.n, "value": genpoly.dfao_eval(m, args.n)}, EXIT_OK
    if args.action == "returns":
        expr = genpoly.parse_gpexpr(args.expr)
        members, ambiguous = genpoly.return_times(expr, parse_fraction(args.eps), args.n)
        return {"members": members, "ambiguous": ambiguous}, EXIT_OK
    if args.action == "weyl":
        alphas = [_real_const(v.strip()) for v in args.alphas.split(",")]
        ks = int_list(args.ks)
        return {"weyl": genpoly.weyl_sum(alphas, ks, args.n)}, EXIT_OK
    if args.action == "fit":
        obj = _load_in(args, "a values", digests)
        values = {int(k): parse_fraction(str(v)) for k, v in obj["values"].items()}
        report = genpoly.fit_generating_function(
            lambda x: values[x], obj["generators"], obj["d"]
        )
        return {"fit": report}, EXIT_OK if report["exact"] else EXIT_NEGATIVE
    raise InputError("unknown gp action %r" % args.action)
