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


def _fit_input(obj):
    """The values, generators and d of a ``gp fit`` file, each checked with
    type(), not isinstance(): True and False are ints too."""
    if type(obj) is not dict:
        raise InputError("a fit file is a JSON object, got %s" % type(obj).__name__)
    for key, kind, name in (
        ("values", dict, "an object"), ("generators", list, "a list"), ("d", int, "an integer")
    ):
        if type(obj.get(key)) is not kind:
            raise InputError("fit file key %r must be %s" % (key, name))
    if any(type(g) is not int for g in obj["generators"]):
        raise InputError("fit file key 'generators' must list integers")
    if obj["d"] < 0:
        raise InputError("fit file key 'd' must be at least 0")
    values = {}
    for k, v in obj["values"].items():
        try:
            values[int(k)] = parse_fraction(str(v))
        except ValueError:
            raise InputError("fit file key 'values' has a non-integer index %r" % k)
    return values, obj["generators"], obj["d"]


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
        values, generators, d = _fit_input(_load_in(args, "a values", digests))

        def value(x):
            if x not in values:
                raise InputError("fit file key 'values' has no entry for %d" % x)
            return values[x]

        report = genpoly.fit_generating_function(value, generators, d)
        return {"fit": report}, EXIT_OK if report["exact"] else EXIT_NEGATIVE
    raise InputError("unknown gp action %r" % args.action)
