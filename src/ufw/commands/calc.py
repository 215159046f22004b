"""``ufw calc``: exact finite differences and the binomial basis of a
rational polynomial."""

from .. import discalc
from . import EXIT_OK, InputError, load_json, parse_fraction


def run(args, digests):
    poly = discalc.RationalPoly.from_json(load_json(args.poly, digests))
    a = parse_fraction(args.a)
    if args.action == "delta":
        return {"delta": discalc.delta(poly, a).to_json()}, EXIT_OK
    if args.action == "symdelta":
        if args.points:
            xs = [parse_fraction(p) for p in args.points.split(",")]
            out = discalc.sym_delta_k(poly, xs)
        else:
            out = discalc.sym_delta(poly, a)
        return {"symdelta": out.to_json()}, EXIT_OK
    if args.action == "basis":
        b = discalc.basis_convert(poly)
        return {"binomial": b.to_json()}, EXIT_OK
    raise InputError("unknown calc action %r" % args.action)
