"""``ufw fol``: evaluate a formula in finite structures, or build their
ultraproduct over an ultrafilter and check Łoś's transfer."""

from .. import folup
from ..errors import IndexOutOfRange
from . import EXIT_NEGATIVE, EXIT_OK, InputError, load_json


def run(args, digests):
    sig = folup.Signature.from_json(load_json(args.sig, digests))
    structs = [
        folup.Structure.from_json(sig, load_json(path, digests)) for path in args.structs
    ]
    phi = folup.parse_formula(args.formula, sig)
    if args.action == "eval":
        env = {}
        size = min(s.size for s in structs)
        for item in args.env.split(",") if args.env else []:
            name, _, value = item.partition("=")
            try:
                value = int(value)
            except ValueError:
                raise InputError("--env item %r is not name=integer" % item.strip())
            # a negative value would index a table from its end
            if not 0 <= value < size:
                raise IndexOutOfRange("%s is outside a universe of size %d" % (item.strip(), size))
            env[name.strip()] = value
        unset = sorted(folup.free_vars(phi) - env.keys())
        if unset:
            raise InputError("free variable %r has no value in --env" % unset[0])
        values = [folup.eval_formula(s, phi, env) for s in structs]
        return {"formula": folup.print_formula(phi), "values": values}, EXIT_OK
    # only the ultraproduct actions read an ultrafilter
    from .. import setfam

    if not args.uf:
        raise InputError("%s needs --uf with an ultrafilter file" % args.action)
    u = setfam.SetFamily.from_json(load_json(args.uf, digests))
    spec = folup.UltraproductSpec(tuple(structs), u)
    if args.action == "uprod":
        prod = folup.ultraproduct(spec)
        return {"ultraproduct": prod.to_json()}, EXIT_OK
    if args.action == "los":
        report = folup.los_check(spec, phi)
        code = EXIT_OK if not report["violations"] else EXIT_NEGATIVE
        return {"los": report}, code
    raise InputError("unknown fol action %r" % args.action)
