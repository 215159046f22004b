"""``ufw sg``: ideal report, direct product and ultrafilter product of
Cayley tables."""

from .. import semigroup, setfam
from . import EXIT_OK, InputError, load_json


def run(args, digests):
    table = semigroup.CayleyTable.from_json(load_json(args.infile, digests))
    if args.action == "report":
        return {"report": semigroup.ideal_report(table)}, EXIT_OK
    if args.action == "product":
        if not args.infile2:
            raise InputError("product needs --in2 with a second table")
        other = semigroup.CayleyTable.from_json(load_json(args.infile2, digests))
        prod = semigroup.direct_product(table, other)
        return {"product": prod.to_json()}, EXIT_OK
    if args.action == "ufprod":
        if not (args.uf and args.uf2):
            raise InputError("ufprod needs --uf and --uf2 ultrafilter files")
        u = setfam.SetFamily.from_json(load_json(args.uf, digests))
        v = setfam.SetFamily.from_json(load_json(args.uf2, digests))
        out = semigroup.ultrafilter_product(table, u, v)
        return {"product_ultrafilter": out.to_json()}, EXIT_OK
    raise InputError("unknown sg action %r" % args.action)
