"""``ufw setfam``: classify a set family, close it, star it, or list the
ultrafilters on its ground."""

from .. import setfam
from . import EXIT_OK, InputError, load_json


def run(args, digests):
    fam = setfam.SetFamily.from_json(load_json(args.infile, digests))
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
    raise InputError("unknown setfam action %r" % args.action)
