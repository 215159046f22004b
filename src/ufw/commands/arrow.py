"""``ufw arrow``: check an aggregation rule's axioms, find its decisive
coalitions and dictator, or build the rule of an ultrafilter."""

from .. import arrow, setfam
from . import EXIT_NEGATIVE, EXIT_OK, InputError, load_json


def run(args, digests):
    if args.action == "from-uf":
        if not args.uf:
            raise InputError("from-uf needs --uf with an ultrafilter file")
        u = setfam.SetFamily.from_json(load_json(args.uf, digests))
        el = arrow.Election(args.voters, args.candidates)
        rule = arrow.rule_from_ultrafilter(u, el)
        return {"rule": rule.to_json()}, EXIT_OK
    if not args.rule:
        raise InputError("%s needs --rule with a rule file" % args.action)
    rule = arrow.AggregationRule.from_json(load_json(args.rule, digests))
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
    raise InputError("unknown arrow action %r" % args.action)
