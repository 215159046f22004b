"""``ufw verify``: re-validate a witness certificate."""

from ..largeness import checkers
from . import EXIT_NEGATIVE, EXIT_OK, InputError, load_json


def verify_certificate(cert):
    """Re-validate a witness certificate with the independent checkers
    (never the producing search).  Returns (valid, mismatch-or-None)."""
    if not isinstance(cert, dict):
        raise InputError("a certificate is a JSON object, got %s" % type(cert).__name__)
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
        ok = checkers.check_line_witness(cert["colors"], cert["sigma"], cert["word"], cert["color"])
        return ok, None if ok else "combinatorial-line witness failed recheck"
    if kind == "clique":
        ok = checkers.check_clique_witness(
            cert["colors"], cert["n"], cert["k"], cert["subset"], cert["color"]
        )
        return ok, None if ok else "clique witness failed recheck"
    if kind == "avoiding":
        fault = checkers.avoiding_coloring_fault(
            tuple(cert["pattern"]), cert["r"], cert["colors"]
        )
        return fault is None, None if fault is None else "avoiding coloring " + fault
    if kind == "dictator":
        ok = checkers.check_dictator(
            cert["voters"], cert["candidates"], cert["table"], cert["dictator"]
        )
        return ok, None if ok else "rule disagrees with the claimed dictator"
    if kind == "los":
        from .. import folup, setfam

        sig = folup.Signature.from_json(cert["sig"])
        structs = tuple(folup.Structure.from_json(sig, s) for s in cert["structs"])
        u = setfam.SetFamily.from_json(cert["uf"])
        phi = folup.parse_formula(cert["formula"], sig)
        report = folup.los_check(folup.UltraproductSpec(structs, u), phi)
        ok = not report["violations"]
        return ok, None if ok else "transfer equivalence failed recheck"
    raise InputError("unknown certificate kind %r" % kind)


def run(args, digests):
    cert = load_json(args.certificate, digests)
    ok, mismatch = verify_certificate(cert)
    result = {"valid": ok}
    if mismatch:
        result["mismatch"] = mismatch
    return result, EXIT_OK if ok else EXIT_NEGATIVE
