"""``ufw search``: threshold numbers with an avoiding-coloring certificate,
and the IP* probe."""

from .. import largeness
from . import EXIT_BUDGET, EXIT_NEGATIVE, EXIT_OK, int_list

_PATTERNS = {
    "vdw": lambda a: ("ap", a.length),
    "ramsey": lambda a: ("clique", a.uniform, a.size),
    "hj": lambda a: ("line", a.sigma),
    "hindman": lambda a: ("fs", a.k),
}


def run(args, digests):
    if args.problem == "ipstar":
        members = set(int_list(args.members))
        report = largeness.ipstar_probe(members, args.n, args.k, scope=args.scope)
        return {"ipstar": report}, EXIT_OK if report["holds"] else EXIT_NEGATIVE
    pattern = _PATTERNS[args.problem](args)
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
