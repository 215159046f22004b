"""Unified command-line front end.

Subcommands: setfam, sg, search, calc, gp, arrow, fol, verify.  All output
is JSON on stdout, wrapped with a run manifest (command, version, input
digests, output digest, wall time).  Numbers that may exceed the
53-bit float mantissa are serialized as decimal strings.

Exit codes: 0 success with a positive result; 1 verified negative (proven
absent, failed verification, failed axiom); 2 budget or cap exhausted;
3 input error.  A run whose stdout closes before the output is written
(``ufw … | head``) exits 141, the shell's status for SIGPIPE.

Each subcommand's handler is a module of its own in ``ufw.commands``, which
``run`` imports by name, so a call compiles only its own handler.  Each
handler imports the layers it uses, and the lazy packages load only the
submodules whose names it reads, so a call loads only the modules it runs
(``verify`` the checkers, not the searches; ``gp eval`` the expression
evaluator, not the digit systems).  ``ufw`` has no runtime dependencies.
Digests use the builtin sha256, not OpenSSL, and ``fractions`` loads only
for a subcommand that reads or computes a rational.
"""

import argparse
import importlib
import json
import os
import sys
import time

from . import __version__
from .commands import EXIT_BUDGET, EXIT_INPUT, EXIT_NEGATIVE, EXIT_OK, InputError, digest
from .errors import (
    ArityMismatch,
    BudgetExhausted,
    CapExceeded,
    IndexOutOfRange,
    ParseError,
    UfwError,
)

EXIT_PIPE = 141

_BIG = 1 << 53


def _jsonable(obj):
    """Lossless JSON projection: Fractions as 'p/q', over-53-bit ints as
    decimal strings, tuples/sets as lists, dict keys as strings."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) >= _BIG else obj
    # no Fraction can exist before ``fractions`` is imported
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(obj, fractions.Fraction):
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


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as input errors, so they get a JSON body too."""

    def error(self, message):
        raise InputError("%s: %s" % (self.prog, message))


# --- argument parsing ------------------------------------------------------


def _build_parser():
    parser = _Parser(prog="ufw")
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

    p = sub.add_parser("verify")
    p.add_argument("--certificate", required=True)

    return parser


def run(argv):
    try:
        args = _build_parser().parse_args(argv)
    except InputError as err:
        _emit({"error": str(err)}, argv, {}, time.monotonic())
        return EXIT_INPUT
    except SystemExit:  # --help printed usage; errors raise InputError instead
        return EXIT_OK

    digests = {}
    start = time.monotonic()
    try:
        handler = importlib.import_module(".commands." + args.command, __package__)
        result, code = handler.run(args, digests)
    except InputError as err:
        _emit({"error": str(err)}, argv, digests, start)
        return EXIT_INPUT
    except (ParseError, IndexOutOfRange, ArityMismatch, ValueError, KeyError, TypeError) as err:
        _emit({"error": "%s: %s" % (type(err).__name__, err)}, argv, digests, start)
        return EXIT_INPUT
    except (BudgetExhausted, CapExceeded) as err:
        _emit({"error": "%s: %s" % (type(err).__name__, err)}, argv, digests, start)
        return EXIT_BUDGET
    except UfwError as err:
        payload = {"error": "%s: %s" % (type(err).__name__, err)}
        witness = getattr(err, "witness", None)
        if witness is not None:
            payload["witness"] = witness
        _emit(payload, argv, digests, start)
        return EXIT_NEGATIVE
    _emit(result, argv, digests, start)
    return code


def _emit(result, argv, digests, start):
    body = _jsonable(result)
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    report = {
        "result": body,
        "manifest": {
            "command": list(argv),
            "version": __version__,
            "input_digests": digests,
            "output_digest": digest(canonical),
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
