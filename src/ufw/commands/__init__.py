"""What every subcommand handler shares.

Each subcommand has a module of its own here whose ``run(args, digests)``
returns ``(result, exit code)``, so a call compiles only its own handler.
No module in this package imports ``ufw.cli``: under ``python -m ufw.cli``
the running front end is ``__main__``, so that import would compile and
run it a second time.  What the handlers and the front end share, such as
``InputError``, lives here for that reason.
"""

import json

try:
    # the builtin hash modules spare each call loading OpenSSL (``hashlib``
    # does), as CPython's own ``random`` does for sha512; the bytes agree
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3


class InputError(Exception):
    pass


def digest(data):
    return sha256(data).hexdigest()


def load_json(path, digests):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise InputError("cannot read %s: %s" % (path, err))
    digests[path] = digest(raw)
    try:
        return json.loads(raw)
    except json.JSONDecodeError as err:
        raise InputError("malformed JSON in %s at position %d: %s" % (path, err.pos, err.msg))
    except RecursionError:
        raise InputError("JSON in %s nests too deeply" % path)


def parse_fraction(text):
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError("not a rational number: %r" % text)


def int_list(text):
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise InputError("expected a comma-separated integer list, got %r" % text)
