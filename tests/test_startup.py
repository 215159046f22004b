"""Start-up cost: a ``ufw`` call loads only the layers its subcommand uses,
within a layer only the submodules it runs, only its own subcommand's
handler, ``fractions`` only where a rational is read or computed, and never
numpy, ``dataclasses`` (nor ``inspect``, which either would pull in) or
OpenSSL's ``hashlib``.

Each test runs a fresh interpreter, because the in-process tests have long
since imported every layer."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ufw
from ufw.commands import digest

LAYERS = {"arrow", "discalc", "folup", "genpoly", "largeness", "semigroup", "setfam"}
#: standard modules whose loading costs a call milliseconds
HEAVY = ("_hashlib", "dataclasses", "fractions", "hashlib", "inspect", "numpy")
AVOIDING_AP3 = {"kind": "avoiding", "pattern": ["ap", 3], "r": 2, "colors": [0, 1, 0, 1, 1, 0, 1, 0]}
#: the 2×3 rule that copies voter 0, whose order index is the profile's
#: leading base-6 digit
DICTATOR_2X3 = {"voters": 2, "candidates": 3, "table": [p // 6 for p in range(36)]}
#: a signature and structure for ``fol eval``: f swaps the two elements
UNARY_SIG = {"functions": {"f": 1}}
SWAP_2 = {"universe": 2, "functions": {"f": [1, 0]}}
#: an exact degree-2 fit of n² over the index-set sums of 1, 2, 4
FIT_SQUARE = {"values": {str(n): n * n for n in range(1, 8)}, "generators": [1, 2, 4], "d": 2}


def fresh(code):
    """Run ``code`` in a new interpreter on this package; returns the JSON
    object it prints as the last line of stderr (stdout carries ufw output)."""
    env = dict(os.environ, PYTHONPATH=str(Path(ufw.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


def loaded_after_run(argv):
    return fresh(
        "import json, sys\n"
        "import ufw.cli\n"
        "code = ufw.cli.run(%r)\n"
        "modules = sorted(m for m in sys.modules if m.startswith('ufw.'))\n"
        "stdlib = sorted(m for m in %r if m in sys.modules)\n"
        "json.dump({'code': code, 'modules': modules, 'stdlib': stdlib}, sys.stderr)\n"
        "sys.stderr.write('\\n')\n" % (argv, HEAVY)
    )


@pytest.mark.parametrize(
    "argv, layers, stdlib, absent",
    [
        pytest.param(["search", "vdw", "--len", "3", "--cap", "10"], {"largeness"}, [],
                     {"ufw.largeness.checkers"}, id="search"),
        # the checkers share no code with the searches, so they load alone
        pytest.param(["verify", "--certificate", "{cert}"], {"largeness"}, [],
                     {"ufw.largeness.search"}, id="verify"),
        pytest.param(["arrow", "verify", "--rule", "{rule}"], {"arrow", "setfam"}, [],
                     set(), id="arrow-verify"),
        pytest.param(["gp", "eval", "--expr", "n * 3/2", "-n", "3"], {"genpoly"}, ["fractions"],
                     {"ufw.genpoly.analysis", "ufw.genpoly.digits", "ufw.genpoly.dfao"},
                     id="gp-eval"),
        pytest.param(["gp", "returns", "--expr", "golden * n", "--eps", "1/4", "-n", "20"],
                     {"genpoly"}, ["fractions"],
                     {"ufw.genpoly.fitting", "ufw.genpoly.digits", "ufw.genpoly.dfao"},
                     id="gp-returns"),
        # the Weyl sum is read from its closed form on rational brackets
        pytest.param(["gp", "weyl", "--alphas", "sqrt2", "--ks", "1", "-n", "50"],
                     {"genpoly"}, ["fractions"], {"ufw.genpoly.dfao"}, id="gp-weyl"),
        # a fit reads rationals and solves; it evaluates no expression
        pytest.param(["gp", "fit", "--in", "{fit}"], {"genpoly"}, ["fractions"],
                     {"ufw.genpoly.expr", "ufw.genpoly.reals", "ufw.genpoly.analysis"},
                     id="gp-fit"),
        # only the ultraproduct actions read an ultrafilter
        pytest.param(["fol", "eval", "--sig", "{sig}", "--structs", "{struct}", "--formula",
                      "E x. f(x) = c", "--env", "c=1"], {"folup"}, [],
                     {"ufw.folup.sweep"}, id="fol-eval"),
    ],
)
def test_cli_loads_only_the_subcommands_layers(tmp_path, argv, layers, stdlib, absent):
    files = {"cert": AVOIDING_AP3, "rule": DICTATOR_2X3, "sig": UNARY_SIG, "struct": SWAP_2,
             "fit": FIT_SQUARE}
    paths = {}
    for name, obj in files.items():
        paths[name] = tmp_path / (name + ".json")
        paths[name].write_text(json.dumps(obj))
    report = loaded_after_run([a.format(**paths) for a in argv])
    assert report["code"] == 0
    loaded = set(report["modules"])
    assert {m[4:] for m in loaded if m.count(".") == 1} & LAYERS == layers
    assert not loaded & absent
    assert sorted(m for m in loaded if m.startswith("ufw.commands.")) == [
        "ufw.commands." + argv[0]
    ]
    assert report["stdlib"] == stdlib


def test_importing_a_submodule_by_path_keeps_the_package_names():
    # the import system binds a loaded submodule on its package, which
    # would hide a public name that the submodule shared
    report = fresh(
        "import json, sys\n"
        "import ufw.folup.products\n"
        "from ufw.folup import ultraproduct\n"
        "json.dump([type(ultraproduct).__name__, ultraproduct.__module__], sys.stderr)\n"
        "sys.stderr.write('\\n')\n"
    )
    assert report == ["function", "ufw.folup.products"]


def test_a_module_run_compiles_the_front_end_once(tmp_path):
    # under ``python -m ufw.cli`` the front end is ``__main__``: a handler
    # that imported ``ufw.cli`` would compile and run it a second time
    env = dict(os.environ, PYTHONPATH=str(Path(ufw.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ufw.cli", "verify", "--certificate",
         str(tmp_path / "missing.json")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert "cannot read" in json.loads(proc.stdout)["result"]["error"]
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    # the log lists the modules that import statements load
    assert "ufw.commands" in imported
    assert "ufw.cli" not in imported


@pytest.mark.parametrize("data", [b"", b"abc", bytes(range(256)) * 5])
def test_digest_is_sha256(data):
    assert digest(data) == hashlib.sha256(data).hexdigest()


def test_lazy_names_still_resolve():
    report = fresh(
        "import json, sys\n"
        "import ufw\n"
        "out = {'bare': sorted(m for m in sys.modules if m.startswith('ufw.'))}\n"
        "out['arrow'] = ufw.arrow.__name__\n"
        "import ufw.folup\n"
        "out['numpy_before_sweep'] = 'numpy' in sys.modules\n"
        "from ufw.folup import exhaustive_transfer_sweep\n"
        "exhaustive_transfer_sweep(1, 1)\n"
        "out['same_sweep'] = ufw.folup.exhaustive_transfer_sweep is exhaustive_transfer_sweep\n"
        "from ufw.genpoly import weyl_sum\n"
        "out['sweep'] = exhaustive_transfer_sweep.__module__\n"
        "out['weyl'] = weyl_sum.__module__\n"
        "out['numpy_after_sweep'] = 'numpy' in sys.modules\n"
        "from ufw.folup import UltraproductSpec, ultraproduct\n"
        "out['ultraproduct'] = [ultraproduct.__module__, ufw.folup.ultraproduct.__name__]\n"
        "out['missing'] = []\n"
        "for package in (ufw, ufw.largeness, ufw.genpoly, ufw.folup):\n"
        "    try:\n"
        "        package.no_such_name\n"
        "    except AttributeError:\n"
        "        out['missing'].append(package.__name__)\n"
        "out['star'] = {}\n"
        "for package in ('ufw', 'ufw.largeness', 'ufw.genpoly', 'ufw.folup'):\n"
        "    ns = {}\n"
        "    exec('from %s import *' % package, ns)\n"
        "    out['star'][package] = sorted(k for k in ns if k != '__builtins__')\n"
        "json.dump(out, sys.stderr)\n"
        "sys.stderr.write('\\n')\n"
    )
    assert report == {
        "bare": [],
        "arrow": "ufw.arrow",
        "numpy_before_sweep": False,
        "same_sweep": True,
        "sweep": "ufw.folup.sweep",
        "weyl": "ufw.genpoly.analysis",
        "numpy_after_sweep": False,
        # the function, read from its submodule ``products``
        "ultraproduct": ["ufw.folup.products", "ultraproduct"],
        "missing": ["ufw", "ufw.largeness", "ufw.genpoly", "ufw.folup"],
        "star": {
            name: sorted(importlib.import_module(name).__all__)
            for name in ("ufw", "ufw.largeness", "ufw.genpoly", "ufw.folup")
        },
    }
