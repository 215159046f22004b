"""Start-up cost: a ``ufw`` call loads only the layers its subcommand uses,
and numpy only for the Weyl sum.

Each test runs a fresh interpreter, because the in-process tests have long
since imported every layer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ufw

LAYERS = {"arrow", "discalc", "folup", "genpoly", "largeness", "semigroup", "setfam"}
AVOIDING_AP3 = {"kind": "avoiding", "pattern": ["ap", 3], "r": 2, "colors": [0, 1, 0, 1, 1, 0, 1, 0]}
#: the 2×3 rule that copies voter 0, whose order index is the profile's
#: leading base-6 digit
DICTATOR_2X3 = {"voters": 2, "candidates": 3, "table": [p // 6 for p in range(36)]}


def fresh(code):
    """Run ``code`` in a new interpreter on this package; returns the JSON
    object it prints as the last line of stderr (stdout carries ufw output)."""
    env = dict(os.environ, PYTHONPATH=str(Path(ufw.__file__).resolve().parent.parent))
    env.pop("UFW_SEED", None)
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
        "layers = sorted(m[4:] for m in sys.modules if m.startswith('ufw.') and m.count('.') == 1)\n"
        "json.dump({'code': code, 'layers': layers, 'numpy': 'numpy' in sys.modules}, sys.stderr)\n"
        "sys.stderr.write('\\n')\n" % (argv,)
    )


@pytest.mark.parametrize(
    "argv, layers, numpy",
    [
        pytest.param(["search", "vdw", "--len", "3", "--cap", "10"], {"largeness"}, False,
                     id="search"),
        pytest.param(["verify", "--certificate", "{cert}"], {"largeness"}, False, id="verify"),
        pytest.param(["arrow", "verify", "--rule", "{rule}"], {"arrow", "setfam"}, False,
                     id="arrow-verify"),
        pytest.param(["gp", "eval", "--expr", "n * 3/2", "-n", "3"], {"genpoly", "discalc"},
                     False, id="gp-eval"),
        # the Weyl sum is the only numpy user, so numpy must show here
        pytest.param(["gp", "weyl", "--alphas", "sqrt2", "--ks", "1", "-n", "50"],
                     {"genpoly", "discalc"}, True, id="gp-weyl"),
    ],
)
def test_cli_loads_only_the_subcommands_layers(tmp_path, argv, layers, numpy):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(AVOIDING_AP3))
    rule = tmp_path / "rule.json"
    rule.write_text(json.dumps(DICTATOR_2X3))
    report = loaded_after_run([a.format(cert=cert, rule=rule) for a in argv])
    assert report["code"] == 0
    assert set(report["layers"]) & LAYERS == layers
    assert report["numpy"] is numpy


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
        "from ufw.genpoly import weyl_sum\n"
        "out['sweep'] = exhaustive_transfer_sweep.__module__\n"
        "out['weyl'] = weyl_sum.__module__\n"
        "out['numpy_after_sweep'] = 'numpy' in sys.modules\n"
        "try:\n"
        "    ufw.no_such_layer\n"
        "except AttributeError:\n"
        "    out['missing'] = 'AttributeError'\n"
        "ns = {}\n"
        "exec('from ufw import *', ns)\n"
        "out['star'] = sorted(k for k in ns if k in ufw.__all__)\n"
        "json.dump(out, sys.stderr)\n"
        "sys.stderr.write('\\n')\n"
    )
    assert report == {
        "bare": [],
        "arrow": "ufw.arrow",
        "numpy_before_sweep": False,
        "sweep": "ufw.folup.sweep",
        "weyl": "ufw.genpoly.analysis",
        "numpy_after_sweep": False,
        "missing": "AttributeError",
        "star": sorted(ufw.__all__),
    }
