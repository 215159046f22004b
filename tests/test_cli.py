"""Command-line front end: exit codes, manifest reproducibility, the
certificate verification round trip, and the exit-code contract on mutated
inputs."""

import contextlib
import copy
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ufw
from ufw.cli import run
from ufw.setfam import GroundSet, principal_ultrafilter
from ufw.semigroup import CayleyTable


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# --- exit codes ------------------------------------------------------------


def test_search_positive_threshold(capsys):
    code, report = invoke(capsys, ["search", "vdw", "--len", "3", "--cap", "12"])
    assert code == 0
    assert report["result"]["threshold"] == 9
    assert report["result"]["certificate"]["kind"] == "avoiding"


def test_search_cap_hit_is_budget_exit(capsys):
    code, report = invoke(capsys, ["search", "vdw", "--len", "3", "--cap", "5"])
    assert code == 2
    assert report["result"]["threshold"] is None


def test_search_node_budget_is_budget_exit(capsys, monkeypatch):
    # HJ for three letters reaches 81 positions at size 4, where the coloring
    # search thrashes; it once ran without end
    from ufw.largeness import search

    monkeypatch.setattr(search, "NODE_CAP", 10**5)
    code, report = invoke(capsys, ["search", "hj", "--sigma", "3", "--cap", "7"])
    assert code == 2
    assert report["result"] == {"error": "BudgetExhausted: search budget exhausted"}


def test_ipstar_negative_exit(capsys):
    code, report = invoke(
        capsys, ["search", "ipstar", "--members", "1", "--n", "10", "--k", "2"]
    )
    assert code == 1
    assert report["result"]["ipstar"]["counterexample"] == [2, 3]


def test_malformed_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, report = invoke(capsys, ["setfam", "classify", "--in", str(path)])
    assert code == 3
    assert "malformed JSON" in report["result"]["error"]


def test_missing_file_is_input_error(capsys, tmp_path):
    code, report = invoke(
        capsys, ["setfam", "classify", "--in", str(tmp_path / "nope.json")]
    )
    assert code == 3


def test_unknown_subcommand_is_input_error(capsys):
    assert run(["frobnicate"]) == 3
    capsys.readouterr()


def test_usage_error_has_json_body(capsys):
    code, report = invoke(capsys, ["calc", "delta", "--poly", "x", "-a", "-3/2"])
    assert code == 3
    assert report["result"] == {"error": "ufw calc: argument -a: expected one argument"}


def test_help_is_success(capsys):
    assert run(["search", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: ufw search")


@pytest.mark.parametrize("colors", ["--colors=0", "--colors=-1"])
def test_search_rejects_fewer_than_one_color(capsys, colors):
    code, report = invoke(capsys, ["search", "vdw", colors])
    assert code == 3
    assert "at least one color" in report["result"]["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["vdw", "--len", "0"],
        ["vdw", "--len", "-2"],
        ["vdw", "--len", "0", "--cap", "0"],
        ["hj", "--sigma", "-1"],
        ["hindman", "--k", "-1"],
        ["ramsey", "--uniform", "-1"],
        ["ramsey", "--size", "-1"],
        # patterns with no instance: no threshold can be claimed for them
        ["hindman", "--k", "0"],
        ["hj", "--sigma", "0"],
        ["ramsey", "--uniform", "0"],
        ["ramsey", "--size", "0"],
        ["ramsey", "--size", "1"],
        ["ipstar", "--n", "-1", "--k", "-1"],
        ["ipstar", "--n", "5", "--k", "0"],
        ["ipstar", "--n", "0"],
    ],
    ids=" ".join,
)
def test_search_rejects_bad_pattern_parameters(capsys, argv):
    code, report = invoke(capsys, ["search", *argv])
    assert code == 3
    assert set(report["result"]) == {"error"}
    assert report["result"]["error"].startswith("ValueError: ")


# --- verification round trip -----------------------------------------------


def test_certificate_roundtrip_and_tamper_detection(capsys, tmp_path):
    _, report = invoke(capsys, ["search", "ramsey", "--size", "3", "--cap", "8"])
    cert = report["result"]["certificate"]
    good = write_json(tmp_path, "cert.json", cert)
    code, out = invoke(capsys, ["verify", "--certificate", good])
    assert code == 0 and out["result"]["valid"]

    tampered = dict(cert)
    tampered["colors"] = [0] * len(cert["colors"])  # constant coloring covers
    bad = write_json(tmp_path, "tampered.json", tampered)
    code, out = invoke(capsys, ["verify", "--certificate", bad])
    assert code == 1
    assert not out["result"]["valid"] and "mismatch" in out["result"]


@pytest.mark.parametrize(
    "pattern, colors, mismatch",
    [
        (["ap", 3], [0.0, 1, 0, 1, 1, 0, 1, 0], "has a color that is not an int in [0, r)"),
        (["ap", 3], [0, 1, 2], "has a color that is not an int in [0, r)"),
        (["line", 2], [0, 1, 1], "has the wrong length for the pattern"),
        (["clique", 2, 3], [0, 1, 1, 0], "has the wrong length for the pattern"),
        (["ap", 3], [0] * 8, "contains the pattern"),
    ],
)
def test_verify_names_why_an_avoiding_coloring_is_rejected(
    capsys, tmp_path, pattern, colors, mismatch
):
    # only the last reason looked at an instance of the pattern
    cert = {"kind": "avoiding", "pattern": pattern, "r": 2, "colors": colors}
    code, out = invoke(capsys, ["verify", "--certificate", write_json(tmp_path, "c.json", cert)])
    assert code == 1
    assert out["result"] == {"valid": False, "mismatch": "avoiding coloring " + mismatch}


def test_verify_rejects_unknown_kind(capsys, tmp_path):
    path = write_json(tmp_path, "weird.json", {"kind": "telepathy"})
    code, _ = invoke(capsys, ["verify", "--certificate", path])
    assert code == 3


# --- subcommand smoke paths ------------------------------------------------


def test_setfam_classify_ultrafilter(capsys, tmp_path):
    u = principal_ultrafilter(GroundSet(3), 1)
    path = write_json(tmp_path, "uf.json", u.to_json())
    code, report = invoke(capsys, ["setfam", "classify", "--in", path])
    assert code == 0
    assert report["result"]["kind"] == "ultrafilter"
    assert path in report["manifest"]["input_digests"]


def test_sg_report(capsys, tmp_path):
    table = CayleyTable([[(a + b) % 3 for b in range(3)] for a in range(3)])
    path = write_json(tmp_path, "z3.json", table.to_json())
    code, report = invoke(capsys, ["sg", "report", "--in", path])
    assert code == 0 and "report" in report["result"]


def test_calc_basis(capsys, tmp_path):
    path = write_json(tmp_path, "poly.json", {"monomial": ["0", "1/2", "1/2"]})
    code, report = invoke(capsys, ["calc", "basis", "--poly", path])
    assert code == 0
    assert report["result"]["binomial"] == {"binomial": ["0/1", "1/1", "1/1"]}


@pytest.mark.parametrize(
    "poly", [{"binomial": ["1/0"]}, {"monomial": [True, 1.5]}, {"monomial": "12"}]
)
def test_calc_refuses_coefficients_it_cannot_read_exactly(capsys, tmp_path, poly):
    # a zero denominator was a ZeroDivisionError traceback, and a bool, a
    # float or a string of digits was read as 1, 3/2 or the list [1, 2]
    path = write_json(tmp_path, "poly.json", poly)
    code, report = invoke(capsys, ["calc", "basis", "--poly", path])
    assert code == 3 and "ValueError" in report["result"]["error"]


@pytest.mark.parametrize("action", ["eval", "returns"])
def test_gp_long_flat_sum_answers(capsys, action):
    # 1,200 terms made a tree deeper than the recursion limit
    expr = "+".join(["n"] * 1200)
    code, report = invoke(capsys, ["gp", action, "--expr", expr, "-n", "3", "--eps", "1/5"])
    assert code == 0
    if action == "eval":
        assert report["result"]["value"] == 3600
    else:
        assert report["result"] == {"members": [1, 2, 3], "ambiguous": []}


def test_gp_deep_nesting_is_input_error(capsys):
    expr = "(" * 400 + "n" + ")" * 400
    code, report = invoke(capsys, ["gp", "eval", "--expr", expr, "-n", "3"])
    assert code == 3
    assert report["result"] == {"error": "ParseError: parentheses nest deeper than 100"}


def test_fol_deep_negation_is_input_error(capsys, tmp_path):
    # 3,000 negations ended in a RecursionError traceback; 101 is one past
    # the limit, and a "(" after the last "!" adds no level
    for formula in ("!" * 3000 + "(x = x)", "!" * 101 + "x = c", "!" * 101 + "(x = c)"):
        argv = ["fol", "eval", "--sig", write_json(tmp_path, "sig.json", SIGNATURE),
                "--structs", write_json(tmp_path, "s.json", STRUCTURE),
                "--formula", formula]
        code, report = invoke(capsys, argv)
        assert code == 3
        assert report["result"] == {
            "error": "ParseError: formulas and terms nest deeper than 100"
        }


@pytest.mark.parametrize("argv", [["verify", "--certificate"], ["setfam", "classify", "--in"]])
def test_deeply_nested_json_is_input_error(capsys, tmp_path, argv):
    # json.loads raised RecursionError, which ended in a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, report = invoke(capsys, argv + [str(path)])
    assert code == 3
    assert report["result"] == {"error": "JSON in %s nests too deeply" % path}


@pytest.mark.parametrize("alpha", ["sqrt", "sqrt 2.5"])
def test_gp_weyl_sqrt_of_no_integer_names_the_alpha(capsys, alpha):
    # int() of the text after sqrt leaked "invalid literal for int()"
    code, report = invoke(capsys, ["gp", "weyl", "--alphas", alpha, "--ks", "1", "-n", "5"])
    assert code == 3
    assert report["result"] == {"error": "alpha %r: sqrt takes an integer, as in sqrt2" % alpha}


def test_gp_eval_serializes_fractions(capsys):
    code, report = invoke(capsys, ["gp", "eval", "--expr", "n * 3/2", "-n", "3"])
    assert code == 0
    assert report["result"]["value"] == "9/2"


def test_gp_dfao_input_base_zero_is_input_error(capsys, tmp_path):
    dfao = {"states": 1, "init": 0, "tau": [[]], "lam": [[]], "in_base": 0, "out_base": 2}
    path = write_json(tmp_path, "m.json", dfao)
    code, report = invoke(capsys, ["gp", "dfao", "-n", "5", "--in", path])
    assert code == 3
    assert report["result"] == {"error": "ValueError: input base must be an integer ≥ 2"}


def test_gp_dfao_non_integer_entries_are_input_errors(capsys, tmp_path):
    # true in tau and lam, 0.5 in lam: read as 1 and run, this gave value 7
    dfao = {
        "states": 2, "init": 0, "tau": [[True, 0], [0, 1]],
        "lam": [[1, True], [0.5, 1]], "in_base": 2, "out_base": 2,
    }
    path = write_json(tmp_path, "m.json", dfao)
    code, report = invoke(capsys, ["gp", "dfao", "-n", "5", "--in", path])
    assert code == 3
    assert report["result"] == {"error": "ValueError: tau rows must map every digit to a state"}


@pytest.mark.parametrize("voters, candidates", [(10**8, 3), (1, 10**8)])
def test_verify_dictator_refuses_an_oversized_claim_at_once(capsys, tmp_path, voters,
                                                            candidates):
    # the checker built 3!**(10**8) before comparing it with the table's length
    cert = {"kind": "dictator", "voters": voters, "candidates": candidates,
            "table": [0], "dictator": 0}
    path = write_json(tmp_path, "c.json", cert)
    start = time.monotonic()
    code, report = invoke(capsys, ["verify", "--certificate", path])
    assert time.monotonic() - start < 1.0
    assert code == 1 and report["result"]["valid"] is False


@pytest.mark.parametrize(
    "colors, valid",
    [
        # twelve 2s sum to 24, and every subset sum is even: one color
        ([i % 2 for i in range(30)], False),
        ([0, 0, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0,
          0, 1], True),
    ],
)
def test_verify_wide_fs_pattern_answers_in_seconds(capsys, tmp_path, colors, valid):
    # the checker listed all 86,493,225 non-decreasing 12-tuples below 20;
    # only the 1,552 whose total is at most 30 can have every sum in range
    cert = {"kind": "avoiding", "pattern": ["fs", 12], "r": 2, "colors": colors}
    path = write_json(tmp_path, "c.json", cert)
    start = time.monotonic()
    code, report = invoke(capsys, ["verify", "--certificate", path])
    assert time.monotonic() - start < 5.0
    assert (code, report["result"]["valid"]) == (0 if valid else 1, valid)


def test_arrow_verify_dictator(capsys, tmp_path):
    from ufw.arrow import Election, dictator_rule

    rule = dictator_rule(Election(2, 3), 1)
    path = write_json(tmp_path, "rule.json", rule.to_json())
    code, report = invoke(capsys, ["arrow", "verify", "--rule", path])
    assert code == 0 and report["result"]["dictator"] == 1


@pytest.mark.parametrize("entry", [True, 0.5, "0"])
def test_arrow_rejects_non_integer_table_entry(capsys, tmp_path, entry):
    # a JSON boolean, float or string is not an order index, as an
    # out-of-range integer is not: the rule is refused before any axiom runs
    table = [entry, 0, 1, 0]
    path = write_json(tmp_path, "rule.json", {"voters": 2, "candidates": 2, "table": table})
    code, report = invoke(capsys, ["arrow", "verify", "--rule", path])
    assert code == 1
    assert report["result"] == {
        "error": "NotStrictOrder: output %r at profile 0 is not a strict order" % (entry,)
    }


SIGNATURE = {"functions": {"f": 1}, "relations": {"r": 1}, "constants": ["c"]}
STRUCTURE = {"universe": 2, "functions": {"f": [1, 0]}, "relations": {"r": [[0]]},
             "constants": {"c": 0}}
FOL_EVAL = ["fol", "eval", "--sig", "sig.json", "--formula", "x = x", "--structs"]


@pytest.mark.parametrize(
    "argv,body",
    [
        (["arrow", "verify", "--rule"], {"voters": True, "candidates": 2, "table": [0, 1]}),
        (["arrow", "verify", "--rule"], {"voters": 2.0, "candidates": 2, "table": [0, 1, 1, 0]}),
        (["arrow", "verify", "--rule"], {"voters": 1, "candidates": 2.0, "table": [0, 1]}),
        (["setfam", "classify", "--in"], {"ground": True, "members": [[0]]}),
        (["setfam", "classify", "--in"], {"ground": 2.0, "members": [[0]]}),
        (["sg", "report", "--in"], {"mul": [[True, False], [False, True]]}),
        (["sg", "report", "--in"], {"mul": [[0.0, 1.0], [1.0, 0.0]]}),
        (["setfam", "classify", "--in"], {"ground": 2, "members": [[True]]}),
        (FOL_EVAL, dict(STRUCTURE, universe=True, functions={"f": [0]})),
        (FOL_EVAL, dict(STRUCTURE, universe=2.0)),
        (FOL_EVAL, dict(STRUCTURE, functions={"f": [True, False]})),
        (FOL_EVAL, dict(STRUCTURE, relations={"r": [[True]]})),
        (FOL_EVAL, dict(STRUCTURE, constants={"c": True})),
    ],
)
def test_non_integer_counts_are_input_errors(capsys, tmp_path, argv, body):
    # JSON true and 2.0 are not counts or table entries, though Python
    # compares them equal to 1 and 2
    write_json(tmp_path, "sig.json", SIGNATURE)
    argv = [str(tmp_path / a) if a == "sig.json" else a for a in argv]
    code, report = invoke(capsys, argv + [write_json(tmp_path, "in.json", body)])
    assert code == 3
    assert report["result"]["error"].startswith("ValueError: ")


FIT_FILE = {"values": {str(n): n * n for n in range(8)}, "generators": [1, 2, 4], "d": 1}


@pytest.mark.parametrize(
    "body, key",
    [
        ([FIT_FILE], None),
        (dict(FIT_FILE, values=[1, 2]), "values"),
        ({"generators": [1, 2], "d": 1}, "values"),
        (dict(FIT_FILE, values={"1.5": 1}), "values"),
        (dict(FIT_FILE, values={"1": 1, "2": 4}), "values"),
        (dict(FIT_FILE, generators="1,2"), "generators"),
        (dict(FIT_FILE, generators=[1, True]), "generators"),
        (dict(FIT_FILE, d=True), "d"),
        (dict(FIT_FILE, d=1.0), "d"),
        (dict(FIT_FILE, d=-1), "d"),
    ],
)
def test_gp_fit_input_errors_name_the_key(capsys, tmp_path, body, key):
    # the fit file was read unchecked: a list of values ended in an
    # AttributeError traceback, a missing key in Python's KeyError text
    code, report = invoke(capsys, ["gp", "fit", "--in", write_json(tmp_path, "f.json", body)])
    assert code == 3
    error = report["result"]["error"]
    assert ("fit file key %r" % key in error) if key else error.startswith("a fit file is")


def test_member_outside_ground_is_input_error(capsys, tmp_path):
    path = write_json(tmp_path, "fam.json", {"ground": 2, "members": [[5]]})
    code, report = invoke(capsys, ["setfam", "classify", "--in", path])
    assert code == 3
    assert report["result"] == {"error": "IndexOutOfRange: member [5] outside ground set"}


def test_arity_mismatch_is_input_error(capsys, tmp_path):
    from ufw.folup import Signature, Structure

    sig = Signature(functions=(("f", 2),))
    sig_path = write_json(tmp_path, "sig.json", sig.to_json())
    s1 = write_json(tmp_path, "s1.json", Structure(sig, 1, funcs={"f": [[0]]}).to_json())
    argv = ["fol", "eval", "--sig", sig_path, "--structs", s1, "--formula", "f(x) = x"]
    code, report = invoke(capsys, argv)
    assert code == 3
    assert report["result"]["error"].startswith("ArityMismatch: ")


def test_relation_arity_mismatch_is_input_error(capsys, tmp_path):
    from ufw.folup import Signature, Structure

    sig = Signature(relations=(("R", 2),))
    sig_path = write_json(tmp_path, "sig.json", sig.to_json())
    s2 = write_json(tmp_path, "s2.json", Structure(sig, 2, rels={"R": [(0, 1)]}).to_json())
    argv = ["fol", "eval", "--sig", sig_path, "--structs", s2, "--formula", "E x. R(x)"]
    code, report = invoke(capsys, argv)
    assert code == 3
    assert report["result"]["error"].startswith("ArityMismatch: ")


@pytest.mark.parametrize("value, code", [("5", 3), ("-1", 3), ("2", 3), ("1", 0)])
def test_fol_env_outside_universe_is_input_error(capsys, tmp_path, value, code):
    # a value past the universe once ended in an IndexError traceback, and a
    # negative one was read from the end of the function table
    from ufw.folup import Signature, Structure

    sig = Signature(functions=(("f", 2),))
    sig_path = write_json(tmp_path, "sig.json", sig.to_json())
    s2 = write_json(tmp_path, "s2.json", Structure(sig, 2, funcs={"f": [[0, 1], [1, 0]]}).to_json())
    argv = ["fol", "eval", "--sig", sig_path, "--structs", s2, "--formula", "f(x, x) = x",
            "--env", "x=" + value]
    got, report = invoke(capsys, argv)
    assert got == code
    if code == 3:
        assert report["result"] == {
            "error": "IndexOutOfRange: x=%s is outside a universe of size 2" % value
        }
    else:
        assert report["result"]["values"] == [False]


def test_fol_los(capsys, tmp_path):
    from ufw.folup import Signature, Structure

    sig = Signature(functions=(("f", 2),))
    sig_path = write_json(tmp_path, "sig.json", sig.to_json())
    s1 = Structure(sig, 2, funcs={"f": [[0, 1], [1, 0]]})
    s2 = Structure(sig, 2, funcs={"f": [[0, 0], [0, 1]]})
    p1 = write_json(tmp_path, "s1.json", s1.to_json())
    p2 = write_json(tmp_path, "s2.json", s2.to_json())
    uf = write_json(
        tmp_path, "uf.json", principal_ultrafilter(GroundSet(2), 0).to_json()
    )
    code, report = invoke(
        capsys,
        [
            "fol", "los",
            "--sig", sig_path,
            "--structs", p1, p2,
            "--uf", uf,
            "--formula", "E x. f(x, x) = x",
        ],
    )
    assert code == 0
    assert report["result"]["los"]["violations"] == []


def test_fol_uprod_of_high_arity_answers_at_once(capsys, tmp_path):
    # an empty 8-ary relation has no member to build; an arity-6 function
    # over the same 9 elements would hold 9⁶ cells, past the cap, and is
    # refused unbuilt
    def table(arity):
        return 0 if arity == 0 else [table(arity - 1)] * 3

    for sig, body, code in [
        ({"relations": {"r": 8}}, {"relations": {"r": []}}, 0),
        ({"functions": {"h": 6}}, {"functions": {"h": table(6)}}, 2),
    ]:
        structure = write_json(tmp_path, "s.json", dict(body, universe=3))
        uf = write_json(tmp_path, "uf.json", principal_ultrafilter(GroundSet(2), 1).to_json())
        argv = ["fol", "uprod", "--sig", write_json(tmp_path, "sig.json", sig),
                "--structs", structure, structure, "--uf", uf, "--formula", "x = x"]
        start = time.monotonic()
        assert invoke(capsys, argv)[0] == code
        assert time.monotonic() - start < 5.0


# --- manifest --------------------------------------------------------------


def test_manifest_shape_and_determinism(capsys):
    argv = ["search", "vdw", "--len", "3", "--cap", "10"]
    _, first = invoke(capsys, argv)
    _, second = invoke(capsys, argv)
    m = first["manifest"]
    assert m["command"] == argv
    assert set(m) == {
        "command", "version", "input_digests", "output_digest", "wall_time_ms",
    }
    assert m["output_digest"] == second["manifest"]["output_digest"]
    assert first["result"] == second["result"]


# --- process boundary -------------------------------------------------------


def test_closed_stdout_exits_without_traceback():
    # The read end is closed before the child starts, so its first write
    # fails: what ``ufw … | head`` meets when head exits early.  Stdout is
    # block-buffered, as by default, so that write is the final flush.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(ufw.__file__).resolve().parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ufw.cli", "search", "vdw", "--len", "3", "--cap", "12"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    stderr = proc.stderr.decode(errors="replace")
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr
    assert proc.returncode == 141


# --- golden digests --------------------------------------------------------

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c.get("argv", ["verify"])))
def test_golden_digests(capsys, tmp_path, case):
    # exit codes and output digests recorded before a rewrite that must not
    # change them: the search and verify calls before the searches shared
    # one instance enumerator, the arrow calls before the rule builders read
    # the rank table, the setfam and sg calls before families were decided
    # by their meet and the ultrafilter product read row masks, and the
    # calc, gp, fol and remaining verify calls (each certificate kind, good
    # and tampered) before Cayley tables kept their witnesses.  The last
    # cases pin claims the checkers cannot read (exit 1, or 3 for a pattern
    # that is none), a zero denominator, and the smallest patterns; the
    # one-vertex Ramsey case exits 3 since a clique smaller than its edges
    # is no pattern.  The fol eval and los cases after those, and the gp
    # parse errors and depth limit, were recorded before both text grammars
    # shared one cursor.  The sg input errors that close the list (a short
    # row, a boolean entry, product without --in2, a family on the wrong
    # ground) were recorded before the table enumerator was rewritten.  The
    # ultrafilter products on the order-4 left- and right-zero bands and on
    # an order-6 table, and the calc, setfam and arrow input errors after
    # them, were recorded before the product read preimage masks.  The gp
    # returns and eval cases after those were recorded before certified
    # evaluation ran each expression's compiled program on int triples, the
    # negative square root after them once its error text was fixed, and
    # the two after it, a square root of no integer, once theirs was.  The
    # setfam cases after those (singles and pairs at ground 40, sliding
    # triples at 24, repeated and redundant members, a closure that exits 1)
    # were recorded before the FIP witness became one lexicographic search,
    # and the digit-system and --env errors after them once their error
    # texts named the bad input.  The missing --rule, --uf and --in flags
    # and the malformed signatures and structures after them were recorded
    # once their errors named the flag or the symbol.  The sg reports on a
    # right-zero band of order 4, left-zero(2) × right-zero(3), ℤ/3 ×
    # left-zero(2) and multiplication mod 12 were recorded before the ideal
    # routines ran on column bitmasks, and the gp fit input errors after
    # them once fit checked its file.  The gp eval and returns cases after
    # those (each rounding kind, undecidable and non-degenerate values,
    # 1,200-term sums, zero denominators and nesting past the limit) were
    # recorded before a parsed expression became its post-order program,
    # and the two exit-2 cases after them (a fit on 13 generators and a
    # product of order 441) once fit and product had size caps.  The fol
    # los cases after those (4,096 assignments, and one free variable past
    # the cap, which exited 2 until los walked one assignment per g-class
    # and now checks 128) and the gp digits of 0 on each system and of −45
    # in Fibonacci were recorded before the colorings, digit systems and
    # los lost their unused parameters.  The IP* probe after them answers
    # at once since it prunes on partial sums.  The sg cases after it (an
    # order-5 table whose lex-first witness is (1, 1, 3), ℤ/10 ×
    # multiplication mod 6, and two ultrafilter products on that order-60
    # product, one with families that are no ultrafilters and one with
    # families on the wrong ground) were recorded before tables kept their
    # fields in slots and the associativity scan compared rows.  The fol
    # cases after those (two los calls once run on two samples, and uprod
    # and los on relations of arity 1 to 3, one factor's equality total)
    # were recorded before relations were built from the g-fibres and los
    # walked g-classes past its cap; the ones that close the list once they
    # were: ℤ/6 × ℤ/6 on 216 class assignments, 7,776 past the cap (exit
    # 2), an empty 8-ary relation, an arity-6 function past the cell cap
    # (exit 2), and the removed --samples and --seed (exit 3).  The two
    # Ramsey cases that close the list (3-uniform triangles, and K_4 past a
    # cap of 9, exit 2) were recorded before the clique instances ranked
    # their edges in closed form.  The five gp weyl cases after them were
    # recorded before the Weyl sum was read from its closed form on
    # brackets; the pi,sqrt2 case near the top was re-recorded then, since
    # the float sum had its last bits wrong, and the three that close the
    # list were added then: N = 10¹², an exact zero, and a zero sum of a θ
    # that is rational but not given as one (exit 1).  The four
    # certificates that close the list (line words with a letter 0.9 or
    # true, an AP of color 0.0, an avoiding coloring with a color 0.0) were
    # read as valid until the checkers took exact ints alone; they were
    # recorded after.  The avoiding case with a color 0.0 was re-recorded
    # once a malformed color got its own mismatch text.  The five sg cases
    # after it were recorded before a table was checked for associativity
    # where it is read: product with a non-associative --in2, ufprod on a
    # non-associative table, and ℤ/20 × ℤ/20; product with no --in2 and
    # ufprod with no --uf on a non-associative --in exited 3 then and were
    # re-recorded at exit 1, since the table is refused before the flags
    # are read.  The two avoiding cases that close the list (a line and a
    # clique coloring of a length no instance set has) were recorded once
    # that length got its own mismatch text, and the report after them, on
    # a non-associative table whose declared order is wrong (exit 3), before
    # tables were refused where they are read.  The arrow decisive and
    # verify calls after it, on a 10-voter, 2-candidate dictator and a seeded
    # random table, and the two setfam cases that close the list ({X, {0}}
    # at ground 20, and a ground-4 family whose failing member {0} is
    # reached only through other members) were recorded before the decisive
    # family became one star and upward closure a walk over the members.
    # An argv entry naming one of the case's inline files stands for that
    # file's path.
    paths = {name: write_json(tmp_path, name, body) for name, body in case.get("files", {}).items()}
    argv = case.get("argv")
    if argv is None:
        argv = ["verify", "--certificate", write_json(tmp_path, "cert.json", case["certificate"])]
    code, report = invoke(capsys, [paths.get(a, a) for a in argv])
    assert (code, report["manifest"]["output_digest"]) == (case["exit"], case["output_digest"])


# --- contract: mutated inputs ------------------------------------------------

# one valid certificate of every kind: the golden ones, plus an avoiding
# coloring of each other pattern kind
VALID_CERTIFICATES = [
    case["certificate"] for case in GOLDEN if "certificate" in case and case["exit"] == 0
] + [
    {"kind": "avoiding", "pattern": ["clique", 2, 3], "r": 2,
     "colors": [0, 0, 1, 1, 0, 1, 1, 1, 0, 0]},
    {"kind": "avoiding", "pattern": ["line", 2], "r": 2, "colors": [0, 1]},
    {"kind": "avoiding", "pattern": ["fs", 2], "r": 2, "colors": [0, 1, 1, 0]},
]


@st.composite
def mutated_certificates(draw):
    cert = copy.deepcopy(draw(st.sampled_from(VALID_CERTIFICATES)))
    keys = sorted(k for k in cert if k != "kind")
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(keys))
        if key not in cert:
            continue
        value = cert[key]
        how = draw(st.sampled_from(["drop", "shorten", "index", "type"]))
        if how == "drop":
            del cert[key]
        elif how == "shorten" and isinstance(value, list) and value:
            cert[key] = value[: draw(st.integers(0, len(value) - 1))]
        elif how == "index":
            bad = draw(st.sampled_from([-1, -3, 9, 12]))
            if isinstance(value, list) and value:
                value[draw(st.integers(0, len(value) - 1))] = bad
            else:
                cert[key] = bad
        else:
            cert[key] = draw(st.sampled_from([None, "x", 1.5, True, [], {}, [[0]], {"a": 1}]))
    return cert


def _run_quietly(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, json.loads(out.getvalue())


@given(mutated_certificates())
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_verify_contract_on_mutated_certificates(cert):
    # a claim the checkers cannot read is refused (exit 1) or reported as an
    # input error (exit 3), never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cert.json")
        with open(path, "w") as fh:
            json.dump(cert, fh)
        code, report = _run_quietly(["verify", "--certificate", path])
    assert code in (0, 1, 3)
    assert set(report) == {"result", "manifest"}


GP_TOKENS = [
    "n", "pi", "e", "golden", "sqrt", "floor", "round", "frac", "(", ")", "+", "-", "*",
    "0", "1", "2", "7", "1/2", "3/4", "1/0", "0.5", "2.25",
]


@given(st.lists(st.sampled_from(GP_TOKENS), max_size=14), st.integers(-5, 5))
@settings(max_examples=400, deadline=None)
def test_gp_eval_contract_on_token_strings(tokens, n):
    code, report = _run_quietly(["gp", "eval", "--expr", " ".join(tokens), "-n", str(n)])
    assert code in (0, 1, 3)
    assert set(report) == {"result", "manifest"}


FOL_TOKENS = [
    "x", "y", "c", "f", "r", "A", "E", ".", ",", "!", "&", "|", "->", "<->", "(", ")", "=",
    "#",
]


@given(st.lists(st.sampled_from(FOL_TOKENS), max_size=14))
@settings(max_examples=400, deadline=None)
def test_fol_eval_contract_on_token_strings(tokens):
    with tempfile.TemporaryDirectory() as tmp:
        sig = os.path.join(tmp, "sig.json")
        structure = os.path.join(tmp, "s.json")
        for path, body in ((sig, SIGNATURE), (structure, STRUCTURE)):
            with open(path, "w") as fh:
                json.dump(body, fh)
        code, report = _run_quietly(["fol", "eval", "--sig", sig, "--structs", structure,
                                     "--env", "x=1", "--formula=" + " ".join(tokens)])
    assert code in (0, 1, 3)
    assert set(report) == {"result", "manifest"}


class _Overtime(Exception):
    pass


@contextlib.contextmanager
def _wall_clock(seconds):
    def expire(signum, frame):
        raise _Overtime("still running after %s s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_fol_eval_checks_a_4096_entry_table_at_once(capsys, tmp_path):
    # a 4-ary function on 8 elements whose equality pairs 2a with 2a + 1:
    # the congruence check once walked all 8^8 pairs of argument tuples
    # (over 20 s); it now walks the 16 equivalent tuples of each one
    sig = write_json(tmp_path, "sig.json", {"functions": {"g": 4}})
    g = [[[[2 * ((a // 2 + b // 2 + c // 2 + d // 2) % 4) for d in range(8)] for c in range(8)]
          for b in range(8)] for a in range(8)]
    eq = [[a, b] for a in range(8) for b in range(8) if a // 2 == b // 2]
    structure = write_json(tmp_path, "s.json", {"universe": 8, "functions": {"g": g},
                                                 "relations": {"=": eq}})
    argv = ["fol", "eval", "--sig", sig, "--structs", structure,
            "--formula", "g(x, x, x, x) = x", "--env", "x=1"]
    try:
        with _wall_clock(5):
            code, report = invoke(capsys, argv)
    except _Overtime as err:
        pytest.fail(str(err), pytrace=False)
    assert (code, report["result"]["values"]) == (0, [True])


@pytest.mark.parametrize("members", [[], [[0] * 25]])
def test_fol_eval_checks_a_25_ary_relation_at_once(capsys, tmp_path, members):
    # the congruence check once walked all 3^25 argument tuples of r (over
    # 20 s); it now walks only the tuples equivalent to one of r's members
    sig = write_json(tmp_path, "sig.json", {"relations": {"r": 25}})
    structure = write_json(tmp_path, "s.json", {"universe": 3, "relations": {"r": members}})
    argv = ["fol", "eval", "--sig", sig, "--structs", structure,
            "--formula", "x = x", "--env", "x=0"]
    try:
        with _wall_clock(5):
            code, report = invoke(capsys, argv)
    except _Overtime as err:
        pytest.fail(str(err), pytrace=False)
    assert (code, report["result"]["values"]) == (0, [True])


def test_fol_eval_checks_the_equality_of_20000_elements_at_once(capsys, tmp_path):
    # the transitivity check once walked every element c for each pair in
    # "=", quadratic even for identity (1.3 s at 4,000 elements); it now
    # walks the class of b alone
    sig = write_json(tmp_path, "sig.json", {})
    structure = write_json(tmp_path, "s.json", {"universe": 20000})
    argv = ["fol", "eval", "--sig", sig, "--structs", structure,
            "--formula", "x = x", "--env", "x=0"]
    try:
        with _wall_clock(5):
            code, report = invoke(capsys, argv)
    except _Overtime as err:
        pytest.fail(str(err), pytrace=False)
    assert (code, report["result"]["values"]) == (0, [True])


@pytest.mark.parametrize("voters, candidates", [(10**7, 3), (1, 10**6)])
def test_arrow_refuses_a_huge_profile_space_at_once(capsys, tmp_path, voters, candidates):
    # (m!)^v was built before it was compared with the cap: 6^(10^7) took
    # about 5 s and 10^6! about 10 s
    rule = write_json(tmp_path, "rule.json",
                      {"voters": voters, "candidates": candidates, "table": [0]})
    try:
        with _wall_clock(1):
            code, _ = invoke(capsys, ["arrow", "check", "--rule", rule])
    except _Overtime as err:
        pytest.fail(str(err), pytrace=False)
    assert code == 2


def _dictator_table(voters):
    # two candidates: order 1 puts 0 above 1, and voter 0 is the most
    # significant digit of a profile index
    return [p >> (voters - 1) & 1 for p in range(1 << voters)]


def test_arrow_decisive_on_14_voters_is_fast(capsys, tmp_path):
    # each ordered pair once tested all 2^14 coalitions against every losing
    # supporter set (16.7 s); the family is now one star
    rule = write_json(tmp_path, "rule.json",
                      {"voters": 14, "candidates": 2, "table": _dictator_table(14)})
    try:
        with _wall_clock(2):
            code, report = invoke(capsys, ["arrow", "decisive", "--rule", rule])
    except _Overtime as err:
        pytest.fail(str(err), pytrace=False)
    assert code == 0
    members = report["result"]["decisive"]["members"]
    assert len(members) == 1 << 13 and all(m[0] == 0 for m in members)


@pytest.mark.parametrize("action", ["decisive", "verify"])
def test_arrow_on_17_voters_exits_2_at_once(capsys, tmp_path, action):
    # a family on 17 voters would have 2^16 members; star refuses it
    rule = write_json(tmp_path, "rule.json",
                      {"voters": 17, "candidates": 2, "table": _dictator_table(17)})
    try:
        with _wall_clock(5):
            code, report = invoke(capsys, ["arrow", action, "--rule", rule])
    except _Overtime as err:
        pytest.fail(str(err), pytrace=False)
    assert code == 2
    assert report["result"]["error"].startswith("CapExceeded: star")


FOL_SIGNATURE = {"functions": {"f": 2}, "relations": {"r": 1}, "constants": ["c"]}
FOL_STRUCTURES = [
    {"universe": 2, "functions": {"f": [[0, 1], [1, 0]]}, "relations": {"r": [[1]]},
     "constants": {"c": 0}},
    {"universe": 3, "functions": {"f": [[0, 0, 0], [0, 1, 2], [0, 2, 1]]},
     "relations": {"r": [[0], [2]], "=": [[0, 0], [1, 1], [2, 2]]}, "constants": {"c": 1}},
]
JSON_JUNK = [None, "x", "", 1.5, True, False, -1, 0, 1, 3, [], {}, [0], [[0]], [["f"]],
             [["f", 2]], {"a": 1}, {"f": -1}]
JSON_KEYS = ["", "=", "E", "x", "f", "r", "c", "universe", "functions", "relations"]


def _positions(node):
    """Every (container, key) of a JSON tree, each container before its
    children."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, child in items:
        yield node, key
        yield from _positions(child)


@st.composite
def mutated_json(draw, body):
    """``body`` with 1 to 3 entries dropped, replaced by junk or renamed, or
    now and then replaced whole."""
    junk = st.sampled_from(JSON_JUNK).map(copy.deepcopy)  # a later mutation may edit it
    body = copy.deepcopy(body)
    for _ in range(draw(st.integers(1, 3))):
        positions = list(_positions(body))
        if not positions or draw(st.integers(0, 9)) == 0:
            return draw(junk)
        node, key = draw(st.sampled_from(positions))
        how = draw(st.sampled_from(["drop", "junk", "rename"]))
        if how == "drop":
            del node[key]
        elif how == "junk" or isinstance(node, list):
            node[key] = draw(junk)
        else:
            node[draw(st.sampled_from(JSON_KEYS))] = node.pop(key)
    return body


@given(st.sampled_from(["eval", "los"]), st.integers(0, 2),
       mutated_json(FOL_SIGNATURE), mutated_json(FOL_STRUCTURES[0]))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fol_contract_on_malformed_json(action, target, sig, structure):
    # a malformed signature, structure or both: a JSON body, a documented
    # exit code, and no Python error text (src/ufw raises no TypeError or
    # KeyError of its own, so one that escapes is an unchecked input)
    bodies = {"sig.json": sig if target != 1 else FOL_SIGNATURE,
              "a.json": structure if target != 0 else FOL_STRUCTURES[0],
              "b.json": FOL_STRUCTURES[1],
              "uf.json": principal_ultrafilter(GroundSet(2), 0).to_json()}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, body in bodies.items():
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "w") as fh:
                json.dump(body, fh)
        argv = ["fol", action, "--sig", paths["sig.json"],
                "--structs", paths["a.json"], paths["b.json"], "--formula", "E y. f(x, y) = c"]
        argv += ["--env", "x=1"] if action == "eval" else ["--uf", paths["uf.json"]]
        try:
            with _wall_clock(5):
                code, report = _run_quietly(argv)
        except _Overtime as err:
            pytest.fail("%s: %s" % (argv, err), pytrace=False)
    assert code in (0, 1, 3)
    assert set(report) == {"result", "manifest"}
    error = report["result"].get("error", "")
    assert not error.startswith(("TypeError:", "KeyError:")), error
