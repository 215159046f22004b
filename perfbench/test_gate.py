"""Self-test of the benchmark's correctness gate: tampered answers must be
counted as failures, untampered ones must pass.

    PYTHONPATH=src python -m pytest -q perfbench/test_gate.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import oracles  # noqa: E402


def _run(tasks, names, tracing=False):
    ctx = harness.Context()
    ctx.tracing = tracing
    chosen = [(name, fn) for name, fn in tasks if name in names]
    assert len(chosen) == len(names)
    latencies, scaled, failed = harness.run_pass(ctx, chosen)
    assert len(latencies) == len(scaled) == len(chosen)
    return ctx, failed


def test_search_gate_catches_a_flipped_colour(monkeypatch, tmp_path):
    import workload_search
    from ufw import largeness

    tasks = workload_search.build(0, tmp_path)
    _, failed = _run(tasks, ["thresholds-r2", "point-ap-0", "enumerate-order<=3"])
    assert failed == 0

    real = largeness.threshold_number

    def flipped(pattern, r, cap):
        res = real(pattern, r, cap)
        if pattern != ("ap", 3):
            return res
        colors = list(res.failure_coloring)
        i = next(i for i in range(len(colors))
                 if not oracles.avoids_ap(colors[:i] + [1 - colors[i]] + colors[i + 1:], 3))
        colors[i] = 1 - colors[i]
        return largeness.ThresholdResult(res.pattern, res.r, res.value, res.cap, tuple(colors))

    monkeypatch.setattr(largeness, "threshold_number", flipped)
    ctx, failed = _run(tasks, ["thresholds-r2"])
    assert failed == 1
    assert ctx.failures[0][1] == "largeness.checkers"


def test_cli_gate_catches_a_wrong_exit_code(tmp_path):
    import workload_cli

    tasks, runner = workload_cli.build(0, tmp_path, ROOT)
    argv = ["verify", "--certificate", runner.path("tampered.json")]
    right = workload_cli.cli_task(runner, argv, 1, workload_cli.valid_check(False))
    wrong = workload_cli.cli_task(runner, argv, 0)
    ctx, failed = _run([("right", right), ("wrong", wrong)], ["right", "wrong"])
    assert failed == 1
    assert ctx.failures[0][0] == "wrong"
    assert ctx.samples["cli.startup_ns"] and ctx.samples["cli.maxrss_kb"]


def test_verify_gate_catches_a_wrong_value(monkeypatch, tmp_path):
    import workload_verify
    from ufw import genpoly

    tasks = workload_verify.build(0, tmp_path)
    _, failed = _run(tasks, ["genpoly-eval-0", "setfam-families-0"])
    assert failed == 0

    real = genpoly.eval_exact
    monkeypatch.setattr(genpoly, "eval_exact", lambda expr, n: real(expr, n) + (n % 7 == 0))
    ctx, failed = _run(tasks, ["genpoly-eval-0"], tracing=True)
    assert failed == 1
    assert ctx.failures[0][1] == "genpoly"
    assert [s[0] for s in ctx.spans] == ["task", "genpoly"]


def test_exceptions_are_counted_and_blamed():
    def crash(ctx):
        ctx.call("folup", lambda: 1 / 0)

    for tracing in (False, True):
        ctx, failed = _run([("crash", crash), ("fine", lambda ctx: None)], ["crash", "fine"],
                           tracing)
        assert failed == 1
        assert ctx.failures == [("crash", "folup", "ZeroDivisionError: division by zero")]


def test_self_time_subtracts_children():
    spans = [("task", 0, 100, -1, "t"), ("arrow", 10, 50, 0, "t"), ("setfam", 20, 30, 1, "t")]
    assert harness.self_times(spans) == [60, 30, 10]
    busy, calls = harness.layer_busy(spans)
    assert busy["arrow"] == 30 and calls["setfam"] == 1
