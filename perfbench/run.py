"""Benchmark for ufw: end-to-end and per-layer timings, gated on correctness.

    python3 perfbench/run.py --workload {cli,search,verify} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the package is loaded from ``src/`` next to this
directory, as checked out.  Each workload is a fixed task list built from
the seed, run by one client in a closed loop: whole passes over the list
until ``--seconds`` have passed (at least ``MIN_PASSES``).  Every answer is
checked against an oracle the code under test did not produce; a wrong
answer, wrong exit code, rejected certificate or exception fails its task.

Task times are scaled to a nominal host by the reference work timed around
each task (see :mod:`harness`), so that the host's drifting speed does not
read as a change of the program; the per-layer ``host.ref_ms`` gives the
unscaled reference time.  Set-up and import times of fresh interpreters are
not scaled: the reference work, timed in this process, did not follow them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, records a span around each call into a layer
during the traced ones, and reports per-layer metrics; the spans are
written to ``.perfbench_out/`` at the end.  Either way the last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import harness
from harness import LIBRARY_LAYERS, WORK_COUNTS, Context, median, quantile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("cli", "search", "verify")

#: fewest passes per run; with >= 34 tasks a pass, 3 passes give the 100
#: latency samples that put 10 beyond the 90th percentile
MIN_PASSES = 3
#: set-up is timed this many times, each in a fresh interpreter
SETUP_PROBES = 7
#: fresh interpreters timed for cli.import_ms
IMPORT_PROBES = 5
RATES = {
    "semigroup.tables_per_s": ("semigroup.tables", "semigroup"),
    "arrow.profiles_per_s": ("arrow.profiles", "arrow"),
    "folup.checked_per_s": ("folup.checked", "folup"),
    "genpoly.evals_per_s": ("genpoly.evals", "genpoly"),
}


def setup(workload, seed, workdir):
    """Import the workload, build its inputs and warm up.  Returns the task
    list.  This is exactly the work ``setup_s`` times."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "cli":
        import workload_cli

        tasks, runner = workload_cli.build(seed, workdir, ROOT)
        workload_cli.warm_up(Context(), runner)
        return tasks
    sys.path.insert(0, str(SRC))
    if workload == "search":
        import workload_search as module
    else:
        import workload_verify as module
    tasks = module.build(seed, workdir)
    module.warm_up()
    return tasks


def _timed_child(argv):
    """Wall seconds of a fresh interpreter running ``argv``; it must succeed."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, env=harness.child_env(SRC))
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError("%s failed: %s" % (argv, proc.stderr.decode(errors="replace")[-2000:]))
    return elapsed


def setup_seconds(workload, seed):
    probe = [str(Path(__file__)), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    return [_timed_child(probe) for _ in range(SETUP_PROBES)]


def import_ms():
    """Fresh ``import ufw.cli`` minus a bare interpreter, medians in ms."""
    bare = median([_timed_child(["-c", "pass"]) for _ in range(IMPORT_PROBES)])
    full = median([_timed_child(["-c", "import ufw.cli"]) for _ in range(IMPORT_PROBES)])
    return (full - bare) * 1000


def measure(ctx, tasks, seconds, trace):
    """Whole passes until ``seconds`` have passed and MIN_PASSES are done.
    With ``trace``, odd passes are traced.  Returns one record per pass, its
    times scaled to the nominal host by the reference samples around each
    task."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        ctx.tracing = trace and len(passes) % 2 == 1
        ctx.spans, ctx.counts, ctx.samples = [], Counter(), defaultdict(list)
        latencies, scaled, failed = harness.run_pass(ctx, tasks)
        passes.append({
            "traced": ctx.tracing,
            "scale": sum(scaled) / sum(latencies),
            "ref_ms": median(ctx.samples.pop("host.ref_ns")) / 1e6,
            "pass_s": sum(scaled) / 1e9,
            "latencies_ms": [v / 1e6 for v in scaled],
            "failed": failed,
            "spans": ctx.spans,
            "counts": ctx.counts,
            "samples": ctx.samples,
        })
    ctx.tracing = False
    return passes


def end_to_end(workload, passes, setup_samples):
    """End-to-end metrics from the untraced passes.  The 90th percentile is
    left out when fewer than 10 samples lie beyond it."""
    plain = [p for p in passes if not p["traced"]]
    latencies = [v for p in plain for v in p["latencies_ms"]]
    if workload == "cli":
        rss_kb = max(v for p in plain for v in p["samples"]["cli.maxrss_kb"])
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "setup_s": (median(setup_samples), "s"),
        "pass_s": (median([p["pass_s"] for p in plain]), "s"),
        "task_p50_ms": (median(latencies), "ms"),
        "task_p90_ms": (quantile(latencies, 0.9), "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    if len(latencies) < 100:
        del out["task_p90_ms"]
    return out, len(latencies)


def per_layer(passes, failures, import_cost_ms):
    """Per-layer metrics: medians over the traced passes of each pass's
    self time, calls, share of the pass, work counts and rates; failures
    are totals over the whole run."""
    series = defaultdict(list)
    units = {}

    def put(name, value, unit):
        series[name].append(value)
        units[name] = unit

    traced = [p for p in passes if p["traced"]]
    for p in traced:
        busy, calls = harness.layer_busy(p["spans"])
        busy_s = {layer: busy[layer] / 1e9 * p["scale"] for layer in LIBRARY_LAYERS}
        for layer in LIBRARY_LAYERS:
            put(layer + ".busy_s", busy_s[layer], "s")
            put(layer + ".calls", calls[layer], "count")
            put(layer + ".share", busy_s[layer] / p["pass_s"], "ratio")
        for name in WORK_COUNTS:
            put(name, p["counts"][name], "count")
        for rate, (count, layer) in RATES.items():
            put(rate, p["counts"][count] / busy_s[layer] if busy_s[layer] else 0.0, "1/s")
        startup = p["samples"]["cli.startup_ns"]
        put("cli.startup_ms_p50", median(startup) / 1e6 * p["scale"] if startup else 0.0, "ms")
        put("cli.handler_ms_sum", p["counts"]["cli.handler_ns"] / 1e6 * p["scale"], "ms")
        put("host.ref_ms", p["ref_ms"], "ms")
    out = {name: (median(values), units[name]) for name, values in series.items()}
    blamed = Counter(layer for _, layer, _ in failures)
    for layer in LIBRARY_LAYERS:
        out[layer + ".failed"] = (blamed[layer], "count")
    out["cli.import_ms"] = (import_cost_ms, "ms")
    plain = [p for p in passes if not p["traced"]]
    overhead = median([p["pass_s"] for p in traced]) / median([p["pass_s"] for p in plain]) - 1
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def environment():
    """What a result must be compared with: code, interpreter, machine."""
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        sha = ref
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except ImportError:
        numpy_version = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1] for line in fh if line.startswith("model name")]
        cpu = models[0].strip() if models else cpu
    except OSError:
        pass
    compiled = subprocess.run(
        [sys.executable, "-c", "import ufw.largeness.kernels._ckernels"], cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=harness.child_env(SRC),
    ).returncode == 0
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "compiled_kernel": compiled,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ufw" / "__init__.py").is_file():
        print("perfbench: no ufw sources under %s" % SRC, file=sys.stderr)
        return 2
    # the program gets only the generated inputs: no UFW_* settings, here
    # or in the child interpreters
    for key in [k for k in os.environ if k.startswith("UFW_")]:
        del os.environ[key]
    workdir = WORK / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, workdir)
            return 0
        setup_samples = setup_seconds(args.workload, args.seed)
        tasks = setup(args.workload, args.seed, workdir)
        ctx = Context()
        passes = measure(ctx, tasks, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p["latencies_ms"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    harness.report_failures(ctx.failures)
    e2e, samples = end_to_end(args.workload, passes, setup_samples)
    if not args.trace and "task_p90_ms" not in e2e:
        raise RuntimeError("%d latency samples: too few for a 90th percentile" % samples)
    env = environment()
    lines = ["workload %s seed %d: %d passes, %d tasks, %d latency samples, failed_frac %.6g, "
             "reference work %.4g ms (median; nominal %.4g ms)"
             % (args.workload, args.seed, len(passes), len(tasks), samples, failed / attempted,
                median([p["ref_ms"] for p in passes]), harness.REFERENCE_NS / 1e6)]
    lines += ["  %-36s %.6g %s" % (name, value, unit) for name, (value, unit) in e2e.items()]
    metrics = e2e
    record = {"workload": args.workload, "seed": args.seed, "environment": env,
              "passes": [{"traced": p["traced"], "pass_s": p["pass_s"], "ref_ms": p["ref_ms"],
                          "failed": p["failed"]} for p in passes],
              "latency_samples": samples, "end_to_end": {k: v[0] for k, v in e2e.items()}}
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        metrics = per_layer(passes, ctx.failures, import_ms())
        lines += ["  %-36s %.6g %s" % (name, v, unit) for name, (v, unit) in metrics.items()]
        record["per_layer"] = {k: v[0] for k, v in metrics.items()}
        harness.dump_spans(OUT / (stem + "-spans.jsonl"),
                           [(i, p["spans"]) for i, p in enumerate(passes) if p["traced"]])
    with open(OUT / (stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print("environment " + json.dumps(env, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
