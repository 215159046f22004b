"""Task runner, correctness gate and span tracer shared by the workloads.

A workload is a fixed list of tasks built from the seed during set-up.  A
task calls into ``ufw`` only through :meth:`Context.call`, naming the layer
it enters, and checks each answer with :func:`expect` against an oracle
from :mod:`oracles`.  A task that raises, or whose answer fails its check,
counts as failed; failures are counted, never dropped.

With tracing on, every :meth:`Context.call` records a span (name, start,
end, parent, task id) in memory; spans are written out once at the end.
With tracing off the call goes straight through.

On a shared machine the host's speed drifts: a fixed loop runs up to 1.7
times slower for seconds to minutes at a time, far more than the change a
run must resolve.  So around each task the runner times a fixed piece of
reference work, and the task's time is scaled to a host on which that work
takes :data:`REFERENCE_NS`: a task that ran while the reference work took
1.3 times that long is reported 1.3 times shorter.
"""

import gc
import json
import os
import sys
import time
from collections import Counter, defaultdict

import oracles

#: the package's library layers; ``cli`` is measured from outside the process
LIBRARY_LAYERS = (
    "largeness",
    "largeness.checkers",
    "semigroup",
    "setfam",
    "arrow",
    "folup",
    "genpoly",
    "discalc",
)

#: work counts reported per layer, each fed by the tasks from values the
#: public API returns
WORK_COUNTS = (
    "largeness.sizes_scanned",
    "largeness.checkers.certificates",
    "semigroup.tables",
    "setfam.families",
    "arrow.profiles",
    "folup.checked",
    "genpoly.evals",
    "discalc.ops",
)


#: nominal time of one reference sample; reported times are scaled to it
REFERENCE_NS = 1_000_000
#: reference samples taken after every task, and one more per this much
#: of its latency
REFERENCE_MIN = 3
REFERENCE_EVERY_NS = 50_000_000


#: semigroups of order 4 for the reference work: cyclic group, Klein group,
#: multiplication mod 4, two semilattices, left zero and right zero
_REFERENCE_TABLES = [
    tuple(tuple(op(i, j) for j in range(4)) for i in range(4))
    for op in (lambda i, j: (i + j) % 4, lambda i, j: i ^ j, lambda i, j: i * j % 4,
               max, min, lambda i, j: i, lambda i, j: j)
]


def _reference_work():
    """Fixed interpreter work: integer arithmetic for about three quarters
    of its time and the plain kernel oracle on small semigroups for the
    rest.  Of the pieces tried (integer arithmetic, dict updates, list
    indexing, calls, strings, random memory reads, the oracles) the
    arithmetic followed the long scans' drift most closely and the oracle
    the short tasks'; the blend keeps both the pass time and the median
    latency steady."""
    acc = 0
    for i in range(6000):
        acc += i * i % 7
    for mul in _REFERENCE_TABLES:
        acc += len(oracles.minimal_left_ideals(mul))
    return acc


def reference_ns():
    """Wall time of one run of the reference work.  The garbage collector is
    off meanwhile, so the program's heap does not change the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        _reference_work()
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


class GateFailure(Exception):
    """An answer that disagrees with its oracle."""

    def __init__(self, layer, message):
        super().__init__("%s: %s" % (layer, message))
        self.layer = layer


def expect(ok, layer, message):
    """Fail the running task, blaming ``layer``, unless ``ok``."""
    if not ok:
        raise GateFailure(layer, message)


class Context:
    """Per-run state handed to every task: the span log, work counts and
    failure counts.  ``tracing`` may be switched between passes."""

    def __init__(self):
        self.tracing = False
        self.spans = []  # (name, start_ns, end_ns, parent index or -1, task id)
        self.counts = Counter()
        self.samples = defaultdict(list)
        self.failures = []  # (task id, layer, message)
        self._stack = []
        self._task = None

    def call(self, layer, fn, *args, **kwargs):
        """Call ``fn`` as a call into ``layer``; an exception escaping it is
        blamed on the innermost layer it passed through."""
        if not self.tracing:
            try:
                return fn(*args, **kwargs)
            except Exception as err:
                _blame(err, layer)
                raise
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except Exception as err:
            _blame(err, layer)
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (layer, start, end, parent, self._task)

    def add_span(self, layer, start_ns, end_ns):
        """Record a span measured elsewhere (a child process's own timer) as
        a child of the innermost open span."""
        if self.tracing:
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((layer, start_ns, end_ns, parent, self._task))

    def count(self, name, amount=1):
        self.counts[name] += amount

    def sample(self, name, value):
        self.samples[name].append(value)

    def run_task(self, task_id, fn):
        """Run one task under a root span; returns (latency_ns, ok)."""
        self._task = task_id
        ok = True
        start = time.perf_counter_ns()
        try:
            self.call("task", fn, self)
        except GateFailure as err:
            ok = False
            self.failures.append((task_id, err.layer, str(err)))
        except Exception as err:  # a crash in any layer fails the task, never the run
            ok = False
            layer = getattr(err, "bench_layer", "task")
            self.failures.append((task_id, layer, "%s: %s" % (type(err).__name__, err)))
        latency = time.perf_counter_ns() - start
        self._task = None
        return latency, ok


def _blame(err, layer):
    if layer != "task" and not hasattr(err, "bench_layer"):
        err.bench_layer = layer


def run_pass(ctx, tasks):
    """One pass over the task list: ([latency_ns], [scaled latency_ns],
    failed).  Around each task the reference work is timed
    ``REFERENCE_MIN`` times, plus once per ``REFERENCE_EVERY_NS`` of the
    task's latency; the task's scaled latency is its latency on the nominal
    host, judged by the mean of the median samples before and after it.
    The samples go to ``ctx.samples["host.ref_ns"]``; none is in a latency."""
    latencies = []
    scaled = []
    failed = 0
    before = [reference_ns() for _ in range(REFERENCE_MIN)]
    for task_id, fn in tasks:
        latency, ok = ctx.run_task(task_id, fn)
        after = [reference_ns() for _ in range(REFERENCE_MIN + latency // REFERENCE_EVERY_NS)]
        latencies.append(latency)
        scaled.append(latency * REFERENCE_NS * 2 / (median(before) + median(after)))
        failed += not ok
        ctx.samples["host.ref_ns"] += after
        before = after
    return latencies, scaled, failed


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def self_times(spans):
    """Self time per span: its duration minus the time its children cover.
    Children of one span never overlap (calls are sequential)."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_busy(spans):
    """(busy_ns per layer, calls per layer) from one pass's spans."""
    busy = Counter()
    calls = Counter()
    for (name, _, _, _, _), own in zip(spans, self_times(spans)):
        busy[name] += own
        calls[name] += 1
    return busy, calls


def dump_spans(path, passes):
    """Write [(pass index, spans)] as JSON lines; ``parent`` indexes the
    spans of the same pass."""
    with open(path, "w") as fh:
        for index, spans in passes:
            for name, start, end, parent, task in spans:
                record = {"pass": index, "name": name, "start_ns": start, "end_ns": end,
                          "parent": parent, "task": task}
                fh.write(json.dumps(record) + "\n")


def child_env(src):
    """This process's environment with ``src`` first on PYTHONPATH, so a
    child interpreter imports the package from the source tree."""
    env = dict(os.environ)
    paths = [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def report_failures(failures, limit=20):
    for task_id, layer, message in failures[:limit]:
        print("FAILED task %s [%s] %s" % (task_id, layer, message), file=sys.stderr)
    if len(failures) > limit:
        print("... %d more failures" % (len(failures) - limit), file=sys.stderr)
