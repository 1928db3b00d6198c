"""Benchmark for reflektor: one workload per call, or all of them.

    python3 bench/run.py --workload closure_queries --seed 1 --seconds 30 \
        --trace 0

Every timed sequence runs in a fresh interpreter (bench/child.py), so the
package's module-level caches start empty, as they do for a CLI user.  A run
spawns set-up-only interpreters for setup_s, repeats the workload's sequence
in new interpreters until --seconds is used up (at least twice), checks
every output against values that do not come from the package, and prints
a table followed by one JSON line.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
sequences with sequences that have spans around the package's public
functions, and reports the per-layer metrics plus trace.overhead_ratio, the
traced over the untraced wall time.  It fails loudly when a span that the
workload is meant to drive records no calls.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

SETUP_SPAWNS = 9      # set-up-only interpreters; setup_s is their median
MIN_SEQUENCES = 2     # timed sequences per run, however long each takes
RUN_BUDGET_S = 170    # every child is killed past this point of the run

def _calls(spans):
    return [name + ".calls" for name in spans]


# spans each workload exists to drive, as the per-layer metric that must
# be nonzero in its traced run
DRIVEN = {
    "verify_full": _calls(tracer.SPAN_NAMES)
    + ["suites.%s.s" % s for s in tracer.SUITE_IDS],
    "closure_queries": _calls(
        ["engine.closure.finite", "engine.closure.capped",
         "engine.center_order", "engine.element_order",
         "engine.check_relation", "matrices.mul", "matrices.char_poly",
         "reflrep.preset", "cyclo.elem_mul", "cyclo.field_ctx_init"]),
}


class BenchError(RuntimeError):
    pass


class Spawner:
    """Starts children against one deadline and reaps each with wait4, so
    its peak resident memory is its own."""

    def __init__(self, budget_s):
        self.deadline = time.monotonic() + budget_s

    def __call__(self, inputs, trace=False):
        env = dict(os.environ, PYTHONHASHSEED="0")
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run budget of %d s used up" % RUN_BUDGET_S)
        argv = [sys.executable, CHILD, SRC, repr(time.monotonic())]
        proc = subprocess.Popen(argv + (["--trace"] if trace else []),
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                cwd=ROOT, env=env)
        timer = threading.Timer(left, proc.kill)
        timer.start()
        try:
            try:
                proc.stdin.write(json.dumps(inputs).encode())
                proc.stdin.close()
            except BrokenPipeError:
                pass
            data = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 or not data.strip():
            raise BenchError("child exited with %d%s" % (
                proc.returncode, " (killed at the run budget)"
                if proc.returncode < 0 else ""))
        try:
            out = json.loads(data.decode().strip().splitlines()[-1])
        except ValueError as exc:
            raise BenchError("unreadable child result: %s" % exc)
        if os.path.dirname(os.path.abspath(out["package"])) != \
                os.path.join(SRC, "reflektor"):
            raise BenchError("reflektor was imported from %s, not from %s"
                             % (out["package"], SRC))
        out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        return out


# -- checking ----------------------------------------------------------

class Checker:
    """Counts attempted and failed operations.  A failed operation is an
    exception (no output) or a wrong answer; only wrong answers make the
    run incorrect.  Verdicts are cached on the exact output, so a sequence
    repeated with the same answers is checked, and its problems listed,
    once."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.attempted = self.failed = self.wrong = 0
        self.problems = []
        self._memo = {}
        if inputs["workload"] == "verify_full":
            self.expected = checks.load_expected("verify_full.json")

    def add(self, results):
        for rec in results:
            key = json.dumps([rec["label"], rec["output"], rec["error"]],
                             sort_keys=True)
            if key not in self._memo:
                self._memo[key] = self._verdict(rec)
                self.problems.extend(self._memo[key][3])
            attempted, failed, wrong, _ = self._memo[key]
            self.attempted += attempted
            self.failed += failed
            self.wrong += wrong

    def _verdict(self, rec):
        """(attempted, failed, wrong, problems) for one operation."""
        label, out, error = rec["label"], rec["output"], rec["error"]
        if self.inputs["workload"] == "verify_full":
            # verify_full counts suite cases: an exception fails them all
            n = len(self.expected)
            if error is not None:
                return n, n, 0, [(label, error)]
            attempted, failed = checks.compare_cases(self.expected,
                                                     out["cases"])
            return attempted, failed, failed, \
                [(label, "%d cases differ from the committed list" % failed)
                 ] if failed else []
        if error is not None:
            return 1, 1, 0, [(label, error)]
        _, idx = label
        problems = checks.check_query(self.inputs["queries"][idx], out)
        bad = 1 if problems else 0
        return 1, bad, bad, [(label, p) for p in problems]

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


# -- runs --------------------------------------------------------------

def _percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload, seed, seconds):
    """End-to-end metrics: setup_s from set-up-only spawns, then the
    workload's sequence repeated in fresh interpreters for `seconds`, at
    least MIN_SEQUENCES times.  Each timing is a median over the sequences:
    the speed of a shared virtual machine drifts over seconds to minutes,
    and a median over a minute of sequences spreads less from run to run
    than their best does."""
    spawn = Spawner(RUN_BUDGET_S)
    inputs = make_inputs(workload, seed)
    checker = Checker(inputs)
    spawn({"workload": "setup"})  # untimed: writes bytecode, warms files
    # set-up spawns are spread over the run, so their median sees the same
    # host as the sequences do
    setups = [spawn({"workload": "setup"})["setup_s"] for _ in range(3)]
    reps = []
    start = time.monotonic()
    while True:
        reps.append(spawn(inputs))
        setups.append(spawn({"workload": "setup"})["setup_s"])
        used = time.monotonic() - start
        if len(reps) >= MIN_SEQUENCES and used + used / len(reps) > seconds:
            break
    while len(setups) < SETUP_SPAWNS:
        setups.append(spawn({"workload": "setup"})["setup_s"])
    for rep in reps:
        checker.add(rep["ops"])
    # every sequence runs the same operations, so each operation's latency
    # is its median over the sequences, and the percentiles are over those
    per_op = [statistics.median(r["ops"][i]["elapsed_s"] for r in reps)
              * 1000.0 for i in range(len(reps[0]["ops"]))]
    median = "median of %d sequences" % len(reps)
    ops = "%d operations, each the %s" % (len(per_op), median)
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s",
                   median),
        "setup_s": (statistics.median(setups), "s",
                    "median of %d spawns" % len(setups)),
        "op_p50_ms": (_percentile(per_op, 50), "ms", ops),
        "op_p90_ms": (_percentile(per_op, 90), "ms", ops),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps),
                        "MB", median),
    }
    notes = {"failed_frac": (checker.failed_frac, "1", "%d of %d operations"
                             % (checker.failed, checker.attempted))}
    for name, value in reps[-1]["caches"].items():
        notes[name] = (value, "1", "last sequence")
    return checker, metrics, notes


def measure_traced(workload, seed, seconds):
    """Per-layer metrics from traced sequences, alternated with untraced
    ones of the same inputs, for `seconds` (at least one pair).  Each
    per-layer value is the median over the traced sequences;
    trace.overhead_ratio is the median traced wall_s over the median
    untraced one."""
    spawn = Spawner(RUN_BUDGET_S)
    inputs = make_inputs(workload, seed)
    checker = Checker(inputs)
    spawn({"workload": "setup"})
    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(spawn(inputs))
        traced.append(spawn(inputs, trace=True))
        used = time.monotonic() - start
        if used + used / len(plain) > seconds:
            break
    for rep in plain + traced:
        checker.add(rep["ops"])
    layer = {}
    for part in ("trace", "caches"):
        for name in traced[0][part]:
            layer[name] = statistics.median_low(r[part][name]
                                                for r in traced)
    layer["trace.overhead_ratio"] = \
        statistics.median(r["wall_s"] for r in traced) / \
        statistics.median(r["wall_s"] for r in plain)
    silent = [name for name in DRIVEN[workload] if not layer[name]]
    if silent:
        raise BenchError("spans meant to be driven by %s recorded no calls: "
                         "%s" % (workload, ", ".join(silent)))
    basis = "median of %d traced sequences" % len(traced)
    metrics = {name: (value, _layer_unit(name), basis)
               for name, value in layer.items()}
    return checker, metrics, {}


def _layer_unit(name):
    if name.endswith((".self_s", ".s")):
        return "s"
    if name.endswith(".elements_per_s"):
        return "1/s"
    if name.endswith(".computed_bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "1"
    return "count"


def report(workload, seed, checker, metrics, notes):
    print("workload %s  seed %d  attempted %d  failed %d  correct %s"
          % (workload, seed, checker.attempted, checker.failed,
             str(checker.wrong == 0).lower()))
    for name, (value, unit, basis) in list(metrics.items()) + \
            list(notes.items()):
        print("  %-48s %14.6g %-5s %s" % (name, value, unit, basis))
    for label, problem in checker.problems[:20]:
        print("  failed %s: %s" % (label, problem))
    print(json.dumps({
        "correct": checker.wrong == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=60)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "reflektor", "__init__.py")):
        print("bench: no reflektor package under %s" % SRC, file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in names:
        try:
            if args.trace:
                result = measure_traced(workload, args.seed,
                                        args.seconds)
            else:
                result = measure(workload, args.seed, args.seconds)
        except BenchError as exc:
            print("bench: %s: %s" % (workload, exc), file=sys.stderr)
            return 1
        report(workload, args.seed, *result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
