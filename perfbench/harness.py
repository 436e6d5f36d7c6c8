"""Repetition loop, timing, checks and metrics of the benchmark.

A run draws the workload's op list from the seed and repeats it until its
time is used up. The ops of a repetition are issued back to back by one
client in one thread (a closed loop); the timed region covers the ops
only, and checks and file digests run after it. A fixed reference kernel
is timed between ops; each op latency is scaled by the kernel's local
time (see REFERENCE_S), and an op's latency is the median of its scaled
latencies over the repetitions. The raw timings go to the result file.

Untraced runs report the end-to-end metrics. Traced runs follow each
untraced repetition with a traced one in the same output directories,
require both to write byte-identical files, and report the per-layer
metrics as means over the traced repetitions (plus one traced set-up,
which is where the wake bundle is written).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

import phaseseek.sensing
from tracer import SPAN_NAMES, Tracer
from workloads import TERMINATIONS, WORKLOADS, Verdict

SETUP_REPEATS = 7
# spans written out per traced run (the first traced repetition's first
# spans; a seek-analytic repetition records about 1.3 million)
SPAN_DUMP_LIMIT = 100_000
# Time metrics are scaled to a machine on which reference_kernel() takes
# this long. The speed of a shared virtual core drifts: there, the
# kernel's time switches between about 4.4 and 7.2 ms over seconds to
# minutes, and the kernel, timed between ops, tracks that drift.
REFERENCE_S = 5e-3
# Times the import, then the reference kernel in the same interpreter.
IMPORT_CODE = (
    "import statistics, sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "t = time.perf_counter()\n"
    "import phaseseek\n"
    "seconds = time.perf_counter() - t\n"
    "from harness import time_reference\n"
    "ref = statistics.median(time_reference() for _ in range(5))\n"
    "print(repr(seconds), repr(ref))\n"
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "steps_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "ops_ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


PER_LAYER_UNITS = {
    **{f"{span}.{stat}": unit for span in SPAN_NAMES
       for stat, unit in (("calls", "count"), ("self_s", "s"))},
    "agent.simulate.steps": "count",
    "agent.simulate.us_per_step": "us",
    "agent.simulate.raised": "count",
    "agent.simulate_polar.steps": "count",
    "agent.write_csv.rows": "count",
    "agent.write_csv.bytes": "B",
    "wake.load_bundle.bytes": "B",
    "wake.save_bundle.bytes": "B",
    "wake.grids_write_csv.bytes": "B",
    "analysis.write_grid_csv.bytes": "B",
    "sensing.windows_per_step": "count",
    "sensing.quasi_steady_warnings": "count",
    "wake.coarse_grid_warnings": "count",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_frac": "ratio",
    **{f"agent.termination.{reason}": "count" for reason in TERMINATIONS},
}


@dataclass
class Outcome:
    """What one op returned, how long it took and what it warned."""

    value: object
    error: str | None
    seconds: float
    stderr: str
    quasi_steady: int
    coarse_grid: int


@contextlib.contextmanager
def quiet():
    """Capture stdout, stderr and warnings; yields (stderr, warnings)."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        yield err, caught


def execute(workload, op, out):
    """Run one op in ``out``; an exception is recorded, not raised."""
    with quiet() as (err, caught):
        start = time.perf_counter()
        try:
            value, error = workload.run(op, out), None
        except Exception as exc:  # a raising op is a failed op; go on
            value = None
            error = "".join(traceback.format_exception_only(exc)).strip()
        seconds = time.perf_counter() - start
    quasi = sum(issubclass(w.category, phaseseek.sensing.QuasiSteadyWarning)
                for w in caught)
    coarse = sum("too coarse" in str(w.message) for w in caught)
    return Outcome(value, error, seconds, err.getvalue(), quasi, coarse)


def check(workload, op, outcome, out):
    with quiet():
        try:
            return workload.check(op, outcome, out)
        except Exception as exc:  # unreadable output is a wrong output
            note = "".join(traceback.format_exception_only(exc)).strip()
            return Verdict("wrong", note=f"check raised: {note}"[:200])


def digest(directory):
    """sha256 of every file under ``directory``, by relative path."""
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def time_import(src):
    """Seconds to ``import phaseseek`` in a fresh interpreter, and the
    median reference-kernel time measured right after it there."""
    here = os.path.dirname(os.path.abspath(__file__))
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(src), here],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    seconds, ref = done.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(ref)


def reference_kernel():
    """Fixed benchmark-side work that gauges the machine's current speed.

    Interpreter-bound float arithmetic plus small numpy calls: the mix the
    closed loop spends its time on. It shares no code with phaseseek.
    """
    x, acc = 0.5, 0.0
    for i in range(20000):
        x = math.sin(x) + 0.5 * math.cos(i * 1e-3)
        acc += x
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(250):
        acc += float(np.mean(a * np.exp(-1j * a)).real)
    return acc


def scale(latencies, refs):
    """Op latencies of one pass scaled to the reference machine.

    Each latency is scaled by REFERENCE_S over the median of the four
    reference timings nearest to the op, two before it and two after.
    """
    local = [statistics.median(refs[max(0, i - 1):i + 3])
             for i in range(len(latencies))]
    return np.array(latencies) * REFERENCE_S / np.array(local)


def time_reference():
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def machine_facts():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload_name, seed, seconds, trace, root, src):
        self.workload = WORKLOADS[workload_name]()
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.src = src
        self.base = root / ".perfbench_out" / workload_name
        self.work = fresh_dir(self.base / "work")
        self.ops = []
        self.latencies = []       # per repetition, one list of op seconds
        self.refs = []            # per repetition, reference timings
        self.import_samples = []  # (seconds, reference kernel seconds)
        self.prep_samples = []
        self.rep_walls = []
        self.traced_walls = []
        self.traced_scaled = []   # per traced pass: (untraced, traced) sums
        self.verdicts = []
        self.problems = []
        self.setup_layer = Counter()
        self.rep_layer = Counter()
        self.first_spans = None
        self.tracer = Tracer() if trace else None

    def setup(self):
        """Time the import and the workload's preparation several times.

        Each sample is stored with a reference-kernel time taken next to
        it, so that ``end_to_end`` can scale it like the op latencies.
        """
        for _ in range(SETUP_REPEATS):
            self.import_samples.append(time_import(self.src))
        for _ in range(SETUP_REPEATS):
            before = time_reference()
            with quiet():
                start = time.perf_counter()
                code = self.workload.setup(self.work)
                seconds = time.perf_counter() - start
            ref = 0.5 * (before + time_reference())
            self.prep_samples.append((seconds, ref))
            if code not in (None, 0):
                raise RuntimeError(f"workload set-up exited {code}")
        if self.trace:
            self.tracer.install()
            try:
                with quiet():
                    self.workload.setup(self.work)
            finally:
                self.tracer.uninstall()
            self.setup_layer.update(self.tracer.fold())
            self.tracer.clear()

    def _pass(self, traced):
        """Run every op once, timing the reference kernel between ops.

        Returns (wall, outcomes, reference timings, digests).
        """
        dirs = [fresh_dir(self.work / "ops" / f"op{i:03d}")
                for i in range(len(self.ops))]
        if traced:
            self.tracer.clear()
            self.tracer.install()
        try:
            outcomes = []
            refs = [time_reference()]
            start = time.perf_counter()
            for i, (op, out) in enumerate(zip(self.ops, dirs)):
                if traced:
                    self.tracer.op = i
                outcomes.append(execute(self.workload, op, out))
                refs.append(time_reference())
            wall = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.uninstall()
        return wall, outcomes, refs, [digest(d) for d in dirs]

    def measure(self):
        """Repeat the op list until the time is used up.

        Op 0 runs once before timing starts: it warms the process up and
        is the determinism canary. Every repetition must write the same
        bytes as the first, and the first repetition's outputs are checked.
        Returns the number of repetitions.
        """
        self.ops = self.workload.draw(self.seed)
        canary_dir = fresh_dir(self.work / "ops" / "op000")
        execute(self.workload, self.ops[0], canary_dir)
        canary = digest(canary_dir)
        start = time.perf_counter()
        first = None
        while True:
            wall, outcomes, refs, digests = self._pass(traced=False)
            self.rep_walls.append(wall)
            self.latencies.append([o.seconds for o in outcomes])
            self.refs.append(refs)
            if first is None:
                first = digests
                if digests[0] != canary:
                    self.problems.append(f"canary {self.ops[0].kind} wrote "
                                         "different bytes on a second run")
            elif digests != first:
                self.problems.append(f"repetition {len(self.rep_walls)} "
                                     "wrote different bytes")
            if self.trace:
                self._traced_pass(first)
            if not self.verdicts:
                self._check(outcomes)
            elapsed = time.perf_counter() - start
            reps = len(self.rep_walls)
            if elapsed * (reps + 1) / reps > self.seconds:
                break
        shutil.rmtree(self.work, ignore_errors=True)
        return len(self.rep_walls)

    def _check(self, outcomes):
        dirs = [self.work / "ops" / f"op{i:03d}" for i in range(len(self.ops))]
        for i, (op, outcome, out) in enumerate(zip(self.ops, outcomes, dirs)):
            verdict = check(self.workload, op, outcome, out)
            self.verdicts.append(verdict)
            if verdict.status == "wrong":
                self.problems.append(f"op {i} {op.kind}: {verdict.note}")

    def _traced_pass(self, first):
        wall, outcomes, refs, digests = self._pass(traced=True)
        self.traced_walls.append(wall)
        self.traced_scaled.append((
            scale(self.latencies[-1], self.refs[-1]).sum(),
            scale([o.seconds for o in outcomes], refs).sum()))
        if digests != first:
            self.problems.append("traced and untraced passes wrote "
                                 "different files")
        if self.first_spans is None:
            self.first_spans = {k: v[:SPAN_DUMP_LIMIT]
                                for k, v in self.tracer.spans().items()}
        self.rep_layer.update(self.tracer.fold())
        self.rep_layer["sensing.quasi_steady_warnings"] += sum(
            o.quasi_steady for o in outcomes)
        self.rep_layer["wake.coarse_grid_warnings"] += sum(
            o.coarse_grid for o in outcomes)
        self.tracer.clear()

    # -- results ----------------------------------------------------------

    def op_latencies(self):
        """Each op's scaled latency: the median over the repetitions."""
        return np.median([scale(lat, refs) for lat, refs
                          in zip(self.latencies, self.refs)], axis=0)

    def setup_seconds(self):
        """Median scaled import time plus median scaled preparation.

        An import is scaled by the kernel's median time in the same fresh
        interpreter; a preparation by the mean of the kernel times just
        before and after it.
        """
        return sum(
            statistics.median(s * REFERENCE_S / ref for s, ref in samples)
            for samples in (self.import_samples, self.prep_samples))

    def tail(self, latencies):
        """Latency with ten ops beyond it, its percentile and the op count."""
        lat = np.sort(latencies)
        n = len(lat)
        if n <= 10:
            return float(lat[-1]), 100.0, n
        return float(lat[n - 11]), 100.0 * (n - 10) / n, n

    def status_counts(self):
        return Counter(v.status for v in self.verdicts)

    def end_to_end(self):
        lat = self.op_latencies()
        tail, tail_pct, n = self.tail(lat)
        steps = np.array([v.steps for v in self.verdicts])
        integrating = steps > 0
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "wall_s": float(lat.sum()),
            "steps_per_s": float(steps.sum() / lat[integrating].sum()),
            "op_ms.p50": 1e3 * float(np.median(lat)),
            "op_ms.tail": 1e3 * tail,
            "ops_ok_frac": self.status_counts()["ok"] / n,
            "setup_s": self.setup_seconds(),
            "peak_rss_mb": peak_kib / 1024.0,
        }
        extra = {"op_ms.tail_percentile": tail_pct, "op_count": n,
                 "repetition_wall_s": self.rep_walls,
                 "latency_s": self.latencies, "reference_s": self.refs,
                 "import_samples": self.import_samples,
                 "prep_samples": self.prep_samples}
        return values, extra

    def per_layer(self):
        """Per-pass means over the traced passes, plus the traced set-up."""
        passes = len(self.traced_walls)
        totals = Counter(self.setup_layer)
        totals.update({k: v / passes for k, v in self.rep_layer.items()})
        values = {name: float(totals[name]) for name in PER_LAYER_UNITS}
        steps = totals["agent.simulate.steps"]
        if steps:
            values["sensing.windows_per_step"] = (
                totals["sensing.windows_in_steps"] / steps)
            values["agent.simulate.us_per_step"] = (
                1e6 * totals["agent.simulate.self_s"] / steps)
        plain, traced_ops = np.sum(self.traced_scaled, axis=0)
        values["trace.overhead_frac"] = float(traced_ops / plain - 1.0)
        traced = sum(self.traced_walls)
        values["trace.uncovered_frac"] = (
            traced - self.rep_layer["trace.covered_s"]) / traced
        return values
