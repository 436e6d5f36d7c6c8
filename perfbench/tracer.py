"""Span tracer that wraps phaseseek's public functions from outside.

Each target is an attribute (of a module or a class) that a caller inside
phaseseek looks up at call time, so replacing the attribute is enough to
see every call. A span records its name, start, end, parent span, op id
and whether it raised. Spans are kept in flat in-memory arrays; the
harness folds them into per-layer sums after each traced round and writes
the spans of the first traced round out when the run ends. No file of the
package is touched, and ``uninstall`` puts every original attribute back.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from collections import Counter

import numpy as np

# (module, class or None, attribute, span name, counter hook)
# Span names are "<module>.<function>": the layer that defines the
# function. dft_first_mode is looked up by both sensing and wake, so it is
# wrapped under both lookups and counted once, as sensing.dft_first_mode.
TARGETS = (
    ("phaseseek.cli", None, "main", "cli.main", None),
    ("phaseseek.cli", None, "load_bundle", "wake.load_bundle", "bytes_arg0"),
    ("phaseseek.cli", None, "save_bundle", "wake.save_bundle", "bytes_arg1"),
    ("phaseseek.cli", None, "spectral_grids", "wake.spectral_grids", None),
    ("phaseseek.wake", "SpectralGrids", "write_csv", "wake.grids_write_csv",
     "bytes_arg1"),
    ("phaseseek.wake", "BundleField", "eval_window", "wake.eval_window", None),
    ("phaseseek.wake", None, "dft_first_mode", "sensing.dft_first_mode", None),
    ("phaseseek.sensing", None, "dft_first_mode", "sensing.dft_first_mode",
     None),
    ("phaseseek.agent", None, "spectral_sample", "sensing.spectral_sample",
     None),
    ("phaseseek.agent", None, "analytic_sample", "sensing.analytic_sample",
     None),
    ("phaseseek.fields", "RadialField", "eval_window", "fields.eval_window",
     None),
    ("phaseseek.fields", "RadialField", "analytic_spectra",
     "fields.analytic_spectra", None),
    ("phaseseek.agent", None, "simulate", "agent.simulate", "trajectory"),
    ("phaseseek.agent", None, "simulate_polar", "agent.simulate_polar",
     "trajectory"),
    ("phaseseek.agent", "Trajectory", "write_csv", "agent.write_csv",
     "csv_rows"),
    ("phaseseek.agent", "Trajectory", "write_sidecar", "agent.write_sidecar",
     None),
    ("phaseseek.analysis", None, "conserved_quantity",
     "analysis.conserved_quantity", None),
    ("phaseseek.analysis", None, "classify_convergence",
     "analysis.classify_convergence", None),
    ("phaseseek.analysis", None, "fixed_points", "analysis.fixed_points", None),
    ("phaseseek.analysis", None, "portrait", "analysis.portrait", None),
    ("phaseseek.analysis", "PortraitReport", "write_grid_csv",
     "analysis.write_grid_csv", "bytes_arg1"),
    ("phaseseek.analysis", None, "bifurcation_scan",
     "analysis.bifurcation_scan", None),
    ("phaseseek.analysis", None, "lambert_w", "analysis.lambert_w", None),
)

SPAN_NAMES = tuple(sorted({t[3] for t in TARGETS}))
WINDOW_SPANS = ("fields.eval_window", "wake.eval_window")


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._originals = []
        self.missing = []
        self.wrapped = set()
        self.op = -1
        self.clear()

    def clear(self):
        """Drop recorded spans and counters."""
        self.names = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.raised = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.counters = Counter()
        self._stack = []

    def install(self):
        """Wrap every target that exists; note the ones that do not."""
        self.missing = []
        self.wrapped = set()
        for module_name, cls_name, attr, span, hook in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            owner = module
            if module is not None and cls_name is not None:
                owner = getattr(module, cls_name, None)
            if owner is None or not hasattr(owner, attr):
                self.missing.append(
                    ".".join(p for p in (module_name, cls_name, attr) if p))
                continue
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            self._originals.append((owner, attr, own, original))
            setattr(owner, attr, self._wrap(original, span, hook))
            self.wrapped.add(span)

    @property
    def absent(self):
        """Span names none of whose lookups exist any more."""
        return sorted(set(SPAN_NAMES) - self.wrapped)

    def uninstall(self):
        for owner, attr, own, original in reversed(self._originals):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._originals = []

    def _wrap(self, fn, span, hook):
        name_id = self.name_ids[span]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.names)
            self.names.append(name_id)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ops.append(self.op)
            self.raised.append(1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.starts[index] = start
                self.ends[index] = end
            self.raised[index] = 0
            if hook is not None:
                self._count(span, hook, args, result)
            return result

        return traced

    def _count(self, span, hook, args, result):
        c = self.counters
        if hook == "bytes_arg0":
            c[f"{span}.bytes"] += _file_size(args[0])
        elif hook == "bytes_arg1":
            c[f"{span}.bytes"] += _file_size(args[1])
        elif hook == "csv_rows":
            c[f"{span}.rows"] += len(args[0])
            c[f"{span}.bytes"] += _file_size(args[1])
        elif hook == "trajectory":
            c[f"{span}.steps"] += len(result.t) - 1
            c[f"agent.termination.{result.termination}"] += 1

    def spans(self):
        """The recorded spans as a dict of numpy columns."""
        return {
            "name": np.array(self.names, dtype=np.int64),
            "parent": np.array(self.parents, dtype=np.int64),
            "op": np.array(self.ops, dtype=np.int64),
            "raised": np.array(self.raised, dtype=bool),
            "start": np.array(self.starts, dtype=float),
            "end": np.array(self.ends, dtype=float),
        }

    def fold(self):
        """Per-layer sums over the recorded spans and counters.

        Self time is a span's duration minus the durations of its direct
        children (they nest, one thread). Windows are counted per RK4 step
        only inside agent.simulate calls that returned a trajectory, since
        only those report their step count.
        """
        s = self.spans()
        out = Counter(self.counters)
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.zeros(len(dur))
        np.add.at(child, s["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        for name, i in self.name_ids.items():
            mask = s["name"] == i
            out[f"{name}.calls"] += int(mask.sum())
            out[f"{name}.self_s"] += float(self_time[mask].sum())
        sim = self.name_ids["agent.simulate"]
        out["agent.simulate.raised"] += int(
            (s["raised"] & (s["name"] == sim)).sum())
        # nearest agent.simulate ancestor of every span (-1 if none)
        ancestor = np.full(len(dur), -1)
        link = s["parent"].copy()
        while (link >= 0).any():
            live = link >= 0
            hit = live & (ancestor < 0)
            hit[hit] = s["name"][link[hit]] == sim
            ancestor[hit] = link[hit]
            link[live] = s["parent"][link[live]]
        windows = np.isin(s["name"],
                          [self.name_ids[n] for n in WINDOW_SPANS])
        counted = windows & (ancestor >= 0)
        counted[counted] = ~s["raised"][ancestor[counted]]
        out["sensing.windows_in_steps"] += int(counted.sum())
        out["trace.covered_s"] += float(dur[~has_parent].sum())
        return out
