"""Self-tests of the benchmark harness.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
# per workload, the op whose files are compared
TRACE_OP = {"seek-analytic": 0, "seek-windowed": -1, "taxonomy": 0}


def _workload(name, tmp_path):
    workload = WORKLOADS[name]()
    with harness.quiet():
        workload.setup(tmp_path)
    return workload


def _lookups():
    found = {}
    for module_name, cls_name, attr, _, _ in TARGETS:
        owner = importlib.import_module(module_name)
        if cls_name:
            owner = getattr(owner, cls_name)
        found[(module_name, cls_name, attr)] = (owner, vars(owner).get(attr))
    return found


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_runs_write_identical_files(name, tmp_path):
    workload = _workload(name, tmp_path)
    op = workload.draw(1)[TRACE_OP[name]]
    out = tmp_path / "op"
    harness.fresh_dir(out)
    plain = harness.execute(workload, op, out)
    plain_files = harness.digest(out)
    harness.fresh_dir(out)
    tracer = Tracer()
    tracer.install()
    try:
        traced = harness.execute(workload, op, out)
    finally:
        tracer.uninstall()
    assert plain.error is None and traced.error is None
    assert plain_files and harness.digest(out) == plain_files
    assert len(tracer.names) > 0


def test_every_wrapper_is_restored(tmp_path):
    before = _lookups()
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        for key, (owner, original) in before.items():
            assert getattr(owner, key[2]) is not original
    finally:
        tracer.uninstall()
    assert _lookups() == before

    run = harness.Run("taxonomy", 3, 0.01, True, tmp_path, ROOT / "src")
    run.measure()
    assert _lookups() == before
    assert run.problems == []


def test_missing_function_is_reported_absent(monkeypatch):
    import phaseseek.analysis
    monkeypatch.delattr(phaseseek.analysis, "lambert_w")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["analysis.lambert_w"]
    assert tracer.missing == ["phaseseek.analysis.lambert_w"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_inputs(name, tmp_path):
    workload = _workload(name, tmp_path)
    first = workload.draw(7)
    assert first == workload.draw(7)
    assert first != workload.draw(8)


def test_metric_names_are_well_formed_and_declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert end_to_end == set(harness.END_TO_END_UNITS)
    assert per_layer == set(harness.PER_LAYER_UNITS)
    for name in end_to_end | per_layer:
        assert NAME.fullmatch(name), name
    for metric in spec["end_to_end"]:
        assert metric["unit"] == harness.END_TO_END_UNITS[metric["name"]]
    for metric in spec["per_layer"]:
        assert metric["unit"] == harness.PER_LAYER_UNITS[metric["name"]]
