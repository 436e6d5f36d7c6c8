"""End-to-end tests of the command-line interface."""

import argparse
import filecmp
import importlib.util
import inspect
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from phaseseek import (
    QuasiSteadyWarning,
    RadialField,
    SensingConfig,
    agent,
    analysis,
    load_bundle,
    spectral_grids,
    synth_wake,
)
from phaseseek import cli
from phaseseek.cli import (
    SIM_DEFAULTS,
    SIM_FLAGS,
    WAKE_DEFAULTS,
    _number,
    build_parser,
    main,
)

ROOT = Path(__file__).resolve().parent.parent


def test_simulate_radial_default_inits(tmp_path):
    code = main(["simulate", "--field", "radial", "--ell", "6.5",
                 "--gain", "static", "--g0", "0.5",
                 "--t-end", "2.0", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    assert len(summary["runs"]) == 5  # default ladder of start radii
    for index, run in enumerate(summary["runs"]):
        assert run["termination"] == "t_end"
        assert run["q_drift"] is not None and run["q_drift"] < 1e-8
        assert (tmp_path / run["csv"]).exists()
        assert (tmp_path / run["sidecar"]).exists()
        assert run["index"] == index
    inits = summary["config"]["agent"]["inits"]
    assert [i[0] for i in inits] == [2.0, 4.0, 6.0, 8.0, 10.0]


def test_simulate_explicit_inits_and_reproducibility(tmp_path):
    args = ["simulate", "--field", "radial", "--ell", "6.5",
            "--gain", "proportional", "--g0", "0.5",
            "--init", "4,0,1.5707963267948966", "--init", "3,1,2.0",
            "--t-end", "2.0"]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(dir_a)]) == 0
    assert main(args + ["--out", str(dir_b)]) == 0
    for name in ("run_run000.csv", "run_run001.csv"):
        assert filecmp.cmp(dir_a / name, dir_b / name, shallow=False)


def test_simulate_summary_reusable_as_config(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--field", "radial", "--ell", "6.5",
            "--gain", "static", "--g0", "0.5",
            "--init", "4,0,1.5707963267948966", "--t-end", "1.0"]
    assert main(args + ["--out", str(dir_a)]) == 0
    # pointing --config at the emitted summary reruns the same setup
    assert main(["simulate", "--config", str(dir_a / "run_summary.json"),
                 "--out", str(dir_b)]) == 0
    assert filecmp.cmp(dir_a / "run_run000.csv", dir_b / "run_run000.csv",
                       shallow=False)


def _strict_json(path):
    def refuse(name):
        raise ValueError(f"{path.name} holds a bare {name}")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_simulate_writes_an_infinite_escape_as_strict_json(tmp_path):
    # --r-escape inf, no escape bound, was written as a bare Infinity
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--field", "radial", "--ell", "6.5",
                 "--init", "4,0,0", "--r-escape", "inf", "--t-end", "0.1",
                 "--out", str(dir_a)]) == 0
    sidecar = _strict_json(dir_a / "run_run000.json")
    summary = _strict_json(dir_a / "run_summary.json")
    assert sidecar["params"]["r_escape"] == "inf"
    assert summary["config"]["integration"]["r_escape"] == "inf"
    # the summary, as a config, reruns the same run
    assert main(["simulate", "--config", str(dir_a / "run_summary.json"),
                 "--out", str(dir_b)]) == 0
    for name in ("run_run000.csv", "run_run000.json"):
        assert filecmp.cmp(dir_a / name, dir_b / name, shallow=False)


def test_simulate_writes_the_infinite_rho_of_a_zero_gain_as_inf(tmp_path):
    # a zero gain has rho = v / g0 = inf
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--field", "radial", "--ell", "6.5",
                 "--g0", "0", "--init", "4,0,0", "--t-end", "0.1",
                 "--out", str(dir_a)]) == 0
    sidecar = _strict_json(dir_a / "run_run000.json")
    assert sidecar["params"]["rho"] == "inf"
    # the reader of --config's numbers takes the spelling back as inf
    assert _number(sidecar["params"]["rho"], "params.rho") == math.inf
    assert main(["simulate", "--config", str(dir_a / "run_summary.json"),
                 "--out", str(dir_b)]) == 0
    assert filecmp.cmp(dir_a / "run_run000.json", dir_b / "run_run000.json",
                       shallow=False)


def test_simulate_csv_format(tmp_path):
    assert main(["simulate", "--field", "radial", "--ell", "6.5",
                 "--gain", "static", "--g0", "0.5",
                 "--init", "4,0,1.5707963267948966",
                 "--t-end", "0.5", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "run_run000.csv").read_text().splitlines()
    assert lines[0] == "t,x,y,theta,r,eta,psi,m,s,G,Omega,Q"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 4.0
    assert float(first[9]) == 0.5  # static gain


def test_simulate_escape_termination(tmp_path):
    code = main(["simulate", "--field", "radial", "--ell", "5.4",
                 "--gain", "proportional", "--g0", "0.5",
                 "--init", "4,0,1.2", "--dt", "2e-3",
                 "--t-end", "100", "--r-escape", "12",
                 "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    assert summary["runs"][0]["termination"] == "escaped"


def test_simulate_sensing_failure_exit_code(tmp_path):
    bundle_path = tmp_path / "wake.wavf"
    assert main(["synth-wake", "--out", str(bundle_path)]) == 0
    code = main(["simulate", "--field", "bundle",
                 "--bundle", str(bundle_path),
                 "--init=-1,-3,1.5707963267948966",
                 "--t-end", "1.0", "--out", str(tmp_path)])
    assert code == 3
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    assert summary["runs"][0]["termination"] == "sensing_failure"


def test_simulate_zero_gradient_is_a_sensing_failure(tmp_path):
    # this wake seek crosses x = 0, where the stencil sees no phase gradient
    bundle_path = tmp_path / "wake.wavf"
    assert main(["synth-wake", "--out", str(bundle_path)]) == 0
    with pytest.warns(UserWarning):
        code = main(["simulate", "--field", "bundle",
                     "--bundle", str(bundle_path), "--gain", "proportional",
                     "--g0", "0.5", "--init=6,1.2,3.0", "--dt", "5e-3",
                     "--t-end", "40", "--r-stop", "0.5",
                     "--sensing", "windowed", "--out", str(tmp_path)])
    assert code == 3
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    run = summary["runs"][0]
    assert run["termination"] == "sensing_failure"
    rows = np.loadtxt(tmp_path / run["csv"], delimiter=",", skiprows=1)
    assert len(rows) == run["n_samples"] > 1
    assert np.isfinite(rows[:, :5]).all()


def test_simulate_names_each_failed_run_on_stderr(tmp_path, capsys):
    # run 000 starts with no phase gradient and fails at once; run 001 is
    # the README wake seek, which reaches the source
    bundle_path = tmp_path / "wake.wavf"
    assert main(["synth-wake", "--out", str(bundle_path)]) == 0
    capsys.readouterr()
    with pytest.warns(QuasiSteadyWarning):
        code = main(["simulate", "--field", "bundle",
                     "--bundle", str(bundle_path), "--gain", "proportional",
                     "--g0", "0.5", "--init=-0.1,0,0",
                     "--init", "8,0,3.141592653589793", "--dt", "5e-3",
                     "--t-end", "10", "--sensing", "windowed",
                     "--out", str(tmp_path)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err == ("error: run 000 ended sensing_failure: phase "
                            "gradient (0, 0) has no direction\n")
    assert captured.out == f"{tmp_path / 'run_summary.json'}\n"
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    assert [run["termination"] for run in summary["runs"]] == [
        "sensing_failure", "reached_source"]


def test_simulate_bundle_short_run(tmp_path):
    bundle_path = tmp_path / "wake.wavf"
    assert main(["synth-wake", "--out", str(bundle_path)]) == 0
    # windowed sensing at these parameters crosses a full wavelength per
    # window, so the run must announce the quasi-steady violation
    with pytest.warns(UserWarning):
        code = main(["simulate", "--field", "bundle",
                     "--bundle", str(bundle_path), "--gain", "proportional",
                     "--g0", "0.5", "--init", "8,0,3.141592653589793",
                     "--dt", "5e-3", "--t-end", "0.05",
                     "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    run = summary["runs"][0]
    assert run["termination"] == "t_end"
    assert run["q_drift"] is None  # no conserved level on gridded fields


def test_simulate_config_errors(tmp_path):
    # no field at all
    assert main(["simulate", "--out", str(tmp_path)]) == 2
    # malformed init triple
    assert main(["simulate", "--field", "radial", "--ell", "6.5",
                 "--init", "1,2", "--out", str(tmp_path)]) == 2
    # gridded field without explicit starts
    bundle_path = tmp_path / "wake.wavf"
    assert main(["synth-wake", "--out", str(bundle_path)]) == 0
    assert main(["simulate", "--field", "bundle",
                 "--bundle", str(bundle_path),
                 "--out", str(tmp_path)]) == 2
    # negative ell
    assert main(["simulate", "--field", "radial", "--ell", "-1",
                 "--init", "4,0,0", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("config, slot", [
    ({"agent": {"inits": [5]}}, "agent.inits"),
    ({"field": {"kind": "radial", "ell": [6.5]}}, "field.ell"),
    ({"integration": {"dt": [1]}}, "integration.dt"),
    ({"sensing": {"n_samples": 64.7}}, "sensing.n_samples"),
])
def test_simulate_rejects_malformed_config_values(tmp_path, capsys, config,
                                                  slot):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"field": {"kind": "radial", "ell": 6.5}, **config}))
    assert main(["simulate", "--config", str(path), "--t-end", "0.1",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {slot} must be ")
    assert not list(tmp_path.glob("run_*"))


@pytest.mark.parametrize("config, slot, value", [
    ({"field": {"kind": "radial", "ell": 6.5}, "output": {"dir": 5}},
     "output.dir", 5),
    ({"field": {"kind": "radial", "ell": 6.5}, "output": {"prefix": 7}},
     "output.prefix", 7),
    ({"field": {"kind": "bundle", "path": 5}, "agent": {"inits": [[1, 0, 0]]}},
     "field.path", 5),
], ids=["dir", "prefix", "bundle-path"])
def test_simulate_rejects_non_string_config_slots(tmp_path, capsys,
                                                  monkeypatch, config, slot,
                                                  value):
    # output.dir comes from the file alone, so the run would write under
    # the working directory
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(path), "--t-end", "0.1"]) == 2
    assert capsys.readouterr().err == (
        f"error: {slot} must be a string, got {value!r}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("case", ["unknown-mode", "analytic-on-bundle"])
def test_simulate_checks_the_sensing_mode_before_writing(tmp_path, capsys,
                                                         case):
    if case == "unknown-mode":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sensing": {"mode": "bogus"}}))
        flags = ["--config", str(config), "--field", "radial", "--ell",
                 "6.5"]
        text = "error: unknown sensing mode 'bogus'"
    else:
        bundle_path = tmp_path / "wake.wavf"
        assert main(["synth-wake", "--out", str(bundle_path)]) == 0
        flags = ["--field", "bundle", "--bundle", str(bundle_path),
                 "--init", "8,0,3.141592653589793", "--sensing", "analytic"]
        text = "error: BundleField has no analytic spectra"
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["simulate", *flags, "--t-end", "0.1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(text)
    assert not out.exists()


def test_simulate_checks_the_stencil_resolution_before_writing(tmp_path,
                                                              capsys):
    # 4 + 5e-16 rounds up to the next float, but 8 + 5e-16 rounds back
    # onto 8, a quarter ulp away; such a run once wrote its files and
    # exited 3 with a sensing failure
    out = tmp_path / "out"
    assert main(["simulate", "--field", "radial", "--ell", "6.5",
                 "--init", "4,0,2", "--init", "8,0,2", "--stencil-h",
                 "5e-16", "--sensing", "windowed", "--t-end", "0.1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: stencil_h = 5e-16 is below the float resolution of the "
        "start (8.0, 0.0): a stencil probe rounds onto it\n")
    assert not out.exists()


@pytest.mark.parametrize("sensing, stencil_h, pose", [
    ("bogus", 0.01, (4.0, 0.0, 1.0)), ("windowed", 1e-20, (6.0, 0.0, 2.0))])
def test_simulate_checks_a_start_as_the_library_does(tmp_path, capsys,
                                                     sensing, stencil_h,
                                                     pose):
    # both meet a bad mode or stencil and a bad dt through one gate: the
    # first fault named is the same
    with pytest.raises(ValueError) as exc:
        agent.simulate(agent.AgentState(*pose), RadialField(6.5),
                       agent.GainLaw("static", 0.5),
                       SensingConfig(stencil_h=stencil_h), dt=-1.0,
                       sensing=sensing)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sensing": {"mode": sensing}}))
    assert main(["simulate", "--config", str(config), "--field", "radial",
                 "--ell", "6.5", "--init", ",".join(map(str, pose)),
                 "--stencil-h", str(stencil_h), "--dt", "-1",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {exc.value}\n"


@pytest.mark.parametrize("flags, text", [
    (["--field", "radial"], "error: radial field needs --ell\n"),
    (["--field", "bundle"], "error: bundle field needs --bundle\n"),
], ids=["radial", "bundle"])
def test_fields_and_simulate_report_a_missing_input_alike(tmp_path, capsys,
                                                          flags, text):
    out = tmp_path / "maps.csv"
    assert main(["fields", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == text
    assert main(["simulate", *flags, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == text
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["fields", "simulate"])
def test_synth_wake_is_not_a_field_kind(tmp_path, command):
    # a synthetic wake is written by the synth-wake subcommand, then read
    # with --field bundle
    with pytest.raises(SystemExit) as exc:
        main([command, "--field", "synth-wake",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


def test_simulate_config_rejects_the_synth_wake_kind(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"field": {"kind": "synth_wake"}}))
    assert main(["simulate", "--config", str(path),
                 "--out", str(tmp_path)]) == 2
    assert "unknown field kind 'synth_wake'" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--init", "nan,0,0"],
    ["--init", "4,0,inf"],
    ["--t-end", "nan"],
    ["--t-end", "inf"],
    ["--dt", "nan"],
    ["--v", "nan"],
    ["--r-stop", "nan"],
    ["--r-escape", "nan"],
    ["--g0", "nan"],
    ["--g0", "inf"],
    ["--gain-m-floor", "inf"],
    ["--sensing-m-floor", "inf"],
])
def test_simulate_rejects_non_finite_input(tmp_path, flags):
    argv = ["simulate", "--field", "radial", "--ell", "6.5", "--dt", "1e-2",
            "--t-end", "1", "--out", str(tmp_path)]
    if "--init" not in flags:
        argv += ["--init", "4,0,0"]
    assert main(argv + flags) == 2
    assert not list(tmp_path.glob("*.csv"))


def test_simulate_checks_every_start_before_writing(tmp_path):
    # a bad second start must not leave the first run's files behind
    assert main(["simulate", "--field", "radial", "--ell", "6.5",
                 "--init", "4,0,0", "--init", "nan,0,0", "--t-end", "0.1",
                 "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.glob("run_run*.csv"))
    assert not list(tmp_path.glob("run_run*.json"))


def test_simulate_rejects_corrupt_bundle(tmp_path):
    bad = tmp_path / "bad.wavf"
    bad.write_bytes(b"WAVGjunkjunkjunk")
    assert main(["simulate", "--field", "bundle", "--bundle", str(bad),
                 "--init", "1,0,0", "--out", str(tmp_path)]) == 2


def test_analyze_static(tmp_path):
    code = main(["analyze", "--gain", "static", "--rho", "2.0",
                 "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "portrait_report.json").read_text())
    assert report["kind"] == "static"
    assert report["q_critical"] is None
    assert report["classification"] == "unconditional"
    assert len(report["fixed_points"]) == 2
    for fp in report["fixed_points"]:
        assert fp["r"] == pytest.approx(2.0, abs=1e-10)
        for ev in fp["eigenvalues"]:
            assert ev[0] == pytest.approx(0.0, abs=1e-10)
            assert abs(ev[1]) == pytest.approx(0.5, abs=1e-10)
    assert (tmp_path / "portrait_q_grid.csv").exists()


def test_analyze_proportional_with_grid(tmp_path):
    code = main(["analyze", "--gain", "proportional", "--rho", "2.0",
                 "--ell", "6.5", "--grid=-8,8,-8,8,21,21",
                 "--prefix", "prop", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "prop_report.json").read_text())
    assert report["q_critical"] == pytest.approx(10.003585736854543, abs=1e-9)
    assert sorted(report["separatrix_q"]) == pytest.approx(
        [-10.003585736854543, 10.003585736854543])
    assert report["classification"] == "conditional"
    lines = (tmp_path / "prop_q_grid.csv").read_text().splitlines()
    assert lines[0] == "r_cos_psi,r_sin_psi,Q"
    assert len(lines) == 1 + 21 * 21
    values = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.isfinite(values).all()


def test_analyze_writes_pinned_bytes_on_a_non_square_grid(tmp_path):
    assert main(["analyze", "--gain", "proportional", "--rho", "2.0",
                 "--ell", "6.5", "--grid=-3,3,-2,2,4,3",
                 "--out", str(tmp_path)]) == 0
    grid = analysis.PortraitGrid(-3.0, 3.0, -2.0, 2.0, 4, 3)
    rep = analysis.portrait("proportional", 2.0, 6.5, grid=grid)
    lines = ["r_cos_psi,r_sin_psi,Q"]
    for j, w in enumerate(rep.w_axis):
        for i, u in enumerate(rep.u_axis):
            lines.append(",".join(
                repr(float(c)) for c in (u, w, rep.q_grid[j, i])))
    assert len(lines) == 1 + 4 * 3
    assert ((tmp_path / "portrait_q_grid.csv").read_text()
            == "\n".join(lines) + "\n")
    assert ((tmp_path / "portrait_report.json").read_text()
            == json.dumps(rep.to_json_dict(), indent=2, sort_keys=True)
            + "\n")


def test_analyze_needs_ell_for_proportional(tmp_path):
    assert main(["analyze", "--gain", "proportional", "--rho", "2.0",
                 "--out", str(tmp_path)]) == 2


def test_analyze_rejects_a_nonpositive_speed(tmp_path, capsys):
    out = tmp_path / "reports"
    assert main(["analyze", "--gain", "static", "--rho", "2", "--v=-1",
                 "--out", str(out)]) == 2
    assert "speed must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, text", [
    # a Lambert W RuntimeError, exit 1
    (["--gain", "inverse", "--rho", "inf", "--ell", "6.5"],
     "error: rho must be finite, got inf"),
    # r* = ell W0(rho / ell) underflowed to 0: a ZeroDivisionError, exit 1
    (["--gain", "inverse", "--rho", "1e-300", "--ell", "1e300"],
     "error: rho = 1e-300 and ell = 1e+300 give rho / ell = 0.0"),
    # exit 2, but as "math domain error"
    (["--gain", "static", "--rho", "inf"],
     "error: rho must be finite, got inf"),
    # exit 2, but with a Wm1 domain message
    (["--gain", "proportional", "--rho", "2", "--ell", "inf"],
     "error: ell must be finite, got inf"),
], ids=["inverse-rho-inf", "inverse-ratio-underflow", "static-rho-inf",
        "proportional-ell-inf"])
def test_analyze_names_an_out_of_range_parameter(tmp_path, capsys, flags,
                                                 text):
    out = tmp_path / "reports"
    assert main(["analyze", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(text)
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("rho", ["1e-5", "1e-200"])
def test_analyze_static_below_unit_scale(tmp_path, rho):
    # a ZeroDivisionError (exit 1) at 1e-5 and eigenvalues of 0 at 1e-200
    # while the differenced Jacobian gave them
    assert main(["analyze", "--gain", "static", "--rho", rho,
                 "--grid=-1,1,-1,1,3,3", "--out", str(tmp_path)]) == 0
    report = _strict_json(tmp_path / "portrait_report.json")
    s = 1.0 / float(rho)
    assert [fp["eigenvalues"] for fp in report["fixed_points"]] == (
        [[[0.0, -s], [0.0, s]]] * 2)


def test_analyze_proportional_below_unit_scale_is_divergent(tmp_path):
    # ell = 1e-10 lies below rho e = 2.7e-10, outside the band around it,
    # which is relative there (an OverflowError, exit 1, before)
    assert main(["analyze", "--gain", "proportional", "--rho", "1e-10",
                 "--ell", "1e-10", "--grid=-1,1,-1,1,3,3",
                 "--out", str(tmp_path)]) == 0
    report = _strict_json(tmp_path / "portrait_report.json")
    assert report["classification"] == "divergent"
    assert report["fixed_points"] == []


@pytest.mark.parametrize("slot, grid", [
    ("--grid nu", "--grid=-12,12,-12,12,10.7,5"),
    ("--grid nu", "--grid=-12,12,-12,12,inf,5"),
    ("--grid nw", "--grid=-12,12,-12,12,10,5.5"),
])
def test_analyze_grid_counts_are_whole_numbers(tmp_path, capsys, slot, grid):
    out = tmp_path / "reports"
    assert main(["analyze", "--gain", "static", "--rho", "2", grid,
                 "--out", str(out)]) == 2
    assert f"{slot} must be a whole number" in capsys.readouterr().err
    assert not out.exists()


def test_scan_finds_threshold(tmp_path):
    code = main(["scan", "--rho", "2.0", "--ell-min", "4.0",
                 "--ell-max", "7.0", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "bifurcation_scan.json").read_text())
    assert payload == {"rho": 2.0, "ell_min": 4.0, "ell_max": 7.0,
                       "ell_critical": 2.0 * math.e}


@pytest.mark.parametrize("flag", ["--step", "--refine-tol"])
def test_scan_has_no_search_flags(tmp_path, flag):
    # the threshold is read from the convergence ladder, not searched for
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--rho", "2.0", "--ell-min", "4.0", "--ell-max",
              "7.0", flag, "0.1", "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag, name", [("--rho", "rho"),
                                        ("--ell-max", "ell_max")])
def test_scan_rejects_an_infinite_bound(tmp_path, capsys, flag, name):
    # an infinite bound has no strict-JSON form and no transition to find
    args = {"--rho": "2.0", "--ell-min": "4.0", "--ell-max": "7.0",
            flag: "inf"}
    assert main(["scan", *(f"{k}={v}" for k, v in args.items()),
                 "--out", str(tmp_path)]) == 2
    assert f"{name} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "bifurcation_scan.json").exists()


def test_scan_without_transition_fails(tmp_path):
    assert main(["scan", "--rho", "2.0", "--ell-min", "6.0",
                 "--ell-max", "7.0", "--out", str(tmp_path)]) == 4


def test_fields_radial(tmp_path):
    out = tmp_path / "maps.csv"
    code = main(["fields", "--field", "radial", "--ell", "6.5",
                 "--x-range=-3,3", "--y-range=-3,3",
                 "--nx", "7", "--ny", "7", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,m,phi,gx,gy,delta"
    assert len(lines) == 1 + 49
    rows = {}
    for ln in lines[1:]:
        cells = ln.split(",")
        rows[(float(cells[0]), float(cells[1]))] = cells[2:]
    m, phi, gx, gy, delta = (float(v) for v in rows[(3.0, 0.0)])
    assert m == pytest.approx(math.exp(-3.0 / 6.5), abs=1e-12)
    assert phi == pytest.approx(2.0 * math.pi - 3.0, abs=1e-12)
    assert gx == pytest.approx(-1.0) and gy == pytest.approx(0.0)
    assert delta == 0.0
    # the origin row is flagged, not faked
    assert rows[(0.0, 0.0)][2] == "nan"
    assert main(["fields", "--field", "radial", "--out",
                 str(tmp_path / "x.csv")]) == 2  # ell missing


@pytest.mark.parametrize("flags, named", [
    (["--x-range=nan,3"], "--x-range"),
    (["--y-range=-3,inf"], "--y-range"),
    (["--nx", "0"], "--nx"),
    (["--ny=-2"], "--ny"),
])
def test_fields_radial_rejects_a_bad_grid(tmp_path, capsys, flags, named):
    # a NaN end gives NaN nodes, and a zero count an empty map
    out = tmp_path / "maps.csv"
    assert main(["fields", "--field", "radial", "--ell", "6.5", "--nx", "3",
                 "--ny", "3", *flags, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_fields_radial_map_is_the_fields_own_spectra(tmp_path):
    # the README map: every node is RadialField.analytic_spectra, bit for
    # bit, with delta 0; the source node has m = 1, phi = 0 and no gradient
    out = tmp_path / "maps.csv"
    assert main(["fields", "--field", "radial", "--ell", "6.5",
                 "--out", str(out)]) == 0
    field = RadialField(6.5)
    rows = [[float(c) for c in line.split(",")]
            for line in out.read_text().splitlines()[1:]]
    nodes = np.linspace(-15.0, 15.0, 101).tolist()
    assert [row[:2] for row in rows] == [[x, y] for y in nodes for x in nodes]
    for x, y, m, phi, gx, gy, delta in rows:
        if x == 0.0 and y == 0.0:
            assert (m, phi) == (1.0, 0.0)
            assert math.isnan(gx) and math.isnan(gy) and math.isnan(delta)
            continue
        truth = field.analytic_spectra((x, y))
        assert (m, phi, gx, gy, delta) == (truth.m, truth.phi,
                                           *truth.grad_phi, 0.0)


def test_fields_radial_rejects_a_source(tmp_path, capsys):
    # the radial map's delta is measured against the origin; a --source
    # elsewhere would be ignored and the map quietly wrong
    out = tmp_path / "maps.csv"
    for source in ("3,0", "0,0"):
        assert main(["fields", "--field", "radial", "--ell", "6.5",
                     "--source", source, "--out", str(out)]) == 2
    assert "--source" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("m_floor", ["5", "1e-9"])
def test_fields_radial_rejects_an_m_floor(tmp_path, capsys, m_floor):
    # the radial map is exact and masks no node; --m-floor 5 once wrote a
    # gradient at every node although every m is below 5
    out = tmp_path / "maps.csv"
    assert main(["fields", "--field", "radial", "--ell", "6.5", "--nx", "3",
                 "--ny", "3", "--m-floor", m_floor, "--out", str(out)]) == 2
    assert "--m-floor" in capsys.readouterr().err
    assert not out.exists()


def test_fields_radial_rejects_a_nonpositive_ell(tmp_path, capsys):
    # the map's ell goes through the RadialField that simulate runs on
    out = tmp_path / "maps.csv"
    assert main(["fields", "--field", "radial", "--ell=-1",
                 "--out", str(out)]) == 2
    assert "ell must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_fields_from_bundle(tmp_path):
    bundle_path = tmp_path / "wake.wavf"
    assert main(["synth-wake", "--nx", "16", "--ny", "9", "--nt", "16",
                 "--out", str(bundle_path)]) == 0
    out = tmp_path / "wake_maps.csv"
    code = main(["fields", "--field", "bundle", "--bundle",
                 str(bundle_path), "--source", "0,0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,m,phi,gx,gy,delta"
    assert len(lines) == 1 + 16 * 9


@pytest.mark.parametrize("source", ["nan,0", "inf,0", "0,-inf"])
def test_fields_bundle_rejects_a_non_finite_source(tmp_path, capsys, source):
    # a NaN source once gave a map with every delta NaN, and a source at
    # infinity two finite deltas of 3 pi / 4
    bundle_path = tmp_path / "w.wavf"
    assert main(["synth-wake", "--nx", "16", "--ny", "9", "--nt", "16",
                 "--out", str(bundle_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "maps.csv"
    assert main(["fields", "--field", "bundle", "--bundle", str(bundle_path),
                 f"--source={source}", "--out", str(out)]) == 2
    assert "--source needs finite numbers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("m_floor", ["nan", "inf", "-1", "0"])
def test_fields_bundle_rejects_a_bad_m_floor(tmp_path, capsys, m_floor):
    # nan and inf once gave a map with every gx NaN, and -1 and 0 masked no
    # node, so zero-magnitude upstream nodes got gradients
    bundle_path = tmp_path / "w.wavf"
    assert main(["synth-wake", "--nx", "16", "--ny", "9", "--nt", "16",
                 "--out", str(bundle_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "maps.csv"
    assert main(["fields", "--field", "bundle", "--bundle", str(bundle_path),
                 f"--m-floor={m_floor}", "--out", str(out)]) == 2
    assert "m_floor must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--x-range=0,1", "--y-range=-1,1",
                                  "--nx=3", "--ny=3"])
def test_fields_bundle_rejects_radial_grid_flags(tmp_path, capsys, flag):
    # a bundle map covers the bundle's own grid; these flags once left it
    # unchanged without a word
    bundle_path = tmp_path / "w.wavf"
    assert main(["synth-wake", "--nx", "9", "--ny", "7", "--nt", "16",
                 "--out", str(bundle_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "maps.csv"
    assert main(["fields", "--field", "bundle", "--bundle", str(bundle_path),
                 flag, "--out", str(out)]) == 2
    assert flag.split("=")[0] in capsys.readouterr().err
    assert not out.exists()


# in README order of topics; each runs in one working directory, so the
# outputs, which record relative paths, compare byte for byte
_ONE_PROCESS = (
    "simulate --field radial --ell 6.5 --gain proportional --g0 0.5 "
    "--init 4,0,1.5707963267948966 --init 3,1,2.0 --t-end 1.0 --out s1",
    "simulate --field radial --ell 6.5 --gain static --g0 0.5 "
    "--t-end 0.5 --out s2",
    "simulate --field radial --ell 6.5 --dt=-1 --out s3",
    "simulate --field sphere --out s4",
    "analyze --gain proportional --rho 2.0 --ell 6.5 "
    "--grid=-3,3,-2,2,11,7 --out a",
    "scan --rho 2.0 --ell-min 4.0 --ell-max 7.0 --out sc",
    "synth-wake --nx 12 --ny 9 --nt 16 --dx 0.5 --dy 0.5 --y0=-2 "
    "--out w.wavf",
    "fields --field radial --ell 6.5 --nx 5 --ny 4 --x-range=-2,2 "
    "--y-range=-1,1 --out f/radial.csv",
    "fields --field bundle --bundle w.wavf --source 0,0 --out f/bundle.csv",
    "simulate --field bundle --bundle w.wavf --gain proportional --g0 0.5 "
    "--init 3,0,3.141592653589793 --dt 1e-2 --t-end 0.5 "
    "--sensing windowed --out s5",
)


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_one_process_writes_what_fresh_processes_write(tmp_path, capsys,
                                                       monkeypatch):
    # main() reuses one argparse tree; no call may see another's flags
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    monkeypatch.chdir(here)
    codes = []
    for command in _ONE_PROCESS:
        argv = command.split()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuasiSteadyWarning)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        out = capsys.readouterr().out
        ran = subprocess.run([sys.executable, "-m", "phaseseek.cli", *argv],
                             cwd=fresh, env=env, capture_output=True,
                             text=True)
        assert (code, out) == (ran.returncode, ran.stdout), command
        assert _tree(here) == _tree(fresh), command
        codes.append(code)
    # a configuration error and a usage error, between runs that succeed
    assert codes == [0, 0, 2, 2, 0, 0, 0, 0, 0, 0]
    # the first simulate's two starts did not carry over to the second
    summary = json.loads((here / "s2" / "run_summary.json").read_text())
    assert [init[0] for init in summary["config"]["agent"]["inits"]] == [
        2.0, 4.0, 6.0, 8.0, 10.0]


@pytest.mark.parametrize("grid", ["-inf,inf,-1,1,3,3", "-1,1,nan,1,3,3"])
def test_analyze_rejects_a_non_finite_grid(tmp_path, capsys, grid):
    # an infinite extent once wrote nan into r_cos_psi and Q
    out = tmp_path / "reports"
    assert main(["analyze", "--gain", "static", "--rho", "2",
                 f"--grid={grid}", "--out", str(out)]) == 2
    assert "--grid needs finite numbers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("init", ["nan,0,0", "4,0,inf"])
def test_simulate_names_a_non_finite_init(tmp_path, capsys, init):
    # rejected where it enters, naming the flag, not as a start pose
    assert main(["simulate", "--field", "radial", "--ell", "6.5",
                 f"--init={init}", "--out", str(tmp_path)]) == 2
    assert "--init needs finite numbers" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags, named", [
    (["--config", "{tmp}/missing.json"], "error: cannot read config "),
    (["--config", "{tmp}/list.json"],
     "error: config file must hold a JSON object\n"),
    (["--field", "radial", "--ell", "6.5", "--init", "4,a,0"],
     "error: bad number in --init: '4,a,0'\n"),
], ids=["unreadable-config", "config-not-an-object", "non-numeric-init"])
def test_simulate_names_an_unusable_input(tmp_path, capsys, flags, named):
    (tmp_path / "list.json").write_text("[1, 2]")
    out = tmp_path / "out"
    flags = [flag.format(tmp=tmp_path) for flag in flags]
    assert main(["simulate", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(named)
    assert not out.exists()


@pytest.mark.parametrize("command", ["fields", "simulate"])
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_an_unreadable_bundle_exits_2_and_writes_nothing(tmp_path, capsys,
                                                         command, target):
    # a missing file or a directory once escaped load_bundle as a
    # traceback and exit 1
    path = tmp_path / ("wake.wavf" if target == "missing" else "wakes")
    if target == "directory":
        path.mkdir()
    out = tmp_path / "out"
    assert main([command, "--field", "bundle", "--bundle", str(path),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot read bundle {path}: ")
    assert not out.exists()


def test_synth_wake_writes_loadable_bundle(tmp_path):
    out = tmp_path / "wake.wavf"
    code = main(["synth-wake", "--nx", "16", "--ny", "9", "--nt", "16",
                 "--meta-re", "150", "--meta-st", "0.2", "--out", str(out)])
    assert code == 0
    bundle = load_bundle(out)
    assert bundle.frames.shape == (16, 9, 16)
    assert bundle.meta_re == 150.0
    assert bundle.meta_st == 0.2
    assert bundle.meta_a is None


@pytest.mark.parametrize("command", ["simulate", "fields"])
def test_a_radial_field_with_an_infinite_ell_writes_nothing(tmp_path, capsys,
                                                          command):
    # both ran to exit 0 on RadialField(inf)
    out = tmp_path / "out"
    assert main([command, "--field", "radial", "--ell", "inf",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: ell must be finite, got inf\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags, text", [
    (["--omega", "inf"], "omega must be finite, got inf"),
    (["--a-w", "inf"], "a_w must be finite, got inf"),
    (["--nt", "0"], "omega = 1.0 and nt = 0 give a frame spacing"),
    (["--x0", "inf"], "x0 must be finite"),
])
def test_synth_wake_names_its_own_flags(tmp_path, capsys, flags, text):
    # --omega inf named dt, which synth-wake does not take, --nt 0
    # ended on a ZeroDivisionError traceback, and --x0 inf first warned
    # "invalid value encountered in cos" from numpy
    assert main(["synth-wake", *flags,
                 "--out", str(tmp_path / "w.wavf")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {text}")
    assert not list(tmp_path.iterdir())


def test_simulate_counts_a_non_finite_state_as_failed(tmp_path, capsys):
    # g0 = 1e308 overflows the heading in the first step; the run ended
    # sensing_failure on "math domain error" and then raised numpy's
    # "invalid value encountered in remainder"
    code = main(["simulate", "--field", "radial", "--ell", "6.5",
                 "--gain", "static", "--g0", "1e308", "--init", "4,0,1.5",
                 "--dt", "1e-2", "--t-end", "0.05", "--out", str(tmp_path)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err == "error: run 000 ended non_finite_state\n"
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    assert summary["runs"][0]["termination"] == "non_finite_state"
    assert summary["runs"][0]["n_samples"] == 2


def test_synth_wake_rejects_bad_grid(tmp_path):
    assert main(["synth-wake", "--nt", "4",
                 "--out", str(tmp_path / "w.wavf")]) == 2
    assert main(["synth-wake", "--k-x", "16.0",
                 "--out", str(tmp_path / "w.wavf")]) == 2


def test_flag_tables_cover_the_parsers():
    parser = build_parser()
    # one tree per process: main() parses with the tree every caller gets
    assert build_parser() is parser
    sim = vars(parser.parse_args(["simulate"]))
    assert set(sim) - {"command", "config", "func"} == set(SIM_FLAGS)
    # an unset flag must read None, which the config overlay skips
    assert all(sim[flag] is None for flag in SIM_FLAGS)
    wake_args = vars(parser.parse_args(["synth-wake", "--out", "w.wavf"]))
    for key, default in WAKE_DEFAULTS.items():
        assert wake_args[key] == default
        assert type(wake_args[key]) is type(default)


def _defaults(fn):
    return {name: p.default
            for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty}


def test_cli_defaults_restate_the_librarys(tmp_path, monkeypatch):
    # the CLI restates these library defaults; each must still match
    sim = _defaults(agent.simulate)
    integration = SIM_DEFAULTS["integration"]
    assert {key: sim[key] for key in integration} == integration
    assert sim["v"] == SIM_DEFAULTS["agent"]["v"]
    sensing = dict(SIM_DEFAULTS["sensing"])
    assert sim["sensing"] == sensing.pop("mode")
    assert sensing == asdict(SensingConfig())
    assert _defaults(analysis.GainLaw)["m_floor"] == \
        SIM_DEFAULTS["law"]["m_floor"]
    wake = _defaults(synth_wake)
    for key, default in WAKE_DEFAULTS.items():
        assert wake[key] == default and type(wake[key]) is type(default)
    parser = build_parser()
    # a bundle map with no --m-floor runs at spectral_grids's own floor
    resolved = []

    def recording_spectral_grids(bundle, **kwargs):
        call = inspect.signature(spectral_grids).bind(bundle, **kwargs)
        call.apply_defaults()
        resolved.append(call.arguments["m_floor"])
        return spectral_grids(bundle, **kwargs)

    monkeypatch.setattr(cli, "spectral_grids", recording_spectral_grids)
    bundle_path = tmp_path / "w.wavf"
    assert main(["synth-wake", "--nx", "16", "--ny", "9", "--nt", "16",
                 "--out", str(bundle_path)]) == 0
    assert main(["fields", "--field", "bundle", "--bundle", str(bundle_path),
                 "--out", str(tmp_path / "m.csv")]) == 0
    assert resolved == [_defaults(spectral_grids)["m_floor"]]
    analyze_args = parser.parse_args(["analyze", "--gain", "static",
                                      "--rho", "2"])
    assert analyze_args.v == _defaults(analysis.portrait)["v"]


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_readme_outputs_runs_every_readme_command():
    tool = _load_tool("readme_outputs")
    readme = (ROOT / "README.md").read_text()
    commands = tool.readme_commands(readme)
    # each README line that starts a command is run, in README order, and
    # the CLI parses every one of them
    starts = [line.split()[:2] for line in readme.splitlines()
              if line.startswith("phaseseek ")]
    assert starts and [c.split()[:2] for c in commands] == starts
    for command in commands:
        build_parser().parse_args(shlex.split(command)[1:])


def test_readme_outputs_reads_only_the_commands_of_sh_blocks():
    tool = _load_tool("readme_outputs")
    readme = """Run phaseseek like this:

```sh
phaseseek simulate --field radial \\
    --ell 6.5   --out runs/
pytest
  phaseseek indented --no
```

phaseseek in prose is not a command, nor is `phaseseek fields`.

```python
phaseseek fields --out python.csv
```

```text
phaseseek fields --out text.csv
```

```
phaseseek fields --out bare.csv
```

```sh
phaseseek synth-wake --out wake.wavf
```
"""
    assert tool.readme_commands(readme) == [
        "phaseseek simulate --field radial --ell 6.5 --out runs/",
        "phaseseek synth-wake --out wake.wavf"]
    assert tool.readme_commands("phaseseek fields --out maps.csv\n") == []


def test_csv_moves_counts_each_columns_moved_values(tmp_path):
    tool = _load_tool("parent_moves")
    old, new = tmp_path / "old", tmp_path / "new"
    for root in (old, new):
        (root / "sub").mkdir(parents=True)
    (old / "sub" / "a.csv").write_text(
        "x,m,phi\n1.0,0.5,-0.0\n2.0,0.25,3.0\n3.0,nan,1.0\n")
    (new / "sub" / "a.csv").write_text(
        "x,m,phi\n1.0,0.5,0.0\n2.0,0.26,3.0\n3.0,0.5,1.5\n")
    for root in (old, new):
        (root / "same.csv").write_text("x\n1.0\n")
    (old / "report.json").write_text("{}\n")
    (new / "report.json").write_text("{ }\n")
    (old / "scan.json").write_text(json.dumps(
        {"rho": 2.0, "step": 0.1, "ell_critical": 5.436563656106587,
         "runs": [{"t": 1, "r": [1.0, 2.0]}], "nan": math.nan}))
    (new / "scan.json").write_text(json.dumps(
        {"rho": 2.0, "ell_critical": 5.43656365691809,
         "runs": [{"t": 1.0, "r": [1.0]}, {}], "nan": math.nan,
         "extra": None}))
    (old / "gone.csv").write_text("x\n1.0\n")
    (new / "rows.csv").write_text("x\n1.0\n")
    (old / "rows.csv").write_text("x\n1.0\n2.0\n")

    lines = tool.compare(old, new)
    assert lines == [
        f"only in {old}: gone.csv",
        "differs: report.json",
        "differs: rows.csv",
        "scan.json: moved keys",
        "  step: only in old, 0.1",
        "  ell_critical: 5.436563656106587 -> 5.43656365691809",
        "  runs[0].t: 1 -> 1.0",
        "  runs[0].r[1]: only in old, 2.0",
        "  runs[1]: only in new, {}",
        "  extra: only in new, null",
        "sub/a.csv: column moved max_abs max_rel",
        "  m 2 inf inf",
        "  phi 2 0.5 0.5",
    ]
    moves = tool.column_moves(old / "sub" / "a.csv", new / "sub" / "a.csv")
    # a NaN on one side differs by inf, more than 0.25 -> 0.26
    assert moves == {"m": (2, math.inf, math.inf), "phi": (2, 0.5, 0.5)}
    assert tool.compare(old / "sub", old / "sub") == []
    # a rerun that differs fails the gate with the same lines, marked
    assert tool.rerun_report(old, new, {}, {}) == [
        f"rerun {line}" for line in lines]
    assert tool.rerun_report(old / "sub", old / "sub", {}, {}) == []


def test_parent_moves_gates_each_move_on_the_declared_list(tmp_path):
    tool = _load_tool("parent_moves")
    old, new = tmp_path / "old", tmp_path / "new"
    for root in (old, new):
        root.mkdir()
        (root / "same.csv").write_text("x\n1.0\n")
    (old / "maps.csv").write_text("x,m\n1.0,0.5\n2.0,0.25\n")
    # m moves by one ulp in one row
    (new / "maps.csv").write_text(
        f"x,m\n1.0,{math.nextafter(0.5, 1.0)!r}\n2.0,0.25\n")
    (old / "scan.json").write_text('{"ell_critical": 5.5, "step": 0.1}')
    (new / "scan.json").write_text('{"ell_critical": 5.25}')
    (old / "rows.csv").write_text("x\n1.0\n2.0\n")
    (new / "rows.csv").write_text("x\n1.0\n")
    (new / "extra.csv").write_text("x\n1.0\n")
    ulp = math.ulp(0.5)
    found = tool.moves(old, new)
    assert sorted(found) == [
        ("extra.csv", "*", math.inf), ("maps.csv", "m", ulp),
        ("rows.csv", "*", math.inf), ("scan.json", "ell_critical", 0.25),
        ("scan.json", "step", math.inf)]

    declared_path = tmp_path / "declared.txt"
    declared_path.write_text(
        "# moves\nmaps.csv m 1e-15\nscan.json ell_critical 0.1  # too small\n"
        "extra.csv * inf\n")
    declared = tool.read_declared(declared_path)
    assert declared == {("maps.csv", "m"): 1e-15,
                        ("scan.json", "ell_critical"): 0.1,
                        ("extra.csv", "*"): math.inf}
    assert sorted(tool.undeclared(found, declared)) == [
        ("rows.csv", "*", math.inf), ("scan.json", "ell_critical", 0.25),
        ("scan.json", "step", math.inf)]
    assert tool.undeclared(tool.moves(old, old), {}) == []
    declared_path.write_text("maps.csv m\n")
    with pytest.raises(ValueError, match="FILE ITEM MAX_ABS"):
        tool.read_declared(declared_path)


def test_parent_moves_gates_printed_text_on_the_declared_list():
    tool = _load_tool("parent_moves")
    # the --help texts compared cover the top level and every subcommand,
    # read from the usage line of phaseseek --help
    commands, = (action.choices for action in build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    assert tool.subcommands(build_parser().format_help()) == tuple(commands)
    assert tool.subcommands("usage: phaseseek [-h]\n") == ()
    old = {("stdout", "*"): "runs/a.json\nruns/b.json\n",
           ("help", "scan"): "usage: scan\n", ("help", "fields"): "f\n"}
    new = {("stdout", "*"): "runs/a.json\nruns/c.json\n",
           ("help", "scan"): "usage: scan\n", ("help", "analyze"): "a\n"}
    found = tool.text_moves(old, new)
    assert found == [("help", "analyze", math.inf),
                     ("help", "fields", math.inf),
                     ("stdout", "*", math.inf)]
    assert tool.text_moves(old, old) == []
    assert tool.undeclared(found, {("stdout", "*"): math.inf,
                                   ("help", "fields"): math.inf}) == [
        ("help", "analyze", math.inf)]
    report = tool.text_report(old, new)
    assert report[:3] == ["differs: help analyze", "  --- old", "  +++ new"]
    stdout = report[report.index("differs: stdout *"):]
    assert "  -runs/b.json" in stdout and "  +runs/c.json" in stdout


def _gate(tool, monkeypatch, tmp_path, runs):
    """tool.main's exit code with REF's README run and this tree's two
    written as the trees runs[0], runs[1] and runs[2], {name: text}
    each, and no move declared."""
    runs = iter(runs)

    def printed(tree, out_dir):
        out_dir.mkdir(parents=True)
        for name, text in next(runs).items():
            (out_dir / name).write_text(text)
        return {("stdout", "*"): ""}
    monkeypatch.setattr(tool, "_extract", lambda ref, dest: None)
    monkeypatch.setattr(tool, "_printed", printed)
    declared = tmp_path / "declared.txt"
    declared.write_text("")
    return tool.main(["REF", str(declared)])


def test_parent_moves_names_a_rerun_difference(tmp_path, monkeypatch,
                                               capsys):
    tool = _load_tool("parent_moves")
    a, b = tmp_path / "a", tmp_path / "b"
    for root, value in ((a, "1.0"), (b, "1.5")):
        root.mkdir()
        (root / "run.csv").write_text(f"x\n{value}\n")
    # one byte differs
    assert tool.rerun_report(a, b, {}, {}) == [
        "rerun run.csv: column moved max_abs max_rel", "rerun   x 1 0.5 0.5"]
    assert tool.rerun_report(a, a, {("stdout", "*"): "run.csv\n"},
                             {("stdout", "*"): "run.json\n"})[0] == (
        "rerun differs: stdout *")
    assert tool.rerun_report(a, a, {}, {}) == []

    same = {"run.csv": "x\n1.0\n", "run.json": "{}"}
    assert _gate(tool, monkeypatch, tmp_path, [same, same, same]) == 0
    capsys.readouterr()
    assert _gate(tool, monkeypatch, tmp_path,
                 [same, same, {**same, "run.csv": "x\n1.5\n"}]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "rerun run.csv: column moved max_abs max_rel", "rerun   x 1 0.5 0.5"]


@pytest.mark.parametrize("tree, named", [
    ({"a.json": '{"q": NaN}'}, "not strict JSON: a.json: bare NaN"),
    ({"a.json": '{"q": -Infinity}'},
     "not strict JSON: a.json: bare -Infinity"),
    ({"a.json": '{"q": 1}', "b.json": '{"q":'}, "not strict JSON: b.json: "),
    ({"a.csv": "x\n1.0\n"}, "no JSON file in "),
], ids=["nan", "infinity", "unparsed", "none"])
def test_parent_moves_names_output_that_is_not_strict_json(
        tmp_path, monkeypatch, capsys, tree, named):
    tool = _load_tool("parent_moves")
    out = tmp_path / "out"
    out.mkdir()
    for name, text in tree.items():
        (out / name).write_text(text)
    lines = tool.json_report(out)
    assert len(lines) == 1 and lines[0].startswith(named), lines
    (out / "ok.json").write_text('{"q": "inf"}')
    assert tool.json_report(out) == ([] if "no JSON" in named else lines)

    # the same tree from every run: no move and no rerun difference
    assert _gate(tool, monkeypatch, tmp_path, [tree] * 3) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith(named)


def test_declared_moves_file_parses():
    tool = _load_tool("parent_moves")
    assert isinstance(tool.read_declared(tool.DECLARED), dict)


def test_bench_sensing_step_names_each_figure_that_is_not_positive():
    tool = _load_tool("bench_sensing_step")
    result = {"polar_step_us": {}, "theory_us": {}}
    for name in tool.FIGURES:
        key, _, kind = name.partition(".")
        if kind:
            result[key][kind] = 1.5
        else:
            result[key] = 1.5
    assert len(tool.FIGURES) == 13 and tool.bad_figures(result) == []
    result["map_build_ms"] = None
    result["theory_us"]["inverse"] = 0.0
    result["csv_row_us"] = math.nan
    del result["polar_step_us"]["static"]
    assert tool.bad_figures(result) == [
        "csv_row_us", "map_build_ms", "polar_step_us.static",
        "theory_us.inverse"]
    assert tool.bad_figures({}) == list(tool.FIGURES)


def test_simulate_rejects_a_step_that_stalls_the_clock(tmp_path, capsys):
    # from t_end = 1e16 down, t + 1.0 can round back to t; the start lies
    # past --r-escape, where such a run once ended at once with exit 0
    out = tmp_path / "out"
    assert main(["simulate", "--field", "radial", "--ell", "6.5", "--init",
                 "4,0,1.5", "--r-escape", "1", "--t-end", "1e16", "--dt", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: dt must be at least ulp(max |t|) = 2.0 so that t + dt > t, "
        "got 1.0\n")
    assert not out.exists()


# ----------------------------------------------------------------------
# The entry contract through the command line
# ----------------------------------------------------------------------
# Every numeric flag of each command meets the extremes of the library's
# contract property, one at a time, on a base command that exits 0: each
# call exits 0, 2 or 3 (4 for a scan with no transition) with no
# traceback and no numpy warning, and a NaN always exits 2 and writes
# nothing. The simulate base takes 3 steps of 1e-12 and escapes just past
# its start, so that no flag can stretch it: a huge --t-end meets the
# escape, a huge --r-escape the horizon. analyze runs static gain: the
# proportional and inverse levels overflow at extreme rho / ell (ROADMAP
# item 11), which the library property lists as strict xfails.

_CLI_EXTREMES = ("nan", "inf", "-inf", "0.0", "-0.0", "5e-324", "1e-310",
                 "1e-300", "1e+308", "-1e+308", "1e-12", "1000000000000.0")

_CLI_BASES = {
    "simulate": {"--field": "radial", "--ell": "6.5", "--g0": "0.5",
                 "--gain-m-floor": "1e-06", "--v": "1.0", "--init": "4,0,0",
                 "--dt": "1e-12", "--t-end": "3e-12", "--r-stop": "0.05",
                 "--r-escape": "4.000000000003", "--n-samples": "16",
                 "--stencil-h": "0.01", "--sensing-m-floor": "1e-09"},
    "analyze": {"--gain": "static", "--rho": "2.0", "--ell": "6.5",
                "--v": "1.0", "--grid": "-1,1,-1,1,3,3"},
    "scan": {"--rho": "2.0", "--ell-min": "4.0", "--ell-max": "7.0"},
    "fields-radial": {"--field": "radial", "--ell": "6.5",
                      "--x-range": "-1,1", "--y-range": "-1,1", "--nx": "3",
                      "--ny": "3"},
    "fields-bundle": {"--field": "bundle", "--bundle": "{bundle}",
                      "--source": "0,0", "--m-floor": "1e-09"},
    "synth-wake": {**{f"--{key.replace('_', '-')}": str(value)
                      for key, value in WAKE_DEFAULTS.items()},
                   "--nx": "9", "--ny": "7", "--nt": "8", "--meta-re": "1.0"},
}


# the whole-number slots: each also meets a count spelled in digits,
# which argparse's int type takes, where it refuses 1e12. It passes every
# rule, and the first array of that many values (7.28 TiB) cannot be
# allocated; the analytic simulate base reads no --n-samples
_CLI_COUNTS = {("simulate", "--n-samples", None), ("analyze", "--grid", 4),
               ("analyze", "--grid", 5), ("fields-radial", "--nx", None),
               ("fields-radial", "--ny", None), ("synth-wake", "--nx", None),
               ("synth-wake", "--ny", None), ("synth-wake", "--nt", None)}
_CLI_HUGE_COUNT = "1000000000000"


def _cli_slots(command):
    """(flag, index) of each number a command's base takes: index is the
    position in a comma list, None for a plain number."""
    for flag, text in _CLI_BASES[command].items():
        parts = text.split(",")
        if flag in ("--field", "--gain", "--bundle"):
            continue
        for index in (range(len(parts)) if len(parts) > 1 else [None]):
            yield flag, index


def _cli_values(base, count):
    """The extremes as command-line text, with the base as a float32 and
    as a numpy int64, and the huge count if the slot is a count."""
    return (*_CLI_EXTREMES, str(np.float32(base)),
            str(np.int64(round(float(base)))),
            *((_CLI_HUGE_COUNT,) if count else ()))


@pytest.fixture(scope="module")
def contract_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract") / "w.wavf"
    assert main(["synth-wake", "--nx", "9", "--ny", "7", "--nt", "8",
                 "--out", str(path)]) == 0
    return path


def _cli_call(base, flag, index, value):
    """base with one number replaced: the flag's, or its index-th entry."""
    if index is not None:
        value = ",".join(value if i == index else part
                         for i, part in enumerate(base[flag].split(",")))
    return {**base, flag: value}


def _keeps_the_cli_contract(tmp_path, capsys, command, calls):
    """Run command with each call's flags, checking the contract; returns
    the exit codes."""
    name = command.split("-")[0] if command.startswith("fields") else command
    codes = []
    for number, flags in enumerate(calls):
        out = tmp_path / str(number)
        argv = [name, *(f"{flag}={text}" for flag, text in flags.items()),
                "--out", str(out / "o.csv" if name in ("fields", "synth-wake")
                             else out)]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a malformed number
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4 if name == "scan" else 0), argv
        assert "Traceback" not in err, argv
        if "nan" in ",".join(flags.values()):
            assert code == 2 and not out.exists(), argv
        codes.append(code)
    return codes


@pytest.mark.parametrize("command", list(_CLI_BASES))
def test_every_numeric_flag_keeps_the_contract(tmp_path, capsys, command,
                                               contract_bundle):
    base = {flag: text.format(bundle=contract_bundle)
            for flag, text in _CLI_BASES[command].items()}
    calls = [_cli_call(base, flag, index, value)
             for flag, index in _cli_slots(command)
             for value in _cli_values(base[flag].split(",")[index or 0],
                                      (command, flag, index) in _CLI_COUNTS)]
    # the base itself exits 0
    assert _keeps_the_cli_contract(tmp_path, capsys, command,
                                   [base, *calls])[0] == 0


@pytest.mark.parametrize("argv", [
    ["analyze", "--gain", "static", "--rho", "2",
     f"--grid=-1,1,-1,1,{_CLI_HUGE_COUNT},3"],
    ["fields", "--field", "radial", "--ell", "6.5", "--nx", _CLI_HUGE_COUNT,
     "--out", "maps.csv"],
    ["synth-wake", "--nx", _CLI_HUGE_COUNT, "--dx", "1e-12", "--out",
     "w.wavf"],
    ["simulate", "--field", "radial", "--ell", "6.5", "--sensing", "windowed",
     "--n-samples", _CLI_HUGE_COUNT, "--out", "runs"],
], ids=["analyze", "fields", "synth-wake", "simulate"])
def test_a_count_too_large_to_allocate_exits_2(tmp_path, capsys,
                                               monkeypatch, argv):
    # each passes every rule; its first array of 1e12 values cannot be
    # allocated, which once ended in a traceback and exit 1
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate 7.28 TiB")
    assert err.count("\n") == 1
    # nothing is written, not even an empty output directory
    assert list(tmp_path.iterdir()) == []
