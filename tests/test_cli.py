"""End-to-end tests of the command-line interface."""

import filecmp
import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from phaseseek import QuasiSteadyWarning, analysis, load_bundle
from phaseseek.cli import SIM_FLAGS, WAKE_DEFAULTS, build_parser, main

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
    assert captured.err == "error: run 000 ended sensing_failure\n"
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


def test_scan_finds_threshold(tmp_path):
    code = main(["scan", "--rho", "2.0", "--ell-min", "4.0",
                 "--ell-max", "7.0", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "bifurcation_scan.json").read_text())
    assert payload["ell_critical"] == pytest.approx(2.0 * math.e, abs=1e-6)


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


def test_fields_radial_rejects_a_source(tmp_path, capsys):
    # the radial map's delta is measured against the origin; a --source
    # elsewhere would be ignored and the map quietly wrong
    out = tmp_path / "maps.csv"
    for source in ("3,0", "0,0"):
        assert main(["fields", "--field", "radial", "--ell", "6.5",
                     "--source", source, "--out", str(out)]) == 2
    assert "--source" in capsys.readouterr().err
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


def test_synth_wake_rejects_bad_grid(tmp_path):
    assert main(["synth-wake", "--nt", "4",
                 "--out", str(tmp_path / "w.wavf")]) == 2
    assert main(["synth-wake", "--k-x", "16.0",
                 "--out", str(tmp_path / "w.wavf")]) == 2


def test_flag_tables_cover_the_parsers():
    parser = build_parser()
    sim = vars(parser.parse_args(["simulate"]))
    assert set(sim) - {"command", "config", "func"} == set(SIM_FLAGS)
    # an unset flag must read None, which the config overlay skips
    assert all(sim[flag] is None for flag in SIM_FLAGS)
    wake_args = vars(parser.parse_args(["synth-wake", "--out", "w.wavf"]))
    for key, default in WAKE_DEFAULTS.items():
        assert wake_args[key] == default
        assert type(wake_args[key]) is type(default)


def test_readme_outputs_runs_every_readme_command():
    spec = importlib.util.spec_from_file_location(
        "readme_outputs", ROOT / "tools" / "readme_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    readme = (ROOT / "README.md").read_text()
    commands = [
        " ".join(line.split())
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("phaseseek ")
    ]
    # same commands in the same order: the README runs top to bottom
    assert commands == [c for _, c in tool.COMMANDS]
