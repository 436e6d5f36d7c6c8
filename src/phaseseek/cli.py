"""Command-line front end.

Subcommands: simulate (closed-loop runs), analyze (fixed points and Q
portrait), scan (saddle-node location), fields (spectral maps to CSV),
synth-wake (generate a sampled wake bundle). simulate and fields take a
radial (--ell) or bundle (--bundle) field, built by _build_field alone.

simulate's configuration comes from an optional JSON file (--config)
overlaid with command-line flags; the resolved configuration is embedded
in the summary output so any run can be reproduced from its own records.

Exit codes: 0 success, 2 configuration or validation error, 3 sensing
failure (one stderr line per failed run), 4 scan found no transition.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import agent, analysis
from .fields import RadialField, wrap_phase, write_json
from .sensing import DegenerateMagnitudeError, SensingConfig
from .wake import (
    SpectralGrids,
    field_from_bundle,
    load_bundle,
    save_bundle,
    spectral_grids,
    synth_wake,
)


class ConfigError(ValueError):
    """The resolved configuration cannot be run."""


SIM_DEFAULTS = {
    "field": {},
    "law": {"kind": "static", "g0": 0.5, "m_floor": 1e-6},
    "agent": {"v": 1.0, "inits": None},
    "integration": {"dt": 1e-3, "t_end": 100.0, "r_stop": 0.05,
                    "r_escape": None},
    "sensing": {"mode": "auto", "n_samples": 64, "stencil_h": 0.01,
                "m_floor": 1e-9},
    "output": {"dir": ".", "prefix": "run"},
}

# simulate flag (argparse dest) -> the config slot it overlays
SIM_FLAGS = {
    "field": ("field", "kind"), "ell": ("field", "ell"),
    "bundle": ("field", "path"),
    "gain": ("law", "kind"), "g0": ("law", "g0"),
    "gain_m_floor": ("law", "m_floor"),
    "v": ("agent", "v"), "init": ("agent", "inits"),
    "dt": ("integration", "dt"), "t_end": ("integration", "t_end"),
    "r_stop": ("integration", "r_stop"),
    "r_escape": ("integration", "r_escape"),
    "sensing": ("sensing", "mode"), "n_samples": ("sensing", "n_samples"),
    "stencil_h": ("sensing", "stencil_h"),
    "sensing_m_floor": ("sensing", "m_floor"),
    "out": ("output", "dir"), "prefix": ("output", "prefix"),
}

WAKE_DEFAULTS = {
    "a_w": 2.0, "k_x": 1.0, "omega": 1.0, "sigma": 2.0, "decay_l": 10.0,
    "x0": -2.0, "y0": -6.0, "dx": 0.2, "dy": 0.2, "nx": 81, "ny": 61,
    "nt": 64,
}


def _deep_merge(base, overlay):
    out = dict(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        elif value is not None:
            out[key] = value
    return out


def _load_config_file(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object")
    # allow pointing --config at a previous run's summary
    if "config" in config and isinstance(config["config"], dict):
        config = config["config"]
    return config


def _parse_floats(text, n, what):
    parts = text.split(",")
    if len(parts) != n:
        raise ConfigError(f"{what} needs {n} comma-separated numbers: {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"bad number in {what}: {text!r}") from exc


def _number(value, slot, whole=False):
    """A config value as a float, or as an int if whole. Anything else
    raises ConfigError naming its slot, such as integration.dt."""
    try:
        number = float(value)
        if whole and not number.is_integer():
            raise ValueError
    except (TypeError, ValueError):
        kind = "a whole number" if whole else "a number"
        raise ConfigError(f"{slot} must be {kind}, got {value!r}") from None
    return int(number) if whole else number


def _build_field(field_cfg):
    """The Field of a field config (kind, ell, path): the one place the
    CLI turns a field kind into a field."""
    kind = field_cfg.get("kind")
    if kind == "radial":
        ell = field_cfg.get("ell")
        if ell is None:
            raise ConfigError("radial field needs --ell")
        return RadialField(_number(ell, "field.ell"))
    if kind == "bundle":
        path = field_cfg.get("path")
        if path is None:
            raise ConfigError("bundle field needs --bundle")
        return field_from_bundle(load_bundle(path))
    if kind is None:
        raise ConfigError("no field specified (use --field or a config file)")
    raise ConfigError(f"unknown field kind {kind!r}")


def _resolve_sim_config(args):
    file_cfg = _load_config_file(args.config)
    # an unset flag stays None, which _deep_merge skips
    flag_cfg = {section: {} for section in SIM_DEFAULTS}
    for flag, (section, key) in SIM_FLAGS.items():
        flag_cfg[section][key] = getattr(args, flag)
    if args.init is not None:
        flag_cfg["agent"]["inits"] = [
            _parse_floats(text, 3, "--init") for text in args.init
        ]

    return _deep_merge(_deep_merge(SIM_DEFAULTS, file_cfg), flag_cfg)


def cmd_simulate(args):
    config = _resolve_sim_config(args)
    field = _build_field(config["field"])
    law_cfg, sens = config["law"], config["sensing"]
    integ = config["integration"]
    law = agent.GainLaw(
        kind=law_cfg["kind"],
        g0=_number(law_cfg["g0"], "law.g0"),
        m_floor=_number(law_cfg["m_floor"], "law.m_floor"),
    )
    sensing_cfg = SensingConfig(
        n_samples=_number(sens["n_samples"], "sensing.n_samples", whole=True),
        stencil_h=_number(sens["stencil_h"], "sensing.stencil_h"),
        m_floor=_number(sens["m_floor"], "sensing.m_floor"),
    )
    settings = {
        "dt": _number(integ["dt"], "integration.dt"),
        "t_end": _number(integ["t_end"], "integration.t_end"),
        "r_stop": _number(integ["r_stop"], "integration.r_stop"),
        "r_escape": (None if integ["r_escape"] is None
                     else _number(integ["r_escape"], "integration.r_escape")),
        "v": _number(config["agent"]["v"], "agent.v"),
    }
    inits = config["agent"]["inits"]
    if inits is None:
        if not isinstance(field, RadialField):
            raise ConfigError("initial poses are required for gridded fields")
        # successively more distant starts on the +x axis, heading tangentially
        inits = config["agent"]["inits"] = [
            [r, 0.0, math.pi / 2] for r in (2.0, 4.0, 6.0, 8.0, 10.0)]
    if not (isinstance(inits, list)
            and all(isinstance(i, list) and len(i) == 3 for i in inits)):
        raise ConfigError(
            f"agent.inits must be a list of x,y,theta triples, got {inits!r}")
    starts = [agent.AgentState(*(_number(v, "agent.inits") for v in init))
              for init in inits]
    # every start is checked before the first file is written
    for state in starts:
        agent._check_run(state, **settings)

    out_dir = Path(config["output"]["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = config["output"]["prefix"]

    runs = []
    failed = []
    for index, state in enumerate(starts):
        traj = agent.simulate(state, field, law, sensing_cfg,
                              sensing=config["sensing"]["mode"], **settings)
        csv_name = f"{prefix}_run{index:03d}.csv"
        sidecar_name = f"{prefix}_run{index:03d}.json"
        traj.write_csv(out_dir / csv_name)
        traj.write_sidecar(out_dir / sidecar_name)
        if traj.termination == agent.TERM_SENSING:
            failed.append(index)
            print(f"error: run {index:03d} ended {agent.TERM_SENSING}",
                  file=sys.stderr)
        drift = traj.q_drift()
        runs.append({
            "index": index,
            "init": [state.x, state.y, state.theta],
            "csv": csv_name,
            "sidecar": sidecar_name,
            "termination": traj.termination,
            "n_samples": len(traj),
            "t_final": float(traj.t[-1]),
            "r_min": float(np.min(traj.r)),
            "r_max": float(np.max(traj.r)),
            "q_drift": None if math.isnan(drift) else drift,
        })

    summary_path = out_dir / f"{prefix}_summary.json"
    write_json(summary_path, {"config": config, "runs": runs})
    print(summary_path)
    return 3 if failed else 0


def cmd_analyze(args):
    grid = analysis.PortraitGrid()
    if args.grid is not None:
        values = _parse_floats(args.grid, 6, "--grid")
        grid = analysis.PortraitGrid(
            u_min=values[0], u_max=values[1], w_min=values[2],
            w_max=values[3], nu=int(values[4]), nw=int(values[5]),
        )
    report = analysis.portrait(args.gain, args.rho, args.ell, v=args.v,
                               grid=grid)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / f"{args.prefix}_report.json"
    grid_path = out_dir / f"{args.prefix}_q_grid.csv"
    report.write_json(report_path)
    report.write_grid_csv(grid_path)
    print(report_path)
    print(grid_path)
    return 0


def cmd_scan(args):
    ell_critical = analysis.bifurcation_scan(
        args.rho, args.ell_min, args.ell_max, step=args.step,
        refine_tol=args.refine_tol,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.prefix}_scan.json"
    write_json(path, {
        "rho": args.rho,
        "ell_min": args.ell_min,
        "ell_max": args.ell_max,
        "step": args.step,
        "ell_critical": ell_critical,
    })
    print(path)
    return 0


def _radial_spectral_grids(ell, x_range, y_range, nx, ny):
    xs = np.linspace(x_range[0], x_range[1], nx)
    ys = np.linspace(y_range[0], y_range[1], ny)
    xx, yy = np.meshgrid(xs, ys)
    rr = np.hypot(xx, yy)
    m = np.exp(-rr / ell)
    phi = wrap_phase(-rr)
    with np.errstate(invalid="ignore", divide="ignore"):
        gx = np.where(rr > 0, -xx / rr, np.nan)
        gy = np.where(rr > 0, -yy / rr, np.nan)
    grad = np.stack([gx, gy], axis=-1)
    # the gradient points at the source by construction
    delta = np.where(rr > 0, 0.0, np.nan)
    return SpectralGrids(x=xs, y=ys, m_grid=m, phi_grid=phi,
                         grad_phi_grid=grad, delta_grid=delta)


def cmd_fields(args):
    field = _build_field({"kind": args.field, "ell": args.ell,
                          "path": args.bundle})
    if args.field == "radial":
        if args.source is not None:
            raise ConfigError("the radial field's source is the origin; "
                              "--source applies to bundle maps only")
        x_range = _parse_floats(args.x_range, 2, "--x-range")
        y_range = _parse_floats(args.y_range, 2, "--y-range")
        grids = _radial_spectral_grids(field.ell, x_range, y_range,
                                       args.nx, args.ny)
    else:
        source = None
        if args.source is not None:
            source = _parse_floats(args.source, 2, "--source")
        grids = spectral_grids(field.bundle, source=source,
                               m_floor=args.m_floor)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    grids.write_csv(out)
    print(out)
    return 0


def cmd_synth_wake(args):
    params = {key: getattr(args, key) for key in WAKE_DEFAULTS}
    bundle = synth_wake(**params, meta_re=args.meta_re,
                        meta_st=args.meta_st, meta_a=args.meta_a)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_bundle(bundle, out)
    print(out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="phaseseek",
        description="Source seeking from time-periodic signal fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the closed loop")
    p_sim.add_argument("--config", help="JSON config file")
    p_sim.add_argument("--field", choices=["radial", "bundle"])
    p_sim.add_argument("--ell", type=float)
    p_sim.add_argument("--bundle", help="WAVF1 bundle path")
    p_sim.add_argument("--gain",
                       choices=["static", "proportional", "inverse"])
    p_sim.add_argument("--g0", type=float)
    p_sim.add_argument("--gain-m-floor", type=float)
    p_sim.add_argument("--v", type=float)
    p_sim.add_argument("--init", action="append",
                       help="x,y,theta (repeatable)")
    p_sim.add_argument("--dt", type=float)
    p_sim.add_argument("--t-end", type=float)
    p_sim.add_argument("--r-stop", type=float)
    p_sim.add_argument("--r-escape", type=float)
    p_sim.add_argument("--sensing",
                       choices=["auto", "analytic", "windowed"])
    p_sim.add_argument("--n-samples", type=int)
    p_sim.add_argument("--stencil-h", type=float)
    p_sim.add_argument("--sensing-m-floor", type=float)
    p_sim.add_argument("--out")
    p_sim.add_argument("--prefix")
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="fixed points and Q portrait")
    p_an.add_argument("--gain", required=True,
                      choices=["static", "proportional", "inverse"])
    p_an.add_argument("--rho", type=float, required=True)
    p_an.add_argument("--ell", type=float)
    p_an.add_argument("--v", type=float, default=1.0)
    p_an.add_argument("--grid", help="u_min,u_max,w_min,w_max,nu,nw")
    p_an.add_argument("--out", default=".")
    p_an.add_argument("--prefix", default="portrait")
    p_an.set_defaults(func=cmd_analyze)

    p_scan = sub.add_parser("scan", help="locate the saddle-node threshold")
    p_scan.add_argument("--rho", type=float, required=True)
    p_scan.add_argument("--ell-min", type=float, required=True)
    p_scan.add_argument("--ell-max", type=float, required=True)
    p_scan.add_argument("--step", type=float, default=0.1)
    p_scan.add_argument("--refine-tol", type=float, default=1e-9)
    p_scan.add_argument("--out", default=".")
    p_scan.add_argument("--prefix", default="bifurcation")
    p_scan.set_defaults(func=cmd_scan)

    p_f = sub.add_parser("fields", help="spectral maps to CSV")
    p_f.add_argument("--field", required=True, choices=["radial", "bundle"])
    p_f.add_argument("--ell", type=float)
    p_f.add_argument("--bundle")
    p_f.add_argument("--x-range", default="-15,15")
    p_f.add_argument("--y-range", default="-15,15")
    p_f.add_argument("--nx", type=int, default=101)
    p_f.add_argument("--ny", type=int, default=101)
    p_f.add_argument("--source", help="x,y of the known source")
    p_f.add_argument("--m-floor", type=float, default=1e-9)
    p_f.add_argument("--out", required=True)
    p_f.set_defaults(func=cmd_fields)

    p_w = sub.add_parser("synth-wake", help="write a synthetic wake bundle")
    for key, default in WAKE_DEFAULTS.items():
        p_w.add_argument("--" + key.replace("_", "-"), type=type(default),
                         default=default)
    p_w.add_argument("--meta-re", type=float)
    p_w.add_argument("--meta-st", type=float)
    p_w.add_argument("--meta-a", type=float)
    p_w.add_argument("--out", required=True)
    p_w.set_defaults(func=cmd_synth_wake)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except analysis.NoTransitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DegenerateMagnitudeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # ConfigError, BundleFormatError, GridPeriodError and every library
        # parameter check are ValueErrors: exit 2 is decided here only
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
