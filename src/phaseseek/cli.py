"""Command-line front end.

Subcommands: simulate (closed-loop runs), analyze (fixed points and Q
portrait), scan (saddle-node location), fields (spectral maps to CSV:
RadialField.spectral_grids, or wake.spectral_grids of a bundle),
synth-wake (generate a sampled wake bundle). simulate and fields take a
radial (--ell) or bundle (--bundle) field, built by _build_field alone.

simulate's configuration comes from an optional JSON file (--config)
overlaid with command-line flags; the resolved configuration is embedded
in the summary output so any run can be reproduced from its own records.
Its defaults are the library's (agent.simulate, SensingConfig, GainLaw)
but for the gain law, the start poses and the output names; SIM_FLAGS
declares each simulate flag once. Every other default that a library
function has, the CLI reads from its signature.

build_parser() builds the argparse tree once per process, at its first
call, and returns that tree to every later caller, main() included, so an
in-process caller such as a test or a benchmark harness pays for it once.
Each file whose path a command prints is written by _emit, which makes
its directory and prints the path; simulate's per-run files, named in its
summary, are written before it.

Exit codes: 0 success, 2 configuration or validation error or a count
too large to allocate, 3 a run ended as a sensing failure (one stderr
line per failed run; its files are written), 4 scan found no transition.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import agent, analysis
from .fields import RadialField, _at_least, _require, write_json
from .sensing import SensingConfig
from .wake import (
    field_from_bundle,
    load_bundle,
    save_bundle,
    spectral_grids,
    synth_wake,
)


class ConfigError(ValueError):
    """The resolved configuration cannot be run."""


# the field kinds _build_field makes, in --field's order
FIELD_KINDS = ("radial", "bundle")
GAIN_KINDS = tuple(kind.value for kind in analysis.GainKind)


def _defaults(fn):
    """{name: default} of fn's parameters that have one, in order."""
    return {name: p.default
            for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty}


_SIMULATE = _defaults(agent.simulate)

SIM_DEFAULTS = {
    "field": {},
    "law": {"kind": "static", "g0": 0.5,
            "m_floor": analysis.GainLaw.m_floor},
    "agent": {"v": _SIMULATE["v"], "inits": None},
    "integration": {key: _SIMULATE[key]
                    for key in ("dt", "t_end", "r_stop", "r_escape")},
    "sensing": {"mode": _SIMULATE["sensing"], **asdict(SensingConfig())},
    "output": {"dir": ".", "prefix": "run"},
}

# every simulate flag (argparse dest) -> the config slot it overlays, its
# argparse type, choices or list (the repeatable --init), and maybe help
SIM_FLAGS = {
    "field": ("field", "kind", FIELD_KINDS), "ell": ("field", "ell", float),
    "bundle": ("field", "path", str, "WAVF1 bundle path"),
    "gain": ("law", "kind", GAIN_KINDS), "g0": ("law", "g0", float),
    "gain_m_floor": ("law", "m_floor", float), "v": ("agent", "v", float),
    "init": ("agent", "inits", list, "x,y,theta (repeatable)"),
    "dt": ("integration", "dt", float),
    "t_end": ("integration", "t_end", float),
    "r_stop": ("integration", "r_stop", float),
    "r_escape": ("integration", "r_escape", float),
    "sensing": ("sensing", "mode", agent.SENSING_MODES),
    "n_samples": ("sensing", "n_samples", int),
    "stencil_h": ("sensing", "stencil_h", float),
    "sensing_m_floor": ("sensing", "m_floor", float),
    "out": ("output", "dir", str), "prefix": ("output", "prefix", str),
}

_STRING = ("a string", lambda value: isinstance(value, str))

# the node grid of a radial map (fields --field radial); a bundle map
# covers the bundle's own grid
_RADIAL_GRID = {"x_range": "-15,15", "y_range": "-15,15",
                "nx": 101, "ny": 101}

# synth_wake's settings; its provenance slots default to None
WAKE_DEFAULTS = {key: default for key, default in _defaults(synth_wake).items()
                 if default is not None}


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


def _parse_floats(text, n, what, counts=None):
    """The n comma-separated finite numbers of a flag such as --init, else
    ConfigError. counts maps the index of a whole-number entry to its
    name: that entry is an int, read by _number as `what name`."""
    parts = text.split(",")
    if len(parts) != n:
        raise ConfigError(f"{what} needs {n} comma-separated numbers: {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"bad number in {what}: {text!r}") from exc
    for index, name in (counts or {}).items():
        values[index] = _number(values[index], f"{what} {name}", whole=True)
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{what} needs finite numbers: {text!r}")
    return values


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


def _numbers(config, section):
    """{key: number} of the slots of a config section that float and int
    simulate flags set, each read by _number as section.key, whole for an
    int flag. Only a slot whose default is None (r_escape) can hold None,
    which stays None."""
    values = config[section]
    return {key: None if values[key] is None
            else _number(values[key], f"{section}.{key}", whole=kind is int)
            for slot, key, kind, *_ in SIM_FLAGS.values()
            if slot == section and kind in (float, int)}


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
        path = _require("field.path", path, _STRING)
        try:
            return field_from_bundle(load_bundle(path))
        except OSError as exc:
            raise ConfigError(f"cannot read bundle {path}: {exc}") from exc
    if kind is None:
        raise ConfigError("no field specified (use --field or a config file)")
    raise ConfigError(f"unknown field kind {kind!r}")


def _resolve_sim_config(args):
    file_cfg = _load_config_file(args.config)
    # an unset flag stays None, which _deep_merge skips
    flag_cfg = {section: {} for section in SIM_DEFAULTS}
    for flag, (section, key, *_) in SIM_FLAGS.items():
        flag_cfg[section][key] = getattr(args, flag)
    if args.init is not None:
        flag_cfg["agent"]["inits"] = [
            _parse_floats(text, 3, "--init") for text in args.init
        ]

    return _deep_merge(_deep_merge(SIM_DEFAULTS, file_cfg), flag_cfg)


def cmd_simulate(args):
    config = _resolve_sim_config(args)
    field = _build_field(config["field"])
    law = agent.GainLaw(kind=config["law"]["kind"],
                        **_numbers(config, "law"))
    sensing_cfg = SensingConfig(**_numbers(config, "sensing"))
    settings = {**_numbers(config, "integration"),
                **_numbers(config, "agent")}
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
    # every start, by simulate's own gate, and the output slots are
    # checked before the first file is written
    mode = config["sensing"]["mode"]
    for state in starts:
        agent._check_simulate(state, field, sensing_cfg, mode, **settings)
    out_dir = Path(_require("output.dir", config["output"]["dir"], _STRING))
    prefix = _require("output.prefix", config["output"]["prefix"], _STRING)
    out_dir.mkdir(parents=True, exist_ok=True)

    runs = []
    failed = []
    for index, state in enumerate(starts):
        traj = agent.simulate(state, field, law, sensing_cfg,
                              sensing=mode, **settings)
        csv_name = f"{prefix}_run{index:03d}.csv"
        sidecar_name = f"{prefix}_run{index:03d}.json"
        traj.write_csv(out_dir / csv_name)
        traj.write_sidecar(out_dir / sidecar_name)
        if traj.termination in (agent.TERM_SENSING, agent.TERM_NON_FINITE):
            failed.append(index)
            print(f"error: run {index:03d} ended {traj.termination}",
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

    _emit(out_dir / f"{prefix}_summary.json",
          lambda path: write_json(path, {"config": config, "runs": runs}))
    return 3 if failed else 0


def cmd_analyze(args):
    grid = analysis.PortraitGrid()
    if args.grid is not None:
        grid = analysis.PortraitGrid(*_parse_floats(
            args.grid, 6, "--grid", counts={4: "nu", 5: "nw"}))
    report = analysis.portrait(args.gain, args.rho, args.ell, v=args.v,
                               grid=grid)
    out_dir = Path(args.out)
    _emit(out_dir / f"{args.prefix}_report.json", report.write_json)
    _emit(out_dir / f"{args.prefix}_q_grid.csv", report.write_grid_csv)
    return 0


def cmd_scan(args):
    ell_critical = analysis.bifurcation_scan(args.rho, args.ell_min,
                                             args.ell_max)
    _emit(Path(args.out) / f"{args.prefix}_scan.json",
          lambda path: write_json(path, {
              "rho": args.rho,
              "ell_min": args.ell_min,
              "ell_max": args.ell_max,
              "ell_critical": ell_critical,
          }))
    return 0


def cmd_fields(args):
    field = _build_field({"kind": args.field, "ell": args.ell,
                          "path": args.bundle})
    grid = {key: getattr(args, key) for key in _RADIAL_GRID}
    if args.field == "radial":
        for flag, value in (("--source", args.source),
                            ("--m-floor", args.m_floor)):
            if value is not None:
                raise ConfigError("the radial map is exact, its source the "
                                  f"origin; {flag} applies to bundle maps "
                                  "only")
        grid = _deep_merge(_RADIAL_GRID, grid)
        x_range = _parse_floats(grid["x_range"], 2, "--x-range")
        y_range = _parse_floats(grid["y_range"], 2, "--y-range")
        for key in ("nx", "ny"):
            _require(f"--{key}", grid[key], _at_least(1))
        grids = field.spectral_grids(np.linspace(*x_range, grid["nx"]),
                                     np.linspace(*y_range, grid["ny"]))
    else:
        for key, value in grid.items():
            if value is not None:
                raise ConfigError(
                    "a bundle map covers the bundle's own grid; "
                    f"--{key.replace('_', '-')} applies to radial maps only")
        source = None
        if args.source is not None:
            source = _parse_floats(args.source, 2, "--source")
        # no --m-floor leaves spectral_grids its own default
        m_floor = {} if args.m_floor is None else {"m_floor": args.m_floor}
        grids = spectral_grids(field.bundle, source=source, **m_floor)
    _emit(Path(args.out), grids.write_csv)
    return 0


def cmd_synth_wake(args):
    params = {key: getattr(args, key) for key in WAKE_DEFAULTS}
    bundle = synth_wake(**params, meta_re=args.meta_re,
                        meta_st=args.meta_st, meta_a=args.meta_a)
    _emit(Path(args.out), lambda path: save_bundle(bundle, path))
    return 0


def _emit(path, write):
    """The one output step of every command: make path's directory, then
    write(path), then print path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    write(path)
    print(path)


@functools.cache
def build_parser():
    """The argparse tree, built at the first call and then shared: parsing
    leaves a parser as it was."""
    parser = argparse.ArgumentParser(
        prog="phaseseek",
        description="Source seeking from time-periodic signal fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the closed loop")
    p_sim.add_argument("--config", help="JSON config file")
    for dest, (_, _, kind, *about) in SIM_FLAGS.items():
        options = {"help": about[0]} if about else {}
        if kind is list:
            options["action"] = "append"
        elif isinstance(kind, tuple):
            options["choices"] = kind
        else:
            options["type"] = kind
        p_sim.add_argument("--" + dest.replace("_", "-"), **options)
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="fixed points and Q portrait")
    p_an.add_argument("--gain", required=True, choices=GAIN_KINDS)
    p_an.add_argument("--rho", type=float, required=True)
    p_an.add_argument("--ell", type=float)
    p_an.add_argument("--v", type=float,
                      default=_defaults(analysis.portrait)["v"])
    p_an.add_argument("--grid", help="u_min,u_max,w_min,w_max,nu,nw")
    p_an.add_argument("--out", default=".")
    p_an.add_argument("--prefix", default="portrait")
    p_an.set_defaults(func=cmd_analyze)

    p_scan = sub.add_parser("scan", help="the saddle-node threshold rho e")
    p_scan.add_argument("--rho", type=float, required=True)
    p_scan.add_argument("--ell-min", type=float, required=True)
    p_scan.add_argument("--ell-max", type=float, required=True)
    p_scan.add_argument("--out", default=".")
    p_scan.add_argument("--prefix", default="bifurcation")
    p_scan.set_defaults(func=cmd_scan)

    p_f = sub.add_parser("fields", help="spectral maps to CSV")
    p_f.add_argument("--field", required=True, choices=FIELD_KINDS)
    p_f.add_argument("--ell", type=float)
    p_f.add_argument("--bundle")
    # radial maps only; cmd_fields fills _RADIAL_GRID's defaults
    for key, default in _RADIAL_GRID.items():
        p_f.add_argument("--" + key.replace("_", "-"), type=type(default))
    # bundle maps only
    p_f.add_argument("--source", help="x,y of the known source")
    p_f.add_argument("--m-floor", type=float)
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except analysis.NoTransitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, MemoryError) as exc:
        # ConfigError, BundleFormatError, every library parameter check
        # and a count too large to allocate: exit 2 is decided here only
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
