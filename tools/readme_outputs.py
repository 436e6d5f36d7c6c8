"""Run every README command-line example and keep what it writes.

Usage: python tools/readme_outputs.py OUT_DIR

Each command below is copied verbatim from README.md (continuation lines
joined), in README order, and runs as ``python -m phaseseek.cli`` against
the ``src/`` next to this file, with OUT_DIR/<group> as its working
directory. The README section runs top to bottom in one directory; the
groups only sort the outputs by topic, and each group holds the files its
later commands read (the --config rerun, the bundle map and the wake
seek). The outputs are deterministic: tools/parent_moves.py runs this
tool twice on this tree and once on another commit, and fails when the
two runs differ or when an output moved without being declared.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (group, command) in README order
COMMANDS = (
    ("radial", "phaseseek simulate --field radial --ell 6.5 --gain static "
               "--g0 0.5 --t-end 100 --out runs/"),
    ("radial", "phaseseek simulate --config runs/run_summary.json "
               "--out rerun/"),
    ("analysis", "phaseseek analyze --gain proportional --rho 2.0 --ell 6.5 "
                 "--out reports/"),
    ("analysis", "phaseseek scan --rho 2.0 --ell-min 4.0 --ell-max 7.0 "
                 "--out reports/"),
    ("maps", "phaseseek fields --field radial --ell 6.5 --out maps.csv"),
    ("wake", "phaseseek synth-wake --out wake.wavf"),
    ("wake", "phaseseek fields --field bundle --bundle wake.wavf "
             "--source 0,0 --out wake_maps.csv"),
    ("wake", "phaseseek simulate --field bundle --bundle wake.wavf "
             "--gain proportional --g0 0.5 --init 8,0,3.141592653589793 "
             "--dt 5e-3 --t-end 40 --r-stop 0.5 --sensing windowed "
             "--out wake_runs/"),
)


def main(argv):
    if len(argv) != 1:
        print("usage: python tools/readme_outputs.py OUT_DIR",
              file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for group, command in COMMANDS:
        cwd = out_dir / group
        cwd.mkdir(parents=True, exist_ok=True)
        cli = [sys.executable, "-m", "phaseseek.cli",
               *shlex.split(command)[1:]]
        done = subprocess.run(cli, cwd=cwd, env=env)
        if done.returncode != 0:
            print(f"{command!r} exited {done.returncode}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
