"""Run every README command-line example and keep what it writes.

Usage: python tools/readme_outputs.py OUT_DIR

The commands are read from README.md next to this file: each line that
starts with ``phaseseek `` inside a ```sh block, with its continuation
lines joined. They run top to bottom in OUT_DIR itself, as the README's
"Command line" section says they run, each as ``python -m phaseseek.cli``
against the ``src/`` next to this file, and their stdout is printed. The
outputs are deterministic: tools/parent_moves.py runs these commands
twice on this tree and once on another commit, each tree's README
against that tree's src/, and fails when the two runs differ or when an
output moved without being declared.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def readme_commands(readme):
    """The ``phaseseek`` commands of a README's ```sh blocks, in order,
    each with its continuation lines joined and its spaces collapsed."""
    return [" ".join(line.split())
            for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("phaseseek ")]


def run(tree, out_dir):
    """Run the README commands of tree (a checkout holding README.md and
    src/) top to bottom in out_dir against tree's src/; their stdout.

    A command that exits nonzero raises CalledProcessError naming it.
    """
    tree, out_dir = Path(tree), Path(out_dir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tree / "src"), env.get("PYTHONPATH")) if p)
    out_dir.mkdir(parents=True, exist_ok=True)
    printed = []
    for command in readme_commands((tree / "README.md").read_text()):
        cli = [sys.executable, "-m", "phaseseek.cli",
               *shlex.split(command)[1:]]
        done = subprocess.run(cli, cwd=out_dir, env=env,
                              stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            raise subprocess.CalledProcessError(done.returncode, command,
                                                done.stdout)
        printed.append(done.stdout)
    return "".join(printed)


def main(argv):
    if len(argv) != 1:
        print("usage: python tools/readme_outputs.py OUT_DIR",
              file=sys.stderr)
        return 2
    try:
        sys.stdout.write(run(ROOT, argv[0]))
    except subprocess.CalledProcessError as exc:
        print(f"{exc.cmd!r} exited {exc.returncode}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
