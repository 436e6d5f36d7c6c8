"""Check that the README outputs moved only as declared against a commit.

Usage: python tools/parent_moves.py REF [DECLARED]

Extracts REF (HEAD^, say) with ``git archive`` into a temporary directory,
runs that tree's own tools/readme_outputs.py and then this tree's, and
compares the two output trees as tools/csv_moves.py does, printing its
report. It also compares what each tree prints: the stdout of its
readme_outputs.py run (the output paths the commands print), and the
``--help`` text of ``phaseseek`` and of each subcommand, run against
the tree's own src/ with COLUMNS=80. A difference is the move
``stdout *`` or ``help COMMAND`` (``help phaseseek`` for the top level)
with MAX_ABS inf, and its unified diff is printed. Every moved item must
be listed in DECLARED (default tools/declared_moves.txt next to this
file): one ``FILE ITEM MAX_ABS`` per line, where FILE is a path under
the output tree, ITEM a CSV column or a JSON key path, or ``*`` for a
file that differs in any other way (a changed header or row count, a
file on one side only), and MAX_ABS the largest absolute difference
allowed (``inf`` for any). ``#`` starts a comment. Uses local git only
and removes its temporary directory.

Exits 0 when every move is declared, 1 when one is not (each is named),
and 2 on a usage or git error.
"""

from __future__ import annotations

import difflib
import io
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
DECLARED = TOOLS / "declared_moves.txt"
# the --help texts compared: the top level, then each subcommand
HELP_COMMANDS = ("phaseseek", "simulate", "analyze", "scan", "fields",
                 "synth-wake")

sys.path.insert(0, str(TOOLS))
import csv_moves  # noqa: E402


def moves(old_dir, new_dir):
    """(file, item, max_abs) for each moved item between two output trees,
    from csv_moves.file_moves: a CSV column or a JSON key path, or "*"
    with inf for a file that differs in any other way."""
    found = []
    for name, side, items in csv_moves.file_moves(old_dir, new_dir):
        if side is not None or not items:
            found.append((name, "*", math.inf))
        elif name.endswith(".json"):
            found += [(name, path, math.inf if None in (old, new)
                       else csv_moves._difference(old, new)[0])
                      for path, old, new in items]
        else:
            found += [(name, column, max_abs)
                      for column, (_, max_abs, _) in items.items()]
    return found


def text_moves(old, new):
    """(file, item, inf) for each printed text, keyed (file, item) in the
    dicts old and new, that differs or is on one side only."""
    return [(*key, math.inf) for key in sorted(set(old) | set(new))
            if old.get(key) != new.get(key)]


def text_report(old, new):
    """The unified diff of each printed text that differs."""
    lines = []
    for name, item, _ in text_moves(old, new):
        lines.append(f"differs: {name} {item}")
        lines += [f"  {line}" for line in difflib.unified_diff(
            old.get((name, item), "").splitlines(),
            new.get((name, item), "").splitlines(),
            "old", "new", lineterm="")]
    return lines


def read_declared(path):
    """{(file, item): max_abs} of a declared-moves file."""
    declared = {}
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) != 3:
            raise ValueError(f"{path}:{number}: need FILE ITEM MAX_ABS")
        declared[fields[0], fields[1]] = float(fields[2])
    return declared


def undeclared(found, declared):
    """The moves in found that declared does not allow."""
    return [(name, item, max_abs) for name, item, max_abs in found
            if not max_abs <= declared.get((name, item), -1.0)]


def _extract(ref, dest):
    """Write the tree of commit ref under dest with git archive."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref],
                             cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")


def _readme_outputs(tree, out_dir):
    """Run tree's tools/readme_outputs.py into out_dir; its stdout."""
    tool = Path(tree) / "tools" / "readme_outputs.py"
    if not tool.is_file():
        raise FileNotFoundError(f"no tools/readme_outputs.py in {tree}")
    return subprocess.run([sys.executable, str(tool), str(out_dir)],
                          check=True, stdout=subprocess.PIPE,
                          text=True).stdout


def _help_texts(tree):
    """{("help", command): --help text} of tree's CLI, at COLUMNS=80. A
    command that fails, such as one the tree does not have, reads as its
    exit code and stderr, so that it differs from a working one."""
    env = {**os.environ, "COLUMNS": "80"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(tree) / "src"), env.get("PYTHONPATH")) if p)
    texts = {}
    for command in HELP_COMMANDS:
        args = [] if command == "phaseseek" else [command]
        ran = subprocess.run(
            [sys.executable, "-m", "phaseseek.cli", *args, "--help"],
            env=env, capture_output=True, text=True)
        texts["help", command] = (ran.stdout if ran.returncode == 0 else
                                  f"exit {ran.returncode}\n{ran.stderr}")
    return texts


def _printed(tree, out_dir):
    """{(file, item): text} of what tree prints: the stdout of its README
    commands, run into out_dir, and its --help texts."""
    return {("stdout", "*"): _readme_outputs(tree, out_dir),
            **_help_texts(tree)}


def main(argv):
    if len(argv) not in (1, 2):
        print("usage: python tools/parent_moves.py REF [DECLARED]",
              file=sys.stderr)
        return 2
    declared = read_declared(argv[1] if len(argv) == 2 else DECLARED)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        try:
            _extract(argv[0], tmp / "ref")
            old = _printed(tmp / "ref", tmp / "ref_out")
            new = _printed(ROOT, tmp / "out")
        except (OSError, subprocess.CalledProcessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for line in (csv_moves.compare(tmp / "ref_out", tmp / "out")
                     + text_report(old, new)):
            print(line)
        found = moves(tmp / "ref_out", tmp / "out") + text_moves(old, new)
    bad = undeclared(found, declared)
    for name, item, max_abs in bad:
        print(f"undeclared move: {name} {item} {max_abs:.3g}")
    seen = {(name, item) for name, item, _ in found}
    for name, item in sorted(set(declared) - seen):
        print(f"declared but not seen: {name} {item}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
