"""The one gate on the README outputs: reproducible, strict JSON, and moved
only as declared against a commit.

Usage: python tools/parent_moves.py REF [DECLARED]

Extracts REF (HEAD^, say) with ``git archive``, runs that tree's own
tools/readme_outputs.py once and this tree's twice, and reads what each
run prints: the stdout of the README commands and the ``--help`` text of
``phaseseek`` and of each subcommand, run against the tree's own src/
with COLUMNS=80. It fails, naming each fault, when this tree's two runs
differ in any byte (each difference marked ``rerun``), when a JSON file
of its run holds a bare ``NaN`` or ``Infinity`` or does not parse, or
there is none, and when an item moved against REF that DECLARED does not
allow.

Trees are compared file by file. A CSV gets one line per column with
moved values: how many moved and the largest |new - old| and
|new - old| / |old|; a value moved when its spelling changed (-0.0 to
0.0 counts, with difference 0), and a NaN on one side or a value that is
not a number differs by inf. A JSON file gets one line per moved leaf,
by key path such as ``runs[0].t_final``, or found on one side only; a
leaf moved when its JSON spelling changed (1 to 1.0 counts). Any other
difference (layout, a file that does not parse or is on one side only, a
changed header or row count) names the file. A printed text that differs
is the move ``stdout *`` or ``help COMMAND`` with MAX_ABS inf, and its
unified diff is printed.

DECLARED (default tools/declared_moves.txt next to this file) allows a
move by a line ``FILE ITEM MAX_ABS``: FILE a path under the output tree,
ITEM a CSV column, a JSON key path or ``*`` for the whole file, and
MAX_ABS the largest absolute difference allowed (``inf`` for any). ``#``
starts a comment. Uses local git only and removes its temporary
directory. Exits 0 when the gate passes, 1 when it fails, and 2 on a
usage or git error.
"""

from __future__ import annotations

import difflib
import filecmp
import io
import json
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


def _files(root):
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file()}


def _difference(old, new):
    """(abs, rel) difference of two spellings of a number."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf, math.inf
    if math.isnan(a) or math.isnan(b):
        return ((0.0, 0.0) if math.isnan(a) and math.isnan(b)
                else (math.inf, math.inf))
    diff = abs(b - a)
    if diff == 0.0:
        return 0.0, 0.0
    return diff, diff / abs(a) if a != 0.0 else math.inf


def column_moves(old_path, new_path):
    """{column: (moved, max_abs, max_rel)} for the columns with a moved
    value, or None when the header or the row count changed."""
    old_lines = Path(old_path).read_text().splitlines()
    new_lines = Path(new_path).read_text().splitlines()
    if (len(old_lines) != len(new_lines) or not old_lines
            or old_lines[0] != new_lines[0]):
        return None
    header = old_lines[0].split(",")
    moves = {}
    for old_line, new_line in zip(old_lines[1:], new_lines[1:]):
        if old_line == new_line:
            continue
        old_row, new_row = old_line.split(","), new_line.split(",")
        if len(old_row) != len(header) or len(new_row) != len(header):
            return None
        for name, old, new in zip(header, old_row, new_row):
            if old != new:
                moved, max_abs, max_rel = moves.get(name, (0, 0.0, 0.0))
                d_abs, d_rel = _difference(old, new)
                moves[name] = (moved + 1, max(max_abs, d_abs),
                               max(max_rel, d_rel))
    return {name: moves[name] for name in header if name in moves}


def _leaves(value, path=""):
    """{key path: JSON spelling} of every leaf of a parsed JSON value; an
    empty object or list is a leaf."""
    if isinstance(value, dict) and value:
        items = ((f"{path}.{key}" if path else key, item)
                 for key, item in value.items())
    elif isinstance(value, list) and value:
        items = ((f"{path}[{i}]", item) for i, item in enumerate(value))
    else:
        return {path or "(top level)": json.dumps(value)}
    leaves = {}
    for child, item in items:
        leaves.update(_leaves(item, child))
    return leaves


def leaf_moves(old_path, new_path):
    """(key path, old spelling, new spelling) of each leaf that moved
    between two JSON files, with None for the side a leaf is missing
    from; None when either file does not parse."""
    try:
        old = _leaves(json.loads(Path(old_path).read_text()))
        new = _leaves(json.loads(Path(new_path).read_text()))
    except ValueError:
        return None
    moves = [(path, value, new.get(path)) for path, value in old.items()
             if new.get(path) != value]
    return moves + [(path, None, value) for path, value in new.items()
                    if path not in old]


def _leaf_line(path, old, new):
    if new is None:
        return f"  {path}: only in old, {old}"
    if old is None:
        return f"  {path}: only in new, {new}"
    return f"  {path}: {old} -> {new}"


def file_moves(old_dir, new_dir):
    """Each file that differs between two trees, in report order, as
    (name, side, moves). side is the root a file on one side only is in,
    else None. moves is column_moves' dict for a CSV or leaf_moves' list
    for a JSON file, and None when neither names what moved."""
    old_dir, new_dir = Path(old_dir), Path(new_dir)
    old_files, new_files = _files(old_dir), _files(new_dir)
    found = [(name, old_dir, None) for name in sorted(old_files - new_files)]
    found += [(name, new_dir, None) for name in sorted(new_files - old_files)]
    for name in sorted(old_files & new_files):
        old, new = old_dir / name, new_dir / name
        if filecmp.cmp(old, new, shallow=False):
            continue
        moves = None
        if name.endswith(".json"):
            moves = leaf_moves(old, new) or None
        elif name.endswith(".csv"):
            moves = column_moves(old, new)
        found.append((name, None, moves))
    return found


def compare(old_dir, new_dir):
    """The report lines for two output trees; empty when their bytes
    agree."""
    lines = []
    for name, side, moves in file_moves(old_dir, new_dir):
        if side is not None:
            lines.append(f"only in {side}: {name}")
        elif moves is None:
            lines.append(f"differs: {name}")
        elif name.endswith(".json"):
            lines.append(f"{name}: moved keys")
            lines += [_leaf_line(*move) for move in moves]
        else:
            lines.append(f"{name}: column moved max_abs max_rel")
            lines += [f"  {column} {moved} {max_abs:.2g} {max_rel:.2g}"
                      for column, (moved, max_abs, max_rel) in moves.items()]
    return lines


def moves(old_dir, new_dir):
    """(file, item, max_abs) for each moved item between two output trees:
    a CSV column or a JSON key path, or "*" with inf for a file that
    differs in any other way."""
    found = []
    for name, side, items in file_moves(old_dir, new_dir):
        if side is not None or not items:
            found.append((name, "*", math.inf))
        elif name.endswith(".json"):
            found += [(name, path, math.inf if None in (old, new)
                       else _difference(old, new)[0])
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


def rerun_report(out_dir, rerun_dir, printed, reprinted):
    """Each difference between two runs of one tree, the output trees
    out_dir and rerun_dir and the printed texts printed and reprinted,
    named as compare and text_report name it and marked ``rerun``."""
    return [f"rerun {line}" for line in (compare(out_dir, rerun_dir)
                                         + text_report(printed, reprinted))]


def _refuse(name):
    raise ValueError(f"bare {name}")


def json_report(out_dir):
    """A line for each JSON file under out_dir that holds a bare NaN or
    Infinity or does not parse, or one line when there is no JSON file."""
    paths = sorted(Path(out_dir).rglob("*.json"))
    lines = []
    for path in paths:
        try:
            json.loads(path.read_text(), parse_constant=_refuse)
        except ValueError as exc:
            lines.append(f"not strict JSON: "
                         f"{path.relative_to(out_dir).as_posix()}: {exc}")
    return lines if paths else [f"no JSON file in {out_dir}"]


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
            reprinted = _printed(ROOT, tmp / "rerun")
        except (OSError, subprocess.CalledProcessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for line in (compare(tmp / "ref_out", tmp / "out")
                     + text_report(old, new)):
            print(line)
        found = moves(tmp / "ref_out", tmp / "out") + text_moves(old, new)
        faults = (rerun_report(tmp / "out", tmp / "rerun", new, reprinted)
                  + json_report(tmp / "out"))
    bad = undeclared(found, declared)
    for name, item, max_abs in bad:
        print(f"undeclared move: {name} {item} {max_abs:.3g}")
    seen = {(name, item) for name, item, _ in found}
    for name, item in sorted(set(declared) - seen):
        print(f"declared but not seen: {name} {item}")
    for line in faults:
        print(line)
    return 1 if bad or faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
