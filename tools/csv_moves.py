"""List the values that moved between two output trees.

Usage: python tools/csv_moves.py OLD_DIR NEW_DIR

Compares every file under OLD_DIR with the file at the same relative path
under NEW_DIR. For each CSV whose bytes differ it prints one line per
column that holds moved values: the column, how many values moved, and
the largest absolute and relative difference, |new - old| and
|new - old| / |old|. A value moved when its spelling changed, so a
-0.0 that became 0.0 counts, with difference 0. A NaN on one side only
and a value that is not a number differ by inf. For each JSON file whose
parsed contents differ it prints one line per moved leaf, by key path
such as ``config.law.g0`` or ``runs[0].t_final``, with its old and new
value, and one line per leaf found on one side only. A leaf moved when
its JSON spelling changed, so 1 that became 1.0 counts. Other files that
differ, among them a JSON file that differs only in layout or does not
parse, files on one side only and CSVs whose header or row count
changed are listed by name. Exits 0 when the two trees hold the same
bytes and 1 otherwise, so a byte-identical check can run it after
``diff -r`` to say what moved.
"""

from __future__ import annotations

import filecmp
import json
import math
import sys
from pathlib import Path


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
    """The report lines for two trees; empty when their bytes agree."""
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


def main(argv):
    if len(argv) != 2:
        print("usage: python tools/csv_moves.py OLD_DIR NEW_DIR",
              file=sys.stderr)
        return 2
    lines = compare(*argv)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
