#!/usr/bin/env python3
"""Report which seeded CSVs a change moves, and by how much.

Usage:
    python3 scripts/csv_moves.py PARENT_OUT CHANGE_OUT

PARENT_OUT and CHANGE_OUT are `vflsim compare` out-dirs (or directories that
hold several of them) written by the parent commit and by the change with the
same commands.  Every CSV under PARENT_OUT is compared with the file of the
same relative path under CHANGE_OUT.  For each one whose bytes differ it
prints the first moved row, named by its scheduler, seed and round columns
where the file has them, and the largest relative change of every moved
column, |change - parent| / |parent| over the rows both files hold.  A CSV
found on one side only is listed as `missing:` (parent only) or `added:`
(change only) and counts as moved.  Files that are byte-identical are
counted, not listed.  When the platform.txt lines that scripts/seeded_csvs.py
writes differ between the two directories, both are printed first: bits may
move with numpy or the BLAS kernels alone.  The exit status is 0 when nothing
moved, 1 when a file moved and 2 when PARENT_OUT holds no CSV.  Only the
standard library is used.
"""

import csv
import math
import sys
from pathlib import Path

KEY_COLUMNS = ("scheduler", "seed", "t")


def read_rows(path):
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def relative_change(old, new):
    """|new - old| / |old| for two numeric cells, None when either is not a number."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def row_name(row, index):
    keys = [f"{k}={row[k]}" for k in KEY_COLUMNS if k in row]
    return " ".join(keys) if keys else f"row {index}"


def platforms(parent_dir, change_dir):
    """Both directories' platform.txt lines, named by side, when they differ, else []."""
    texts = [(root / "platform.txt").read_text(encoding="utf-8").strip()
             if (root / "platform.txt").exists() else "no platform.txt"
             for root in (parent_dir, change_dir)]
    return [] if texts[0] == texts[1] else [f"parent {texts[0]}", f"change {texts[1]}"]


def report(rel, parent, change):
    old, new = read_rows(parent), read_rows(change)
    lines = [f"moved: {rel}"]
    if len(old) != len(new):
        lines.append(f"  rows: {len(old)} -> {len(new)}")
    columns = list(old[0]) if old else []
    if new and list(new[0]) != columns:
        lines.append(f"  columns: {columns} -> {list(new[0])}")
        return lines
    first = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), None)
    if first is not None:
        lines.append(f"  first moved: {row_name(old[first], first)}")
    for col in columns:
        worst, text = 0.0, 0
        for a, b in zip(old, new):
            if a[col] == b[col]:
                continue
            change_rel = relative_change(a[col], b[col])
            if change_rel is None:
                text += 1
            else:
                worst = max(worst, change_rel)
        if text:
            lines.append(f"  {col}: {text} rows differ")
        elif worst > 0.0:
            lines.append(f"  {col}: max relative change {worst:.3g}")
    return lines


def main(argv):
    if len(argv) != 3:
        print("usage: python3 scripts/csv_moves.py PARENT_OUT CHANGE_OUT", file=sys.stderr)
        return 2
    parent_dir, change_dir = Path(argv[1]), Path(argv[2])
    parents = sorted(parent_dir.rglob("*.csv"))
    if not parents:
        print(f"no CSV files under {parent_dir}", file=sys.stderr)
        return 2
    for line in platforms(parent_dir, change_dir):
        print(line)
    same = moved = 0
    for parent in parents:
        rel = parent.relative_to(parent_dir)
        change = change_dir / rel
        if not change.exists():
            print(f"missing: {rel}")
            moved += 1
        elif parent.read_bytes() == change.read_bytes():
            same += 1
        else:
            print("\n".join(report(rel, parent, change)))
            moved += 1
    for change in sorted(change_dir.rglob("*.csv")):
        rel = change.relative_to(change_dir)
        if not (parent_dir / rel).exists():
            print(f"added: {rel}")
            moved += 1
    print(f"{moved} moved, {same} byte-identical")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
