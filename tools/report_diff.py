"""Row-by-row differences between two liecheck reports.

    python tools/report_diff.py OLD NEW

OLD and NEW are two `liecheck verify` reports (JSON), or two `liecheck
constants` tables (JSON or CSV).  Rows are matched by their key: the check
id in a verify report, (t, dynkin) in a constants table.  For each group
the differ prints the rows added and removed, the rows whose pass flipped,
the number of values that moved, the largest relative move of each column
with the row where it happens, and the rows whose note changed.  A
relative move is |new - old| / |old|; from 0, or between a number and
null, it is inf.

The exit status is 1 on a pass flip or a changed row set, 2 where a file
is not such a report or the two are of different kinds, and 0 otherwise,
moved values included: whether a move is acceptable is for the reader.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

VERIFY_VALUES = ("lhs", "rhs", "abs_err", "rel_err", "sigma_distance")
CONSTANTS_VALUES = ("d", "norm2_shift", "C", "D", "C_tilde", "C_tilde_err", "ratio_check")


def _constants_key(row: dict) -> str:
    return f"t={float(row['t']):g} {tuple(row['dynkin'])}"


def load(path) -> tuple[str, dict[str, dict[str, dict]]]:
    """The kind of a report, "verify" or "constants", and its rows by group
    and key.  ValueError where the file is neither."""
    text = Path(path).read_text()
    if text.lstrip().startswith(("{", "[")):
        data = json.loads(text)
    else:  # a CSV constants table: every value column is a number
        data = []
        for row in csv.DictReader(io.StringIO(text)):
            row["dynkin"] = json.loads(row["dynkin"])
            data.append({k: v if k in ("group", "dynkin") else float(v) for k, v in row.items()})
    if isinstance(data, dict) and "checks" in data:
        return "verify", {data["config"]["group"]: {c["check_id"]: c for c in data["checks"]}}
    if isinstance(data, list) and all(isinstance(r, dict) and "dynkin" in r for r in data):
        groups: dict[str, dict[str, dict]] = {}
        for row in data:
            groups.setdefault(row["group"], {})[_constants_key(row)] = row
        return "constants", groups
    raise ValueError(f"{path}: neither a verify report nor a constants table")


def relative_move(old, new) -> float:
    if old == new:
        return 0.0
    if old is None or new is None or old == 0:
        return math.inf
    return abs(new - old) / abs(old)


def diff_group(name: str, old: dict, new: dict, columns) -> tuple[list[str], bool]:
    """The lines printed for one group, and whether its row set changed or a pass flipped."""
    added, removed = sorted(new.keys() - old.keys()), sorted(old.keys() - new.keys())
    common = sorted(old.keys() & new.keys())
    flips = [k for k in common if old[k].get("pass") != new[k].get("pass")]
    notes = [k for k in common if old[k].get("note") != new[k].get("note")]
    moved = {}
    for col in columns:
        moves = [(relative_move(old[k].get(col), new[k].get(col)), k) for k in common]
        moves = [m for m in moves if m[0]]
        if moves:
            moved[col] = len(moves), max(moves)
    lines = [f"{name}: {len(old)} rows -> {len(new)} rows, {len(added)} added, "
             f"{len(removed)} removed, {len(flips)} pass flips, "
             f"{sum(count for count, _ in moved.values())} values moved, "
             f"{len(notes)} notes changed"]
    lines += [f"  moved {col}: {count} values, largest relative move {top:.3g} at {where}"
              for col, (count, (top, where)) in moved.items()]
    lines += [f"  added: {k}" for k in added] + [f"  removed: {k}" for k in removed]
    lines += [f"  pass flip: {k}: {old[k]['pass']} -> {new[k]['pass']}" for k in flips]
    lines += [f"  note: {k}: {old[k]['note']!r} -> {new[k]['note']!r}" for k in notes]
    return lines, bool(added or removed or flips)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/report_diff.py OLD NEW", file=sys.stderr)
        return 2
    try:
        (kind, old), (new_kind, new) = load(args[0]), load(args[1])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if kind != new_kind:
        print(f"error: {args[0]} is a {kind} report, {args[1]} a {new_kind} report",
              file=sys.stderr)
        return 2
    columns = VERIFY_VALUES if kind == "verify" else CONSTANTS_VALUES
    failed = False
    for group in sorted(old.keys() | new.keys()):
        lines, changed = diff_group(group, old.get(group, {}), new.get(group, {}), columns)
        print("\n".join(lines))
        failed |= changed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
