"""The accepted input range swept end to end: `verify --suite all` and
`constants` over groups, t and max-level, in process.

At every point each command ends one of three ways, and this module
asserts which: exit 0 with strict JSON and no failed row; exit 1 (verify
only) with strict JSON whose summary counts its failed rows, each an
error row; or exit 2 (constants only) with
"error: constants at weight" on stderr and no output file.  No run may
raise or emit a RuntimeWarning.  tests/test_cli.py runs REDUCED_GRID;

    PYTHONPATH=src python tests/input_sweep.py

runs FULL_GRID and prints one line per point that fails.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
import tempfile
import warnings
from pathlib import Path

from liecheck.cli import main

FULL_GRID = (("A1", "A2", "T1", "T2"), (1e-6, 1e-4, 1e-3, 0.05, 1.0, 5.0, 50.0), (0, 4, 10))
REDUCED_GRID = (("A1", "A2", "T2"), (1e-3, 1.0, 5.0), (0, 4))


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-finite constant {name}")

    return json.loads(text, parse_constant=reject)


def run_point(group: str, t: float, level: int, out_dir: Path) -> list[str]:
    """Both commands at one point of the grid; the problems found, if any."""
    problems = []
    for command in ("verify", "constants"):
        out = out_dir / f"{command}-{group}-{t:g}-{level}.json"
        args = [command, "--group", group, "--t", repr(t), "--max-level", str(level),
                "--out", str(out)]
        if command == "verify":
            args[1:1] = ["--suite", "all"]
        where = " ".join(args[:-2])
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = main(args)
            except Exception as exc:  # a traceback, which no input may end in
                problems.append(f"{where}: raised {exc!r}")
                continue
        problems += [f"{where}: {w.category.__name__}: {w.message}" for w in caught
                     if issubclass(w.category, RuntimeWarning)]
        if code == 2:
            if command != "constants" or "error: constants at weight" not in err.getvalue():
                problems.append(f"{where}: exit 2 with {err.getvalue()!r}")
            if out.exists():
                problems.append(f"{where}: exit 2 wrote {out.name}")
            continue
        try:
            result = _strict_json(out.read_text())
        except (OSError, ValueError) as exc:
            problems.append(f"{where}: exit {code} without strict JSON ({exc})")
            continue
        if command == "constants":
            if code != 0:
                problems.append(f"{where}: exit {code}")
            continue
        failed = [c for c in result["checks"] if not c["pass"]]
        if code != (1 if failed else 0) or result["summary"]["failed"] != len(failed):
            problems.append(f"{where}: exit {code}, summary.failed "
                            f"{result['summary']['failed']}, {len(failed)} failed rows")
        problems += [f"{where}: failed row {c['check_id']}" for c in failed if c["kind"] != "error"]
    return problems


def main_sweep(grid=FULL_GRID) -> int:
    points = list(itertools.product(*grid))
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for group, t, level in points:
            for problem in run_point(group, t, level, Path(tmp)):
                print(problem)
                bad += 1
    print(f"{len(points)} points, {2 * len(points)} runs, {bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main_sweep())
