"""Every metric of every workload in one table: end to end, per layer, overhead.

    python3 perfbench/summary.py [--seed 42] [--seconds 30]

Runs perfbench/run.py untraced and then traced for each workload, one run
after the other, each in a fresh interpreter, and prints one row per metric
with its unit and one column per workload.  Exit code 1 if a run fails or
reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 300


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cell(value: float) -> str:
    """Counts exactly, times and fractions to 6 significant digits."""
    return f"{int(value):>17d}" if float(value).is_integer() else f"{value:>17.6g}"


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS)
    results = {w: [run_once(w, args.seed, args.seconds, t) for t in (0, 1)] for w in names}
    header = f"{'metric':<34} {'unit':<6}" + "".join(f"{w:>17}" for w in names)
    print(f"seed {args.seed}, {args.seconds:g} s a run")
    print(header)
    print("-" * len(header))
    for row in ("correct", "attempted", "failed"):
        print(f"{row:<34} {'':<6}" + "".join(f"{str(results[w][0][row]):>17}" for w in names))
    for trace, title in ((0, "end to end (untraced)"), (1, "per layer (traced)")):
        print(f"-- {title}")
        first = results[names[0]][trace]["metrics"]
        for metric, entry in first.items():
            cells = "".join(_cell(results[w][trace]["metrics"][metric]["value"]) for w in names)
            print(f"{metric:<34} {entry['unit']:<6}{cells}")
    ok = all(r["correct"] for pair in results.values() for r in pair)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
