"""liecheck benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload a1-verify --seed 42 --seconds 30 --trace 0

Runs from any directory; it imports liecheck from the src/ directory next
to this one and writes only under .perfbench_out/ beside it.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 prints the end-to-end metrics; --trace 1
prints the per-layer metrics of a traced run.  The lines before it give the
environment and every metric with its unit.  Exit code 2 without a result
when liecheck is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 11
# Probe time (harness.Probe) of the fast state of the host the bounds were
# set on: x86_64, 2 vCPUs at 2.1 GHz, Python 3.11.7, numpy 2.4.6.  Times are
# reported as op time * PROBE_REF_S / probe time, i.e. at that speed.
PROBE_REF_S = 0.0046
SETUP_TIMEOUT_S = 60
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# Set-up as a `liecheck` process pays it: interpreter start, import, and the
# root systems and group models of the workload (argv: src, groups, models).
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import liecheck
for g in filter(None, sys.argv[2].split(",")):
    liecheck.build_root_system(g)
for k in filter(None, sys.argv[3].split(",")):
    liecheck.build_group_model(k)
"""

END_TO_END = [
    ("setup_s", "s"),
    ("report_s", "s"),
    ("rows_per_s", "1/s"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
]


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_vars": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
        "seed": seed,
    }


def _setup_timed_out(signum, frame):
    raise TimeoutError(f"set-up took more than {SETUP_TIMEOUT_S} s")


def time_setup(groups, models) -> float:
    """Wall time of one fresh interpreter doing the workload's set-up.

    The wait blocks until the child exits, bounded by an alarm: a wait with
    a timeout polls at up to 50 ms intervals and would round every set-up
    time up to that grid.
    """
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), ",".join(groups), ",".join(models)]
    previous = signal.signal(signal.SIGALRM, _setup_timed_out)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    signal.alarm(SETUP_TIMEOUT_S)
    try:
        code = proc.wait()
        seconds = time.perf_counter() - start
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_run(workload, ops, seconds: float) -> tuple[list, dict]:
    from harness import Probe, compare_digests, op_counts, run_pass

    setup = []
    probe = Probe()
    passes = []
    start = time.perf_counter()

    def add_setup() -> None:
        before = probe.measure()
        wall = time_setup(workload.groups, workload.models)
        setup.append((wall, wall * PROBE_REF_S / ((before + probe.measure()) / 2.0)))

    def add_setup_when_due() -> None:
        # Set-ups spread evenly over the run meet the host's speed states as
        # the ops do, not just those of the few seconds before the first op.
        due = start + len(setup) * seconds / SETUP_REPEATS
        if len(setup) < SETUP_REPEATS and time.perf_counter() >= due:
            add_setup()

    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(ops, probe=probe, between=add_setup_when_due))
    while len(setup) < SETUP_REPEATS:
        add_setup()
    compare_digests(passes)
    attempted, failed = op_counts(passes)
    # Each op's median scaled time over the run's passes, summed: the probe
    # takes out the host's speed state, the median a stall that hit one pass
    # (README.md).
    per_op = list(zip(*(p.results for p in passes)))
    report_s = sum(statistics.median(r.seconds * PROBE_REF_S / r.probe for r in results)
                   for results in per_op)
    wall_s = sum(statistics.median(r.seconds for r in results) for results in per_op)
    probes = [r.probe for p in passes for r in p.results]
    print(f"# unscaled report_s {wall_s!r} s, setup_s {statistics.median(w for w, _ in setup)!r} s, "
          f"probe median {statistics.median(probes)!r} s")
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "report_s": report_s,
        "rows_per_s": statistics.median(p.rows for p in passes) / report_s,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    return passes, metrics


def scaled_seconds(result) -> float:
    """A pass's op time at the probe's reference speed (README.md)."""
    return sum(r.seconds * PROBE_REF_S / r.probe for r in result.results)


def traced_run(ops, seconds: float, spans_path: Path) -> tuple[list, dict]:
    """Traced and untraced passes in turn, at least one of each."""
    from harness import Probe, compare_digests, run_pass
    from spans import PER_LAYER, Tracer

    tracer = Tracer()
    probe = Probe()
    traced, plain, per_pass = [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        if len(traced) > len(plain):
            plain.append(run_pass(ops, probe=probe))
            continue
        tracer.reset()
        with tracer.installed():
            traced.append(run_pass(ops, tracer, probe))
        per_pass.append(tracer.metrics())
        if len(traced) == 1:
            write_spans(tracer, spans_path)
    compare_digests(traced + plain)
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.wall_s":
            metrics[name] = statistics.median(p.wall for p in traced)
        elif name == "trace.overhead_frac":
            metrics[name] = (statistics.median(map(scaled_seconds, traced))
                             / statistics.median(map(scaled_seconds, plain)) - 1.0)
        elif unit == "s":
            metrics[name] = statistics.median(m[name] for m in per_pass)
        else:
            # counts repeat exactly between passes of one seed; report the first
            metrics[name] = per_pass[0][name]
    return traced + plain, metrics


def write_spans(tracer, path: Path) -> None:
    """The spans of one traced pass, one JSON object a line."""
    with path.open("w", encoding="utf-8") as fh:
        for i, (layer, name, start, end, parent, op) in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                 "parent": parent, "op": op}) + "\n")


def main(argv=None) -> int:
    from harness import op_counts
    from spans import PER_LAYER
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "liecheck" / "__init__.py").is_file():
        print(f"error: no liecheck package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import liecheck

    if Path(liecheck.__file__).resolve().parent != SRC / "liecheck":
        print(f"error: imported liecheck from {liecheck.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    print("# env " + json.dumps(environment(args.seed), sort_keys=True), flush=True)
    ops = workload.make_ops(args.seed, OUT_DIR)
    if args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        passes, values = traced_run(ops, args.seconds, spans_path)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        passes, values = untraced_run(workload, ops, args.seconds)
        units = dict(END_TO_END)

    attempted, failed = op_counts(passes)
    wrong = [r for p in passes for r in p.results if r.status == "wrong"]
    failures = sorted({f"{r.name}: {r.status}: {r.detail}" for p in passes
                       for r in p.results if r.status != "ok"})
    for line in failures:
        print("# failed op " + line)
    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes of {len(ops)} ops, "
          f"{failed}/{attempted} ops failed ({sum(p.failed for p in passes)} of "
          f"{sum(len(p.results) for p in passes)} calls), "
          f"{sum(p.warnings for p in passes)} numpy warnings")
    print("# pass seconds " + " ".join(f"{p.seconds:.3f}" for p in passes))
    for name, value in values.items():
        print(f"# {name} {value!r} {units[name]}")
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
