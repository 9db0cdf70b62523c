"""Tests of the benchmark itself: tracer, op runner and BENCHMARK.json.

    python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from harness import Op  # noqa: E402

# small versions of the workloads' ops: SU(3) Haar reached through chars,
# SU(2) matrices through fourier and heat, chamber rules, and a constants
# block whose last row (A1 lam 10 at t=4) overflows and raises today
SMALL_VERIFY = ["--t", "1.0", "--max-level", "2", "--quad-order", "64",
                "--mc-samples", "2000", "--tolerance", "1e-8"]


@pytest.fixture(scope="module")
def ops(tmp_path_factory):
    out = tmp_path_factory.mktemp("reports")
    return (
        workloads.verify_ops("A2", ("kirillov",), 42, out, SMALL_VERIFY)
        + workloads.verify_ops("A1", ("lemma33", "heat"), 42, out, SMALL_VERIFY)
        + workloads.constants_ops((("A1", (4.0,), 10),))
    )


def traced_pass(ops):
    tracer = spans.Tracer()
    with tracer.installed():
        result = harness.run_pass(ops, tracer)
    return result, tracer


def test_counts_and_reports_repeat_between_traced_passes(ops):
    (p1, t1), (p2, t2) = traced_pass(ops), traced_pass(ops)
    counts = [name for name, unit, _ in spans.PER_LAYER
              if unit != "s" and name != "trace.overhead_frac"]
    m1, m2 = t1.metrics(), t2.metrics()
    assert {n: m1[n] for n in counts} == {n: m2[n] for n in counts}
    assert [r.digest for r in p1.results] == [r.digest for r in p2.results]
    # calls across module boundaries reached the spans
    assert m1["models.haar_su3_samples"] == 12 * 2000
    assert m1["heat.kernel_terms"] > 0
    assert m1["models.rep_elements"] > 0
    assert m1["hilbert.constants_rows"] == 10
    assert m1["quadrature.errors"] == 1


def test_self_times_sum_within_traced_wall(ops):
    result, tracer = traced_pass(ops)
    self_s = tracer.self_times()
    assert all(v >= 0 for v in self_s.values())
    assert sum(self_s.values()) <= result.wall
    assert set(self_s) <= set(spans.LAYERS) | {"bench"}


def test_every_binding_restored_after_tracing(ops):
    originals = spans.public_functions()
    before = {(name, attr): obj for name, mod in spans.package_modules().items()
              for attr, obj in vars(mod).items()}
    bound = {key for key, obj in before.items()
             if any(obj is fn for fn in originals.values())}
    # copies made by `from .models import haar_sample` are among them
    assert ("liecheck.chars", "haar_sample") in bound
    assert ("liecheck.hilbert", "haar_sample") in bound
    mods = spans.package_modules()
    with spans.Tracer().installed():
        assert all(vars(mods[name])[attr] is not before[(name, attr)] for name, attr in bound)
        harness.run_pass(ops[:1])
    for (name, attr), obj in before.items():
        assert vars(mods[name])[attr] is obj, f"{name}.{attr} not restored"


def test_raising_op_counts_as_failed_and_run_continues():
    def boom():
        raise RuntimeError("stub failure")

    def ok(output):
        return "digest", 1

    stub = [Op("before", lambda: 1, ok), Op("boom", boom, ok), Op("after", lambda: 2, ok)]
    tracer = spans.Tracer()
    result = harness.run_pass(stub, tracer)
    assert [r.status for r in result.results] == ["ok", "raised", "ok"]
    assert result.failed == 1 and result.rows == 2
    assert "stub failure" in result.results[1].detail
    assert all(span[3] >= span[2] > 0 for span in tracer.spans)


def test_probe_time_recorded_for_every_op():
    stub = [Op(f"op{i}", lambda: 1, lambda output: ("digest", 1)) for i in range(3)]
    result = harness.run_pass(stub, probe=harness.Probe(every=0.0))
    assert all(r.probe > 0 for r in result.results)


def test_changed_output_between_passes_is_wrong():
    outputs = iter([1, 1, 2])

    def check(output):
        return str(output), 1

    op = [Op("flaky", lambda: next(outputs), check)]
    passes = [harness.run_pass(op) for _ in range(3)]
    harness.compare_digests(passes)
    assert [p.results[0].status for p in passes] == ["ok", "ok", "wrong"]


def test_op_counts_do_not_depend_on_the_number_of_passes():
    def fails(output):
        raise harness.OpFailed("exit 1")

    stub = [Op("ok", lambda: 1, lambda output: ("digest", 1)), Op("bad", lambda: 2, fails)]
    for n in (1, 3, 4):
        assert harness.op_counts([harness.run_pass(stub) for _ in range(n)]) == (2, 1)
    # an op that fails in one pass of several is one failed op
    outputs = iter([1, 1, 2])
    flaky = [Op("flaky", lambda: next(outputs), lambda output: (str(output), 1))]
    passes = [harness.run_pass(flaky) for _ in range(3)]
    harness.compare_digests(passes)
    assert harness.op_counts(passes) == (1, 1)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert spans.SUITES == tuple(__import__("liecheck.cli").cli.SUITE_NAMES)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "constants-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
