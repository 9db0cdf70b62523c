"""Op runner: one caller, ops in sequence, failures counted and the run continues.

An op is one call into the public liecheck API.  Each op may carry a reset,
run untimed before it, that puts the library into the state a fresh
`liecheck` process is in after set-up: every lru cache of the package
cleared and the workload's root systems and group models built again.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from spans import captured_warnings


class OpFailed(Exception):
    """The op completed but reports a failure, e.g. a non-zero exit code.

    digest and rows describe the output as for a passing op: a report that
    fails one check still has to repeat, and its other rows are correct.
    """

    def __init__(self, detail: str, digest: str | None = None, rows: int = 0):
        super().__init__(detail)
        self.digest = digest
        self.rows = rows


class OutputWrong(Exception):
    """The op's output failed the benchmark's correctness check."""


@dataclass(frozen=True)
class Op:
    """One call into the public API.

    call() performs the op and returns its output.  check(output) returns
    (digest, correct_rows) or raises OpFailed / OutputWrong.  metric names
    the per-layer counter that receives the op span's duration, if any.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple[str, int]]
    reset: Callable[[], None] | None = None
    metric: str | None = None


@dataclass
class OpResult:
    name: str
    seconds: float
    status: str  # ok | raised | failed | wrong
    detail: str = ""
    digest: str | None = None
    rows: int = 0
    probe: float | None = None  # mean Probe time just before and just after the op


class Probe:
    """Times a fixed computation that uses no liecheck code.

    The vCPUs of a shared host switch between speed states that last from
    under a second to a minute.  The probe's time tracks the state an op
    ran in, so op time / probe time moves far less with the state than op
    time does, and no change to liecheck can move the probe.  A
    measurement is the best of three short repetitions, so that one
    interrupt does not inflate it; it is taken again when `every` seconds
    have passed since the last one.
    """

    def __init__(self, every: float = 0.2):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((512, 2, 2)) + 1j * rng.standard_normal((512, 2, 2))
        self._h = h + np.conj(np.swapaxes(h, -1, -2))
        self._x = rng.standard_normal(64_000)
        self.every = every
        self._value = 0.0
        self._taken = -float("inf")

    def _once(self) -> float:
        start = time.perf_counter()
        np.linalg.eigh(self._h)
        np.exp(self._x).sum()
        s = 0
        for i in range(60_000):
            s += i * i
        return time.perf_counter() - start

    def measure(self) -> float:
        self._value = min(self._once() for _ in range(3))
        self._taken = time.perf_counter()
        return self._value

    def current(self) -> float:
        if time.perf_counter() - self._taken >= self.every:
            self.measure()
        return self._value


@dataclass
class PassResult:
    results: list[OpResult] = field(default_factory=list)
    warnings: int = 0
    wall: float = 0.0  # the whole pass: resets, ops and checks

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.results)

    @property
    def rows(self) -> int:
        return sum(r.rows for r in self.results)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.status != "ok")


def run_pass(ops: list[Op], tracer=None, probe: Probe | None = None,
             between: Callable[[], None] | None = None) -> PassResult:
    """Run every op once, in order.

    With a tracer, each op is a root span.  With a probe, each op records
    the mean of the probe times in effect just before and just after it.
    between, if given, is called before each op's reset, untimed.
    """
    out = PassResult()
    counts: Counter = Counter()

    def count_warning(*args, **kwargs):
        counts["warnings"] += 1

    handler = tracer.on_warning if tracer is not None else count_warning
    start = time.perf_counter()
    with captured_warnings(handler):
        for op_id, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = op_id
            if between is not None:
                between()
            if op.reset is not None:
                span = tracer.open("bench", "reset") if tracer is not None else None
                op.reset()
                if span is not None:
                    tracer.close(span)
            before = probe.current() if probe is not None else None
            if out.results and before is not None:
                out.results[-1].probe = (out.results[-1].probe + before) / 2.0
            out.results.append(_run_op(op, tracer))
            out.results[-1].probe = before
        if probe is not None and out.results:
            out.results[-1].probe = (out.results[-1].probe + probe.measure()) / 2.0
    out.wall = time.perf_counter() - start
    out.warnings = counts["warnings"]
    return out


def _run_op(op: Op, tracer) -> OpResult:
    span = tracer.open("bench", "op:" + op.name) if tracer is not None else None
    start = time.perf_counter()
    try:
        output = op.call()
    except (Exception, SystemExit) as exc:  # a failed op; the run goes on
        output, raised = None, exc
    else:
        raised = None
    seconds = time.perf_counter() - start
    if span is not None:
        tracer.close(span)
        if op.metric:
            tracer.counts[op.metric] += seconds
    if raised is not None:
        return OpResult(op.name, seconds, "raised", f"{type(raised).__name__}: {raised}")
    try:
        digest, rows = op.check(output)
    except OpFailed as exc:
        return OpResult(op.name, seconds, "failed", str(exc), exc.digest, exc.rows)
    except OutputWrong as exc:
        return OpResult(op.name, seconds, "wrong", str(exc))
    return OpResult(op.name, seconds, "ok", digest=digest, rows=rows)


def op_counts(passes: list[PassResult]) -> tuple[int, int]:
    """(attempted, failed) over a run's passes, each op counted once.

    Every pass repeats the same ops with the same seed to time them again,
    so an op is one attempt however many passes fit in the run, and it
    failed if any of its calls failed.  The counts then depend on the seed
    alone, not on the host's speed.
    """
    per_op = list(zip(*(p.results for p in passes)))
    return len(per_op), sum(1 for calls in per_op if any(r.status != "ok" for r in calls))


def compare_digests(passes: list[PassResult]) -> None:
    """Mark an op wrong when its output differs from the first pass's.

    Every pass of a run uses the same seed, so every output must repeat
    byte for byte.
    """
    first = passes[0].results
    for p in passes[1:]:
        for ref, res in zip(first, p.results):
            if ref.digest and res.digest and ref.digest != res.digest:
                res.status, res.detail = "wrong", "output differs from the first pass"
                res.rows = 0
