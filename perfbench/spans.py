"""Span tracer for the liecheck benchmark.

A traced pass wraps every public function of every liecheck module and
records one span per call: name, start, end, parent span and op id.  Spans
stay in memory; self time and the per-layer metrics are derived from them
when the pass ends.  Counters are taken at the same boundaries from the
arguments and results of the wrapped calls.

`from .models import haar_sample` copies the function object into the
importing module, so the tracer replaces every attribute of every
``liecheck.*`` module that is bound to a wrapped function, not only the
defining one, and puts each original object back on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
import warnings
from collections import Counter

PACKAGE = "liecheck"
LAYERS = ("rootdata", "models", "chars", "quadrature", "fourier", "hilbert", "heat", "cli")
SUITES = (
    "lemma33", "lemma64", "kirillov", "eta", "weylint", "fourier",
    "convolution", "plancherel", "bks", "heat", "unitarity",
)


def _layer(layer: str, *metrics: tuple[str, str, str]) -> list[tuple[str, str, str]]:
    return [
        (f"{layer}.self_s", "s", "lower"),
        *((f"{layer}.{name}", unit, better) for name, unit, better in metrics),
        (f"{layer}.errors", "count", "lower"),
        (f"{layer}.warnings", "count", "lower"),
    ]


# (name, unit, better) of every per-layer metric a traced run prints
PER_LAYER = [
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("rootdata.build_s", "s", "lower"),
    *_layer("rootdata"),
    *_layer(
        "models",
        ("haar_su2_s", "s", "lower"),
        ("haar_su2_samples", "count", "lower"),
        ("haar_su3_s", "s", "lower"),
        ("haar_su3_samples", "count", "lower"),
        ("rep_s", "s", "lower"),
        ("rep_elements", "count", "lower"),
        ("expm_s", "s", "lower"),
        ("expm_matrices", "count", "lower"),
        ("chamber_coordinates_s", "s", "lower"),
        ("su2_character_calls", "count", "lower"),
    ),
    *_layer(
        "chars",
        ("weyl_char_holo_points", "count", "lower"),
        ("eta_points", "count", "lower"),
        ("orbital_average_s", "s", "lower"),
        ("orbital_average_samples", "count", "lower"),
    ),
    *_layer(
        "quadrature",
        ("rules_built", "count", "lower"),
        ("rule_build_s", "s", "lower"),
        ("rule_nodes", "count", "lower"),
        ("integrated_nodes", "count", "lower"),
        ("oracle_samples", "count", "lower"),
        ("distinct_order_frac", "frac", "higher"),
    ),
    *_layer(
        "fourier",
        ("synth_points", "count", "lower"),
        ("coeff_samples", "count", "lower"),
    ),
    *_layer(
        "hilbert",
        ("constants_rows", "count", "higher"),
        ("naive_quadratures", "count", "lower"),
        ("norm_checks", "count", "lower"),
        ("bks_grid_points", "count", "lower"),
    ),
    *_layer(
        "heat",
        ("kernel_points", "count", "lower"),
        ("kernel_terms", "count", "lower"),
    ),
    *_layer(
        "cli",
        *((f"suite.{s}_s", "s", "lower") for s in SUITES),
        ("rows", "count", "higher"),
        ("rows_failed", "count", "lower"),
        ("stat_rows", "count", "higher"),
        ("stat_rows_beyond_2sigma", "count", "lower"),
    ),
]


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _batch(result) -> int:
    """Number of matrices in a (..., n, n) result."""
    shape = getattr(result, "shape", ())
    n = 1
    for k in shape[:-2]:
        n *= k
    return n


def _size(result) -> int:
    return int(getattr(result, "size", 1))


# Counter hooks, keyed by "<layer>.<function>".  A hook sees the tracer, the
# call's arguments, its result and its duration, after the span has closed.


def _haar(tr, args, kwargs, result, dur):
    group = "su2" if _arg(args, kwargs, 0, "model").kind == "SU2" else "su3"
    size = _arg(args, kwargs, 2, "size")
    tr.counts[f"models.haar_{group}_s"] += dur
    tr.counts[f"models.haar_{group}_samples"] += 1 if size is None else int(size)


def _rep(tr, args, kwargs, result, dur):
    tr.counts["models.rep_s"] += dur
    tr.counts["models.rep_elements"] += _batch(result)


def _expm(tr, args, kwargs, result, dur):
    tr.counts["models.expm_s"] += dur
    tr.counts["models.expm_matrices"] += _batch(result)


def _su2_character(tr, args, kwargs, result, dur):
    tr.counts["models.su2_character_calls"] += 1
    if tr.open_count["heat.heat_kernel_eval"]:
        tr.counts["heat.kernel_terms"] += 1


def _orbital_average(tr, args, kwargs, result, dur):
    tr.counts["chars.orbital_average_s"] += dur
    tr.counts["chars.orbital_average_samples"] += getattr(_arg(args, kwargs, 3, "scheme"), "samples", 0)


def _build_rule(tr, args, kwargs, result, dur):
    tr.counts["quadrature.rules_built"] += 1
    tr.counts["quadrature.rule_build_s"] += dur
    tr.counts["quadrature.rule_nodes"] += len(result.nodes)
    tr.rule_keys.add((result.rs_kind, result.order))


def _oracle(tr, args, kwargs, result, dur):
    scheme = _arg(args, kwargs, 3, "scheme")
    tr.counts["quadrature.oracle_samples"] += getattr(scheme, "samples", getattr(scheme, "order", 0))


def _suite_report(tr, args, kwargs, result, dur):
    checks = result["checks"]
    tr.counts["cli.rows"] += len(checks)
    tr.counts["cli.rows_failed"] += result["summary"]["failed"]
    stat = [c for c in checks if c["kind"] == "statistical"]
    tr.counts["cli.stat_rows"] += len(stat)
    tr.counts["cli.stat_rows_beyond_2sigma"] += sum(1 for c in stat if c["sigma_distance"] > 2.0)


def _add(metric, amount):
    def hook(tr, args, kwargs, result, dur):
        tr.counts[metric] += amount(args, kwargs, result, dur)
    return hook


HOOKS = {
    "rootdata.build_root_system": _add("rootdata.build_s", lambda a, k, r, d: d),
    "models.haar_sample": _haar,
    "models.rep_matrices": _rep,
    "models.expm_antihermitian": _expm,
    "models.expm_hermitian": _expm,
    "models.chamber_coordinates": _add("models.chamber_coordinates_s", lambda a, k, r, d: d),
    "models.su2_character": _su2_character,
    "chars.weyl_char_holo": _add("chars.weyl_char_holo_points", lambda a, k, r, d: _size(r)),
    "chars.eta": _add("chars.eta_points", lambda a, k, r, d: _size(r)),
    "chars.orbital_average": _orbital_average,
    "quadrature.build_chamber_quadrature": _build_rule,
    "quadrature.integrate_invariant": _add(
        "quadrature.integrated_nodes", lambda a, k, r, d: len(_arg(a, k, 0, "q").nodes)),
    "quadrature.cartesian_oracle_integrate": _oracle,
    "fourier.synthesize_many": _add("fourier.synth_points", lambda a, k, r, d: _size(r)),
    "fourier.fourier_coeff": _add(
        "fourier.coeff_samples", lambda a, k, r, d: _arg(a, k, 3, "scheme").samples),
    "hilbert.constants_row": _add("hilbert.constants_rows", lambda a, k, r, d: 1),
    "hilbert.naive_constant": _add("hilbert.naive_quadratures", lambda a, k, r, d: 1),
    "hilbert.verify_norm_identity": _add("hilbert.norm_checks", lambda a, k, r, d: 1),
    "hilbert.bks_integral_transform": _add(
        "hilbert.bks_grid_points", lambda a, k, r, d: _arg(a, k, 3, "hermite_order", 20) ** 3),
    "heat.heat_kernel_eval": _add("heat.kernel_points", lambda a, k, r, d: _size(r[0])),
    "cli.run_verification_suite": _suite_report,
}


def package_modules() -> dict:
    """Every imported liecheck module, the package itself included."""
    return {
        name: mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    }


def public_functions() -> dict:
    """{'<layer>.<name>': function} for the public functions of each layer.

    A public function is a callable attribute, not a class, whose name has
    no leading underscore and which the layer's module defines itself;
    lru_cache wrappers count, numpy functions imported into a module do not.
    """
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) == mod.__name__:
                found[f"{layer}.{attr}"] = obj
    return found


class Tracer:
    """Records spans and counters for the calls made while it is installed.

    One pass at a time: `reset()` clears the spans and counters between
    passes.  `installed()` replaces the bindings and restores them on exit.
    """

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        # span: [layer, name, start, end, parent index, op id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.open_count: Counter = Counter()
        self.counts: Counter = Counter()
        self.rule_keys: set = set()
        self.op_id = None

    # -- spans -------------------------------------------------------------

    def open(self, layer: str, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, name, time.perf_counter(), 0.0, parent, self.op_id])
        self._stack.append(idx)
        self.open_count[name] += 1
        return idx

    def close(self, idx: int) -> float:
        end = time.perf_counter()
        span = self.spans[idx]
        span[3] = end
        if self._stack.pop() != idx:
            raise RuntimeError("span stack out of order")
        self.open_count[span[1]] -= 1
        return end - span[2]

    def on_warning(self, message, category, filename, lineno, file=None, line=None):
        """showwarning replacement: count against the innermost open span."""
        layer = self.spans[self._stack[-1]][0] if self._stack else "bench"
        self.counts[f"{layer}.warnings"] += 1

    # -- bindings ----------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        layer = qualname.split(".", 1)[0]
        hook = HOOKS.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(layer, qualname)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                tracer.counts[f"{layer}.errors"] += 1
                raise
            dur = tracer.close(idx)
            if hook is not None:
                hook(tracer, args, kwargs, result, dur)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): (fn, self._wrap(q, fn)) for q, fn in public_functions().items()}
        for mod in package_modules().values():
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
                    self._patched.append((mod, attr, obj))

    def restore(self) -> None:
        while self._patched:
            mod, attr, obj = self._patched.pop()
            setattr(mod, attr, obj)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- results -----------------------------------------------------------

    def self_times(self) -> Counter:
        """Per-layer self time: span duration minus the time of its children."""
        child = [0.0] * len(self.spans)
        for layer, name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for span, inner in zip(self.spans, child):
            out[span[0]] += (span[3] - span[2]) - inner
        return out

    def metrics(self) -> dict:
        """Per-layer values of this pass, keyed by PER_LAYER names (trace.* excluded)."""
        self_s = self.self_times()
        values = dict(self.counts)
        for layer in LAYERS:
            values[f"{layer}.self_s"] = self_s[layer]
        built = self.counts["quadrature.rules_built"]
        values["quadrature.distinct_order_frac"] = len(self.rule_keys) / built if built else 0.0
        values["trace.spans"] = len(self.spans)
        return {name: float(values.get(name, 0.0)) for name, _, _ in PER_LAYER
                if name not in ("trace.overhead_frac", "trace.wall_s")}


@contextlib.contextmanager
def captured_warnings(handler):
    """Route every warning, repeats included, to handler instead of stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = handler
        yield
