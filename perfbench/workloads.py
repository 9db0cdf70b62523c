"""The benchmark's workloads and the checks on their outputs.

a1-verify        11 ops, `liecheck verify --suite <s> --group A1` at the CLI
                 defaults.  Dominated by SU(2) irreducible matrices (the eigh
                 in expm) and SU(2) Haar sampling.
a2-verify        7 ops, every suite A2 supports.  Dominated by SU(3) Haar
                 sampling in the orbital averages and by 96^2/192^2 chamber
                 grids; never touches SU(2) irreducible matrices.
constants-sweep  346 ops, one hilbert.constants_row per row of
                 `liecheck constants`: many small Gauss-Legendre rules and
                 Weyl characters, no matrix model and no Monte Carlo.  It
                 keeps the 13 rows that overflow today; they count as
                 failed ops.  Deterministic: the seed is not used.

README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from harness import Op, OpFailed, OutputWrong
from spans import package_modules

A1_SUITES = (
    "lemma33", "lemma64", "kirillov", "eta", "weylint", "fourier",
    "convolution", "plancherel", "bks", "heat", "unitarity",
)
A2_SUITES = ("lemma33", "lemma64", "kirillov", "eta", "weylint", "plancherel", "unitarity")

# The CLI defaults, spelled out so that a change of default does not
# silently change the workload.
VERIFY_ARGS = {
    "A1": ["--t", "1.0", "--max-level", "4", "--quad-order", "64",
           "--mc-samples", "100000", "--tolerance", "1e-8"],
    "A2": ["--t", "1.0", "--max-level", "4", "--quad-order", "96",
           "--mc-samples", "100000", "--tolerance", "1e-8"],
}
MODEL_OF = {"A1": "SU2", "A2": "SU3"}

# (group, t values, max Dynkin label) of the constants sweep: 52 + 147 + 147 rows
CONSTANTS_BLOCKS = (
    ("A1", (0.5, 1.0, 2.0, 4.0), 12),
    ("A2", (0.5, 1.0, 2.0), 6),
    ("T2", (0.5, 1.0, 2.0), 6),
)
RATIO_TOL = 1e-12
C_TILDE_REL_ERR = 1e-8


def cached_functions() -> list:
    """Every lru cache of the package, found by scanning its modules."""
    found = {}
    for mod in package_modules().values():
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", "").startswith("liecheck"):
                found[id(obj)] = obj
    return list(found.values())


def make_reset(groups: tuple[str, ...], models: tuple[str, ...]) -> Callable[[], None]:
    """Cold caches as a fresh `liecheck` process has them after set-up."""
    from liecheck import models as lc_models
    from liecheck import rootdata

    caches = cached_functions()

    def reset() -> None:
        for fn in caches:
            fn.cache_clear()
        for g in groups:
            rootdata.build_root_system(g)
        for k in models:
            lc_models.build_group_model(k)

    return reset


def _finite(value) -> bool:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return False


def check_report(output) -> tuple[str, int]:
    """Exit code and JSON report of one `liecheck verify` call."""
    code, text = output
    if text is None:
        raise OpFailed(f"exit {code} without a report")
    try:
        report = json.loads(text)
        checks = report["checks"]
        failed = report["summary"]["failed"]
    except (ValueError, KeyError, TypeError) as exc:
        raise OutputWrong(f"malformed report: {exc}") from exc
    if not _finite(report):
        raise OutputWrong("report holds a non-finite number")
    if failed != sum(1 for c in checks if not c["pass"]):
        raise OutputWrong("summary.failed disagrees with the check rows")
    if code != (0 if failed == 0 else 1):
        raise OutputWrong(f"exit code {code} with {failed} failed rows")
    digest = hashlib.sha256(text.encode()).hexdigest()
    rows = sum(1 for c in checks if c["pass"] and c["kind"] != "skip")
    if code != 0:
        ids = [c["check_id"] for c in checks if not c["pass"]]
        raise OpFailed(f"exit {code}: {', '.join(ids)}", digest, rows)
    return digest, rows


def verify_ops(group: str, suites, seed: int, out_dir: Path, extra_args=None) -> list[Op]:
    """One `liecheck.cli.main(["verify", ...])` op per suite."""
    from liecheck import cli

    args = VERIFY_ARGS[group] if extra_args is None else extra_args
    reset = make_reset((group,), (MODEL_OF[group],))
    ops = []
    for suite in suites:
        out = out_dir / f"verify-{group}-{suite}.json"
        argv = ["verify", "--suite", suite, "--group", group, "--seed", str(seed),
                "--out", str(out), *args]

        def call(argv=argv, out=out):
            out.unlink(missing_ok=True)
            code = cli.main(argv)
            return code, out.read_text(encoding="utf-8") if out.exists() else None

        ops.append(Op(f"{group}.{suite}", call, check_report, reset, f"cli.suite.{suite}_s"))
    return ops


def check_constants_row(row) -> tuple[str, int]:
    values = (row.t, row.norm2_shift, row.C, row.D, row.C_tilde, row.C_tilde_err, row.ratio_check)
    if not all(math.isfinite(v) for v in values):
        raise OutputWrong(f"non-finite value in row {row.dynkin}")
    if row.ratio_check > RATIO_TOL:
        raise OutputWrong(f"ratio_check {row.ratio_check!r} > {RATIO_TOL}")
    if not row.C_tilde > 0:
        raise OutputWrong(f"C_tilde {row.C_tilde!r} <= 0")
    if row.C_tilde_err > C_TILDE_REL_ERR * row.C_tilde:
        raise OutputWrong(f"C_tilde_err {row.C_tilde_err!r} > {C_TILDE_REL_ERR} * C_tilde")
    digest = hashlib.sha256(repr((row.group, row.dynkin, row.d) + values).encode()).hexdigest()
    return digest, 1


def constants_ops(blocks=CONSTANTS_BLOCKS) -> list[Op]:
    """One hilbert.constants_row op per row, as `liecheck constants` makes them.

    Each (group, t) block is one `liecheck constants` invocation, so the
    caches are reset at the first row of a block only.
    """
    from liecheck import hilbert, rootdata

    ops = []
    for group, ts, top in blocks:
        rank = rootdata.build_root_system(group).rank
        order = 64 if rank == 1 else 96
        for t in ts:
            reset = make_reset((group,), ())
            for i, labels in enumerate(itertools.product(range(top + 1), repeat=rank)):

                def call(group=group, labels=labels, t=t, order=order):
                    rs = rootdata.build_root_system(group)
                    return hilbert.constants_row(rs, rootdata.weight(rs, labels), t, order)

                ops.append(Op(f"{group}.t{t:g}.{'-'.join(map(str, labels))}", call,
                              check_constants_row, reset if i == 0 else None))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    groups: tuple[str, ...]  # root systems a set-up builds
    models: tuple[str, ...]  # group models a set-up builds
    make_ops: Callable[[int, Path], list[Op]]


WORKLOADS = {
    "a1-verify": Workload(
        "a1-verify", ("A1",), ("SU2",),
        lambda seed, out_dir: verify_ops("A1", A1_SUITES, seed, out_dir)),
    "a2-verify": Workload(
        "a2-verify", ("A2",), ("SU3",),
        lambda seed, out_dir: verify_ops("A2", A2_SUITES, seed, out_dir)),
    "constants-sweep": Workload(
        "constants-sweep", ("A1", "A2", "T2"), (),
        lambda seed, out_dir: constants_ops()),
}
