"""The `liecheck` command: argument parsing, the report and its formatting.

The checks live in liecheck.checks.  A report sorts the rows of the chosen
suites by check id and summarises them; its `statistical` block counts the
sigma rows and gives the chance that an honest run fails one of them.  A
suite that raises ValueError or ArithmeticError (a closed form above the
largest float, a non-finite side) becomes a failed `<suite>/error` row with
the message, and the rest of the report is still written; lemma33 and
lemma64 give such a weight its own error row.  A `constants` row that
raises or holds a non-finite number, and a `transform` whose constant
exceeds the largest float, end in a usage error that writes no output;
the constants one names its weight and t.  Exit codes: 0 all pass, 1 any
check failed, 2 invalid configuration or usage.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, fields

from . import checks, fourier, hilbert
from .models import group_model_for
from .rootdata import build_root_system, enumerate_dominant

SUITE_NAMES = tuple(checks.SUITES)

_TRANSFORM_CLI = {
    "h": "H",
    "theta": "Theta",
    "theta-star": "ThetaStar",
    "scaled-theta": "ScaledTheta",
    "htilde": "Htilde",
}


@dataclass(frozen=True)
class RunConfig:
    """Configuration shared by all subcommands; seed drives all randomness."""

    group: str = "A1"
    t: float = 1.0
    max_level: int = 4
    quad_order: int = 0  # 0: quadrature.default_order of the group's rank
    mc_samples: int = 100_000
    seed: int = 42
    tolerance: float = 1e-8
    format: str = "json"

    def validate(self) -> str | None:
        try:
            rs = build_root_system(self.group)
        except ValueError:
            return f"unknown group {self.group!r} (expected A1, A2, or T<n>)"
        if rs.rank > 2:
            return "torus rank > 2 makes the tensor quadrature grid impractical"
        if self.t <= 0:
            return "t must be positive"
        if self.max_level < 0:
            return "max-level must be >= 0"
        if self.quad_order and self.quad_order < 8:
            return "quad-order must be >= 8"
        if self.mc_samples < 2:
            return "mc-samples must be >= 2"
        if self.tolerance <= 0:
            return "tolerance must be positive"
        if self.format not in ("json", "csv"):
            return f"unknown format {self.format!r}"
        return None

    def resolved_order(self, rank: int) -> int:
        return self.quad_order if self.quad_order else hilbert.default_order(rank)


def run_verification_suite(config: RunConfig, suite: str) -> dict:
    """Run one suite (or 'all') and assemble the structured report."""
    rs = build_root_system(config.group)
    model = group_model_for(rs.kind)
    names = SUITE_NAMES if suite == "all" else (suite,)
    rows: list[checks.CheckRow] = []
    for name in names:
        reason = checks.suite_available(name, rs, config.t)
        if reason is not None:
            if suite == "all":
                rows.append(checks.skip_row(f"{name}/unavailable", reason))
                continue
            raise UsageError(reason)
        try:
            rows.extend(checks.SUITES[name](config, rs, model))
        except (ValueError, ArithmeticError) as exc:
            rows.append(checks.error_row(f"{name}/error", str(exc)))
    rows.sort(key=lambda r: r.check_id)
    failed = sum(1 for c in rows if not c.passed)
    skipped = sum(1 for c in rows if c.kind == "skip")
    sigmas = [c.sigma_distance for c in rows if c.kind == "statistical"]
    return {
        "suite": suite,
        "config": {
            "group": config.group,
            "t": config.t,
            "max_level": config.max_level,
            "quad_order": config.resolved_order(rs.rank),
            "mc_samples": config.mc_samples,
            "seed": config.seed,
            "tolerance": config.tolerance,
        },
        "checks": [c.to_dict() for c in rows],
        "summary": {
            "total": len(rows),
            "failed": failed,
            "skipped": skipped,
            "statistical": _statistical_summary(sigmas),
        },
    }


# two-sided normal tail beyond 2 sigma, and the mass within 3 sigma
_P_BEYOND_2SIGMA = math.erfc(2.0 / math.sqrt(2.0))
_P_WITHIN_3SIGMA = math.erf(3.0 / math.sqrt(2.0))


def _statistical_summary(sigmas: list[float]) -> dict:
    """How an honest run of the report's k statistical rows behaves.

    With honest error bars, 0.0455 k rows lie beyond 2 sigma on average, and
    some row fails its 3-sigma gate with probability 1 - 0.9973^k.
    """
    k = len(sigmas)
    return {
        "k": k,
        "beyond_2sigma": sum(1 for s in sigmas if s > 2.0),
        "expected_beyond_2sigma": round(_P_BEYOND_2SIGMA * k, 4),
        "false_alarm_prob": round(1.0 - _P_WITHIN_3SIGMA**k, 4),
    }


def emit_constants_table(config: RunConfig) -> list[hilbert.ConstantsRow]:
    """One constants row per dominant weight up to max_level.

    A row that raises ValueError or ArithmeticError, or that holds a
    non-finite number, ends the table in a UsageError naming its weight and t.
    """
    rs = build_root_system(config.group)
    order = config.resolved_order(rs.rank)
    rows = []
    for lam in enumerate_dominant(rs, config.max_level):
        where = f"constants at weight {lam.dynkin}, t = {config.t}"
        try:
            row = hilbert.constants_row(rs, lam, config.t, order)
        except (ValueError, ArithmeticError) as exc:
            raise UsageError(f"{where}: {exc}") from exc
        values = [v for v in asdict(row).values() if isinstance(v, float)]
        if not all(map(math.isfinite, values)):
            raise UsageError(f"{where}: non-finite value among {values!r}")
        rows.append(row)
    return rows


class UsageError(Exception):
    """Invalid configuration or capability mismatch; maps to exit code 2."""


# ---------------------------------------------------------------------------
# formatting


def _csv_cell(value):
    """None as an empty cell, floats by repr, Dynkin labels as a JSON list."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return json.dumps(list(value))
    return repr(value) if isinstance(value, float) else value


def _to_csv(columns, records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_csv_cell(rec[c]) for c in columns] for rec in records)
    return buf.getvalue()


def _report_to_csv(report: dict) -> str:
    return _to_csv(checks.ROW_COLUMNS, report["checks"])


def _constants_to_csv(rows: list[hilbert.ConstantsRow]) -> str:
    return _to_csv(hilbert.ConstantsRow.CSV_COLUMNS, [asdict(r) for r in rows])


def _constants_to_json(rows: list[hilbert.ConstantsRow]) -> str:
    text = json.dumps([asdict(r) for r in rows], indent=2, sort_keys=True, allow_nan=False)
    return text + "\n"


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing


_OPTION_HELP = {
    "group": "A1, A2, or T<n>",
    "t": "measure parameter, > 0",
    "quad_order": f"points per dimension (default {hilbert.default_order(1)} for rank 1, "
                  f"{hilbert.default_order(2)} otherwise)",
    "mc_samples": f"Monte-Carlo samples per statistical row, >= 2 (default "
                  f"{RunConfig.mc_samples}); the 3-sigma gates and "
                  "summary.statistical.false_alarm_prob assume a normal z, which few "
                  "samples do not give: at 2, most A1 and A2 'verify --suite all' runs "
                  "fail a statistical row (14 and 12 of seeds 1-20)",
}


def _add_common(p: argparse.ArgumentParser) -> None:
    """One option per RunConfig field, with the field's default, then --out."""
    for f in fields(RunConfig):
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, default=f.default,
                       type=type(f.default), help=_OPTION_HELP.get(f.name),
                       choices=("json", "csv") if f.name == "format" else None)
    p.add_argument("--out", default=None, help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liecheck",
        description="Numerical verification of harmonic-analysis identities on compact groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", default="all", choices=SUITE_NAMES + ("all",))
    _add_common(p_verify)
    p_const = sub.add_parser("constants", help="emit the norm-constants table")
    _add_common(p_const)
    p_tr = sub.add_parser("transform", help="apply a dictionary operator to a series file")
    p_tr.add_argument("--which", required=True, choices=sorted(_TRANSFORM_CLI))
    p_tr.add_argument("--in", dest="infile", required=True)
    p_tr.add_argument("--out", dest="outfile", required=True)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
    err = cfg.validate()
    if err:
        raise UsageError(err)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            cfg = _config_from_args(args)
            report = run_verification_suite(cfg, args.suite)
            if cfg.format == "json":
                _write_out(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n",
                           args.out)
            else:
                _write_out(_report_to_csv(report), args.out)
            return 0 if report["summary"]["failed"] == 0 else 1
        if args.command == "constants":
            cfg = _config_from_args(args)
            rows = emit_constants_table(cfg)
            text = _constants_to_json(rows) if cfg.format == "json" else _constants_to_csv(rows)
            _write_out(text, args.out)
            return 0
        if args.command == "transform":
            try:
                series = fourier.load_series(args.infile)
                out = hilbert.transform_apply(series, _TRANSFORM_CLI[args.which])
                fourier.save_series(args.outfile, out)
            except (OSError, ValueError, KeyError, ArithmeticError) as exc:
                raise UsageError(str(exc)) from exc
            return 0
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
