"""Calibration audit of the Monte-Carlo rows over a fixed range of seeds.

`verify --suite all` is run for A1 and A2 at each seed of the range, at
the CLI defaults otherwise.  For each statistical check id, and in total,
the audit prints:

- n: the number of rows;
- mean z^2, which is 1 where the standard errors are honest;
- the counts beyond 2 and 3 sigma, each against its binomial expectation
  n P(|Z| > k) and that binomial's standard deviation;
- the Kolmogorov-Smirnov distance of the |z| sample from the half-normal
  law of |Z|, whose CDF is erf(z / sqrt 2).  It is not gated.  A row whose
  sides are complex reports |z| of a 2-D error (checks.stat_row), whose law
  is not half-normal even where the standard errors are honest.

It then lists every row beyond 3 sigma with its seed.

    PYTHONPATH=src python tools/calibration.py --seeds 1-120

The exit code gates no count, since a statistical gate would fail honest
code now and then: it is 0 unless a suite ends in an error row or a
deterministic row fails, which no seed may cause.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import defaultdict

from liecheck.cli import RunConfig, run_verification_suite

GROUPS = ("A1", "A2")
# two-sided normal tails beyond 2 and 3 sigma
P_BEYOND = {2: math.erfc(2.0 / math.sqrt(2.0)), 3: math.erfc(3.0 / math.sqrt(2.0))}


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    first, last = int(lo), int(hi or lo)
    if last < first:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return range(first, last + 1)


def ks_half_normal(zs) -> float:
    """Kolmogorov-Smirnov distance of a sample of |z| from the half-normal
    law, CDF erf(z / sqrt 2): the largest gap between that CDF and the
    sample's empirical CDF, on either side of each jump."""
    cdf = [math.erf(z / math.sqrt(2.0)) for z in sorted(zs)]
    n = len(cdf)
    return max(max((i + 1) / n - f, f - i / n) for i, f in enumerate(cdf))


def audit(seeds: range, out=sys.stdout) -> int:
    """Run the audit over the seeds; the number of rows that must not fail."""
    z_by_id: dict[str, list[tuple[int, float]]] = defaultdict(list)
    bad = 0
    for seed in seeds:
        for group in GROUPS:
            for c in run_verification_suite(RunConfig(group=group, seed=seed), "all")["checks"]:
                if c["kind"] == "statistical":
                    z_by_id[c["check_id"]].append((seed, c["sigma_distance"]))
                elif not c["pass"] and c["kind"] != "skip":
                    print(f"seed {seed} {group}: {c['kind']} row {c['check_id']} failed: "
                          f"{c['note']}", file=out)
                    bad += 1
    print(f"seeds {seeds.start}-{seeds.stop - 1}, groups {', '.join(GROUPS)}", file=out)
    header = f"{'check id':34} {'n':>5} {'mean z^2':>9} {'>2 sigma (expected)':>22} " \
             f"{'>3 sigma (expected)':>22} {'KS |z|':>8}"
    print(header, file=out)
    everything = [z for zs in z_by_id.values() for z in zs]
    for name, zs in [*sorted(z_by_id.items()), ("total", everything)]:
        n = len(zs)
        cells = [f"{name:34} {n:5d} {sum(z * z for _, z in zs) / n:9.3f}"]
        for k, p in P_BEYOND.items():
            count = sum(1 for _, z in zs if z > k)
            cells.append(f"{count:5d} ({n * p:6.2f} +- {math.sqrt(n * p * (1 - p)):4.2f})")
        cells.append(f"{ks_half_normal([z for _, z in zs]):6.3f}")
        print("   ".join(cells), file=out)
    beyond = sorted((seed, name, z) for name, zs in z_by_id.items() for seed, z in zs if z > 3)
    for seed, name, z in beyond:
        print(f"beyond 3 sigma: seed {seed} {name} z = {z:.2f}", file=out)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-120"),
                        help="inclusive seed range FIRST-LAST (default 1-120)")
    args = parser.parse_args(argv)
    return 1 if audit(args.seeds) else 0


if __name__ == "__main__":
    sys.exit(main())
