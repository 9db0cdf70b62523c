"""Calibration audit of the Monte-Carlo rows over a fixed range of seeds.

`verify --suite all` is run for A1 and A2 at each seed of the range, at
the CLI defaults otherwise.  For each statistical check id, and in total,
the audit prints:

- n: the number of rows;
- mean z^2, which is 1 where the standard errors are honest;
- the counts beyond 2 and 3 sigma, each against its expectation
  sum P(|z| > k) under the row's law and the standard deviation of that
  count;
- the Kolmogorov-Smirnov distance of the |z| sample from the row's law.

Each row has its own reference law, which the `law` column names.  A row
on real values has |z| = |Z| of a normal Z, the half-normal law with CDF
erf(z / sqrt 2).  A row on complex values (COMPLEX_ROWS) gates
|lhs - rhs| against sqrt(var Re + var Im) (checks.stat_row), so where Re
and Im have equal variance |z|^2 ~ Exp(1), with CDF 1 - e^{-z^2}.  The
total takes each row's z under its own law, and its KS distance compares
the values F(|z|) with the uniform law.  Nothing is gated.

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
# the statistical rows whose sides are complex: their |z| is a 2-D error
COMPLEX_ROWS = frozenset({
    "bks/spectral-vs-integral-random",
    "convolution/mc-crosscheck",
    "fourier/coeff-diagonal",
})
SIGMAS = (2, 3)


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    first, last = int(lo), int(hi or lo)
    if last < first:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return range(first, last + 1)


def half_normal_cdf(z: float) -> float:
    """P(|Z| <= z) of a standard normal Z."""
    return math.erf(z / math.sqrt(2.0))


def complex_modulus_cdf(z: float) -> float:
    """P(|W| <= z) of a standard complex normal W, E|W|^2 = 1: |W|^2 ~ Exp(1)."""
    return -math.expm1(-z * z)


def ks_uniform(us) -> float:
    """Kolmogorov-Smirnov distance of a sample on [0, 1] from the uniform
    law: the largest gap between u and the sample's empirical CDF, on
    either side of each jump."""
    us = sorted(us)
    n = len(us)
    return max(max((i + 1) / n - u, u - i / n) for i, u in enumerate(us))


def ks_half_normal(zs) -> float:
    """KS distance of a sample of |z| from the half-normal law."""
    return ks_uniform(map(half_normal_cdf, zs))


def ks_complex_modulus(zs) -> float:
    """KS distance of a sample of |z| from the law of |W|, CDF 1 - e^{-z^2}."""
    return ks_uniform(map(complex_modulus_cdf, zs))


def reference_cdf(check_id: str):
    """The CDF of |z| under honest standard errors for the row check_id."""
    return complex_modulus_cdf if check_id in COMPLEX_ROWS else half_normal_cdf


# the name of each law in the table, and the KS distance from it
LAWS = {half_normal_cdf: ("half-normal", ks_half_normal),
        complex_modulus_cdf: ("1 - e^{-z^2}", ks_complex_modulus)}


def table_line(name: str, zs: list[float], cdfs: list, ks: float, law: str) -> str:
    """One line of the table: the sample |z| of a row, each z with its CDF."""
    n = len(zs)
    cells = [f"{name:34} {n:5d} {sum(z * z for z in zs) / n:9.3f}"]
    for k in SIGMAS:
        tails = [1.0 - cdf(k) for cdf in cdfs]
        mean, sd = sum(tails), math.sqrt(sum(p * (1.0 - p) for p in tails))
        cells.append(f"{sum(1 for z in zs if z > k):5d} ({mean:6.2f} +- {sd:4.2f})")
    return "   ".join(cells + [f"{ks:6.3f}  {law}"])


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
    print("law of |z| under honest standard errors: half-normal, CDF erf(z / sqrt 2), on "
          "real values; 1 - e^{-z^2} on complex values (" + ", ".join(sorted(COMPLEX_ROWS))
          + "); the total takes each row's law", file=out)
    print(f"{'check id':34} {'n':>5} {'mean z^2':>9} {'>2 sigma (expected)':>22} "
          f"{'>3 sigma (expected)':>22} {'KS |z|':>8}  law", file=out)
    all_zs, all_cdfs = [], []
    for name, pairs in sorted(z_by_id.items()):
        zs, cdf = [z for _, z in pairs], reference_cdf(name)
        law, ks = LAWS[cdf]
        print(table_line(name, zs, [cdf] * len(zs), ks(zs), law), file=out)
        all_zs += zs
        all_cdfs += [cdf] * len(zs)
    total_ks = ks_uniform(cdf(z) for cdf, z in zip(all_cdfs, all_zs))
    print(table_line("total", all_zs, all_cdfs, total_ks, "per row"), file=out)
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
