"""Batch runner: verification suites and constants tables.

Every suite emits one row per check with lhs, rhs, the absolute error, and
either a relative error (deterministic checks, gated by --tolerance) or a
sigma distance (Monte-Carlo checks, gated at 3 sigma).  All randomness is
derived from the configured seed, so reports are byte-identical across
runs; checks a group cannot support are reported as skip rows rather than
silently dropped.  The summary's `statistical` block counts the sigma rows
and gives the chance that an honest run fails one of them.  Exit codes: 0
all pass, 1 any check failed, 2 invalid configuration or usage.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import zlib
from dataclasses import dataclass

import numpy as np

from . import chars, fourier, heat, hilbert
from .models import (
    GroupModel,
    HaarSU2,
    MonteCarlo,
    group_model_for,
    haar_mean,
    haar_nodes,
    haar_sample,
    su2_character,
)
from .quadrature import (
    GaussHermite,
    build_chamber_quadrature,
    calibrate_flag_volume,
    cartesian_oracle_integrate,
    gaussian_linear_moment,
    integrate_invariant,
)
from .rootdata import RootSystem, build_root_system, dimension, enumerate_dominant, weight

SUITE_NAMES = (
    "lemma33",
    "lemma64",
    "kirillov",
    "eta",
    "weylint",
    "fourier",
    "convolution",
    "plancherel",
    "bks",
    "heat",
    "unitarity",
)
# suites that need pointwise SU(2) irreducible matrices end to end
_IRREP_ONLY = {"fourier", "convolution", "bks", "heat"}

# points per axis of the deterministic second routes; each row's note
# carries the relative change from half the order
_HURWITZ_ORDER = 20  # SU(3) Haar product rule of chars.HurwitzSU3, 20^4 nodes
_HERMITE_ORDER = 24  # tensor Gauss-Hermite rule over su(2), 24^3 nodes
# the one case per suite that keeps its Monte-Carlo route as a cross-check
_KIRILLOV_MC_CASE = 3  # A2 lam = (1, 1), double angle
_WEYLINT_MC_CASE = 5   # A1 eta^1 * char(2Y) at lam = (1,), t_g = 0.35 t
# the finest heat-kernel cutoff of the heat suite (heat/kernel-truncation);
# a t that needs more than heat's term cap at it makes the suite unavailable
_HEAT_FINE_CUTOFF = 1e-13

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
    quad_order: int = 0  # 0: resolve per group (64 for rank 1, 96 otherwise)
    mc_samples: int = 100_000
    seed: int = 42
    tolerance: float = 1e-8
    format: str = "json"

    def validate(self) -> str | None:
        if self.group not in ("A1", "A2") and not (
            self.group.startswith("T") and self.group[1:].isdigit() and int(self.group[1:]) >= 1
        ):
            return f"unknown group {self.group!r} (expected A1, A2, or T<n>)"
        if self.group.startswith("T") and int(self.group[1:]) > 2:
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
        return self.quad_order if self.quad_order else (64 if rank == 1 else 96)


@dataclass
class CheckRow:
    check_id: str
    kind: str  # deterministic | statistical | skip
    lhs: float = 0.0
    rhs: float = 0.0
    abs_err: float = 0.0
    rel_err: float | None = None
    sigma_distance: float | None = None
    passed: bool = True
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "kind": self.kind,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "sigma_distance": self.sigma_distance,
            "pass": self.passed,
            "note": self.note,
        }


def _det_row(check_id: str, lhs: float, rhs: float, tol: float, note: str = "") -> CheckRow:
    lhs, rhs = float(lhs), float(rhs)
    abs_err = abs(lhs - rhs)
    rel = abs_err / abs(rhs) if rhs != 0.0 else abs_err
    return CheckRow(check_id, "deterministic", lhs, rhs, abs_err, rel, None, rel <= tol, note)


def _stat_row(check_id: str, lhs, rhs, stderr: float, note: str = "") -> CheckRow:
    """A 3-sigma row on |lhs - rhs|; complex sides are reported by modulus
    but gated on their complex distance, so a phase error fails."""
    abs_err = abs(complex(lhs) - complex(rhs))
    lhs, rhs = (float(abs(v) if isinstance(v, complex) else v) for v in (lhs, rhs))
    # exactness floor: zero-variance estimators (constant integrands) are
    # correct to machine precision, not to their vanishing standard error
    floor = 1e-12 * max(1.0, abs(lhs), abs(rhs))
    sigma = abs_err / max(stderr, floor)
    return CheckRow(check_id, "statistical", lhs, rhs, abs_err, None, sigma, sigma <= 3.0, note)


def _doubling_note(fine, coarse, order: int, *, residual: bool = False) -> str:
    """Largest change from the rule at half the order; fine and coarse may be arrays.

    Relative to the largest |fine|.  Absolute where fine is 0, and for a
    residual, whose target is 0 and whose size is rounding.
    """
    delta = float(np.max(np.abs(np.subtract(fine, coarse))))
    scale = float(np.max(np.abs(fine)))
    if residual or scale == 0.0:
        return f"order {order} vs {order // 2}: abs delta {delta:.1e}"
    return f"order {order} vs {order // 2}: rel delta {delta / scale:.1e}"


def _haar_su2_note(exact, doubled, degree: int, *, residual: bool = False) -> str:
    """Note of a row by the HaarSU2 rule: the row's value comes from the
    rule of the integrand's degree, and the rule of twice that degree
    gives the delta."""
    nodes = HaarSU2(degree).samples
    return (f"SU(2) Haar rule exact to degree {degree} ({nodes} nodes); "
            f"{_doubling_note(doubled, exact, 2 * degree, residual=residual)}")


def _skip_row(check_id: str, note: str) -> CheckRow:
    return CheckRow(check_id, "skip", note=note)


def _seed_for(cfg: RunConfig, check_id: str) -> int:
    return (cfg.seed * 1_000_003 + zlib.crc32(check_id.encode())) % (2**63)


def _rng_for(cfg: RunConfig, check_id: str) -> np.random.Generator:
    return np.random.default_rng(_seed_for(cfg, check_id))


def _random_cartan(rs: RootSystem, rng, n: int, scale: float = 0.8) -> np.ndarray:
    return rng.normal(0.0, scale, size=(n, rs.rank))


# ---------------------------------------------------------------------------
# suites


def _suite_eta(cfg: RunConfig, rs: RootSystem, model: GroupModel | None) -> list[CheckRow]:
    rows = []
    rng = _rng_for(cfg, "eta/points")
    pts = _random_cartan(rs, rng, 100)
    if model is not None:
        from .models import algebra_element, chamber_coordinates

        coords = rng.normal(0.0, 0.8, size=(100, model.dim_k))
        reps = chamber_coordinates(model, coords)
        worst = 0.0
        for c, rep in zip(coords, reps):
            prod = float(chars.eta(rs, rep))
            det = chars.eta_det_oracle(model, algebra_element(model, c))
            worst = max(worst, abs(prod - det))
        rows.append(_det_row("eta/det-oracle", worst, 0.0, max(cfg.tolerance, 1e-10),
                             "max |product form - determinant oracle| over 100 random points"))
    else:
        vals = chars.eta(rs, pts)
        rows.append(_det_row("eta/torus-trivial", float(np.abs(vals - 1.0).max()), 0.0,
                             cfg.tolerance, "eta is identically 1 on a torus"))
    worst_j = max(chars.j_half_identity_residual(rs, p) for p in pts)
    rows.append(_det_row("eta/j-half-identity", worst_j, 0.0, max(cfg.tolerance, 1e-13),
                         "max |j(iY) - eta(Y/2)| over 100 random Cartan points"))
    vals = np.asarray(chars.eta(rs, pts))
    sym = float(np.abs(vals - np.asarray(chars.eta(rs, -pts))).max())
    weyl_dev = 0.0
    for w in rs.weyl_elements:
        weyl_dev = max(weyl_dev, float(np.abs(np.asarray(chars.eta(rs, pts @ w.T)) - vals).max()))
    rows.append(_det_row("eta/evenness", sym, 0.0, cfg.tolerance))
    rows.append(_det_row("eta/weyl-invariance", weyl_dev, 0.0, max(cfg.tolerance, 1e-12)))
    rows.append(CheckRow("eta/positivity", "deterministic", float(vals.min()), 0.0,
                         0.0, None, None, bool(vals.min() > 0.0), "eta > 0 everywhere"))
    return rows


def _invariant_test_functions(rs: RootSystem, cfg: RunConfig):
    """20 Ad-invariant integrands: Gaussians times eta powers times characters.

    Cases are capped by the exponential tilt |mu_eff|^2 * t_gauss so the
    importance-sampled Cartesian oracle keeps a trustworthy variance
    estimate; mu_eff = 2(lam+rho) + 2p*rho covers the growth of the
    character and of eta^p.
    """
    lams = enumerate_dominant(rs, 1 if rs.rank > 1 else 3)
    cases = []
    for narrow in (0.35, 0.5, 0.75):
        for p in (0, 1, 2):
            for lam in lams:
                tg = cfg.t * narrow
                mu_eff = float(np.linalg.norm(2.0 * (lam.coords + rs.rho) + 2.0 * p * rs.rho))
                if mu_eff**2 * tg <= 28.0:
                    cases.append((tg, p, lam, mu_eff))
    return cases[:20]


def _suite_weylint(cfg: RunConfig, rs: RootSystem, model: GroupModel | None) -> list[CheckRow]:
    rows = []
    order = cfg.resolved_order(rs.rank)
    closed = gaussian_linear_moment(rs, np.zeros(rs.rank), cfg.t)

    # |Y|^2 by einsum: the same bits as np.sum(Y**2, -1) at rank <= 2,
    # without numpy's slow reduction over a length-1 or -2 axis
    def gauss(Y):
        return np.exp(-np.einsum("...i,...i->...", Y, Y) / cfg.t)

    q1 = build_chamber_quadrature(rs, cfg.t, order)
    v1 = integrate_invariant(q1, gauss)
    rows.append(_det_row("weylint/gaussian-closed-form", v1, closed, cfg.tolerance))
    q2 = build_chamber_quadrature(rs, cfg.t, 2 * order)
    rows.append(_det_row("weylint/order-doubling", integrate_invariant(q2, gauss), v1,
                         cfg.tolerance, "spectral convergence of the chamber rule"))
    if rs.kind == "A1":
        rows.append(_det_row("weylint/flag-volume-closed-form", rs.flag_volume,
                             float(2.0 ** 1.5 * np.pi), max(cfg.tolerance, 1e-3)))
    if model is None:
        rows.append(_skip_row("weylint/chamber-vs-cartesian",
                              "no Cartesian oracle without a matrix model (torus)"))
        return rows
    v_cal = calibrate_flag_volume(rs, model, samples=cfg.mc_samples,
                                  seed=_seed_for(cfg, "weylint/flag-volume"))
    rows.append(_det_row("weylint/flag-volume-calibration", v_cal, rs.flag_volume,
                         max(cfg.tolerance, 1e-6), "Monte-Carlo guarded, closed-form refined"))

    from .models import chamber_coordinates

    for i, (tg, p, lam, mu_eff) in enumerate(_invariant_test_functions(rs, cfg)):
        q = build_chamber_quadrature(rs, tg, order, mu_eff)

        def f_chamber(Y, tg=tg, p=p, lam=lam):
            return (chars.eta(rs, Y) ** p
                    * chars.weyl_char_holo(rs, lam, 2.0 * Y)
                    * np.exp(-np.einsum("...i,...i->...", Y, Y) / tg))

        # the integrand over the algebra without its Gaussian factor
        def f_algebra(c, p=p, lam=lam):
            rep = chamber_coordinates(model, c)
            return chars.eta(rs, rep) ** p * chars.weyl_char_holo(rs, lam, 2.0 * rep)

        val = integrate_invariant(q, f_chamber)
        note = f"eta^{p} * char(2Y) * gaussian(t={tg:g}), lam={lam.dynkin}"
        if rs.kind == "A1":
            fine, coarse = (
                cartesian_oracle_integrate(model, f_algebra, tg, GaussHermite(n)).value
                for n in (_HERMITE_ORDER, _HERMITE_ORDER // 2)
            )
            rows.append(_det_row(f"weylint/chamber-vs-hermite-{i:02d}", fine, val,
                                 max(cfg.tolerance, 1e-12),
                                 f"{note}; {_doubling_note(fine, coarse, _HERMITE_ORDER)}"))
            if i != _WEYLINT_MC_CASE:
                continue
            cid = "weylint/mc-crosscheck-a1"
            note = f"{note}; Monte-Carlo route of chamber-vs-hermite-{i:02d}"
        else:
            cid = f"weylint/chamber-vs-cartesian-{i:02d}"

        # sample at double the Gaussian width and fold the remainder into f:
        # the reweighted integrand keeps Gaussian decay, so its variance
        # estimator (and hence the 3-sigma gate) stays trustworthy
        ts = 2.0 * tg

        def f_cart(c, tg=tg, ts=ts, f_algebra=f_algebra):
            return f_algebra(c) * np.exp(-np.sum(c**2, axis=-1) * (1.0 / tg - 1.0 / ts))

        est = cartesian_oracle_integrate(
            model, f_cart, ts, MonteCarlo(cfg.mc_samples, _seed_for(cfg, cid))
        )
        rows.append(_stat_row(cid, est.value, val, est.stderr, note))
    return rows


def _suite_kirillov(cfg: RunConfig, rs: RootSystem, model: GroupModel | None) -> list[CheckRow]:
    rows = []
    rng = _rng_for(cfg, "kirillov/points")
    if rs.is_torus:
        worst = 0.0
        for lam in enumerate_dominant(rs, cfg.max_level):
            for Y in _random_cartan(rs, rng, 5):
                lhs = float(chars.eta(rs, Y)) * float(chars.weyl_char_holo(rs, lam, 2.0 * Y))
                rhs = float(np.exp(-2.0 * (lam.coords + rs.rho) @ Y))
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        rows.append(_det_row("kirillov/torus-exact", worst, 0.0, cfg.tolerance,
                             "adjoint action is trivial; orbital average is exact"))
        return rows
    if rs.kind == "A1":
        worst = {False: 0.0, True: 0.0}
        lams = enumerate_dominant(rs, 6)
        for k in range(100):
            lam = lams[k % len(lams)]
            Y = rng.normal(0.0, 0.7, size=1)
            for half in (False, True):
                lhs, rhs = chars.kirillov_sides(model, lam, Y, chars.ClosedFormA1(), half_angle=half)
                # scaled by the exact side d * A(mu, Y)
                worst[half] = max(worst[half], abs(lhs - rhs.value) / max(1.0, rhs.value))
        rows.append(_det_row("kirillov/closed-form-a1", worst[False], 0.0,
                             max(cfg.tolerance, 1e-12),
                             "max scaled residual over 100 random (lam, Y)"))
        rows.append(_det_row("kirillov/half-angle-a1", worst[True], 0.0,
                             max(cfg.tolerance, 1e-12)))
        cid = "kirillov/mc-crosscheck-a1"
        lam = weight(rs, (2,))
        Y = np.array([np.sqrt(2.0) * 0.45])  # <alpha, Y> = 2 * 0.45
        lhs, est = chars.kirillov_sides(model, lam, Y, MonteCarlo(cfg.mc_samples, _seed_for(cfg, cid)))
        rows.append(_stat_row(cid, lhs, est.value, est.stderr, f"lam={lam.dynkin}"))
        return rows
    # A2: orbital averages by the SU(3) Haar product rule, signed sides
    lams = [weight(rs, d) for d in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 2))]
    ys = [rng.normal(0.0, 0.5, size=2) for _ in lams]
    # the Monte-Carlo cross-check goes first: its samples are freed before
    # the rule's nodes are built, so the two never share the peak memory
    cid = "kirillov/mc-crosscheck-a2"
    lam, Y = lams[_KIRILLOV_MC_CASE], ys[_KIRILLOV_MC_CASE]
    lhs, est = chars.kirillov_sides(model, lam, Y, MonteCarlo(cfg.mc_samples, _seed_for(cfg, cid)))
    rows.append(_stat_row(cid, lhs, est.value, est.stderr,
                          f"lam={lam.dynkin}; Monte-Carlo route of "
                          f"hurwitz-a2-double-{_KIRILLOV_MC_CASE}"))
    for i, (lam, Y) in enumerate(zip(lams, ys)):
        for tag, half in (("double", False), ("half", True)):
            lhs, fine = chars.kirillov_sides(model, lam, Y, chars.HurwitzSU3(_HURWITZ_ORDER), half)
            _, coarse = chars.kirillov_sides(model, lam, Y, chars.HurwitzSU3(_HURWITZ_ORDER // 2),
                                             half)
            rows.append(_det_row(
                f"kirillov/hurwitz-a2-{tag}-{i}", lhs, fine.value, max(cfg.tolerance, 1e-12),
                f"lam={lam.dynkin}; {_doubling_note(fine.value, coarse.value, _HURWITZ_ORDER)}",
            ))
    return rows


def _suite_lemma33(cfg: RunConfig, rs: RootSystem, model) -> list[CheckRow]:
    order = cfg.resolved_order(rs.rank)
    rows = []
    for lam in enumerate_dominant(rs, cfg.max_level):
        chk = hilbert.verify_norm_identity(rs, lam, cfg.t, "C", order)
        rows.append(_det_row(f"lemma33/C-{'-'.join(map(str, lam.dynkin))}",
                             chk.quadrature, chk.closed_form, cfg.tolerance))
    return rows


def _suite_lemma64(cfg: RunConfig, rs: RootSystem, model: GroupModel | None) -> list[CheckRow]:
    order = cfg.resolved_order(rs.rank)
    rows = []
    for lam in enumerate_dominant(rs, cfg.max_level):
        chk = hilbert.verify_norm_identity(rs, lam, cfg.t, "D", order)
        rows.append(_det_row(f"lemma64/D-{'-'.join(map(str, lam.dynkin))}",
                             chk.quadrature, chk.closed_form, cfg.tolerance))
    if rs.kind != "A1":
        rows.append(_skip_row("lemma64/pointwise-transform",
                              "pointwise transform oracle needs SU2 irreducible matrices"))
        return rows
    rng = _rng_for(cfg, "lemma64/pointwise-transform")
    xs = haar_sample(model, rng, 20)
    worst = 0.0
    for n in (0, 1, 2):
        lam = weight(rs, (n,))
        phi = fourier.character_series("A1", (n,), "HL2", cfg.t)
        f_vals = hilbert.bks_integral_transform(phi, model, xs)
        target = hilbert.d_constant(rs, lam, cfg.t) * fourier.synthesize_many(
            fourier.character_series("A1", (n,), "L2K", cfg.t), model, xs
        )
        scale = hilbert.d_constant(rs, lam, cfg.t) * dimension(rs, lam)
        worst = max(worst, float(np.abs(f_vals - target).max() / scale))
    rows.append(_det_row("lemma64/pointwise-transform", worst, 0.0, max(cfg.tolerance, 1e-6),
                         "max scaled deviation of the integral transform from D * character"))
    return rows


def _random_series(rs_kind: str, space: str, t: float, dynkins, rng) -> fourier.FourierSeries:
    rs = build_root_system(rs_kind)
    terms = {}
    for dn in dynkins:
        d = dimension(rs, weight(rs, dn))
        terms[tuple(dn)] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return fourier.FourierSeries(rs_kind, space, t, terms)


def _top_band(series: fourier.FourierSeries) -> int:
    """Largest Dynkin label of an SU(2) series: its polynomial degree."""
    return max(dn[0] for dn in series.terms)


def _suite_fourier(cfg: RunConfig, rs: RootSystem, model: GroupModel) -> list[CheckRow]:
    rows = []
    tol = max(cfg.tolerance, 1e-12)
    # coefficient of the character: diagonal Id/d, off-diagonal zero
    cid = "fourier/coeff-diagonal"
    coeff, sem = fourier.fourier_coeff(model, lambda xs: su2_character(1, xs).astype(complex),
                                       (1,), MonteCarlo(cfg.mc_samples, _seed_for(cfg, cid)))
    diff = np.abs(coeff - np.eye(2) / 2.0)
    rows.append(_stat_row(cid, float(diff.max()), 0.0, float(sem.max()),
                          "coefficient of its own character is Id/d"))
    cid = "fourier/coeff-cross"
    n_char, n_coeff = 2, 1
    degree = n_char + n_coeff
    exact, doubled = (
        fourier.fourier_coeff(model, lambda xs: su2_character(n_char, xs).astype(complex),
                              (n_coeff,), HaarSU2(d))[0]
        for d in (degree, 2 * degree)
    )
    rows.append(_det_row(cid, float(np.abs(exact).max()), 0.0, tol,
                         "cross coefficients vanish by orthogonality; "
                         + _haar_su2_note(exact, doubled, degree, residual=True)))
    # round trip on a random band-limited function
    cid = "fourier/roundtrip"
    rng = _rng_for(cfg, cid)
    target = _random_series("A1", "L2K", cfg.t, [(0,), (1,), (2,)], rng)
    degree = 2 * _top_band(target)

    def recovered(d):
        return [fourier.fourier_coeff(
            model, lambda xs: fourier.synthesize_many(target, model, xs), dn, HaarSU2(d))[0]
            for dn in target.terms]

    exact, doubled = recovered(degree), recovered(2 * degree)
    worst = max(float(np.abs(est - want).max() / np.abs(want).max())
                for est, want in zip(exact, target.terms.values()))
    rows.append(_det_row(cid, worst, 0.0, tol,
                         "max relative deviation of recovered coefficients; "
                         + _haar_su2_note(np.concatenate([c.ravel() for c in exact]),
                                          np.concatenate([c.ravel() for c in doubled]), degree)))
    cid = "fourier/json-roundtrip"
    clone = fourier.series_from_json(fourier.series_to_json(target))
    dev = max(float(np.abs(clone.terms[k] - target.terms[k]).max()) for k in target.terms)
    rows.append(_det_row(cid, dev, 0.0, 1e-15, "serialization is lossless"))
    return rows


def _suite_convolution(cfg: RunConfig, rs: RootSystem, model: GroupModel) -> list[CheckRow]:
    rows = []
    t = cfg.t
    # coefficient identity for characters: chi * chi has coefficient Id/d^2
    conv = fourier.convolve(fourier.character_series("A1", (2,), "L2K", t),
                            fourier.character_series("A1", (2,), "L2K", t))
    dev = float(np.abs(conv.terms[(2,)] - np.eye(3) / 9.0).max())
    rows.append(_det_row("convolution/character-idempotent", dev, 0.0, 1e-14,
                         "chi * chi = chi / d at coefficient level"))
    # the convolution integral, directly, at random points q
    cid = "convolution/integral-oracle"
    rng = _rng_for(cfg, cid)
    a = _random_series("A1", "L2K", t, [(0,), (1,)], rng)
    b = _random_series("A1", "L2K", t, [(1,), (2,)], rng)
    ab = fourier.convolve(a, b)
    # the Monte-Carlo samples come from the same stream before the points q
    xs = haar_sample(model, rng, cfg.mc_samples)
    qs = haar_sample(model, rng, 5)
    direct = fourier.synthesize_many(ab, model, qs)

    def integral(nodes, weights, q):
        def integrand(x):
            return (fourier.synthesize_many(a, model, x)
                    * fourier.synthesize_many(b, model, np.conj(np.swapaxes(x, 1, 2)) @ q))

        return haar_mean(integrand, nodes, weights)

    degree = _top_band(a) + _top_band(b)
    exact, doubled = (
        np.array([integral(*haar_nodes(model, HaarSU2(d)), q)[0] for q in qs])
        for d in (degree, 2 * degree)
    )
    rows.append(_det_row(cid, float(np.max(np.abs(exact - direct) / np.abs(direct))), 0.0,
                         max(cfg.tolerance, 1e-12),
                         "termwise coefficient product vs direct integral, max relative "
                         "residual over 5 points; " + _haar_su2_note(exact, doubled, degree)))
    cid = "convolution/mc-crosscheck"
    mc, sem = integral(xs, None, qs[0])
    rows.append(_stat_row(cid, complex(mc), complex(direct[0]), float(sem),
                          "Monte-Carlo route of integral-oracle at its first point"))
    # symmetric pairing at the identity
    cid = "convolution/pairing-at-identity"
    val = complex(fourier.synthesize(fourier.convolve(a, b), model, np.eye(2)))
    spec = 0.0 + 0.0j
    for dn in a.terms:
        if dn in b.terms:
            d = dimension(rs, weight(rs, dn))
            spec += d * np.trace(b.terms[dn] @ a.terms[dn])
    rows.append(_det_row(cid, abs(val), abs(complex(spec)), max(cfg.tolerance, 1e-10),
                         "(f*h)(e) equals sum_lam d tr(h_hat f_hat)"))
    return rows


def _suite_plancherel(cfg: RunConfig, rs: RootSystem, model: GroupModel | None) -> list[CheckRow]:
    rows = []
    order = cfg.resolved_order(rs.rank)
    for lam in enumerate_dominant(rs, min(cfg.max_level, 2)):
        tag = "-".join(map(str, lam.dynkin))
        series = fourier.character_series(rs.kind, lam.dynkin, "HL2", cfg.t)
        quad = hilbert.verify_norm_identity(rs, lam, cfg.t, "C", order).quadrature
        rows.append(_det_row(f"plancherel/hl2-char-norm-{tag}", fourier.plancherel_norm(series),
                             quad, max(cfg.tolerance, 1e-6),
                             "series norm equals the quadrature of |char|^2 against the measure"))
    if rs.kind != "A1":
        rows.append(_skip_row("plancherel/l2k-montecarlo",
                              "pointwise synthesis needs SU2 irreducible matrices"))
        return rows
    cid = "plancherel/l2k-chi-norm"
    xs, _ = haar_nodes(model, MonteCarlo(cfg.mc_samples, _seed_for(cfg, cid)))
    mean, sem = haar_mean(lambda x: np.abs(su2_character(1, x)) ** 2, xs, None)
    rows.append(_stat_row(cid, float(mean), 1.0, float(sem), "||chi||^2 = 1 by orthogonality"))
    cid = "plancherel/l2k-bandlimited"
    series = _random_series("A1", "L2K", cfg.t, [(0,), (1,), (2,)], _rng_for(cfg, cid))
    degree = 2 * _top_band(series)

    def norm2(d):
        return float(haar_mean(lambda x: np.abs(fourier.synthesize_many(series, model, x)) ** 2,
                               *haar_nodes(model, HaarSU2(d)))[0])

    exact, doubled = norm2(degree), norm2(2 * degree)
    rows.append(_det_row(cid, exact, fourier.plancherel_norm(series), max(cfg.tolerance, 1e-12),
                         _haar_su2_note(exact, doubled, degree)))
    return rows


def _suite_bks(cfg: RunConfig, rs: RootSystem, model: GroupModel) -> list[CheckRow]:
    rows = []
    t = cfg.t
    lam0 = weight(rs, (0,))
    phi = fourier.character_series("A1", (0,), "HL2", t)
    f0 = fourier.character_series("A1", (0,), "L2K", t)
    spec = hilbert.bks_bracket(phi, f0, "spectral")
    rows.append(_det_row("bks/spectral-character", abs(spec.value),
                         hilbert.d_constant(rs, lam0, t), 1e-13,
                         "<char, char> equals the pairing eigenvalue"))
    cross = hilbert.bks_bracket(phi, fourier.character_series("A1", (1,), "L2K", t), "spectral")
    rows.append(_det_row("bks/spectral-orthogonality", abs(cross.value), 0.0, 1e-15))
    for n in (0, 1, 2):
        cid = f"bks/spectral-vs-integral-{n}"
        phi_n = fourier.character_series("A1", (n,), "HL2", t)
        f_n = fourier.character_series("A1", (n,), "L2K", t)
        spec = hilbert.bks_bracket(phi_n, f_n, "spectral")
        integ = hilbert.bks_bracket(
            phi_n, f_n, MonteCarlo(max(2000, cfg.mc_samples // 50), _seed_for(cfg, cid))
        )
        rows.append(_stat_row(cid, integ.value, spec.value, integ.stderr))
    cid = "bks/spectral-vs-integral-random"
    rng = _rng_for(cfg, cid)
    phi_r = _random_series("A1", "HL2", t, [(0,), (1,), (2,)], rng)
    f_r = _random_series("A1", "L2K", t, [(1,), (2,), (3,)], rng)
    spec = hilbert.bks_bracket(phi_r, f_r, "spectral")
    integ = hilbert.bks_bracket(
        phi_r, f_r, MonteCarlo(max(2000, cfg.mc_samples // 50), _seed_for(cfg, cid))
    )
    rows.append(_stat_row(cid, integ.value, spec.value, integ.stderr))
    # sesquilinearity is exact on the spectral route
    z = 0.3 - 1.2j
    lhs = hilbert.bks_bracket(
        fourier.FourierSeries("A1", "HL2", t, {k: z * v for k, v in phi_r.terms.items()}),
        f_r, "spectral").value
    rhs = np.conj(z) * spec.value
    rows.append(_det_row("bks/conjugate-linearity", abs(lhs), abs(rhs), 1e-13))
    return rows


def _suite_heat(cfg: RunConfig, rs: RootSystem, model: GroupModel) -> list[CheckRow]:
    rows = []
    t = cfg.t
    rng = _rng_for(cfg, "heat/series")
    series = _random_series("A1", "L2K", t, [(0,), (1,), (2,)], rng)
    theta_star = hilbert.transform_apply(series, "ThetaStar")
    mult = heat.heat_multiplier_apply(series, t, include_prefactor=True)
    dev = max(
        float(np.abs(theta_star.terms[k] - mult.terms[k]).max()
              / max(np.abs(theta_star.terms[k]).max(), 1e-300))
        for k in series.terms
    )
    rows.append(_det_row("heat/adjoint-multiplier", dev, 0.0, 1e-13,
                         "prefactor heat multiplier equals the adjoint pairing transform"))
    s1 = heat.heat_multiplier_apply(heat.heat_multiplier_apply(series, 0.4), 0.35)
    s2 = heat.heat_multiplier_apply(series, 0.75)
    dev = max(float(np.abs(s1.terms[k] - s2.terms[k]).max()) for k in series.terms)
    rows.append(_det_row("heat/semigroup", dev, 0.0, 1e-13))
    eps = [heat.energy_eigenvalue(rs, lam) for lam in enumerate_dominant(rs, cfg.max_level)]
    ok = eps[0] == 0.0 and all(e > 0 for e in eps[1:]) and min(eps) >= 0.0
    rows.append(CheckRow("heat/energy-positivity", "deterministic", float(min(eps)), 0.0,
                         0.0, None, None, bool(ok),
                         "eigenvalues nonnegative, zero only at the trivial weight"))
    hl2 = _random_series("A1", "HL2", t, [(0,), (1,), (2,)], rng)
    a = heat.heat_multiplier_apply(hilbert.transform_apply(hl2, "H"), t)
    b = hilbert.transform_apply(heat.heat_multiplier_apply(hl2, t), "H")
    dev = max(float(np.abs(a.terms[k] - b.terms[k]).max()) for k in hl2.terms)
    rows.append(_det_row("heat/commutes-with-dictionary", dev, 0.0, 1e-13))
    cid = "heat/kernel-normalization"
    xs, _ = haar_nodes(model, MonteCarlo(cfg.mc_samples // 2, _seed_for(cfg, cid)))
    mean, sem = haar_mean(lambda x: heat.heat_kernel_eval(model, t, x)[0], xs, None)
    rows.append(_stat_row(cid, float(mean), 1.0, float(sem),
                          "Haar integral of the kernel is 1"))
    p_vals, _ = heat.heat_kernel_eval(model, t, xs[:100])
    p_inv, _ = heat.heat_kernel_eval(model, t, np.conj(np.swapaxes(xs[:100], 1, 2)))
    rows.append(_det_row("heat/kernel-symmetry", float(np.abs(p_vals - p_inv).max()),
                         0.0, max(cfg.tolerance, 1e-10)))
    v1, _ = heat.heat_kernel_eval(model, t, np.eye(2), cutoff=1e-12)
    v2, _ = heat.heat_kernel_eval(model, t, np.eye(2), cutoff=_HEAT_FINE_CUTOFF)
    rows.append(_det_row("heat/kernel-truncation", v1, v2, max(cfg.tolerance, 1e-10)))
    cid = "heat/convolution"
    ys = haar_sample(model, _rng_for(cfg, cid), 10)
    # the truncated kernel is a sum of characters chi_n, each of degree n,
    # for n below heat_kernel_eval's term count at its default cutoff
    degree = len(heat._truncation(t, 1e-12)[0]) - 1 + _top_band(series)
    note = "spatial kernel convolution vs diagonal multiplier, max over 10 points"
    if HaarSU2(2 * degree).samples > cfg.mc_samples:
        # small t keeps so many kernel terms that the exact rule would cost
        # more than the Monte-Carlo route
        est = heat.heat_convolution_residual(
            model, series, t, ys, MonteCarlo(cfg.mc_samples, _seed_for(cfg, cid + "/samples")))
        rows.append(_stat_row(cid, est.value, 0.0, est.stderr,
                              f"{note}; Monte Carlo: the rule exact to degree {degree} "
                              f"would need {HaarSU2(2 * degree).samples} nodes"))
    else:
        exact, doubled = (heat.heat_convolution_residual(model, series, t, ys, HaarSU2(d)).value
                          for d in (degree, 2 * degree))
        rows.append(_det_row(cid, exact, 0.0, max(cfg.tolerance, 1e-12),
                             f"{note}; {_haar_su2_note(exact, doubled, degree, residual=True)}"))
    return rows


def _suite_unitarity(cfg: RunConfig, rs: RootSystem, model) -> list[CheckRow]:
    rows = []
    t = cfg.t
    worst = 0.0
    for lam in enumerate_dominant(rs, cfg.max_level):
        root_c = float(np.sqrt(hilbert.c_constant(rs, lam, t)))
        scaled_d = float((4.0 * t * np.pi) ** (-rs.dim_k / 4.0) * hilbert.d_constant(rs, lam, t))
        worst = max(worst, abs(scaled_d - root_c) / root_c)
    rows.append(_det_row("unitarity/ratio-identity", worst, 0.0, max(cfg.tolerance, 1e-12),
                         "(4 t pi)^(-dim/4) D = sqrt(C), relative"))
    rng = _rng_for(cfg, "unitarity/series")
    dynkins = [lam.dynkin for lam in enumerate_dominant(rs, min(cfg.max_level, 2))]
    series = _random_series(rs.kind, "HL2", t, dynkins, rng)
    mapped = hilbert.transform_apply(series, "H")
    rows.append(_det_row("unitarity/norm-preservation", fourier.plancherel_norm(mapped),
                         fourier.plancherel_norm(series), max(cfg.tolerance, 1e-12)))
    back = hilbert.transform_apply(mapped, "ThetaStar")
    scale = float((4.0 * t * np.pi) ** (-rs.dim_k / 4.0))
    dev = max(
        float(np.abs(scale * back.terms[k] - series.terms[k]).max()
              / max(np.abs(series.terms[k]).max(), 1e-300))
        for k in series.terms
    )
    rows.append(_det_row("unitarity/inverse-composition", dev, 0.0, max(cfg.tolerance, 1e-12),
                         "scaled adjoint undoes the dictionary"))
    alt = hilbert.transform_apply(series, "ScaledTheta")
    dev = max(
        float(np.abs(alt.terms[k] - mapped.terms[k]).max()
              / max(np.abs(mapped.terms[k]).max(), 1e-300))
        for k in series.terms
    )
    rows.append(_det_row("unitarity/scaled-pairing-equals-dictionary", dev, 0.0, 1e-13))
    return rows


_SUITE_FUNCS = {
    "eta": _suite_eta,
    "weylint": _suite_weylint,
    "kirillov": _suite_kirillov,
    "lemma33": _suite_lemma33,
    "lemma64": _suite_lemma64,
    "fourier": _suite_fourier,
    "convolution": _suite_convolution,
    "plancherel": _suite_plancherel,
    "bks": _suite_bks,
    "heat": _suite_heat,
    "unitarity": _suite_unitarity,
}


def _suite_available(suite: str, rs: RootSystem, t: float) -> str | None:
    """None when runnable; otherwise the reason it is not."""
    if suite in _IRREP_ONLY and rs.kind != "A1":
        return f"irrep matrices unavailable for {rs.kind}"
    if suite == "heat":
        try:
            heat._truncation(t, _HEAT_FINE_CUTOFF)
        except ValueError as exc:
            return f"heat kernel unavailable at t={t!r}: {exc}"
    return None


def run_verification_suite(config: RunConfig, suite: str) -> dict:
    """Run one suite (or 'all') and assemble the structured report."""
    rs = build_root_system(config.group)
    model = group_model_for(rs.kind)
    names = SUITE_NAMES if suite == "all" else (suite,)
    checks: list[CheckRow] = []
    for name in names:
        reason = _suite_available(name, rs, config.t)
        if reason is not None:
            if suite == "all":
                checks.append(_skip_row(f"{name}/unavailable", reason))
                continue
            raise UsageError(reason)
        checks.extend(_SUITE_FUNCS[name](config, rs, model))
    checks.sort(key=lambda r: r.check_id)
    failed = sum(1 for c in checks if not c.passed)
    skipped = sum(1 for c in checks if c.kind == "skip")
    sigmas = [c.sigma_distance for c in checks if c.kind == "statistical"]
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
        "checks": [c.to_dict() for c in checks],
        "summary": {
            "total": len(checks),
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
    """One constants row per dominant weight up to max_level."""
    rs = build_root_system(config.group)
    order = config.resolved_order(rs.rank)
    return [
        hilbert.constants_row(rs, lam, config.t, order)
        for lam in enumerate_dominant(rs, config.max_level)
    ]


class UsageError(Exception):
    """Invalid configuration or capability mismatch; maps to exit code 2."""


# ---------------------------------------------------------------------------
# formatting


def _report_to_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cols = ("check_id", "kind", "lhs", "rhs", "abs_err", "rel_err", "sigma_distance", "pass", "note")
    writer.writerow(cols)
    for chk in report["checks"]:
        writer.writerow([
            chk["check_id"], chk["kind"], repr(chk["lhs"]), repr(chk["rhs"]),
            repr(chk["abs_err"]),
            "" if chk["rel_err"] is None else repr(chk["rel_err"]),
            "" if chk["sigma_distance"] is None else repr(chk["sigma_distance"]),
            chk["pass"], chk["note"],
        ])
    return buf.getvalue()


def _constants_to_csv(rows: list[hilbert.ConstantsRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(hilbert.ConstantsRow.CSV_COLUMNS)
    for r in rows:
        writer.writerow([
            r.group, repr(r.t), json.dumps(list(r.dynkin)), r.d, repr(r.norm2_shift),
            repr(r.C), repr(r.D), repr(r.C_tilde), repr(r.C_tilde_err), repr(r.ratio_check),
        ])
    return buf.getvalue()


def _constants_to_json(rows: list[hilbert.ConstantsRow]) -> str:
    payload = [
        {
            "group": r.group, "t": r.t, "dynkin": list(r.dynkin), "d": r.d,
            "norm2_shift": r.norm2_shift, "C": r.C, "D": r.D,
            "C_tilde": r.C_tilde, "C_tilde_err": r.C_tilde_err, "ratio_check": r.ratio_check,
        }
        for r in rows
    ]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--group", default="A1", help="A1, A2, or T<n>")
    p.add_argument("--t", type=float, default=1.0, help="measure parameter, > 0")
    p.add_argument("--max-level", type=int, default=4, dest="max_level")
    p.add_argument("--quad-order", type=int, default=0, dest="quad_order",
                   help="points per dimension (default 64 for rank 1, 96 otherwise)")
    p.add_argument("--mc-samples", type=int, default=100_000, dest="mc_samples")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--format", default="json", choices=("json", "csv"))
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
    cfg = RunConfig(
        group=args.group,
        t=args.t,
        max_level=args.max_level,
        quad_order=args.quad_order,
        mc_samples=args.mc_samples,
        seed=args.seed,
        tolerance=args.tolerance,
        format=args.format,
    )
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
                _write_out(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
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
            except (OSError, ValueError, KeyError) as exc:
                raise UsageError(str(exc)) from exc
            fourier.save_series(args.outfile, out)
            return 0
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
