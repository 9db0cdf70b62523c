"""Verification suites, and the checks they share with the acceptance tests.

Every suite emits one row per check with lhs, rhs, the absolute error, and
either a relative error (deterministic checks, gated by the tolerance) or a
sigma distance (Monte-Carlo checks, gated at 3 sigma).  All randomness is
derived from the configured seed and the check id, so reports are
byte-identical across runs; checks a group cannot support are reported as
skip rows rather than silently dropped.

Wherever a suite row and an acceptance criterion compute the same quantity,
the computation is one function here or in the library, with its inputs
(points, an rng, sizes) as arguments: each caller keeps its own seeds,
sample sizes and gates.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from . import chars, fourier, heat, hilbert
from .models import (
    GroupModel,
    HaarSU2,
    MonteCarlo,
    _evaluate_batch_last,
    _evaluate_blocks,
    algebra_element,
    chamber_coordinates,
    haar_draw,
    haar_mean,
    haar_nodes,
    haar_sample,
    mul2x2,
    su2_character,
)
from .quadrature import (
    build_chamber_quadrature,
    cartesian_oracle_integrate,
    flag_volume,
    flag_volume_from_gaussian,
    gaussian_linear_moment,
    integrate_invariant,
    tridiagonal_rule,
)
from .rootdata import RootSystem, build_root_system, dimension, enumerate_dominant, weight

if TYPE_CHECKING:
    from .cli import RunConfig

# suites that need pointwise SU(2) irreducible matrices end to end
_IRREP_ONLY = {"fourier", "convolution", "bks", "heat"}

# points per axis of the deterministic second routes; each row's note
# carries the relative change from half the order
_GELFAND_TSETLIN_ORDER = 20  # chars.GelfandTsetlinSU3, 20^3 nodes
# quadrature.tridiagonal_rule over the algebra, (diagonal, moduli) points
# per axis: 20^2 nodes on su(2), 16^2 x 10^2 on su(3); one unit-width rule
# and its chamber images serve every case
_TRIDIAGONAL_ORDER = {"SU2": (20, 20), "SU3": (16, 10)}
# the one case per suite that keeps its Monte-Carlo route as a cross-check
_KIRILLOV_MC_CASE = 3  # A2 lam = (1, 1), double angle
# eta^1 * char(2Y) at t_g = 0.35 t: lam = (1,) on A1, (0, 1) on A2; the
# last case where the tilt cap keeps fewer
_WEYLINT_MC_CASE = 5
# largest exponential tilt |mu_eff|^2 t_gauss of a weylint test integrand
_TILT_CAP = 28.0
# the finest heat-kernel cutoff of the heat suite (heat/kernel-truncation);
# a t that needs more than heat's term cap at it makes the suite unavailable
_HEAT_FINE_CUTOFF = 1e-13


@dataclass
class CheckRow:
    check_id: str
    kind: str  # deterministic | statistical | skip | error
    lhs: float = 0.0
    rhs: float = 0.0
    abs_err: float = 0.0
    rel_err: float | None = None
    sigma_distance: float | None = None
    passed: bool = True
    note: str = ""

    def to_dict(self) -> dict:
        """The row as reported, in ROW_COLUMNS order."""
        return dict(zip(ROW_COLUMNS, asdict(self).values()))


# report columns: CheckRow's fields, with `passed` written as `pass`
ROW_COLUMNS = tuple("pass" if f.name == "passed" else f.name for f in fields(CheckRow))


def _require_finite(check_id: str, *values) -> None:
    """A row's sides are numbers: inf or NaN raises, and the run reports an error row."""
    if not np.all(np.isfinite(np.asarray(values, complex))):
        raise ArithmeticError(f"{check_id}: non-finite value among {values!r}")


def det_row(check_id: str, lhs: float, rhs: float, tol: float, note: str = "") -> CheckRow:
    lhs, rhs = float(lhs), float(rhs)
    _require_finite(check_id, lhs, rhs)
    abs_err = abs(lhs - rhs)
    rel = abs_err / abs(rhs) if rhs != 0.0 else abs_err
    return CheckRow(check_id, "deterministic", lhs, rhs, abs_err, rel, None, rel <= tol, note)


def stat_row(check_id: str, lhs, rhs, stderr: float, note: str = "") -> CheckRow:
    """A 3-sigma row on |lhs - rhs|; complex sides are reported by modulus
    but gated on their complex distance, so a phase error fails."""
    _require_finite(check_id, lhs, rhs, stderr)
    abs_err = abs(complex(lhs) - complex(rhs))
    lhs, rhs = (float(abs(v) if isinstance(v, complex) else v) for v in (lhs, rhs))
    # exactness floor: zero-variance estimators (constant integrands) are
    # correct to machine precision, not to their vanishing standard error
    floor = 1e-12 * max(1.0, abs(lhs), abs(rhs))
    sigma = abs_err / max(stderr, floor)
    return CheckRow(check_id, "statistical", lhs, rhs, abs_err, None, sigma, sigma <= 3.0, note)


def doubling_note(fine, coarse, order: int | str, *, residual: bool = False) -> str:
    """Largest change from the rule at half the order; fine and coarse may be arrays.

    order is the fine rule's order, or a text naming both rules.  Relative
    to the largest |fine|.  Absolute where fine is 0, and for a residual,
    whose target is 0 and whose size is rounding.
    """
    rules = order if isinstance(order, str) else f"order {order} vs {order // 2}"
    delta = float(np.max(np.abs(np.subtract(fine, coarse))))
    scale = float(np.max(np.abs(fine)))
    if residual or scale == 0.0:
        return f"{rules}: abs delta {delta:.1e}"
    return f"{rules}: rel delta {delta / scale:.1e}"


def haar_su2_note(exact, doubled, degree: int, *, residual: bool = False) -> str:
    """Note of a row by the HaarSU2 rule: the row's value comes from the
    rule of the integrand's degree, and the rule of twice that degree
    gives the delta."""
    nodes = HaarSU2(degree).samples
    return (f"SU(2) Haar rule exact to degree {degree} ({nodes} nodes); "
            f"{doubling_note(doubled, exact, 2 * degree, residual=residual)}")


def skip_row(check_id: str, note: str) -> CheckRow:
    return CheckRow(check_id, "skip", note=note)


def error_row(check_id: str, note: str) -> CheckRow:
    """A failed row for a suite, or one weight of it, that raised instead of
    returning its rows."""
    return CheckRow(check_id, "error", passed=False, note=note)


def _seed_for(cfg: RunConfig, check_id: str) -> int:
    return (cfg.seed * 1_000_003 + zlib.crc32(check_id.encode())) % (2**63)


def _rng_for(cfg: RunConfig, check_id: str) -> np.random.Generator:
    return np.random.default_rng(_seed_for(cfg, check_id))


# ---------------------------------------------------------------------------
# checks shared by the suites and the acceptance criteria


def worst(values) -> float:
    """The largest of the values, NaN if any is NaN.

    Every worst-case reduction of a check goes through here: Python's max
    keeps its running value when the next is NaN, so a NaN residual would
    vanish from the row.
    """
    return float(np.max(np.fromiter(values, float)))


def closed_form_a1_residuals(rs: RootSystem, model: GroupModel, rng, draws: int):
    """Worst scaled residuals of the A1 orbit-method identity, (double, half) angle.

    Each of the draws takes the next weight up to level 6 in turn and
    Y ~ N(0, 0.7^2) from rng; the residual |eta chi - d A| is scaled by
    max(1, d A), d A the closed-form sphere-average side.  The draws come
    in one call, the stream of one draw at a time, and each weight's
    points are evaluated as one batch.
    """
    residuals = {False: [], True: []}
    lams = enumerate_dominant(rs, 6)
    ys = rng.normal(0.0, 0.7, size=(draws, 1))
    for j, lam in enumerate(lams[:draws]):
        for half in (False, True):
            lhs, rhs = chars.kirillov_sides(model, lam, ys[j::len(lams)], chars.ClosedFormA1(),
                                            half_angle=half)
            residuals[half].append(np.abs(lhs - rhs.value) / np.maximum(1.0, rhs.value))
    return tuple(worst(np.concatenate(residuals[half])) for half in (False, True))


def eta_det_residual(rs: RootSystem, model: GroupModel, coords) -> float:
    """max |eta by the product form - eta by the determinant oracle| over
    the algebra points with orthonormal coordinates coords (n, dim_k)."""
    product = chars.eta(rs, chamber_coordinates(model, coords))
    return worst(np.abs(product - chars.eta_det_oracle(model, algebra_element(model, coords))))


def j_half_residual(rs: RootSystem, points) -> float:
    """max |j(iY) - eta(Y/2)| over the Cartan points (n, rank)."""
    return worst(chars.j_half_identity_residual(rs, points))


def invariant_test_functions(rs: RootSystem, t: float):
    """20 Ad-invariant integrands: Gaussians times eta powers times characters.

    Each case is (t_gauss, p, lam, mu_eff) for eta^p * char(2Y) *
    e^{-|Y|^2/t_gauss}.  Cases are capped by the exponential tilt
    |mu_eff|^2 * t_gauss so the importance-sampled Cartesian oracle keeps a
    trustworthy variance estimate; mu_eff = 2(lam+rho) + 2p*rho covers the
    growth of the character and of eta^p.
    """
    lams = enumerate_dominant(rs, 1 if rs.rank > 1 else 3)
    cases = []
    for narrow in (0.35, 0.5, 0.75):
        for p in (0, 1, 2):
            for lam in lams:
                tg = t * narrow
                mu_eff = float(np.linalg.norm(2.0 * (lam.coords + rs.rho) + 2.0 * p * rs.rho))
                if mu_eff**2 * tg <= _TILT_CAP:
                    cases.append((tg, p, lam, mu_eff))
    return cases[:20]


def chamber_integral(rs: RootSystem, case, order: int) -> float:
    """One invariant_test_functions case by the chamber rule of the given order."""
    tg, p, lam, mu_eff = case
    return hilbert._character_integral(rs, lam, 2.0, tg, order, p, mu_eff)


def tridiagonal_integrals(rs: RootSystem, model: GroupModel, cases, order: int,
                          moduli_order: int | None = None) -> list[float]:
    """invariant_test_functions cases by the tridiagonal rule of the given
    orders (quadrature.tridiagonal_rule).

    One unit-width rule and its chamber images serve every case: a width
    t_g scales the images by sqrt(t_g) and the norm by t_g^(dim_k/2).  Per
    width, one eta array and one pass of chars.weyl_chars_holo over the
    width's weights, each in the blocks of models.haar_mean, and dropped
    before the next width; the character of lam = 0 is 1 at every finite
    node and is not evaluated.  So each value has the bits of its case
    integrated alone over the scaled images.
    """
    unit, weights, norm = tridiagonal_rule(model, order, moduli_order)
    values = [0.0] * len(cases)
    for tg in dict.fromkeys(case[0] for case in cases):
        at_width = [(i, p, lam) for i, (t, p, lam, _) in enumerate(cases) if t == tg]
        lams = {lam.dynkin: lam for _, _, lam in at_width if any(lam.dynkin)}
        rep = np.sqrt(tg) * unit
        eta = _evaluate_blocks(lambda r: chars.eta(rs, r), rep)
        chis = {}
        if lams:
            chis = dict(zip(lams, _evaluate_batch_last(
                lambda r: chars.weyl_chars_holo(rs, list(lams.values()), 2.0 * r).T, rep)))
        for i, p, lam in at_width:
            if lam.dynkin in chis:
                mean = haar_mean(lambda e, chi: e**p * chi, (eta, chis[lam.dynkin]), weights)[0]
            else:
                mean = haar_mean(lambda e: e**p, eta, weights)[0]
            values[i] = norm * tg ** (model.dim_k / 2.0) * float(mean)
        del rep, eta, chis  # before the next width's arrays are formed
    return values


def cartesian_monte_carlo(rs: RootSystem, model: GroupModel, case, scheme: MonteCarlo):
    """One invariant_test_functions case by the Cartesian Monte-Carlo oracle.

    It samples at double the Gaussian width and folds the remainder into
    the integrand: the reweighted integrand keeps Gaussian decay, so its
    variance estimator (and hence a 3-sigma gate) stays trustworthy.
    """
    tg, p, lam, _ = case
    ts = 2.0 * tg

    def f(c):
        rep = chamber_coordinates(model, c)
        return (chars.eta(rs, rep) ** p * chars.weyl_char_holo(rs, lam, 2.0 * rep)
                * np.exp(-np.sum(c**2, axis=-1) * (1.0 / tg - 1.0 / ts)))

    return cartesian_oracle_integrate(model, f, ts, scheme)


def random_series(rs_kind: str, space: str, t: float, dynkins, rng) -> fourier.FourierSeries:
    """A series with standard complex Gaussian coefficients, drawn label by
    label in the order given, real part before imaginary part."""
    rs = build_root_system(rs_kind)
    terms = {}
    for dn in dynkins:
        d = dimension(rs, weight(rs, dn))
        terms[tuple(dn)] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return fourier.FourierSeries(rs_kind, space, t, terms)


def series_deviation(a: dict, b: dict, scale: dict | None = None) -> float:
    """Largest coefficient deviation max_k max|a_k - b_k| between two term maps.

    With scale, each label's deviation is divided by max|scale_k|, floored
    at 1e-300 so a zero coefficient does not divide by zero.
    """
    if scale is None:
        return worst(float(np.abs(a[k] - b[k]).max()) for k in a)
    return worst(float(np.abs(a[k] - b[k]).max() / max(np.abs(scale[k]).max(), 1e-300))
                 for k in a)


def character_pairing(n: int, t: float, scheme):
    """The pairing bracket of the A1 character of label n in both pictures,
    by the spectral route and by the integral route over the Haar scheme."""
    phi = fourier.character_series("A1", (n,), "HL2", t)
    f = fourier.character_series("A1", (n,), "L2K", t)
    return hilbert.bks_bracket(phi, f, "spectral"), hilbert.bks_bracket(phi, f, scheme)


def pointwise_transform_deviation(rs: RootSystem, model: GroupModel, t: float, xs) -> float:
    """Largest relative deviation, over n = 0, 1, 2 and the SU(2) points xs, of
    the pairing transform of the A1 character of label n from D_{t,n} times
    that character, taken from su2_character's Chebyshev recurrence, a route
    independent of the irreducible matrices behind bks_integral_transform;
    relative to D_{t,n} max |chi_n| over xs, which no zero of chi_n inflates."""
    deviations = []
    for n in (0, 1, 2):
        d = hilbert.d_constant(rs, weight(rs, (n,)), t)
        if d < np.finfo(float).tiny:
            raise ArithmeticError(f"D of label {n} at t = {t!r} is {d!r}, below the smallest "
                                  "normal float: no relative deviation")
        phi = fourier.character_series("A1", (n,), "HL2", t)
        vals = hilbert.bks_integral_transform(phi, model, xs)
        target = d * su2_character(n, xs)
        deviations.append(float(np.abs(vals - target).max() / np.abs(target).max()))
    return worst(deviations)


def hl2_char_norm(rs: RootSystem, lam, t: float, order: int) -> tuple[float, float]:
    """Squared holomorphic norm of the character of lam by two routes: the
    Plancherel sum of its series, and the C-constant chamber quadrature of
    the given order."""
    series = fourier.character_series(rs.kind, lam.dynkin, "HL2", t)
    quad = hilbert.verify_norm_identity(rs, lam, t, "C", order).quadrature
    return fourier.plancherel_norm(series), quad


def energy_positivity(eps) -> bool:
    """Whether an energy spectrum, listed from the trivial weight on, is 0
    at the trivial weight and positive at every other."""
    return bool(eps[0] == 0.0 and all(e > 0.0 for e in eps[1:]))


def inverse_composition_deviation(series: fourier.FourierSeries, mapped) -> float:
    """Largest relative deviation of (4 t pi)^(-dim/4) ThetaStar(mapped) from
    series, where mapped = H(series): the scaled adjoint undoes H."""
    scale = hilbert.pairing_scale(build_root_system(series.rs_kind), series.t)
    back = hilbert.transform_apply(mapped, "ThetaStar")
    scaled_back = {k: scale * v for k, v in back.terms.items()}
    return series_deviation(scaled_back, series.terms, series.terms)


def _top_band(series: fourier.FourierSeries) -> int:
    """Largest Dynkin label of an SU(2) series: its polynomial degree."""
    return max(dn[0] for dn in series.terms)


# ---------------------------------------------------------------------------
# suites


def suite_eta(cfg: RunConfig, rs: RootSystem, model: GroupModel | None) -> list[CheckRow]:
    rows = []
    rng = _rng_for(cfg, "eta/points")
    pts = rng.normal(0.0, 0.8, size=(100, rs.rank))
    if model is not None:
        residual = eta_det_residual(rs, model, rng.normal(0.0, 0.8, size=(100, model.dim_k)))
        rows.append(det_row("eta/det-oracle", residual, 0.0, max(cfg.tolerance, 1e-10),
                            "max |product form - determinant oracle| over 100 random points"))
    else:
        vals = chars.eta(rs, pts)
        rows.append(det_row("eta/torus-trivial", float(np.abs(vals - 1.0).max()), 0.0,
                            cfg.tolerance, "eta is identically 1 on a torus"))
    rows.append(det_row("eta/j-half-identity", j_half_residual(rs, pts), 0.0,
                        max(cfg.tolerance, 1e-13),
                        "max |j(iY) - eta(Y/2)| over 100 random Cartan points"))
    vals = np.asarray(chars.eta(rs, pts))
    sym = float(np.abs(vals - np.asarray(chars.eta(rs, -pts))).max())
    weyl_dev = worst(float(np.abs(np.asarray(chars.eta(rs, pts @ w.T)) - vals).max())
                     for w in rs.weyl_elements)
    rows.append(det_row("eta/evenness", sym, 0.0, cfg.tolerance))
    rows.append(det_row("eta/weyl-invariance", weyl_dev, 0.0, max(cfg.tolerance, 1e-12)))
    rows.append(CheckRow("eta/positivity", "deterministic", float(vals.min()), 0.0,
                         0.0, None, None, bool(vals.min() > 0.0), "eta > 0 everywhere"))
    return rows


def suite_weylint(cfg: RunConfig, rs: RootSystem, model: GroupModel | None) -> list[CheckRow]:
    rows = []
    order = cfg.resolved_order(rs.rank)
    closed = gaussian_linear_moment(rs, np.zeros(rs.rank), cfg.t)

    # |Y|^2 by einsum: the same bits as np.sum(Y**2, -1) at rank <= 2,
    # without numpy's slow reduction over a length-1 or -2 axis
    def gauss(Y):
        return np.exp(-np.einsum("...i,...i->...", Y, Y) / cfg.t)

    q1 = build_chamber_quadrature(rs, cfg.t, order)
    v1 = integrate_invariant(q1, gauss)
    rows.append(det_row("weylint/gaussian-closed-form", v1, closed, cfg.tolerance))
    q2 = build_chamber_quadrature(rs, cfg.t, 2 * order)
    rows.append(det_row("weylint/order-doubling", integrate_invariant(q2, gauss), v1,
                        cfg.tolerance, "spectral convergence of the chamber rule"))
    if model is None:
        rows.append(skip_row("weylint/chamber-vs-tridiagonal",
                             "no Cartesian oracle without a matrix model (torus)"))
        return rows
    rows.append(det_row("weylint/flag-volume-closed-form", flag_volume_from_gaussian(rs),
                        flag_volume(rs), max(cfg.tolerance, 1e-12),
                        "order-64 chamber rule of the Gaussian vs Mehta's integral"))

    cases = invariant_test_functions(rs, cfg.t)
    if not cases:
        rows.append(skip_row("weylint/chamber-vs-tridiagonal",
                             f"no test integrand within the tilt cap |mu_eff|^2 t_gauss <= "
                             f"{_TILT_CAP:g} at t={cfg.t:g}"))
        return rows
    tri, moduli = _TRIDIAGONAL_ORDER[model.kind]
    fines = tridiagonal_integrals(rs, model, cases, tri, moduli)
    coarses = tridiagonal_integrals(rs, model, cases, tri // 2, moduli // 2)
    rules = (tri if tri == moduli else
             f"{tri}^2 x {moduli}^2 vs {tri // 2}^2 x {moduli // 2}^2 nodes")
    mc_case = min(_WEYLINT_MC_CASE, len(cases) - 1)
    for i, (case, fine, coarse) in enumerate(zip(cases, fines, coarses)):
        tg, p, lam, _ = case
        val = chamber_integral(rs, case, order)
        note = f"eta^{p} * char(2Y) * gaussian(t={tg:g}), lam={lam.dynkin}"
        rule_id = f"chamber-vs-tridiagonal-{i:02d}"
        rows.append(det_row(f"weylint/{rule_id}", fine, val, max(cfg.tolerance, 1e-12),
                            f"{note}; {doubling_note(fine, coarse, rules)}"))
        if i == mc_case:
            cid = f"weylint/mc-crosscheck-{rs.kind.lower()}"
            est = cartesian_monte_carlo(rs, model, case,
                                        MonteCarlo(cfg.mc_samples, _seed_for(cfg, cid)))
            rows.append(stat_row(cid, est.value, val, est.stderr,
                                 f"{note}; Monte-Carlo route of {rule_id}"))
    return rows


def suite_kirillov(cfg: RunConfig, rs: RootSystem, model: GroupModel | None) -> list[CheckRow]:
    rows = []
    rng = _rng_for(cfg, "kirillov/points")
    if rs.is_torus:
        residuals = []
        for lam in enumerate_dominant(rs, cfg.max_level):
            for Y in rng.normal(0.0, 0.8, size=(5, rs.rank)):
                lhs = float(chars.eta(rs, Y)) * float(chars.weyl_char_holo(rs, lam, 2.0 * Y))
                # summed over the axes in order, as the character sums -<lam, Y>
                rhs = float(np.exp(-np.sum(2.0 * (lam.coords + rs.rho) * Y)))
                residuals.append(abs(lhs - rhs) / max(1.0, abs(rhs)))
        rows.append(det_row("kirillov/torus-exact", worst(residuals), 0.0, cfg.tolerance,
                            "adjoint action is trivial; orbital average is exact"))
        return rows
    if rs.kind == "A1":
        double, half = closed_form_a1_residuals(rs, model, rng, 100)
        rows.append(det_row("kirillov/closed-form-a1", double, 0.0, max(cfg.tolerance, 1e-12),
                            "max scaled residual over 100 random (lam, Y)"))
        rows.append(det_row("kirillov/half-angle-a1", half, 0.0, max(cfg.tolerance, 1e-12)))
        cid = "kirillov/mc-crosscheck-a1"
        lam = weight(rs, (2,))
        Y = np.array([np.sqrt(2.0) * 0.45])  # <alpha, Y> = 2 * 0.45
        lhs, est = chars.kirillov_sides(model, lam, Y, MonteCarlo(cfg.mc_samples, _seed_for(cfg, cid)))
        rows.append(stat_row(cid, lhs, est.value, est.stderr, f"lam={lam.dynkin}"))
        return rows
    # A2: orbital averages by the Gelfand-Tsetlin rule, signed sides
    lams = [weight(rs, d) for d in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 2))]
    ys = [rng.normal(0.0, 0.5, size=2) for _ in lams]
    cid = "kirillov/mc-crosscheck-a2"
    lam, Y = lams[_KIRILLOV_MC_CASE], ys[_KIRILLOV_MC_CASE]
    lhs, est = chars.kirillov_sides(model, lam, Y, MonteCarlo(cfg.mc_samples, _seed_for(cfg, cid)))
    rows.append(stat_row(cid, lhs, est.value, est.stderr,
                         f"lam={lam.dynkin}; Monte-Carlo route of "
                         f"gt-a2-double-{_KIRILLOV_MC_CASE}"))
    order = _GELFAND_TSETLIN_ORDER
    for i, (lam, Y) in enumerate(zip(lams, ys)):
        for tag, half in (("double", False), ("half", True)):
            lhs, fine = chars.kirillov_sides(model, lam, Y, chars.GelfandTsetlinSU3(order), half)
            _, coarse = chars.kirillov_sides(model, lam, Y, chars.GelfandTsetlinSU3(order // 2),
                                             half)
            rows.append(det_row(
                f"kirillov/gt-a2-{tag}-{i}", lhs, fine.value, max(cfg.tolerance, 1e-12),
                f"lam={lam.dynkin}; {doubling_note(fine.value, coarse.value, order)}",
            ))
    return rows


def _norm_identity_rows(cfg: RunConfig, rs: RootSystem, suite: str, which: str) -> list[CheckRow]:
    """The C or D norm constant of each dominant weight, chamber quadrature vs
    closed form; a weight whose integral raises gets its own failed error row."""
    order = cfg.resolved_order(rs.rank)
    rows = []
    for lam in enumerate_dominant(rs, cfg.max_level):
        cid = f"{suite}/{which}-{'-'.join(map(str, lam.dynkin))}"
        try:
            chk = hilbert.verify_norm_identity(rs, lam, cfg.t, which, order)
            rows.append(det_row(cid, chk.quadrature, chk.closed_form, cfg.tolerance))
        except (ValueError, ArithmeticError) as exc:
            rows.append(error_row(cid, str(exc)))
    return rows


def suite_lemma33(cfg: RunConfig, rs: RootSystem, model) -> list[CheckRow]:
    return _norm_identity_rows(cfg, rs, "lemma33", "C")


def suite_lemma64(cfg: RunConfig, rs: RootSystem, model: GroupModel | None) -> list[CheckRow]:
    rows = _norm_identity_rows(cfg, rs, "lemma64", "D")
    if rs.kind != "A1":
        rows.append(skip_row("lemma64/pointwise-transform",
                             "pointwise transform oracle needs SU2 irreducible matrices"))
        return rows
    cid = "lemma64/pointwise-transform"
    xs = haar_sample(model, _rng_for(cfg, cid), 20)
    try:
        rows.append(det_row(cid, pointwise_transform_deviation(rs, model, cfg.t, xs), 0.0,
                            max(cfg.tolerance, 1e-6),
                            "max deviation of the integral transform from D * character "
                            "over 20 Haar points, relative to D max |character|"))
    except (ValueError, ArithmeticError) as exc:
        rows.append(error_row(cid, str(exc)))
    return rows


def suite_fourier(cfg: RunConfig, rs: RootSystem, model: GroupModel) -> list[CheckRow]:
    rows = []
    tol = max(cfg.tolerance, 1e-12)
    # coefficient of the character: diagonal Id/d, off-diagonal zero
    cid = "fourier/coeff-diagonal"
    coeff, sem = fourier.fourier_coeff(model, lambda xs: su2_character(1, xs).astype(complex),
                                       (1,), MonteCarlo(cfg.mc_samples, _seed_for(cfg, cid)))
    # one entry and its own standard error; fourier/roundtrip checks every entry
    rows.append(stat_row(cid, complex(coeff[0, 0]), 0.5, float(sem[0, 0]),
                         "coefficient of its own character is Id/d: entry (0, 0) against 1/2"))
    cid = "fourier/coeff-cross"
    n_char, n_coeff = 2, 1
    degree = n_char + n_coeff
    exact, doubled = (
        fourier.fourier_coeff(model, lambda xs: su2_character(n_char, xs).astype(complex),
                              (n_coeff,), HaarSU2(d))[0]
        for d in (degree, 2 * degree)
    )
    rows.append(det_row(cid, float(np.abs(exact).max()), 0.0, tol,
                        "cross coefficients vanish by orthogonality; "
                        + haar_su2_note(exact, doubled, degree, residual=True)))
    # round trip on a random band-limited function
    cid = "fourier/roundtrip"
    rng = _rng_for(cfg, cid)
    target = random_series("A1", "L2K", cfg.t, [(0,), (1,), (2,)], rng)
    degree = 2 * _top_band(target)

    def recovered(d):
        return [fourier.fourier_coeff(
            model, lambda xs: fourier.synthesize_many(target, model, xs), dn, HaarSU2(d))[0]
            for dn in target.terms]

    exact, doubled = recovered(degree), recovered(2 * degree)
    deviation = worst(float(np.abs(est - want).max() / np.abs(want).max())
                      for est, want in zip(exact, target.terms.values()))
    rows.append(det_row(cid, deviation, 0.0, tol,
                        "max relative deviation of recovered coefficients; "
                        + haar_su2_note(np.concatenate([c.ravel() for c in exact]),
                                        np.concatenate([c.ravel() for c in doubled]), degree)))
    cid = "fourier/json-roundtrip"
    clone = fourier.series_from_json(fourier.series_to_json(target))
    rows.append(det_row(cid, series_deviation(clone.terms, target.terms), 0.0, 1e-15,
                        "serialization is lossless"))
    return rows


def suite_convolution(cfg: RunConfig, rs: RootSystem, model: GroupModel) -> list[CheckRow]:
    rows = []
    t = cfg.t
    # coefficient identity for characters: chi * chi has coefficient Id/d^2
    conv = fourier.convolve(fourier.character_series("A1", (2,), "L2K", t),
                            fourier.character_series("A1", (2,), "L2K", t))
    dev = float(np.abs(conv.terms[(2,)] - np.eye(3) / 9.0).max())
    rows.append(det_row("convolution/character-idempotent", dev, 0.0, 1e-14,
                        "chi * chi = chi / d at coefficient level"))
    # the convolution integral, directly, at random points q
    cid = "convolution/integral-oracle"
    rng = _rng_for(cfg, cid)
    a = random_series("A1", "L2K", t, [(0,), (1,)], rng)
    b = random_series("A1", "L2K", t, [(1,), (2,)], rng)
    ab = fourier.convolve(a, b)
    # the Monte-Carlo samples come from the same stream before the points q:
    # haar_draw takes all their normals at once, as haar_sample would, and
    # forms the elements a block at a time inside haar_mean
    xs = haar_draw(model, rng, cfg.mc_samples)
    qs = haar_sample(model, rng, 5)
    direct = fourier.synthesize_many(ab, model, qs)

    def integral(nodes, weights, q):
        def integrand(x):
            return (fourier.synthesize_many(a, model, x)
                    * fourier.synthesize_many(b, model, mul2x2(np.conj(np.swapaxes(x, 1, 2)), q)))

        return haar_mean(integrand, nodes, weights)

    degree = _top_band(a) + _top_band(b)
    exact, doubled = (
        np.array([integral(*haar_nodes(model, HaarSU2(d)), q)[0] for q in qs])
        for d in (degree, 2 * degree)
    )
    rows.append(det_row(cid, float(np.max(np.abs(exact - direct) / np.abs(direct))), 0.0,
                        max(cfg.tolerance, 1e-12),
                        "termwise coefficient product vs direct integral, max relative "
                        "residual over 5 points; " + haar_su2_note(exact, doubled, degree)))
    cid = "convolution/mc-crosscheck"
    mc, sem = integral(xs, None, qs[0])
    rows.append(stat_row(cid, complex(mc), complex(direct[0]), float(sem),
                         "Monte-Carlo route of integral-oracle at its first point"))
    # symmetric pairing at the identity
    cid = "convolution/pairing-at-identity"
    val = complex(fourier.synthesize(fourier.convolve(a, b), model, np.eye(2)))
    spec = 0.0 + 0.0j
    for dn in a.terms:
        if dn in b.terms:
            d = dimension(rs, weight(rs, dn))
            spec += d * np.trace(b.terms[dn] @ a.terms[dn])
    rows.append(det_row(cid, abs(val), abs(complex(spec)), max(cfg.tolerance, 1e-10),
                        "(f*h)(e) equals sum_lam d tr(h_hat f_hat)"))
    return rows


def suite_plancherel(cfg: RunConfig, rs: RootSystem, model: GroupModel | None) -> list[CheckRow]:
    rows = []
    order = cfg.resolved_order(rs.rank)
    for lam in enumerate_dominant(rs, min(cfg.max_level, 2)):
        tag = "-".join(map(str, lam.dynkin))
        norm, quad = hl2_char_norm(rs, lam, cfg.t, order)
        rows.append(det_row(f"plancherel/hl2-char-norm-{tag}", norm, quad, max(cfg.tolerance, 1e-6),
                            "series norm equals the quadrature of |char|^2 against the measure"))
    if rs.kind != "A1":
        rows.append(skip_row("plancherel/l2k-montecarlo",
                             "pointwise synthesis needs SU2 irreducible matrices"))
        return rows
    cid = "plancherel/l2k-chi-norm"

    def chi_norm2(x):
        return np.abs(su2_character(1, x)) ** 2

    xs, _ = haar_nodes(model, MonteCarlo(cfg.mc_samples, _seed_for(cfg, cid)))
    mean, sem = haar_mean(chi_norm2, xs, None)
    rows.append(stat_row(cid, float(mean), 1.0, float(sem), "||chi||^2 = 1 by orthogonality"))
    # |chi_1|^2 is of degree 2: the rule of that degree, and twice it for the delta
    exact, doubled = (float(haar_mean(chi_norm2, *haar_nodes(model, HaarSU2(d)))[0])
                      for d in (2, 4))
    rows.append(det_row(f"{cid}-rule", exact, 1.0, max(cfg.tolerance, 1e-12),
                        "||chi||^2 = 1 by orthogonality; " + haar_su2_note(exact, doubled, 2)))
    cid = "plancherel/l2k-bandlimited"
    series = random_series("A1", "L2K", cfg.t, [(0,), (1,), (2,)], _rng_for(cfg, cid))
    degree = 2 * _top_band(series)

    def norm2(d):
        return float(haar_mean(lambda x: np.abs(fourier.synthesize_many(series, model, x)) ** 2,
                               *haar_nodes(model, HaarSU2(d)))[0])

    exact, doubled = norm2(degree), norm2(2 * degree)
    rows.append(det_row(cid, exact, fourier.plancherel_norm(series), max(cfg.tolerance, 1e-12),
                        haar_su2_note(exact, doubled, degree)))
    return rows


def suite_bks(cfg: RunConfig, rs: RootSystem, model: GroupModel) -> list[CheckRow]:
    rows = []
    t = cfg.t
    lam0 = weight(rs, (0,))
    phi = fourier.character_series("A1", (0,), "HL2", t)
    f0 = fourier.character_series("A1", (0,), "L2K", t)
    spec = hilbert.bks_bracket(phi, f0, "spectral")
    rows.append(det_row("bks/spectral-character", abs(spec.value),
                        hilbert.d_constant(rs, lam0, t), 1e-13,
                        "<char, char> equals the pairing eigenvalue"))
    cross = hilbert.bks_bracket(phi, fourier.character_series("A1", (1,), "L2K", t), "spectral")
    rows.append(det_row("bks/spectral-orthogonality", abs(cross.value), 0.0, 1e-15))
    for n in (0, 1, 2):
        (spec, exact), (_, doubled) = (character_pairing(n, t, HaarSU2(d)) for d in (2 * n, 4 * n))
        rows.append(det_row(f"bks/spectral-vs-integral-{n}", abs(exact.value), abs(spec.value),
                            max(cfg.tolerance, 1e-12),
                            haar_su2_note(exact.value, doubled.value, 2 * n)))
    cid = "bks/spectral-vs-integral-random"
    rng = _rng_for(cfg, cid)
    phi_r = random_series("A1", "HL2", t, [(0,), (1,), (2,)], rng)
    f_r = random_series("A1", "L2K", t, [(1,), (2,), (3,)], rng)
    spec = hilbert.bks_bracket(phi_r, f_r, "spectral")
    integ = hilbert.bks_bracket(
        phi_r, f_r, MonteCarlo(max(2000, cfg.mc_samples // 50), _seed_for(cfg, cid))
    )
    rows.append(stat_row(cid, integ.value, spec.value, integ.stderr))
    # sesquilinearity is exact on the spectral route
    z = 0.3 - 1.2j
    lhs = hilbert.bks_bracket(
        fourier.FourierSeries("A1", "HL2", t, {k: z * v for k, v in phi_r.terms.items()}),
        f_r, "spectral").value
    rhs = np.conj(z) * spec.value
    rows.append(det_row("bks/conjugate-linearity", abs(lhs), abs(rhs), 1e-13))
    return rows


def suite_heat(cfg: RunConfig, rs: RootSystem, model: GroupModel) -> list[CheckRow]:
    rows = []
    t = cfg.t
    rng = _rng_for(cfg, "heat/series")
    series = random_series("A1", "L2K", t, [(0,), (1,), (2,)], rng)
    theta_star = hilbert.transform_apply(series, "ThetaStar")
    mult = heat.heat_multiplier_apply(series, t, include_prefactor=True)
    rows.append(det_row("heat/adjoint-multiplier",
                        series_deviation(theta_star.terms, mult.terms, theta_star.terms),
                        0.0, 1e-13,
                        "prefactor heat multiplier equals the adjoint pairing transform"))
    s1 = heat.heat_multiplier_apply(heat.heat_multiplier_apply(series, 0.4), 0.35)
    s2 = heat.heat_multiplier_apply(series, 0.75)
    rows.append(det_row("heat/semigroup", series_deviation(s1.terms, s2.terms), 0.0, 1e-13))
    eps = [heat.energy_eigenvalue(rs, lam) for lam in enumerate_dominant(rs, cfg.max_level)]
    rows.append(CheckRow("heat/energy-positivity", "deterministic", float(min(eps)), 0.0,
                         0.0, None, None, energy_positivity(eps),
                         "eigenvalues nonnegative, zero only at the trivial weight"))
    hl2 = random_series("A1", "HL2", t, [(0,), (1,), (2,)], rng)
    a = heat.heat_multiplier_apply(hilbert.transform_apply(hl2, "H"), t)
    b = hilbert.transform_apply(heat.heat_multiplier_apply(hl2, t), "H")
    rows.append(det_row("heat/commutes-with-dictionary",
                        series_deviation(a.terms, b.terms, a.terms), 0.0, 1e-13))
    # the kernel heat_kernel_eval sums at its default cutoff: characters
    # chi_n for n below this count
    terms = len(heat._truncation(t, 1e-12)[0])
    # p_t is a polynomial of degree terms - 1 in cos theta
    degree = terms - 1
    nodes = degree // 2 + 1
    exact, doubled = (heat.heat_kernel_integral(model, t, m) for m in (nodes, 2 * nodes))
    rows.append(det_row("heat/kernel-normalization", exact, 1.0, max(cfg.tolerance, 1e-12),
                        f"Haar integral of the kernel is 1; polar rule exact to degree {degree} "
                        f"in cos theta ({nodes} nodes); "
                        + doubling_note(doubled, exact, 2 * nodes)))
    xs = haar_sample(model, _rng_for(cfg, "heat/kernel-symmetry"), 100)
    p_vals, _ = heat.heat_kernel_eval(model, t, xs)
    p_inv, _ = heat.heat_kernel_eval(model, t, np.conj(np.swapaxes(xs, 1, 2)))
    rows.append(det_row("heat/kernel-symmetry", float(np.abs(p_vals - p_inv).max()),
                        0.0, max(cfg.tolerance, 1e-10)))
    v1, _ = heat.heat_kernel_eval(model, t, np.eye(2), cutoff=1e-12)
    v2, _ = heat.heat_kernel_eval(model, t, np.eye(2), cutoff=_HEAT_FINE_CUTOFF)
    rows.append(det_row("heat/kernel-truncation", v1, v2, max(cfg.tolerance, 1e-10)))
    cid = "heat/convolution"
    ys = haar_sample(model, _rng_for(cfg, cid), 10)
    # f(w y), averaged over directions, adds the top band to the degree in cos theta
    degree += _top_band(series)
    nodes = degree // 2 + 1
    exact, doubled = (heat.heat_convolution_residual(model, series, t, ys, m)
                      for m in (nodes, 2 * nodes))
    rows.append(det_row(cid, exact, 0.0, max(cfg.tolerance, 1e-12),
                        f"spatial kernel convolution vs diagonal multiplier, max over 10 points; "
                        f"polar rule exact to degree {degree} in cos theta ({nodes} nodes); "
                        + doubling_note(doubled, exact, 2 * nodes, residual=True)))
    return rows


def suite_unitarity(cfg: RunConfig, rs: RootSystem, model) -> list[CheckRow]:
    rows = []
    t = cfg.t
    defect = worst(hilbert.ratio_defect(rs, lam, t)
                   for lam in enumerate_dominant(rs, cfg.max_level))
    rows.append(det_row("unitarity/ratio-identity", defect, 0.0, max(cfg.tolerance, 1e-12),
                        "(4 t pi)^(-dim/4) D = sqrt(C), relative"))
    lams = enumerate_dominant(rs, min(cfg.max_level, 2))
    beyond = hilbert.dictionary_range_note(rs, lams, t)
    if beyond is not None:  # the series would map to 0, or scale by inf
        rows.append(skip_row("unitarity/series", f"no series checks: {beyond}"))
        return rows
    rng = _rng_for(cfg, "unitarity/series")
    dynkins = [lam.dynkin for lam in lams]
    series = random_series(rs.kind, "HL2", t, dynkins, rng)
    mapped = hilbert.transform_apply(series, "H")
    rows.append(det_row("unitarity/norm-preservation", fourier.plancherel_norm(mapped),
                        fourier.plancherel_norm(series), max(cfg.tolerance, 1e-12)))
    rows.append(det_row("unitarity/inverse-composition",
                        inverse_composition_deviation(series, mapped), 0.0,
                        max(cfg.tolerance, 1e-12), "scaled adjoint undoes the dictionary"))
    alt = hilbert.transform_apply(series, "ScaledTheta")
    rows.append(det_row("unitarity/scaled-pairing-equals-dictionary",
                        series_deviation(alt.terms, mapped.terms, mapped.terms), 0.0, 1e-13))
    return rows


# every suite by name, in report order of `verify --suite all`
SUITES = {
    "lemma33": suite_lemma33,
    "lemma64": suite_lemma64,
    "kirillov": suite_kirillov,
    "eta": suite_eta,
    "weylint": suite_weylint,
    "fourier": suite_fourier,
    "convolution": suite_convolution,
    "plancherel": suite_plancherel,
    "bks": suite_bks,
    "heat": suite_heat,
    "unitarity": suite_unitarity,
}


def suite_available(suite: str, rs: RootSystem, t: float) -> str | None:
    """None when runnable; otherwise the reason it is not."""
    if suite in _IRREP_ONLY and rs.kind != "A1":
        return f"irrep matrices unavailable for {rs.kind}"
    if suite == "heat":
        try:
            heat._truncation(t, _HEAT_FINE_CUTOFF)
        except ValueError as exc:
            return f"heat kernel unavailable at t={t!r}: {exc}"
    return None
