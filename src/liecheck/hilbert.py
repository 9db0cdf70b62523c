"""The two-Hilbert-space dictionary: norm constants, pairing, transforms.

Between the compact picture L2(K) and the holomorphic picture HL2 (square
integrable holomorphic functions against the Gaussian half-form measure at
parameter t) every operator of interest is diagonal over dominant weights:

    C_{t,lam} = (t pi)^(dim/2) e^{t|lam+rho|^2}     squared HL2 norm of a
                                                    unit-L2 representative
    D_{t,lam} = (2 t pi)^(dim/2) e^{t|lam+rho|^2/2} pairing eigenvalue

with (4 t pi)^(-dim/4) D = sqrt(C) as an exact algebraic identity.  The
unitary dictionary multiplies the lam coefficient by sqrt(C); the pairing
transform multiplies by D; its adjoint multiplies by D/C.  The analogous
constants for the density-free Gaussian measure carry no closed form and
are computed by quadrature with an order-doubling stability estimate.

Each norm integral is summed on the chamber rule, in the simple-root
coordinates s_i = <alpha_i, Y>, by one rank-generic integrand.  On a torus
eta = 1, rho = 0 and the characters e^{-<lam, Y>} and the Gaussian are
products over the axes, so the holomorphic norm on (C^*)^r is a product
of one-variable norms (the abelian end of Hall's transform, J. Funct.
Anal. 122 (1994) 103): each norm integral is summed as the product of r
one-axis sums, and the density-free constant is C itself.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import partial, reduce
from itertools import combinations
from math import prod

import numpy as np

from . import chars
from .models import (
    SQRT2,
    Estimate,
    GroupModel,
    _gauss_legendre_01,
    _sphere_rule,
    algebra_element,
    build_group_model,
    haar_mean,
    haar_nodes,
    irrep_matrices,
    rep_matrices,
)
from .quadrature import (
    LOG_FLOAT_MAX,
    NON_FINITE_VALUES,
    _log_gaussian_moment,
    build_chamber_quadrature,
    default_order,
    gaussian_linear_moment,
    torus_axis_rule,
)
from .rootdata import (RootSystem, Weight, build_root_system, dimension, is_dominant,
                       simple_root_pairings, weight)

__all__ = [
    "ConstantsRow",
    "NormCheck",
    "bks_bracket",
    "bks_integral_transform",
    "c_constant",
    "constants_row",
    "d_constant",
    "dictionary_range_note",
    "naive_constant",
    "pairing_scale",
    "ratio_defect",
    "transform_apply",
    "verify_norm_identity",
]

TRANSFORM_NAMES = ("H", "Theta", "ThetaStar", "ScaledTheta", "Htilde")

_FLOAT_TINY = float(np.finfo(float).tiny)  # the smallest normal float
# radii in _pairing_moment: at t = 50 the pointwise transform is off 3.0e-8 at 48, 1.3e-13 at 64
_BKS_RADIAL_ORDER = 64


def _norm2_shift(rs: RootSystem, lam: Weight) -> float:
    lr = lam.coords + rs.rho
    return float(lr @ lr)


def c_constant(rs: RootSystem, lam: Weight, t: float) -> float:
    """(t*pi)^(dim/2) * exp(t |lam+rho|^2), the Gaussian moment of 2(lam+rho) at width t."""
    if t <= 0:
        raise ValueError("t must be positive")
    if not is_dominant(rs, lam):
        raise ValueError("c_constant requires a dominant weight")
    return gaussian_linear_moment(rs, 2.0 * (lam.coords + rs.rho), t)


def d_constant(rs: RootSystem, lam: Weight, t: float) -> float:
    """(2*t*pi)^(dim/2) * exp(t |lam+rho|^2 / 2), the Gaussian moment of lam+rho at width 2t."""
    if t <= 0:
        raise ValueError("t must be positive")
    if not is_dominant(rs, lam):
        raise ValueError("d_constant requires a dominant weight")
    return gaussian_linear_moment(rs, lam.coords + rs.rho, 2.0 * t)


def pairing_scale(rs: RootSystem, t: float) -> float:
    """(4 t pi)^(-dim/4): it takes D to sqrt(C), so the scaled pairing
    transform equals H and the scaled adjoint inverts H."""
    return float((4.0 * t * np.pi) ** (-rs.dim_k / 4.0))


def ratio_defect(rs: RootSystem, lam: Weight, t: float) -> float:
    """Relative defect of (4 t pi)^(-dim/4) D against sqrt(C), from the
    closed forms c_constant and d_constant (_ratio_defect).

    Relative, because the absolute scale e^{t|lam+rho|^2/2} grows past any
    fixed absolute tolerance for large weights.
    """
    return _ratio_defect(rs, lam, t, c_constant(rs, lam, t), d_constant(rs, lam, t))


def _log_pairing_scale(rs: RootSystem, t: float) -> float:
    return -rs.dim_k / 4.0 * np.log(4.0 * t * np.pi)


def _normal_constants(C: float, D: float, log_scale: float) -> bool:
    """C and D are normal floats, and so is the pairing scale e^log_scale,
    with a margin of a factor e at either end of the float range."""
    return min(C, D) >= _FLOAT_TINY and abs(log_scale) < LOG_FLOAT_MAX - 1.0


def dictionary_range_note(rs: RootSystem, lams, t: float) -> str | None:
    """None where C and D of every weight in lams and the pairing scale at
    t are normal floats (_normal_constants); else a note naming the first
    that is not.  ArithmeticError where C or D passes the largest float."""
    log_scale = _log_pairing_scale(rs, t)
    for lam in lams:
        C, D = c_constant(rs, lam, t), d_constant(rs, lam, t)
        if not _normal_constants(C, D, log_scale):
            return (f"C = {C!r}, D = {D!r} of weight {lam.dynkin} and the pairing scale "
                    f"e^{log_scale:.6g} at t = {t!r}: not all normal floats")
    return None


def _ratio_defect(rs: RootSystem, lam: Weight, t: float, C: float, D: float) -> float:
    """|(4 t pi)^(-dim/4) D - sqrt(C)| / sqrt(C) of the constants C and D of lam at t.

    In log form, |expm1(log scale + log D - log C / 2)| from the closed
    forms' logs, where C or D is below the smallest normal float or the
    scale (4 t pi)^(-dim/4) is within a factor e of either end of the float
    range: from t = 1e-100 on A2 C underflows to 0, and at t = 1e-300 the
    scale passes the largest float.  There the log form was off at most
    2.3e-13 (A2, t = 1e-300, levels <= 10).
    """
    log_scale = _log_pairing_scale(rs, t)
    if _normal_constants(C, D, log_scale):
        root_c = float(np.sqrt(C))
        return float(abs(pairing_scale(rs, t) * D - root_c) / root_c)
    shift = lam.coords + rs.rho
    log_c = _log_gaussian_moment(rs, 2.0 * shift, t)
    log_d = _log_gaussian_moment(rs, shift, 2.0 * t)
    return float(abs(np.expm1(log_scale + log_d - log_c / 2.0)))


@dataclass(frozen=True)
class NormCheck:
    """Result of a quadrature-vs-closed-form norm comparison."""

    which: str
    dynkin: tuple[int, ...]
    t: float
    order: int
    quadrature: float
    closed_form: float

    @property
    def rel_err(self) -> float:
        return abs(self.quadrature - self.closed_form) / abs(self.closed_form)


def _log_sum(logs) -> float:
    """log sum e^logs, from the largest term."""
    logs = np.asarray(logs)
    peak = logs.max()
    return float(peak + np.log(np.sum(np.exp(logs - peak))))


def _chamber_parts(q, lam: Weight, scale: float, width: float, p: int):
    """The integrand of _character_integral on the chamber rule q: a map
    from a slab's rows to (exponent, mantissa), the value being mantissa *
    e^exponent; eta is skipped at p = 0.

    The character is the continued character of chars at scale s (its
    log-scales as in chars._chamber_char_parts), -|Y|^2/width is -s^T G s /
    width (G = <w_i, w_j>), and eta's roots pair with scale Y / 2 at scale/2
    times sum_i c_i s_i.  Every term of one s_i is formed once per integral
    on q.axis and laid out on each slab (ChamberQuadrature.lay_out): the
    log-scale, the Gaussian diagonal and the simple roots' p log sinhc,
    summed into one term per axis.  A slab adds only the cross terms s_i
    s_j and the non-simple roots' log sinhc.  The mantissa is the grid's,
    not the scattered points' Horner's rule (chars._grid_mantissa): on A2
    the bilinear form E m E^T, formed once as E and m E^T and contracted on
    each slab's rows; where m has one row (A1, and A2 at lam = 0) the
    polynomial in y alone on the last axis, formed once.
    """
    rs, x = q.rs, q.axis
    g = (rs.cartan_adjugate / (rs.cartan_det * width)).tolist()
    scaled, half = scale * x, scale / 2.0 * x
    axis_terms = [k * scaled - g[i][i] * x * x
                  for i, k in enumerate(chars._log_scale_coefficients(rs, lam.dynkin))]
    if p:
        simple = p * chars.log_eta([half])
        axis_terms = [a + simple for a in axis_terms]
    cross = [(i, j, 2.0 * g[i][j] * x) for i, j in combinations(range(rs.rank), 2)]
    # r and y are both e^{-scale s} on the axis; a slab's rows index r's axis
    mantissa = chars._grid_mantissa(chars._weight_multiplicities(rs, lam.dynkin), scaled)

    def parts(rows):
        coords = q.coordinates(rows)
        # a new array at rank 2, where the slab adds to it; at rank 1 a view
        # of the axis term, which nothing below writes
        exponent = reduce(np.add, q.lay_out(rows, axis_terms))
        for i, j, gx in cross:
            exponent -= coords[i] * q.lay_out(rows, [gx] * rs.rank)[j]
        if p and rs.rank > 1:
            halves = q.lay_out(rows, [half] * rs.rank)
            exponent += p * chars.log_eta(simple_root_pairings(rs, halves)[rs.rank:])
        return exponent, mantissa(rows)

    return parts


def _character_integral(
    rs: RootSystem, lam: Weight, scale: float, width: float, order: int, p: int, mu_norm: float
) -> float:
    """Integral of eta(scale Y / 2)^p char_holo(lam, scale Y) e^{-|Y|^2/width}.

    The rule is the chamber rule of that width sized for |mu| = mu_norm,
    summed through models.haar_mean a slab at a time; the integrand is T
    e^{log_scale + p log eta - |Y|^2/width} (_chamber_parts), so no inf * 0
    forms where it is finite.  On a torus eta = 1 and the character is
    e^{-<mu, Y>}, mu = scale lam, so the integrand is a product over the
    axes, and by Fubini over a finite sum its sum over the tensor rule is
    the product of rank sums over quadrature.torus_axis_rule, each through
    models.haar_mean.  An axis factor is the one exponential e^{-mu_i x -
    x^2/width}.

    The sum comes first, with numpy's overflow warnings off; only a value
    that is not finite is diagnosed, and a ValueError
    (quadrature.NON_FINITE_VALUES) names its log: on a torus the log of the
    integral, from the logs of the axis sums' terms; on A1 and A2, walking
    the slabs again in order, the largest exponent of the first slab whose
    integrand passes the largest float, or, where every node is finite, the
    log of the weighted sum, taken again from the logs of its terms.  No
    RuntimeWarning is printed.
    """
    if rs.is_torus:
        x, w = torus_axis_rule(width, order, mu_norm)
        exponents = [-mu_i * x - x**2 / width for mu_i in scale * lam.coords]
        with np.errstate(over="ignore"):
            value = prod(float(haar_mean(np.exp, e, w)[0]) for e in exponents)
        if not np.isfinite(value):
            log_value = sum(_log_sum(np.log(w) + e) for e in exponents)
            raise ValueError(f"{NON_FINITE_VALUES}: the axis sums of the integral "
                             f"e^{log_value:.6g} pass the largest float")
        return value

    q = build_chamber_quadrature(rs, width, order, mu_norm)
    parts = _chamber_parts(q, lam, scale, width, p)

    def f(rows):
        exponent, mantissa = parts(rows)
        value = np.exp(exponent)
        value *= mantissa
        return value.reshape(-1)

    # a node past e^709, w * f and the sum may each pass the largest float:
    # that ends in the ValueError below, not in numpy's warnings
    with np.errstate(over="ignore"):
        value = float(haar_mean(f, q)[0])
    if not np.isfinite(value):
        slab_logs = []
        for rows, w in q.slabs():
            exponent, mantissa = parts(rows)
            peak = exponent.max()
            if peak > LOG_FLOAT_MAX:
                raise ValueError(f"{NON_FINITE_VALUES}: the integrand reaches "
                                 f"e^{peak:.6g}, past the largest float")
            slab_logs.append(_log_sum(np.log(w) + (np.log(mantissa) + exponent).reshape(-1)))
        raise ValueError(f"{NON_FINITE_VALUES}: the weighted sum e^{_log_sum(slab_logs):.6g} "
                         f"passes the largest float")
    return value


def verify_norm_identity(
    rs: RootSystem, lam: Weight, t: float, which: str, order: int
) -> NormCheck:
    """Chamber-quadrature check of the C or D norm constant.

    which="C": (1/d) integral of char_holo(lam, 2Y) eta(Y) e^{-|Y|^2/t}.
    which="D": (1/d) integral of char_holo(lam, Y) eta(Y/2) e^{-|Y|^2/2t}.
    On a torus eta = 1 and either integral is a product of one-axis sums
    (_character_integral).
    """
    r = np.linalg.norm(lam.coords + rs.rho)
    if which == "C":
        closed = c_constant(rs, lam, t)
        val = _character_integral(rs, lam, 2.0, t, order, 1, 2.0 * r)
    elif which == "D":
        closed = d_constant(rs, lam, t)
        val = _character_integral(rs, lam, 1.0, 2.0 * t, order, 1, r)
    else:
        raise ValueError("which must be 'C' or 'D'")
    return NormCheck(which, lam.dynkin, t, order, val / dimension(rs, lam), closed)


def naive_constant(rs: RootSystem, lam: Weight, t: float, order: int) -> Estimate:
    """Norm constant for the density-free Gaussian measure, by quadrature.

    (1/d) integral of char_holo(lam, 2Y) e^{-|Y|^2/t}; no closed form is
    asserted.  The reported stderr slot carries |value(order) -
    value(2*order)| as an order-doubling stability estimate.  On a torus
    eta = 1, so the integral is that of C, summed as a product of one-axis
    sums (_character_integral).
    """
    d, r = dimension(rs, lam), np.linalg.norm(lam.coords + rs.rho)
    v0, v1 = (_character_integral(rs, lam, 2.0, t, o, 0, 2.0 * r) / d
              for o in (order, 2 * order))
    return Estimate(v0, abs(v0 - v1))


@dataclass(frozen=True)
class ConstantsRow:
    """One dominant weight's worth of norm constants and consistency data."""

    group: str
    t: float
    dynkin: tuple[int, ...]
    d: int
    norm2_shift: float
    C: float
    D: float
    C_tilde: float
    C_tilde_err: float
    ratio_check: float


ConstantsRow.CSV_COLUMNS = tuple(f.name for f in fields(ConstantsRow))


def constants_row(rs: RootSystem, lam: Weight, t: float, order: int) -> ConstantsRow:
    """Assemble the constants table row for one dominant weight.

    ratio_check is ratio_defect, the relative defect of (4 t pi)^(-dim/4) D
    against sqrt(C), taken from the row's own C and D, so each closed form
    is formed once.
    """
    C = c_constant(rs, lam, t)
    D = d_constant(rs, lam, t)
    naive = naive_constant(rs, lam, t, order)
    return ConstantsRow(
        group=rs.kind,
        t=t,
        dynkin=lam.dynkin,
        d=dimension(rs, lam),
        norm2_shift=_norm2_shift(rs, lam),
        C=C,
        D=D,
        C_tilde=naive.value,
        C_tilde_err=naive.stderr,
        ratio_check=_ratio_defect(rs, lam, t, C, D),
    )


def _transform_factor(rs: RootSystem, lam: Weight, t: float, which: str) -> float:
    if which == "H":
        return float(np.sqrt(c_constant(rs, lam, t)))
    if which == "Theta":
        return d_constant(rs, lam, t)
    if which == "ThetaStar":
        return d_constant(rs, lam, t) / c_constant(rs, lam, t)
    if which == "ScaledTheta":
        return pairing_scale(rs, t) * d_constant(rs, lam, t)
    if which == "Htilde":
        return float(np.sqrt(naive_constant(rs, lam, t, default_order(rs.rank)).value))
    raise ValueError(f"unknown transform {which!r}; expected one of {TRANSFORM_NAMES}")


def transform_apply(series, which: str):
    """Apply one of the diagonal dictionary operators to a series.

    H, Theta, ScaledTheta, Htilde map HL2 -> L2K; ThetaStar maps
    L2K -> HL2.  ScaledTheta coincides with H termwise; the scaled adjoint
    (4 t pi)^(-dim/4) ThetaStar inverts H.  Htilde uses the density-free
    constants, computed by quadrature at quadrature.default_order points per
    dimension.
    """
    rs = build_root_system(series.rs_kind)
    domain = "L2K" if which == "ThetaStar" else "HL2"
    if which not in TRANSFORM_NAMES:
        raise ValueError(f"unknown transform {which!r}; expected one of {TRANSFORM_NAMES}")
    if series.space != domain:
        raise ValueError(f"transform {which} expects a {domain} series, got {series.space}")
    terms = {}
    for dynkin, coeff in series.terms.items():
        try:
            factor = _transform_factor(rs, weight(rs, dynkin), series.t, which)
        except (ValueError, ArithmeticError) as exc:
            raise type(exc)(f"{which} at weight {dynkin}, t = {series.t}: {exc}") from exc
        terms[dynkin] = factor * coeff
    out_space = "HL2" if which == "ThetaStar" else "L2K"
    return replace(series, space=out_space, terms=terms)


def _pairing_moment(n: int, t: float) -> np.ndarray:
    """M = integral over su(2) of T_n(exp iY) e^{-|Y|^2/2t} eta(Y/2) dY, by haar_mean on a
    polar rule Y = r u: u on models._sphere_rule(n), exact in u for degree n, times 4 pi;
    _BKS_RADIAL_ORDER radii within 12 sqrt(2t) of the peak of r e^{(n+1) rho - r^2/2t}.
    T_n(exp iY) = e^{n rho} T_n(e^{-rho} exp iY), rho = r / sqrt 2, and e^{n rho} joins
    the weights in log form; a ValueError names the log of a weight sum past the largest
    float."""
    peak = (t * (n + 1) / SQRT2 + np.sqrt(t * t * (n + 1) ** 2 / 2.0 + 4.0 * t)) / 2.0
    lo = max(0.0, peak - 12.0 * np.sqrt(2.0 * t))
    r, wr = _gauss_legendre_01(_BKS_RADIAL_ORDER, peak + 12.0 * np.sqrt(2.0 * t) - lo)
    u, wu = _sphere_rule(n)  # radii outer, directions inner
    w = np.multiply.outer(wr, 4.0 * np.pi * wu).reshape(-1)
    r = np.repeat(r + lo, len(wu))
    rho = r / SQRT2  # the root's pairing with Y/2, so eta(Y/2) = sinh(rho) / rho
    log_w = np.log(w) + 2.0 * np.log(r) - r * r / (2.0 * t) + n * rho + chars.log_eta([rho])
    if _log_sum(log_w) > LOG_FLOAT_MAX:
        raise ValueError(f"{NON_FINITE_VALUES}: the weights of the pairing moment of label {n} "
                         f"sum to e^{_log_sum(log_w):.6g}, past the largest float")
    iy = 1j * algebra_element(build_group_model("SU2"), r[:, None] * np.tile(u, (len(wr), 1)))
    rho = rho[:, None, None]
    # e^{-rho} exp(iY) = e^{-rho} (cosh(rho) I + sinh(rho)/rho iY)
    scaled = (1.0 + np.exp(-2.0 * rho)) / 2.0 * np.eye(2) - np.expm1(-2.0 * rho) / (2.0 * rho) * iy
    return haar_mean(partial(rep_matrices, irrep_matrices(n)), scaled, np.exp(log_w))[0]


def bks_integral_transform(phi, model: GroupModel, xs) -> np.ndarray:
    """The pairing transform of a holomorphic series, evaluated pointwise.

    F(x) = integral over the algebra of phi(x exp(iY)) e^{-|Y|^2/2t}
    eta(Y/2) dY: the series {lam: M_lam coeff_lam}, M_lam = _pairing_moment,
    synthesized at each element of the batch xs.
    """
    from .fourier import synthesize_many  # deferred: fourier imports this module

    if model.kind != "SU2":
        raise ValueError("the integral transform needs irreducible matrices (SU2 only)")
    if phi.space != "HL2":
        raise ValueError("the integral transform applies to HL2 series")
    terms = {dynkin: _pairing_moment(dynkin[0], phi.t) @ coeff
             for dynkin, coeff in phi.terms.items()}
    return synthesize_many(replace(phi, terms=terms), model, xs)


def bks_bracket(phi, f_series, route) -> Estimate:
    """The pairing bracket <phi, F> between the two pictures.

    route="spectral": sum over lam of d * D_{t,lam} * tr(phi_lam^* F_lam),
    exact on band-limited series.  Otherwise route is a Haar scheme
    (MonteCarlo, or HaarSU2 of degree at least the two series' top Dynkin
    labels summed): the Haar mean of conj(F_phi(x)) * F(x) over the points
    of models.haar_nodes, through models.haar_mean, with the inner algebra
    integral of bks_integral_transform; SU(2) only.  A Monte-Carlo route
    reports a standard error.  Conjugate-linear in phi, linear in F.
    """
    if phi.rs_kind != f_series.rs_kind:
        raise ValueError("pairing requires matching groups")
    if phi.space != "HL2" or f_series.space != "L2K":
        raise ValueError("pairing takes an HL2 series against an L2K series")
    rs = build_root_system(phi.rs_kind)
    if route == "spectral":
        total = 0.0 + 0.0j
        for dynkin, coeff in phi.terms.items():
            if dynkin not in f_series.terms:
                continue
            lam = weight(rs, dynkin)
            d = dimension(rs, lam)
            D = d_constant(rs, lam, phi.t)
            total += d * D * np.trace(np.conj(coeff.T) @ f_series.terms[dynkin])
        return Estimate(complex(total), 0.0)
    from .fourier import synthesize_many  # deferred: fourier imports this module

    if phi.rs_kind != "A1":
        raise ValueError("the integral route needs irreducible matrices (SU2 only)")
    model = build_group_model("SU2")

    def integrand(xs):
        return (np.conj(bks_integral_transform(phi, model, xs))
                * synthesize_many(f_series, model, xs))

    mean, sem = haar_mean(integrand, *haar_nodes(model, route))
    return Estimate(complex(mean), float(sem))
