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
from functools import reduce
from itertools import combinations
from math import prod

import numpy as np

from . import chars
from .models import (
    Estimate,
    GroupModel,
    _gauss_rule,
    build_group_model,
    chamber_coordinates,
    exp_i,
    haar_mean,
    haar_nodes,
    irrep_matrices,
    rep_matrices,
)
from .quadrature import (
    LOG_FLOAT_MAX,
    NON_FINITE_VALUES,
    _tensor_rule,
    build_chamber_quadrature,
    default_order,
    gaussian_linear_moment,
    torus_axis_rule,
)
from .rootdata import RootSystem, Weight, build_root_system, dimension, simple_root_pairings, weight

__all__ = [
    "ConstantsRow",
    "NormCheck",
    "bks_bracket",
    "bks_integral_transform",
    "c_constant",
    "constants_row",
    "d_constant",
    "naive_constant",
    "pairing_scale",
    "ratio_defect",
    "transform_apply",
    "verify_norm_identity",
]

TRANSFORM_NAMES = ("H", "Theta", "ThetaStar", "ScaledTheta", "Htilde")

# Gauss-Hermite points per axis of the algebra grid in bks_integral_transform
_BKS_HERMITE_ORDER = 20


def _norm2_shift(rs: RootSystem, lam: Weight) -> float:
    lr = lam.coords + rs.rho
    return float(lr @ lr)


def c_constant(rs: RootSystem, lam: Weight, t: float) -> float:
    """(t*pi)^(dim/2) * exp(t |lam+rho|^2), the Gaussian moment of 2(lam+rho) at width t."""
    if t <= 0:
        raise ValueError("t must be positive")
    if not lam.is_dominant:
        raise ValueError("c_constant requires a dominant weight")
    return gaussian_linear_moment(rs, 2.0 * (lam.coords + rs.rho), t)


def d_constant(rs: RootSystem, lam: Weight, t: float) -> float:
    """(2*t*pi)^(dim/2) * exp(t |lam+rho|^2 / 2), the Gaussian moment of lam+rho at width 2t."""
    if t <= 0:
        raise ValueError("t must be positive")
    if not lam.is_dominant:
        raise ValueError("d_constant requires a dominant weight")
    return gaussian_linear_moment(rs, lam.coords + rs.rho, 2.0 * t)


def pairing_scale(rs: RootSystem, t: float) -> float:
    """(4 t pi)^(-dim/4): it takes D to sqrt(C), so the scaled pairing
    transform equals H and the scaled adjoint inverts H."""
    return float((4.0 * t * np.pi) ** (-rs.dim_k / 4.0))


def ratio_defect(rs: RootSystem, lam: Weight, t: float) -> float:
    """Relative defect of (4 t pi)^(-dim/4) D against sqrt(C).

    Relative, because the absolute scale e^{t|lam+rho|^2/2} grows past any
    fixed absolute tolerance for large weights.
    """
    root_c = float(np.sqrt(c_constant(rs, lam, t)))
    return float(abs(pairing_scale(rs, t) * d_constant(rs, lam, t) - root_c) / root_c)


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
    from a slab's simple-root coordinates s to (exponent, mantissa), the
    value being mantissa * e^exponent; eta is skipped at p = 0.

    The character is chars._chamber_char_parts at scale s, -|Y|^2/width is
    -s^T G s / width (G = <w_i, w_j>), and eta's roots pair with scale Y / 2
    at scale/2 times sum_i c_i s_i.  What depends on one s_i is formed once
    per axis point; per node come only the mantissa's sums, the cross terms
    s_i s_j, log sinhc of the non-simple roots and one exponential.
    """
    rs = q.rs
    g = (rs.cartan_adjugate / (rs.cartan_det * width)).tolist()
    cross = [(i, j, 2.0 * g[i][j]) for i, j in combinations(range(rs.rank), 2)]

    def parts(coords):
        log_scales, mantissa = chars._chamber_char_parts(rs, lam, [scale * s for s in coords])
        exponent = reduce(np.add, [u - g[i][i] * s * s
                                   for i, (u, s) in enumerate(zip(log_scales, coords))])
        for i, j, gij in cross:
            exponent -= coords[i] * (gij * coords[j])
        if p:
            exponent += p * chars.log_eta(simple_root_pairings(rs, [scale / 2.0 * s for s in coords]))
        return exponent, mantissa

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
    x^2/width}.  Where a value would pass the largest float, a ValueError
    (quadrature.NON_FINITE_VALUES) names its log, raised before any
    exponential overflows: on a torus the log of the integral; on A1 and
    A2 the largest exponent of the integrand, or, where every node is
    finite, the log of the weighted sum, taken again from the logs of its
    terms.  No RuntimeWarning is printed.
    """
    if rs.is_torus:
        x, w = torus_axis_rule(width, order, mu_norm)
        exponents = [-mu_i * x - x**2 / width for mu_i in scale * lam.coords]
        peaks = [e.max() for e in exponents]
        # the log of each partial product, so that no exponential overflows on the way
        logs = np.cumsum([_log_sum(np.log(w) + e) for e in exponents])
        if max(*logs, *peaks) > LOG_FLOAT_MAX:
            raise ValueError(f"{NON_FINITE_VALUES}: the axis sums of the integral "
                             f"e^{logs[-1]:.6g} pass the largest float")
        return prod(float(haar_mean(np.exp, e, w)[0]) for e in exponents)

    q = build_chamber_quadrature(rs, width, order, mu_norm)
    parts = _chamber_parts(q, lam, scale, width, p)

    def f(coords):
        exponent, mantissa = parts(coords)
        peak = exponent.max()
        if peak > LOG_FLOAT_MAX:
            raise ValueError(f"{NON_FINITE_VALUES}: the integrand reaches "
                             f"e^{peak:.6g}, past the largest float")
        return np.multiply(mantissa, np.exp(exponent, out=exponent), out=exponent).reshape(-1)

    # w * f and the sum may pass the largest float where every node is
    # finite: that ends in the ValueError below, not in numpy's warnings
    with np.errstate(over="ignore"):
        value = float(haar_mean(f, q)[0])
    if not np.isfinite(value):
        slab_logs = []
        for coords, w in q.slabs():
            exponent, mantissa = parts(coords)
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
    against sqrt(C).
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
        ratio_check=ratio_defect(rs, lam, t),
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


def bks_integral_transform(phi, model: GroupModel, xs) -> np.ndarray:
    """The pairing transform of a holomorphic series, evaluated pointwise.

    F(x) = integral over the algebra of phi(x exp(iY)) e^{-|Y|^2/2t}
    eta(Y/2) dY, computed on the tensor Gauss-Hermite grid of 20 points
    per axis scaled to the weight e^{-|Y|^2/2t}; for a band-limited series
    the integrand is entire of exponential type, so the grid converges
    fast.  Returns F at each element of the batch xs.
    """
    if model.kind != "SU2":
        raise ValueError("the integral transform needs irreducible matrices (SU2 only)")
    if phi.space != "HL2":
        raise ValueError("the integral transform applies to HL2 series")
    rs = build_root_system(phi.rs_kind)
    xs = np.asarray(xs, complex)
    pts = xs if xs.ndim == 3 else xs[None]
    h, hw = _gauss_rule("hermite", _BKS_HERMITE_ORDER)
    s = np.sqrt(2.0 * phi.t)
    coords, gh_w = _tensor_rule(*[(s * h, s * hw)] * 3)
    w_eta = gh_w * chars.eta(rs, chamber_coordinates(model, coords) / 2.0)
    polar = exp_i(coords)
    out = np.zeros(len(pts), dtype=complex)
    for dynkin, coeff in phi.terms.items():
        m = irrep_matrices(dynkin[0])
        # the grid sum of w eta(Y/2) T(exp iY) first; then one trace per point
        moment = np.einsum("j,jab->ab", w_eta, rep_matrices(m, polar))
        d = dimension(rs, weight(rs, dynkin))
        out += d * np.einsum("ab,nba->n", moment @ coeff, rep_matrices(m, pts))
    return out if xs.ndim == 3 else complex(out[0])


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
