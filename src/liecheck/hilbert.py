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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.hermite import hermgauss

from . import chars
from .models import (
    Estimate,
    GroupModel,
    build_group_model,
    chamber_coordinates,
    exp_i,
    haar_sample,
    irrep_matrices,
    rep_matrices,
)
from .quadrature import build_chamber_quadrature, integrate_invariant
from .rootdata import RootSystem, Weight, build_root_system, dimension, weight

__all__ = [
    "ConstantsRow",
    "IntegralRoute",
    "NormCheck",
    "bks_bracket",
    "bks_integral_transform",
    "c_constant",
    "constants_row",
    "d_constant",
    "naive_constant",
    "transform_apply",
    "verify_norm_identity",
]

TRANSFORM_NAMES = ("H", "Theta", "ThetaStar", "ScaledTheta", "Htilde")


def _norm2_shift(rs: RootSystem, lam: Weight) -> float:
    lr = lam.coords + rs.rho
    return float(lr @ lr)


def c_constant(rs: RootSystem, lam: Weight, t: float) -> float:
    """(t*pi)^(dim/2) * exp(t |lam+rho|^2)."""
    if t <= 0:
        raise ValueError("t must be positive")
    if not lam.is_dominant:
        raise ValueError("c_constant requires a dominant weight")
    return float((t * np.pi) ** (rs.dim_k / 2.0) * np.exp(t * _norm2_shift(rs, lam)))


def d_constant(rs: RootSystem, lam: Weight, t: float) -> float:
    """(2*t*pi)^(dim/2) * exp(t |lam+rho|^2 / 2)."""
    if t <= 0:
        raise ValueError("t must be positive")
    if not lam.is_dominant:
        raise ValueError("d_constant requires a dominant weight")
    return float(
        (2.0 * t * np.pi) ** (rs.dim_k / 2.0) * np.exp(t * _norm2_shift(rs, lam) / 2.0)
    )


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


def verify_norm_identity(
    rs: RootSystem, lam: Weight, t: float, which: str, order: int
) -> NormCheck:
    """Chamber-quadrature check of the C or D norm constant.

    which="C": (1/d) integral of char_holo(lam, 2Y) eta(Y) e^{-|Y|^2/t}.
    which="D": (1/d) integral of char_holo(lam, Y) eta(Y/2) e^{-|Y|^2/2t}.
    """
    d = dimension(rs, lam)
    if which == "C":
        closed = c_constant(rs, lam, t)
        mu = 2.0 * np.linalg.norm(lam.coords + rs.rho)
        q = build_chamber_quadrature(rs, t, order, mu)

        def f(Y):
            return (
                chars.weyl_char_holo(rs, lam, 2.0 * Y)
                * chars.eta(rs, Y)
                * np.exp(-np.sum(Y**2, axis=-1) / t)
            )

    elif which == "D":
        closed = d_constant(rs, lam, t)
        mu = float(np.linalg.norm(lam.coords + rs.rho))
        q = build_chamber_quadrature(rs, 2.0 * t, order, mu)

        def f(Y):
            return (
                chars.weyl_char_holo(rs, lam, Y)
                * chars.eta(rs, Y / 2.0)
                * np.exp(-np.sum(Y**2, axis=-1) / (2.0 * t))
            )

    else:
        raise ValueError("which must be 'C' or 'D'")
    val = integrate_invariant(q, f) / d
    return NormCheck(which, lam.dynkin, t, order, val, closed)


def naive_constant(rs: RootSystem, lam: Weight, t: float, order: int) -> Estimate:
    """Norm constant for the density-free Gaussian measure, by quadrature.

    (1/d) integral of char_holo(lam, 2Y) e^{-|Y|^2/t}; no closed form is
    asserted.  The reported stderr slot carries |value(order) -
    value(2*order)| as an order-doubling stability estimate.
    """
    d = dimension(rs, lam)
    mu = 2.0 * np.linalg.norm(lam.coords + rs.rho)

    def f(Y):
        return chars.weyl_char_holo(rs, lam, 2.0 * Y) * np.exp(
            -np.sum(Y**2, axis=-1) / t
        )

    vals = []
    for o in (order, 2 * order):
        q = build_chamber_quadrature(rs, t, o, mu)
        vals.append(integrate_invariant(q, f) / d)
    return Estimate(vals[0], abs(vals[0] - vals[1]))


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

    CSV_COLUMNS = (
        "group", "t", "dynkin", "d", "norm2_shift",
        "C", "D", "C_tilde", "C_tilde_err", "ratio_check",
    )


def constants_row(rs: RootSystem, lam: Weight, t: float, order: int) -> ConstantsRow:
    """Assemble the constants table row for one dominant weight.

    ratio_check is the relative defect of (4 t pi)^(-dim/4) D against
    sqrt(C); relative, because the absolute scale e^{t|lam+rho|^2/2} grows
    past any fixed absolute tolerance for large weights.
    """
    C = c_constant(rs, lam, t)
    D = d_constant(rs, lam, t)
    naive = naive_constant(rs, lam, t, order)
    root_c = float(np.sqrt(C))
    ratio = float(abs((4.0 * t * np.pi) ** (-rs.dim_k / 4.0) * D - root_c) / root_c)
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
        ratio_check=ratio,
    )


def _transform_factor(rs: RootSystem, lam: Weight, t: float, which: str, naive_order: int) -> float:
    if which == "H":
        return float(np.sqrt(c_constant(rs, lam, t)))
    if which == "Theta":
        return d_constant(rs, lam, t)
    if which == "ThetaStar":
        return d_constant(rs, lam, t) / c_constant(rs, lam, t)
    if which == "ScaledTheta":
        return float((4.0 * t * np.pi) ** (-rs.dim_k / 4.0) * d_constant(rs, lam, t))
    if which == "Htilde":
        return float(np.sqrt(naive_constant(rs, lam, t, naive_order).value))
    raise ValueError(f"unknown transform {which!r}; expected one of {TRANSFORM_NAMES}")


def transform_apply(series, which: str, naive_order: int | None = None):
    """Apply one of the diagonal dictionary operators to a series.

    H, Theta, ScaledTheta, Htilde map HL2 -> L2K; ThetaStar maps
    L2K -> HL2.  ScaledTheta coincides with H termwise; the scaled adjoint
    (4 t pi)^(-dim/4) ThetaStar inverts H.  Htilde uses the density-free
    constants, computed by quadrature at naive_order points per dimension.
    """
    rs = build_root_system(series.rs_kind)
    domain = "L2K" if which == "ThetaStar" else "HL2"
    if which not in TRANSFORM_NAMES:
        raise ValueError(f"unknown transform {which!r}; expected one of {TRANSFORM_NAMES}")
    if series.space != domain:
        raise ValueError(f"transform {which} expects a {domain} series, got {series.space}")
    if naive_order is None:
        naive_order = 64 if rs.rank == 1 else 96
    terms = {
        dynkin: _transform_factor(rs, weight(rs, dynkin), series.t, which, naive_order) * coeff
        for dynkin, coeff in series.terms.items()
    }
    out_space = "HL2" if which == "ThetaStar" else "L2K"
    return replace(series, space=out_space, terms=terms)


@dataclass(frozen=True)
class IntegralRoute:
    """Direct double-integral route for the pairing: Haar Monte-Carlo over
    the group crossed with Gauss-Hermite quadrature over the algebra."""

    samples: int
    seed: int
    hermite_order: int = 20


def _hermite_grid(t: float, order: int):
    # nodes/weights for integral over su(2) ~ R^3 of e^{-|Y|^2/(2t)} g(Y) dY
    h, hw = hermgauss(order)
    scale = np.sqrt(2.0 * t)
    pts = scale * h
    w = scale * hw
    coords = np.stack(np.meshgrid(pts, pts, pts, indexing="ij"), axis=-1).reshape(-1, 3)
    weights = (w[:, None, None] * w[None, :, None] * w[None, None, :]).reshape(-1)
    return coords, weights


def bks_integral_transform(
    phi, model: GroupModel, xs, hermite_order: int = 20
) -> np.ndarray:
    """The pairing transform of a holomorphic series, evaluated pointwise.

    F(x) = integral over the algebra of phi(x exp(iY)) e^{-|Y|^2/2t}
    eta(Y/2) dY, computed on a Gauss-Hermite grid; for a band-limited
    series the integrand is entire of exponential type, so the grid
    converges fast.  Returns F at each element of the batch xs.
    """
    if model.kind != "SU2":
        raise ValueError("the integral transform needs irreducible matrices (SU2 only)")
    if phi.space != "HL2":
        raise ValueError("the integral transform applies to HL2 series")
    rs = build_root_system(phi.rs_kind)
    xs = np.asarray(xs, complex)
    pts = xs if xs.ndim == 3 else xs[None]
    coords, gh_w = _hermite_grid(phi.t, hermite_order)
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
    exact on band-limited series.  route=IntegralRoute(...): Haar
    Monte-Carlo over the group of conj(F_phi(x)) * F(x) with the inner
    algebra integral on a Gauss-Hermite grid; reports a standard error.
    Conjugate-linear in phi, linear in F.
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
    if isinstance(route, IntegralRoute):
        from .fourier import synthesize_many  # deferred: fourier imports this module

        model = build_group_model("SU2")
        if phi.rs_kind != "A1":
            raise ValueError("the integral route needs irreducible matrices (SU2 only)")
        rng = np.random.default_rng(route.seed)
        xs = haar_sample(model, rng, route.samples)
        f_vals = synthesize_many(f_series, model, xs)
        f_phi = bks_integral_transform(phi, model, xs, route.hermite_order)
        prods = np.conj(f_phi) * f_vals
        mean = complex(prods.mean())
        sem = float(
            np.sqrt(prods.real.var(ddof=1) + prods.imag.var(ddof=1)) / np.sqrt(len(prods))
        )
        return Estimate(mean, sem)
    raise ValueError(f"unknown pairing route: {route!r}")
