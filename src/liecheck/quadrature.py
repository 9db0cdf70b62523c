"""Deterministic integration over the Lie algebra via chamber reduction.

For Ad-invariant integrands the integral over the whole algebra collapses
to the dominant chamber against the density prod_alpha <alpha, Y>^2 times a
constant flag-manifold volume factor.  The chamber is parameterized per
type: the half-line in the angle theta (<alpha, Y> = 2*theta) for A1, the
orthant of fundamental-weight coefficients for A2, and a full box for tori.
The flag volume is calibrated once against the Gaussian closed form and is
cross-checked here against a Cartesian Monte-Carlo oracle that never uses
the chamber reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from numpy.polynomial.legendre import leggauss

from .models import Estimate, GroupModel, MonteCarlo
from .rootdata import RootSystem, coords_of

__all__ = [
    "ChamberQuadrature",
    "GridA1",
    "build_chamber_quadrature",
    "calibrate_flag_volume",
    "cartesian_oracle_integrate",
    "gaussian_linear_moment",
    "integrate_invariant",
]

SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class GridA1:
    """Radial 1-D grid scheme for Ad-invariant integrands over su(2)."""

    order: int


@dataclass(frozen=True, eq=False)
class ChamberQuadrature:
    """Nodes and weights realizing the chamber-reduced integral.

    weights already contain the density prod <alpha, Y>^2, the chamber
    parameterization measure, and the flag_volume factor, so that
    sum(weights * f(nodes)) approximates the integral of an Ad-invariant f
    over the whole algebra.
    """

    rs_kind: str
    nodes: np.ndarray    # (N, rank), strictly dominant
    weights: np.ndarray  # (N,), positive
    radius: float
    order: int


def truncation_radius(t: float, target_mu_norm: float) -> float:
    """Gaussian tail cut: |Y| range for integrands e^{-|Y|^2/t + |mu||Y|} poly."""
    return float(np.sqrt(t) * (target_mu_norm * np.sqrt(t) / 2.0 + 8.0))


@lru_cache(maxsize=None)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order.

    The arrays are shared by every caller, so they are read-only.
    """
    x, w = leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gauss_legendre_01(order: int, upper: float):
    x, w = _leggauss(order)
    return (x + 1.0) * upper / 2.0, w * upper / 2.0


def _chamber_nodes_raw(
    kind: str,
    positive_roots: np.ndarray,
    fundamental_weights: np.ndarray,
    t: float,
    order: int,
    target_mu_norm: float,
):
    """Nodes plus weights without the flag_volume factor; radius last."""
    R = truncation_radius(t, target_mu_norm)
    if kind == "A1":
        theta, gw = _gauss_legendre_01(order, R / SQRT2)
        nodes = (SQRT2 * theta)[:, None]
        weights = (2.0 * theta) ** 2 * gw
        return nodes, weights, R
    if kind == "A2":
        S = float(np.sqrt(1.5) * R)  # s-box covering chamber ∩ ball(R)
        s, gw = _gauss_legendre_01(order, S)
        s1, s2 = np.meshgrid(s, s, indexing="ij")
        gw2 = np.outer(gw, gw)
        nodes = s1[..., None] * fundamental_weights[0] + s2[..., None] * fundamental_weights[1]
        dens = (s1 * s2 * (s1 + s2)) ** 2
        return nodes.reshape(-1, 2), (dens * gw2).reshape(-1), R
    if kind.startswith("T"):
        # mirrored half-line panels: `order` points per half-axis, matching
        # the resolution of the A1 half-line rule
        rank = fundamental_weights.shape[0]
        half, gw_half = _gauss_legendre_01(order, R)
        pts = np.concatenate([-half[::-1], half])
        gw = np.concatenate([gw_half[::-1], gw_half])
        grids = np.meshgrid(*([pts] * rank), indexing="ij")
        nodes = np.stack(grids, axis=-1).reshape(-1, rank)
        weights = reduce(np.multiply.outer, [gw] * rank).reshape(-1)
        return nodes, weights, R
    raise ValueError(f"unsupported kind for chamber quadrature: {kind!r}")


def _gaussian_chamber_mass(
    kind: str, positive_roots: np.ndarray, fundamental_weights: np.ndarray, order: int
) -> float:
    """Chamber integral of the density times e^{-|Y|^2}, without the flag volume."""
    nodes, raw, _ = _chamber_nodes_raw(
        kind, positive_roots, fundamental_weights, 1.0, order, 0.0
    )
    return float(raw @ np.exp(-np.sum(nodes**2, axis=-1)))


def flag_volume_from_gaussian(
    kind: str,
    positive_roots: np.ndarray,
    fundamental_weights: np.ndarray,
    dim_k: int,
    order: int = 200,
) -> float:
    """Calibrate the flag-volume factor against the Gaussian closed form.

    V = pi^(dim_k/2) / integral over the parameterized chamber of the
    density times e^{-|Y|^2}.  For A1 this reproduces 2^(3/2)*pi.
    """
    if kind.startswith("T"):
        return 1.0
    q = _gaussian_chamber_mass(kind, positive_roots, fundamental_weights, order)
    return float(np.pi ** (dim_k / 2.0) / q)


def build_chamber_quadrature(
    rs: RootSystem, t: float, order: int, target_mu_norm: float = 0.0
) -> ChamberQuadrature:
    """Gauss-Legendre chamber rule sized for integrands e^{-|Y|^2/t + |mu||Y|}.

    Parameters
    ----------
    rs : RootSystem
    t : float
        Gaussian width parameter of the target integrand family.
    order : int
        Points per dimension, at least 8.
    target_mu_norm : float
        Norm of the largest exponential-growth vector mu expected; sets the
        truncation radius sqrt(t) * (|mu| sqrt(t)/2 + 8).
    """
    if order < 8:
        raise ValueError("quadrature order must be >= 8")
    if t <= 0:
        raise ValueError("t must be positive")
    nodes, raw, R = _chamber_nodes_raw(
        rs.kind, rs.positive_roots, rs.fundamental_weights, t, order, target_mu_norm
    )
    return ChamberQuadrature(
        rs_kind=rs.kind,
        nodes=nodes,
        weights=rs.flag_volume * raw,
        radius=R,
        order=order,
    )


def integrate_invariant(q: ChamberQuadrature, f) -> float:
    """Integrate an Ad-invariant function over the algebra.

    f receives the node array of shape (N, rank) and must return (N,)
    values; the caller is responsible for Ad-invariance of the integrand it
    represents.
    """
    vals = np.asarray(f(q.nodes), dtype=float)
    if vals.shape != (len(q.nodes),):
        raise ValueError("integrand must return one value per node")
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand produced non-finite values at quadrature nodes")
    return float(q.weights @ vals)


def gaussian_linear_moment(rs: RootSystem, mu, t: float) -> float:
    """Closed form of the Gaussian-exponential moment over the algebra.

    integral of e^{-<mu, Y> - |Y|^2/t} dY = (t*pi)^(dim_k/2) * e^{t|mu|^2/4}.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    m2 = float(np.sum(coords_of(mu) ** 2))
    return float((t * np.pi) ** (rs.dim_k / 2.0) * np.exp(t * m2 / 4.0))


def cartesian_oracle_integrate(model: GroupModel, f, t: float, scheme) -> Estimate:
    """Brute-force integral of f(Y) e^{-|Y|^2/t} over the full algebra.

    No chamber reduction is used.  f receives orthonormal ad-basis
    coordinates of shape (N, dim_k) and returns the non-Gaussian factor as
    (N,) values.

    MonteCarlo: importance sampling with Y ~ Normal(0, t/2 per coordinate),
    so the estimator is (t*pi)^(m/2) * mean f with a reported standard
    error.  GridA1: exact radial reduction for Ad-invariant f on su(2).
    """
    m = model.dim_k
    if isinstance(scheme, MonteCarlo):
        rng = np.random.default_rng(scheme.seed)
        c = rng.normal(0.0, np.sqrt(t / 2.0), size=(scheme.samples, m))
        vals = np.asarray(f(c), dtype=float)
        norm = (t * np.pi) ** (m / 2.0)
        mean = norm * float(vals.mean())
        sem = norm * float(vals.std(ddof=1) / np.sqrt(len(vals)))
        return Estimate(mean, sem)
    if isinstance(scheme, GridA1):
        if model.kind != "SU2":
            raise ValueError("GridA1 scheme requires the SU2 model")
        r, gw = _gauss_legendre_01(scheme.order, truncation_radius(t, 0.0))
        coords = np.zeros((len(r), m))
        coords[:, model.cartan_indices[0]] = r
        vals = np.asarray(f(coords), dtype=float)
        total = 4.0 * np.pi * float(gw @ (r**2 * vals * np.exp(-(r**2) / t)))
        return Estimate(total, 0.0)
    raise ValueError(f"unknown Cartesian integration scheme: {scheme!r}")


def calibrate_flag_volume(
    rs: RootSystem,
    model: GroupModel | None = None,
    samples: int = 1_000_000,
    seed: int = 20107,
) -> float:
    """Flag-volume factor, Monte-Carlo checked and refined to closed form.

    The Gaussian integral over the algebra is estimated by the Cartesian
    oracle (sampling width 2 so the estimator has honest variance) and
    divided by the chamber integral of the density times e^{-|Y|^2}; the
    refined value pi^(dim/2)/Q from the exact Gaussian moment is returned
    after checking the Monte-Carlo estimate agrees within 5 sigma.
    """
    if rs.is_torus:
        return 1.0
    if model is None:
        raise ValueError("calibration against the Cartesian oracle needs a model")
    q = _gaussian_chamber_mass(rs.kind, rs.positive_roots, rs.fundamental_weights, 200)
    mc = cartesian_oracle_integrate(
        model,
        lambda c: np.exp(-np.sum(c**2, axis=-1) / 2.0),
        2.0,
        MonteCarlo(samples, seed),
    )
    refined = float(np.pi ** (rs.dim_k / 2.0) / q)
    v_mc = mc.value / q
    sigma_v = mc.stderr / q
    if abs(v_mc - refined) > 5.0 * sigma_v:
        raise ArithmeticError(
            f"flag-volume calibration mismatch beyond 5 sigma: "
            f"mc={v_mc!r} refined={refined!r} sigma={sigma_v!r}"
        )
    return refined
