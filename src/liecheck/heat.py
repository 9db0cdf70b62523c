"""Energy spectrum and the heat-multiplier form of the adjoint transform.

The Casimir acts on the lam-isotypical summand as -epsilon_lam with
epsilon_lam = |lam+rho|^2 - |rho|^2, so the half-time heat flow is the
diagonal multiplier e^{-t epsilon_lam / 2}.  Composing it with the constant
2^(dim/2) e^{-t|rho|^2/2} reproduces the adjoint pairing multiplier
2^(dim/2) e^{-t|lam+rho|^2/2} exactly; the same flow is realized spatially
by convolution with the heat kernel p_t = sum d_lam e^{-t epsilon/2} chi_lam.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fourier import FourierSeries, synthesize, synthesize_many
from .models import (
    SQRT2,
    GroupModel,
    _gauss_rule,
    _read_only,
    algebra_element,
    haar_mean,
    mul2x2,
)
from .quadrature import _tensor_rule
from .rootdata import RootSystem, Weight, build_root_system, weight

__all__ = [
    "energy_eigenvalue",
    "heat_convolution_residual",
    "heat_kernel_eval",
    "heat_kernel_integral",
    "heat_multiplier_apply",
]

_TERM_CAP = 10_000


def energy_eigenvalue(rs: RootSystem, lam: Weight) -> float:
    """Casimir/Laplace-Beltrami eigenvalue |lam+rho|^2 - |rho|^2, >= 0."""
    if not lam.is_dominant:
        raise ValueError("energy_eigenvalue requires a dominant weight")
    lr = lam.coords + rs.rho
    return float(lr @ lr - rs.rho @ rs.rho)


def heat_multiplier_apply(
    series: FourierSeries, t: float, include_prefactor: bool = False
) -> FourierSeries:
    """Half-time heat flow as the diagonal multiplier e^{-t epsilon_lam/2}.

    The bare multiplier acts on either space and preserves the tag.  With
    include_prefactor the constant 2^(dim/2) e^{-t|rho|^2/2} is included,
    realizing the adjoint pairing transform: the input must then be an L2K
    series and the output is tagged HL2 at parameter t.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if include_prefactor and series.space != "L2K":
        raise ValueError("the prefactor form realizes L2K -> HL2 only")
    rs = build_root_system(series.rs_kind)
    pref = 1.0
    if include_prefactor:
        pref = float(2.0 ** (rs.dim_k / 2.0) * np.exp(-t * (rs.rho @ rs.rho) / 2.0))
    terms = {
        dynkin: pref * np.exp(-t * energy_eigenvalue(rs, weight(rs, dynkin)) / 2.0) * coeff
        for dynkin, coeff in series.terms.items()
    }
    if include_prefactor:
        return FourierSeries(series.rs_kind, "HL2", t, terms)
    return FourierSeries(series.rs_kind, series.space, series.t, terms)


@lru_cache(maxsize=None)
def _truncation(t: float, cutoff: float) -> tuple[np.ndarray, float]:
    """Multipliers e^{-t epsilon_n/2} of the kept heat-kernel terms, and the
    first omitted bound.

    Term n is kept while every earlier bound (m+1)^2 e^{-t epsilon_m/2},
    m <= n, is at least cutoff.  Raises when more than 10^4 terms would be
    kept.  Built once per (t, cutoff), not once per block of kernel points;
    the multipliers are shared by every caller, so they are read-only.
    """
    rs = build_root_system("A1")
    ns = np.arange(_TERM_CAP + 1)
    lr = ns[:, None] * rs.fundamental_weights[0] + rs.rho
    decay = np.exp(-t * (np.sum(lr * lr, axis=-1) - rs.rho @ rs.rho) / 2.0)
    bounds = (ns + 1.0) ** 2 * decay
    below = bounds < cutoff
    if not below.any():
        raise ValueError(f"t too small for cutoff: over {_TERM_CAP} terms needed")
    n_terms = int(np.argmax(below))
    return *_read_only(decay[:n_terms]), float(bounds[n_terms])


def heat_kernel_eval(model: GroupModel, t: float, x, cutoff: float = 1e-12):
    """Heat kernel p_t(x) = sum d_lam e^{-t epsilon/2} chi_lam(x), truncated.

    Terms are dropped once the bound d^2 e^{-t epsilon/2} falls below
    cutoff; the first omitted bound is reported alongside the value.
    Raises, before touching x, when the truncation set would exceed 10^4
    terms.  The characters come from one Chebyshev recurrence
    U_n(cos phi) carried across n.
    """
    if model.kind != "SU2":
        raise ValueError("heat_kernel_eval needs pointwise characters (SU2 only)")
    if t <= 0:
        raise ValueError("t must be positive")
    decay, bound = _truncation(t, cutoff)
    xs = np.asarray(x, complex)
    c = np.clip(np.einsum("...ii->...", xs).real / 2.0, -1.0, 1.0)
    total = np.zeros(xs.shape[:-2])
    u_prev, u = np.zeros_like(c), np.ones_like(c)
    for n, e in enumerate(decay):
        total = total + (n + 1) * e * u
        u_prev, u = u, 2.0 * c * u - u_prev
    return (total if total.shape else float(total)), bound


def _polar_rule(model: GroupModel, nodes: int, band: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes w (N, 2, 2) and weights (N,) of a Haar rule on SU(2) in polar form.

    w = exp(theta e) = cos(theta) I + sin(theta) e, with e the algebra
    element of unit direction u in S^2 scaled so that e^2 = -I; tr w =
    2 cos theta.  Haar measure is (2/pi) sin^2 theta dtheta du / 4 pi (the
    Weyl integration formula).  theta takes the midpoint rule, theta_k =
    (k + 1/2) pi / nodes with weights (2/nodes) sin^2 theta_k, which
    integrates a g(theta) sin^2 theta that is a cosine polynomial of degree
    below 2 nodes exactly.  u takes (band//2 + 1)-point Gauss-Legendre in
    its height times the (band + 1)-point trapezoid rule in its azimuth,
    exact for polynomials in u of degree <= band.
    """
    theta = (np.arange(nodes) + 0.5) * (np.pi / nodes)
    azimuths = (2.0 * np.pi * np.arange(band + 1) / (band + 1), np.full(band + 1, 1.0 / (band + 1)))
    pts, w = _tensor_rule((theta, (1.0 / nodes) * np.sin(theta) ** 2),
                          _gauss_rule("legendre", band // 2 + 1), azimuths)
    theta, z, phi = pts.T
    s = np.sqrt(1.0 - z * z)
    e = SQRT2 * algebra_element(model, np.stack([s * np.cos(phi), s * np.sin(phi), z], -1))
    return np.cos(theta)[:, None, None] * np.eye(2) + np.sin(theta)[:, None, None] * e, w


def heat_kernel_integral(model: GroupModel, t: float, nodes: int) -> float:
    """Haar integral of heat_kernel_eval on _polar_rule(model, nodes, 0).

    The truncated kernel is sum_n (n+1) e_n sin((n+1) theta) / sin theta,
    so p_t sin^2 theta is a cosine polynomial of degree (kept terms + 1),
    and the rule is exact once 2 nodes exceeds it.  The sum goes through
    haar_mean.
    """
    ws, weights = _polar_rule(model, nodes, 0)
    return float(haar_mean(lambda w: heat_kernel_eval(model, t, w)[0], ws, weights)[0])


def heat_convolution_residual(
    model: GroupModel,
    f_series: FourierSeries,
    t: float,
    ys,
    nodes: int,
) -> float:
    """Spatial vs spectral heat flow on a band-limited function.

    At each point y of the batch ys, compares the Haar integral of
    p_t(y x^{-1}) f(x) against the multiplier route evaluated at y.  The
    integral runs over x = w y, w on _polar_rule(model, nodes, L) with L
    the series' top Dynkin label, where y x^{-1} = w^{-1}: the kernel at
    w^{-1} depends on theta alone, and f(w y), of degree L in the entries
    of w, is a polynomial of degree L in u and a cosine polynomial of
    degree L in theta once averaged over u.  The rule is exact once
    2 nodes exceeds the kept kernel terms + 1 + L.  Returns the largest
    |difference| over ys.
    """
    if model.kind != "SU2":
        raise ValueError("heat_convolution_residual needs SU2")
    ws, weights = _polar_rule(model, nodes, max(dn[0] for dn in f_series.terms))
    kernel, _ = heat_kernel_eval(model, t, np.conj(np.swapaxes(ws, -1, -2)))
    flowed = heat_multiplier_apply(f_series, t)
    worst = 0.0
    for y in ys:
        mean, _ = haar_mean(
            lambda w, p, y=y: p * synthesize_many(f_series, model, mul2x2(w, y)),
            (ws, kernel), weights)
        worst = max(worst, abs(complex(mean) - synthesize(flowed, model, y)))
    return worst
