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
from .models import GroupModel, _polar_rule, _read_only, haar_mean, mul2x2
from .rootdata import RootSystem, Weight, build_root_system, is_dominant, weight

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
    if not is_dominant(rs, lam):
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


def heat_kernel_integral(model: GroupModel, t: float, nodes: int) -> float:
    """Haar integral of heat_kernel_eval on models._polar_rule(nodes, 0).

    The truncated kernel is sum_n (n+1) e_n U_n(cos theta), a polynomial
    of degree (kept terms - 1) in cos theta, and the rule is exact once
    2 nodes - 1 reaches it.  The sum goes through haar_mean.
    """
    ws, weights = _polar_rule(nodes, 0)
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
    integral runs over x = w y, w on models._polar_rule(nodes, L) with L
    the series' top Dynkin label, where y x^{-1} = w^{-1}: the kernel at
    w^{-1} is a polynomial of degree (kept terms - 1) in cos theta, and
    f(w y), of degree L in the entries of w, is one of degree <= L in
    cos theta once averaged over the rule's directions.  The rule is exact
    once 2 nodes - 1 reaches kept terms - 1 + L.  Returns the largest
    |difference| over ys.
    """
    if model.kind != "SU2":
        raise ValueError("heat_convolution_residual needs SU2")
    ws, weights = _polar_rule(nodes, max(dn[0] for dn in f_series.terms))
    kernel, _ = heat_kernel_eval(model, t, np.conj(np.swapaxes(ws, -1, -2)))
    flowed = heat_multiplier_apply(f_series, t)
    worst = 0.0
    for y in ys:
        mean, _ = haar_mean(
            lambda w, p, y=y: p * synthesize_many(f_series, model, mul2x2(w, y)),
            (ws, kernel), weights)
        worst = max(worst, abs(complex(mean) - synthesize(flowed, model, y)))
    return worst
