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
from .models import Estimate, GroupModel, _read_only, haar_mean, haar_nodes, mul2x2
from .rootdata import RootSystem, Weight, build_root_system, weight

__all__ = [
    "energy_eigenvalue",
    "heat_convolution_residual",
    "heat_kernel_eval",
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


def heat_convolution_residual(
    model: GroupModel,
    f_series: FourierSeries,
    t: float,
    ys,
    scheme,
) -> Estimate:
    """Spatial vs spectral heat flow on a band-limited function.

    At each point y of the batch ys, compares the Haar mean of
    p_t(y x^{-1}) f(x) over the scheme's points x against the multiplier
    route evaluated at y.  scheme is MonteCarlo or the HaarSU2 rule; the
    rule is exact when its degree is at least the kept kernel terms minus
    one plus the series' top Dynkin label.  Returns the largest
    |difference| with the standard error at that point.
    """
    if model.kind != "SU2":
        raise ValueError("heat_convolution_residual needs SU2")
    xs, weights = haar_nodes(model, scheme)
    f_vals = synthesize_many(f_series, model, xs)
    flowed = heat_multiplier_apply(f_series, t)
    xinv = np.conj(np.swapaxes(xs, -1, -2))
    worst = Estimate(-1.0, 0.0)
    for y in ys:
        mean, sem = haar_mean(
            lambda xi, fv, y=y: heat_kernel_eval(model, t, mul2x2(y, xi))[0] * fv,
            (xinv, f_vals), weights)
        resid = abs(complex(mean) - synthesize(flowed, model, y))
        if resid > worst.value:
            worst = Estimate(resid, float(sem))
    return worst
