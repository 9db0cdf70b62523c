"""Half-form densities, Weyl characters, and normalized orbital averages.

The density eta is evaluated in its closed product form over positive
roots; an independent determinant oracle lives beside it.  Characters are
evaluated in the holomorphically continued form (positive on exp(i t)),
and Cartan points are float arrays of shape (..., rank).  The orbital
average A(mu, Y) is the probability-normalized flag-manifold integral of
exp(-<mu, Ad_y Y>), which makes the character/orbit identity free of
volume conventions:

    eta(Y)   * char_holo(lam, 2Y) = d_lam * A(2(lam+rho), Y)
    eta(Y/2) * char_holo(lam,  Y) = d_lam * A(lam+rho, Y)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .models import (
    CARTAN_EIGEN_EMBED,
    Estimate,
    GroupModel,
    MonteCarlo,
    _gauss_legendre_01,
    _gauss_rule,
    _read_only,
    _sinhc,
    algebra_coords,
    cartan_element,
    group_model_for,
    haar_mean,
    haar_nodes,
)
from .rootdata import RootSystem, Weight, build_root_system, dimension

__all__ = [
    "ClosedFormA1",
    "HurwitzSU3",
    "eta",
    "eta_det_oracle",
    "j_half_identity_residual",
    "kirillov_sides",
    "orbital_average",
    "weyl_char_holo",
]


@dataclass(frozen=True)
class ClosedFormA1:
    """Orbital-average scheme using the exact 2-sphere average for su(2)."""


@dataclass(frozen=True)
class HurwitzSU3:
    """Orbital-average scheme: a product rule over SU(3) Haar measure.

    Hurwitz's column-by-column parametrisation of Haar measure (Zyczkowski
    & Kus, J. Phys. A 27 (1994) 4235) with `order` points on each of its
    four axes, order^4 nodes.  It uses neither the Weyl quotient nor HCIZ.
    """

    order: int


def eta(rs: RootSystem, Y) -> np.ndarray | float:
    """Half-form density: prod over positive roots of sinh<a,Y>/<a,Y>.

    Y is an array of shape (..., rank); strictly positive, even, and Weyl
    invariant.  Empty product (tori) gives 1.
    """
    c = np.asarray(Y, float)
    scalar = c.ndim == 1
    if rs.is_torus:
        out = np.ones(c.shape[:-1])
        return float(out) if scalar else out
    pair = c @ rs.positive_roots.T
    out = np.prod(_sinhc(pair), axis=-1)
    return float(out) if scalar else out


def eta_det_oracle(model: GroupModel, Y) -> float:
    """Density via the determinant route: det(sin(ad Y)/ad Y)^(1/2).

    Y is an algebra element given as a defining-representation matrix.  The
    ad matrix is assembled in the orthonormal basis, its (imaginary)
    spectrum extracted, and sin(x)/x applied spectrally; agrees with the
    product form on chamber representatives of conjugates.
    """
    Y = np.asarray(Y, complex)
    basis = model.ad_basis
    brackets = Y[None, :, :] @ basis - basis @ Y[None, :, :]
    ad = algebra_coords(model, brackets).T  # column b = coords of [Y, e_b]
    w = np.linalg.eigvalsh(1j * ad)         # ad is real antisymmetric
    # eigenvalue i*w contributes sin(i*w)/(i*w) = sinh(w)/w
    det = float(np.prod(_sinhc(w)))
    return float(np.sqrt(det))


def j_half_identity_residual(rs: RootSystem, Y) -> float:
    """|j(iY) - eta(Y/2)|, the two sides by independent routes.

    j(iY) is the product over positive roots of sinh(<a,Y>/2)/(<a,Y>/2),
    the product form eta(rs, Y/2); eta(Y/2) is the determinant route
    det(sin(ad)/ad)^(1/2) at the Cartan element Y/2 of the SU(2) or SU(3)
    matrix model.  Tori give 0.
    """
    half = np.asarray(Y, float) / 2.0
    model = group_model_for(rs.kind)
    if model is None:
        return 0.0
    return abs(float(eta(rs, half)) - eta_det_oracle(model, cartan_element(model, half)))


def _weyl_orbit(rs: RootSystem, v: np.ndarray) -> np.ndarray:
    return np.einsum("wij,j->wi", rs.weyl_elements, v)


@lru_cache(maxsize=None)
def _gt_weight_vectors(kind: str, dynkin: tuple) -> tuple:
    """Monomial exponents of the character as a positive sum, one per basis
    state (Gelfand-Tsetlin pattern); A1 and A2 only."""
    if kind == "A1":
        n = dynkin[0]
        return tuple((k, n - k) for k in range(n + 1))
    p, q = dynkin
    k1, k2, k3 = p + q, q, 0
    out = []
    for m1 in range(k2, k1 + 1):
        for m2 in range(k3, k2 + 1):
            for b in range(m2, m1 + 1):
                out.append((b, m1 + m2 - b, k1 + k2 + k3 - m1 - m2))
    return tuple(out)


def _char_holo_positive(rs: RootSystem, lam: Weight, pts: np.ndarray) -> np.ndarray:
    """Continued character as a sum of positive monomials e^{-<weight, a>}.

    Cancellation-free, so it stays exact on and near Weyl-chamber walls
    where the alternating quotient degenerates.  The monomial exponents are
    the diagonal entries a of Y = i diag(a) at exp(iY) = diag(e^{-a}).
    """
    a = pts @ CARTAN_EIGEN_EMBED[rs.kind]
    weights = np.asarray(_gt_weight_vectors(rs.kind, lam.dynkin), dtype=float)
    return np.exp(-(a @ weights.T)).sum(axis=-1)


def weyl_char_holo(rs: RootSystem, lam: Weight, Y) -> np.ndarray | float:
    """Holomorphically continued character at exp(iY), batched.

    chi^C(exp iY) = sum_w det(w) e^{-<w(lam+rho), Y>} over the analogous rho
    sum; real and >= 1 on the closed dominant chamber.  Where the
    alternating quotient degenerates (Weyl-denominator zeros on chamber
    walls, including Y = 0) the value is recomputed from the
    cancellation-free positive-monomial form, which stays exact there.
    On a torus W = {1} and rho = 0, so the character is the single
    monomial e^{-<lam, Y>}.
    """
    if not lam.is_dominant:
        raise ValueError("weyl_char_holo requires a dominant weight")
    c = np.asarray(Y, float)
    scalar = c.ndim == 1
    pts = np.atleast_2d(c)
    if rs.is_torus:
        out = np.exp(-(pts @ lam.coords))
        return float(out[0]) if scalar else out
    signs = rs.weyl_signs.astype(float)
    wl = _weyl_orbit(rs, lam.coords + rs.rho)
    wr = _weyl_orbit(rs, rs.rho)
    num = np.exp(-(pts @ wl.T)) @ signs
    den_terms = np.exp(-(pts @ wr.T))
    den, den_scale = den_terms @ signs, den_terms @ np.abs(signs)
    del den_terms  # (N, |W|): free it before the wall test's temporaries
    # wall detection: absolute underflow or heavy cancellation in the sum
    bad = (np.abs(den) < 1e-12) | (np.abs(den) < 1e-7 * den_scale)
    out = np.divide(num, np.where(bad, 1.0, den))
    if np.any(bad):
        out[bad] = _char_holo_positive(rs, lam, pts[bad])
    return float(out[0]) if scalar else out


@lru_cache(maxsize=None)
def _hurwitz_su3_moduli(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared moduli |y_ij|^2 at the nodes of the HurwitzSU3 rule, and weights.

    A left torus factor leaves the moduli unchanged, so the first column u
    is taken real.  Its squared moduli p are uniform on the 2-simplex:
    collapsed (Duffy) Gauss-Legendre p = (s, (1-s) r, (1-s)(1-r)) with
    weight 2 (1-s) w_s w_r.  The second column v is a uniform point of
    CP^1 = S^2 inside u^perp; with e, f a real orthonormal basis of u^perp,
    |v_i|^2 = (1+z)/2 e_i^2 + (1-z)/2 f_i^2 + sqrt(1-z^2) cos(phi) e_i f_i,
    Gauss-Legendre in z and the trapezoid rule in phi.  The third column's
    moduli are 1 - p_i - |v_i|^2.

    Returns (N, 9) moduli, entry 3i + j being |y_ij|^2, and (N,) weights
    summing to 1; N = order^4.  The arrays are shared by every caller, so
    they are read-only.
    """
    s, ws = _gauss_legendre_01(order, 1.0)
    s, r = s[:, None], s[None, :]
    p = np.stack(np.broadcast_arrays(s, (1.0 - s) * r, (1.0 - s) * (1.0 - r)), axis=-1)
    p = p.reshape(-1, 3)
    w_simplex = (2.0 * (1.0 - s) * ws[:, None] * ws[None, :]).reshape(-1)
    # e: the coordinate axis of u's smallest entry (u_k^2 <= 1/3) made
    # orthogonal to u; f = u x e completes the basis of u^perp
    u = np.sqrt(p)
    k = np.argmin(u, axis=-1)
    e = -u[np.arange(len(u)), k][:, None] * u
    e[np.arange(len(u)), k] += 1.0
    e /= np.sqrt(np.einsum("ni,ni->n", e, e))[:, None]
    f = np.cross(u, e)
    z, wz = _gauss_rule("legendre", order)
    z, phi = np.meshgrid(z, 2.0 * np.pi * np.arange(order) / order, indexing="ij")
    along_e = ((1.0 + z) / 2.0).reshape(-1, 1)
    mixed = (np.sqrt(1.0 - z * z) * np.cos(phi)).reshape(-1, 1)
    w_sphere = np.repeat(wz / (2.0 * order), order)
    v = (along_e * (e * e)[:, None, :] + (1.0 - along_e) * (f * f)[:, None, :]
         + mixed * (e * f)[:, None, :])
    moduli = np.empty(v.shape + (3,))
    moduli[..., 0] = p[:, None, :]
    moduli[..., 1] = v
    moduli[..., 2] = 1.0 - p[:, None, :] - v
    moduli = moduli.reshape(-1, 9)
    return _read_only(moduli, np.outer(w_simplex, w_sphere).reshape(-1))


def orbital_average(model: GroupModel, mu, Y, scheme) -> Estimate:
    """Normalized orbital average A(mu, Y) of exp(-<mu, Ad_y Y>) over K/T.

    ClosedFormA1 uses the exact sphere average sinh(|mu||Y|)/(|mu||Y|);
    HurwitzSU3 is a deterministic product rule over SU(3) Haar measure;
    MonteCarlo averages over the Haar samples of models.haar_nodes (the
    integrand is right T-invariant, so Haar on K realizes the normalized
    K/T measure) and reports a standard error.  The last two see the group
    element only through the squared moduli of its entries, and both
    average through models.haar_mean.
    """
    mu_c = np.asarray(mu, float)
    y_c = np.asarray(Y, float)
    if isinstance(scheme, ClosedFormA1):
        if model.rs_kind != "A1":
            raise ValueError("ClosedFormA1 scheme requires the SU2 model")
        x = float(np.linalg.norm(mu_c) * np.linalg.norm(y_c))
        return Estimate(float(_sinhc(x)), 0.0)
    # Y = i diag(b), mu = i diag(m): <mu, Ad_y Y> = sum_ij m_i b_j |y_ij|^2
    b = np.diagonal(cartan_element(model, y_c)).imag
    m = np.diagonal(cartan_element(model, mu_c)).imag
    if isinstance(scheme, HurwitzSU3):
        if model.kind != "SU3":
            raise ValueError("HurwitzSU3 scheme requires the SU3 model")
        points, weights = _hurwitz_su3_moduli(scheme.order)
        mb = np.outer(m, b).reshape(-1)

        def pair(moduli):
            return moduli @ mb

    elif isinstance(scheme, MonteCarlo):
        points, weights = haar_nodes(model, scheme)

        def pair(ys):
            return ((ys.real**2 + ys.imag**2) @ b) @ m

    else:
        raise ValueError(f"unknown orbital-average scheme: {scheme!r}")
    mean, sem = haar_mean(lambda p: np.exp(-pair(p)), points, weights)
    return Estimate(float(mean), float(sem))


def kirillov_sides(
    model: GroupModel,
    lam: Weight,
    Y,
    scheme,
    half_angle: bool = False,
) -> tuple[float, Estimate]:
    """Both sides of the character/orbit identity in volume-free form.

    Default: eta(Y) * char_holo(lam, 2Y) and d * A(2(lam+rho), Y).
    half_angle: eta(Y/2) * char_holo(lam, Y) and d * A(lam+rho, Y).
    The right side's stderr is d times the orbital average's standard error.
    """
    rs = build_root_system(model.rs_kind)
    d = dimension(rs, lam)
    y_c = np.asarray(Y, float)
    if half_angle:
        lhs = float(eta(rs, y_c / 2.0)) * float(weyl_char_holo(rs, lam, y_c))
        mu = lam.coords + rs.rho
    else:
        lhs = float(eta(rs, y_c)) * float(weyl_char_holo(rs, lam, 2.0 * y_c))
        mu = 2.0 * (lam.coords + rs.rho)
    avg = orbital_average(model, mu, y_c, scheme)
    return lhs, Estimate(d * avg.value, d * avg.stderr)
