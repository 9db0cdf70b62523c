"""Half-form densities, Weyl characters, and normalized orbital averages.

The density eta is exp(log_eta), log_eta a sum of log(sinh x / x) at the
positive-root pairings, arrays that broadcast; an independent determinant
oracle lives beside it.  The continued characters (positive on exp(i t))
come from one evaluator, _chamber_char_parts, in the simple-root
coordinates s_i = <alpha_i, Y> of a dominant Y = sum_i s_i w_i: one
log-scale term per axis and a mantissa, arrays that broadcast, so on a
chamber grid every term of one s_i is formed once per axis point.
Scattered Cartan points first map to the s of their dominant representative.
The orbital average A(mu, Y) is the probability-normalized flag-manifold
integral of exp(-<mu, Ad_y Y>), which makes the character/orbit identity
free of volume conventions:

    eta(Y)   * char_holo(lam, 2Y) = d_lam * A(2(lam+rho), Y)
    eta(Y/2) * char_holo(lam,  Y) = d_lam * A(lam+rho, Y)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate

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


def _log_sinhc(x: np.ndarray) -> np.ndarray:
    """log(sinh(x)/x) without overflow: |x| + log((1 - e^{-2|x|}) / (2|x|)),
    and log(1 + x^2/6) where |x| < 1e-8, the small-x branch of models._sinhc."""
    ax = np.abs(x)
    safe = np.maximum(ax, 1e-8)
    return np.where(ax < 1e-8, np.log1p(ax * ax / 6.0),
                    safe + np.log(-np.expm1(-2.0 * safe) / (2.0 * safe)))


def _pairings(c: np.ndarray, matrix: np.ndarray) -> list[np.ndarray]:
    """The columns of c @ matrix, elementwise: no BLAS routine that depends on the batch."""
    return [sum(c[..., i] * col[i] for i in range(len(col))) for col in matrix.T]


def root_pairings(rs: RootSystem, Y) -> list[np.ndarray]:
    """<alpha, Y> for each positive root alpha, Y of shape (..., rank)."""
    return _pairings(np.asarray(Y, float), rs.positive_roots.T)


def log_eta(pairings) -> np.ndarray | float:
    """log eta, the sum over positive roots of log(sinh x / x) at their
    pairings x = <alpha, Y>: arrays that broadcast, as root_pairings gives
    for Cartan points or the chamber rules for their slabs; finite wherever
    they are, and 0 without roots (a torus)."""
    return sum(map(_log_sinhc, pairings), 0.0)


def eta(rs: RootSystem, Y) -> np.ndarray | float:
    """Half-form density: prod over positive roots of sinh<a,Y>/<a,Y>, as
    exp(log_eta); strictly positive, even, Weyl invariant, and 1 on a torus."""
    c = np.asarray(Y, float)
    if rs.is_torus:
        return np.exp(np.zeros(c.shape[:-1]))
    return np.exp(log_eta(root_pairings(rs, c)))


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


def _branching_mantissa(p: int, q: int, y, r) -> np.ndarray:
    """The mantissa T of the continued character of (p, q), 1 <= T <= dim,
    at y = e^{a_lo - a_mid} and r = e^{a_mid - a_hi} in (0, 1].

    The branching rule of the Schur polynomial in the eigenvalues e^{-a},
    in positive terms with the largest monomial factored out (Demmel &
    Koev, Math. Comp. 75 (2006) 223), its inner geometric sum collapsed:
      T = sum_m H_m(r) y^{|m-q|} r^{max(0,q-m)} P_{n_m}(y^2 r), m = 0 .. p+q,
    n_m = min(q, p+q-m) - max(0, q-m) + 1, H_m(r) = sum_{j<=m} r^j and
    P_n(z) = sum_{j<n} z^j; H by Horner's rule, the terms below m = q by
    Horner's rule in y r.  Elementwise, so y and r may be any arrays that
    broadcast (on the A2 chamber grid y a row and r a column, H_m(r) and
    the powers of y then one value per axis point).
    """
    geometric = [*accumulate([y * y * r] * min(p, q), lambda v, z: 1.0 + z * v, initial=1.0)]
    h, total, above, yr = 0.0, 0.0, 1.0, y * r  # above = y^{m-q} from m = q on
    for m in range(q):  # the terms below m = q, by Horner's rule in y r
        h = 1.0 + r * h  # H_m(r), by Horner's rule
        total = (total + h * geometric[min(m, p)]) * yr
    for m in range(q, p + q + 1):
        h = 1.0 + r * h
        total = total + h * above * geometric[min(q, p + q - m)]
        above = above * y
    return total


@lru_cache(maxsize=None)
def _log_scale_coefficients(rs: RootSystem, dynkin: tuple[int, ...]) -> list[float]:
    """<lam*, w_i>, lam* = -w_0 lam: an integer sum over cartan_det, rounded once."""
    return (rs.cartan_adjugate @ (rs.dual_labels @ np.asarray(dynkin, float)) / rs.cartan_det).tolist()


def _chamber_char_parts(rs: RootSystem, lam: Weight, s) -> tuple[list, np.ndarray]:
    """The continued character at exp(iY), Y = sum_i s_i w_i dominant (on a
    torus any s = Y), s one array per axis, arrays that broadcast: (log_scales,
    T), chi = T e^{sum_i log_scales[i]}, log_scales[i] = <lam*, w_i> s_i.  T in
    [1, dim lam] is the sum of positive terms over the largest: 1 on a torus;
    H_n(e^{-s_1}) = sum_{j<=n} e^{-j s_1}, by Horner's rule, on A1 at lam =
    (n); _branching_mantissa(p, q, e^{-s_2}, e^{-s_1}) on A2 at lam = (p, q),
    Y's sorted eigen-coordinates having the gaps s_1 and s_2."""
    if not lam.is_dominant:
        raise ValueError("the continued character requires a dominant weight")
    log_scales = [k * x for k, x in zip(_log_scale_coefficients(rs, lam.dynkin), s)]
    if rs.kind == "A1":
        (n,), r = lam.dynkin, np.exp(-s[0])
        return log_scales, reduce(lambda h, _: 1.0 + r * h, range(n), np.ones_like(r))
    if rs.kind == "A2":
        p, q = lam.dynkin
        return log_scales, _branching_mantissa(p, q, np.exp(-s[1]), np.exp(-s[0]))
    return log_scales, np.ones(np.broadcast_shapes(*(np.shape(x) for x in s)))


def _dominant_coordinates(rs: RootSystem, c: np.ndarray) -> list[np.ndarray]:
    """The simple-root coordinates s, one array per axis, of the dominant
    representative of each Cartan point c (..., rank): c itself on a torus,
    else the gaps of the sorted eigen-coordinates a = c @ CARTAN_EIGEN_EMBED
    (summing to 0): a_hi - a_lo on A1; on A2 a_hi - a_mid and a_mid - a_lo."""
    if rs.is_torus:
        return [c[..., i] for i in range(rs.rank)]
    a = _pairings(c, CARTAN_EIGEN_EMBED[rs.kind])
    hi, lo = reduce(np.maximum, a), reduce(np.minimum, a)
    return [hi - lo] if len(a) == 2 else [2.0 * hi + lo, -(hi + 2.0 * lo)]


def _char_holo_parts(rs: RootSystem, lam: Weight, Y) -> tuple[np.ndarray, np.ndarray]:
    """The continued character at exp(iY), Y (..., n, rank), as (log_scale, T),
    chi = T e^{log_scale}: _chamber_char_parts at the s of Y's dominant
    representative.  On a torus the log-scale -<lam, Y> is one product, as
    the alternating sum's one term has it."""
    c = np.asarray(Y, float)
    log_scales, mantissa = _chamber_char_parts(rs, lam, _dominant_coordinates(rs, c))
    return (-(c @ lam.coords) if rs.is_torus else reduce(np.add, log_scales)), mantissa


def weyl_char_holo(rs: RootSystem, lam: Weight, Y) -> np.ndarray | float:
    """Holomorphically continued character at exp(iY), batched: T e^{log_scale}
    of _char_holo_parts.  chi^C(exp iY) = sum over the weights mu of lam of
    e^{-<mu, Y>}: real, >= 1 on the closed dominant chamber and dim lam at 0."""
    log_scale, mantissa = _char_holo_parts(rs, lam, np.atleast_2d(np.asarray(Y, float)))
    out = mantissa * np.exp(log_scale)
    return float(out[0]) if np.ndim(Y) == 1 else out


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
