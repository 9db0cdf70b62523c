"""Half-form densities, Weyl characters, and normalized orbital averages.

The density eta is exp(log_eta), log_eta a sum of log(sinh x / x) at the
positive-root pairings, arrays that broadcast; an independent determinant
oracle lives beside it.  The continued characters (positive on exp(i t))
are written in the simple-root coordinates s_i = <alpha_i, Y> of a
dominant Y = sum_i s_i w_i: one log-scale term per axis and a mantissa,
the weight monomials over the largest as a polynomial in r = e^{-s_1} and
y = e^{-s_rank} whose coefficients m are the weight multiplicities.  Two
routes evaluate the mantissa.  Scattered points (_chamber_char_parts)
take the last axis's polynomials in y and Horner's rule in r,
elementwise, so a point has the same bits alone and in a batch.  On a
chamber tensor grid r and y are both e^{-s} on the rule's one axis, and
the mantissa is the bilinear form T = E m E^T, E[i, k] = e^{-k s_i}
(_grid_mantissa), one contraction per slab, so a point has the same bits
on any slab partition.  Each route keeps its bits; the two agree to a
few ulp.  Scattered Cartan points first map to the s of their dominant
representative.
The orbital average A(mu, Y) is the probability-normalized flag-manifold
integral of exp(-<mu, Ad_y Y>), which makes the character/orbit identity
free of volume conventions:

    eta(Y)   * char_holo(lam, 2Y) = d_lam * A(2(lam+rho), Y)
    eta(Y/2) * char_holo(lam,  Y) = d_lam * A(lam+rho, Y)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache, reduce

import numpy as np

from .models import (
    CARTAN_EIGEN_EMBED,
    Estimate,
    GroupModel,
    MonteCarlo,
    _gauss_legendre_01,
    _pairings,
    _read_only,
    _sinhc,
    algebra_coords,
    cartan_element,
    group_model_for,
    haar_mean,
    haar_nodes,
)
from .quadrature import _tensor_rule
from .rootdata import RootSystem, Weight, build_root_system, dimension, is_dominant

__all__ = [
    "ClosedFormA1",
    "GelfandTsetlinSU3",
    "eta",
    "eta_det_oracle",
    "j_half_identity_residual",
    "kirillov_sides",
    "orbital_average",
    "weyl_char_holo",
    "weyl_chars_holo",
]


@dataclass(frozen=True)
class ClosedFormA1:
    """Orbital-average scheme using the exact 2-sphere average for su(2)."""


@dataclass(frozen=True)
class GelfandTsetlinSU3:
    """Orbital-average scheme on SU(3): a product rule on the Gelfand-Tsetlin
    polytope of the orbit, `order` points on each of its three axes,
    order^3 nodes (see _gelfand_tsetlin_diagonals).  It uses neither the
    Weyl quotient nor HCIZ.
    """

    order: int


def _log_sinhc(x: np.ndarray) -> np.ndarray:
    """log(sinh(x)/x) without overflow: |x| + log((1 - e^{-2|x|}) / (2|x|)),
    and log(1 + x^2/6) where |x| < 1e-8, the small-x branch of models._sinhc,
    formed only where there are such entries."""
    ax = np.abs(x)
    small = ax < 1e-8
    if not small.any():
        return ax + np.log(-np.expm1(-2.0 * ax) / (2.0 * ax))
    safe = np.maximum(ax, 1e-8)
    return np.where(small, np.log1p(ax * ax / 6.0),
                    safe + np.log(-np.expm1(-2.0 * safe) / (2.0 * safe)))


def root_pairings(rs: RootSystem, Y) -> list[np.ndarray]:
    """<alpha, Y> for each positive root alpha, Y of shape (..., rank)."""
    return _pairings(np.asarray(Y, float), rs.positive_roots.T)


def log_eta(pairings) -> np.ndarray | float:
    """log eta, the sum over positive roots of log(sinh x / x) at their
    pairings x = <alpha, Y>: arrays that broadcast, as root_pairings gives
    for Cartan points or the chamber rules for their slabs; finite wherever
    they are, and 0 without roots (a torus)."""
    terms = map(_log_sinhc, pairings)
    return reduce(np.add, terms, next(terms, 0.0))


def eta(rs: RootSystem, Y) -> np.ndarray | float:
    """Half-form density: prod over positive roots of sinh<a,Y>/<a,Y>, as
    exp(log_eta); strictly positive, even, Weyl invariant, and 1 on a torus."""
    c = np.asarray(Y, float)
    if rs.is_torus:
        return np.exp(np.zeros(c.shape[:-1]))
    return np.exp(log_eta(root_pairings(rs, c)))


def eta_det_oracle(model: GroupModel, Y) -> np.ndarray | float:
    """Density via the determinant route: det(sin(ad Y)/ad Y)^(1/2), batched.

    Y is an algebra element given as a defining-representation matrix, or a
    stack (..., n, n) of them.  The ad matrices are assembled in the
    orthonormal basis, their (imaginary) spectra extracted by one eigvalsh
    call over the stack, and sin(x)/x applied spectrally; agrees with the
    product form on chamber representatives of conjugates.  Each matrix of
    the stack is handled by the same per-matrix routines, so it has the
    bits it has alone.  A float for one matrix, as weyl_char_holo.
    """
    Y = np.asarray(Y, complex)
    basis = model.ad_basis
    ys = Y[..., None, :, :]
    brackets = ys @ basis - basis @ ys
    ad = np.swapaxes(algebra_coords(model, brackets), -1, -2)  # column b = coords of [Y, e_b]
    w = np.linalg.eigvalsh(1j * ad)         # ad is real antisymmetric
    # eigenvalue i*w contributes sin(i*w)/(i*w) = sinh(w)/w
    out = np.sqrt(np.prod(_sinhc(w), axis=-1))
    return float(out) if Y.ndim == 2 else out


def j_half_identity_residual(rs: RootSystem, Y) -> np.ndarray | float:
    """|j(iY) - eta(Y/2)|, the two sides by independent routes, batched.

    j(iY) is the product over positive roots of sinh(<a,Y>/2)/(<a,Y>/2),
    the product form eta(rs, Y/2); eta(Y/2) is the determinant route
    det(sin(ad)/ad)^(1/2) at the Cartan element Y/2 of the SU(2) or SU(3)
    matrix model.  Y is (..., rank); a float for one point.  Tori give 0.
    """
    half = np.asarray(Y, float) / 2.0
    model = group_model_for(rs.kind)
    if model is None:
        out = np.zeros(half.shape[:-1])
    else:
        out = np.abs(eta(rs, half) - eta_det_oracle(model, cartan_element(model, half)))
    return float(out) if half.ndim == 1 else out


@lru_cache(maxsize=None)
def _weight_multiplicities(rs: RootSystem, dynkin: tuple[int, ...]) -> np.ndarray:
    """The continued character's mantissa as a polynomial, T = sum m[k1, k2]
    r^k1 y^k2 with r = e^{-s_1} (the leading axis) and y = e^{-s_rank} (the
    last axis): m[k1, k2] is the multiplicity of the weight -lam* + k1
    alpha_1 + k2 alpha_2, the character being a sum of weight monomials
    (Demmel & Koev, Math. Comp. 75 (2006) 223) over its largest, e^{<lam*, Y>}.

    On A2 at lam = (p, q), K = p + q: m = 1 + min(k1, k2, K - k1, K - k2,
    q - k1 + k2, p - k2 + k1, p, q) where the first six are >= 0, else 0.
    One row, in y alone: ones(n + 1) on A1 at lam = (n), and [1] on a
    torus.  Integers held as floats, read-only: a cache shares them.
    """
    if rs.kind == "A2":
        (p, q), K = dynkin, sum(dynkin)
        k1, k2 = np.ogrid[:K + 1, :K + 1]
        bounds = [k1, k2, K - k1, K - k2, q - k1 + k2, p - k2 + k1]
        inside = reduce(np.minimum, bounds) >= 0
        m = np.where(inside, 1 + reduce(np.minimum, bounds + [p, q]), 0).astype(float)
    else:
        m = np.ones((1, dynkin[0] + 1 if rs.kind == "A1" else 1))
    return _read_only(m)[0]


def _last_axis_polynomials(m: np.ndarray, y) -> np.ndarray:
    """Q_k1(y) = sum_k2 m[k1, k2] y^k2 for every row k1 of m at once, by
    Horner's rule in place, elementwise: (rows of m, *y's shape); y is read
    for its shape alone where m has one column.  Above a row's top nonzero
    coefficient its Q stays 0 exactly, then is that coefficient: the bits
    of Horner's rule from there, the row alone."""
    polys = np.zeros((len(m),) + np.shape(y))
    coefficients = m.T.reshape(m.shape[::-1] + (1,) * np.ndim(y))
    polys += coefficients[-1]
    for c in coefficients[-2::-1]:
        polys *= y
        polys += c
    return polys


def _mantissa(polys: np.ndarray, r) -> np.ndarray:
    """T = sum_k1 polys[k1] r^k1 by Horner's rule, elementwise: 2 (len(polys)
    - 1) passes in place over one new array, or polys[0] itself (then r
    is not read).  polys[k1] and r broadcast, so scattered points have the
    same bits alone and in a batch; a chamber grid takes _grid_mantissa."""
    if len(polys) == 1:
        return polys[0]
    total = polys[-1] * r
    for k in range(len(polys) - 2, 0, -1):
        total += polys[k]
        total *= r
    total += polys[0]
    return total


def _grid_mantissa(m: np.ndarray, x: np.ndarray):
    """The mantissa of the multiplicities m on the tensor grid of one axis
    x, r = y = e^{-x}, as a map from a slice of the leading axis's indices
    to T there, arrays that broadcast to (rows, len(x)).

    Where m has one row (A1, and A2 at lam = 0) T is the polynomial in y
    alone, formed once on the last axis by _last_axis_polynomials.  Else m
    is square (A2) and T = E m E^T, E[i, k] = e^{-k x_i}: E and B = m E^T
    are formed once, and a slice takes E[rows] B.  Both products are
    numpy's einsum C loop with no optimize, so no BLAS call is made and
    each value is a sum over k, in one order, of its own row of E and
    column of B: the same bits for any partition into slices.  Within a few
    ulp of _mantissa at the same r and y, not bit for bit.
    """
    if len(m) == 1:
        last_axis = _last_axis_polynomials(m, np.exp(-x))[0]
        return lambda rows: last_axis
    E = np.exp(np.multiply.outer(x, -np.arange(len(m), dtype=float)))
    B = np.einsum("kl,jl->kj", m, E)
    return lambda rows: np.einsum("ik,kj->ij", E[rows], B)


@lru_cache(maxsize=None)
def _log_scale_coefficients(rs: RootSystem, dynkin: tuple[int, ...]) -> list[float]:
    """<lam*, w_i>, lam* = -w_0 lam: an integer sum over cartan_det, rounded once."""
    return (rs.cartan_adjugate @ (rs.dual_labels @ np.asarray(dynkin, float)) / rs.cartan_det).tolist()


def _chamber_char_parts(rs: RootSystem, lam: Weight, s, decay=None) -> tuple[list, np.ndarray]:
    """The continued character at exp(iY), Y = sum_i s_i w_i dominant (on a
    torus any s = Y), s one array per axis, arrays that broadcast: (log_scales,
    T), chi = T e^{sum_i log_scales[i]}, log_scales[i] = <lam*, w_i> s_i.  T in
    [1, dim lam] is the polynomial of _weight_multiplicities in r = e^{-s_1}
    and y = e^{-s_rank}, each read only where it has positive degree (on a
    torus T = 1, and no exponential of s, which may overflow there), by
    _last_axis_polynomials and Horner's rule in r (_mantissa): the route of
    scattered points, each with its own bits.  decay(i) is e^{-s_i}; a
    cached one lets several weights share it (_char_holo_parts)."""
    if not is_dominant(rs, lam):
        raise ValueError("the continued character requires a dominant weight")
    decay = decay or (lambda i: np.exp(-s[i]))
    log_scales = [k * x for k, x in zip(_log_scale_coefficients(rs, lam.dynkin), s)]
    m = _weight_multiplicities(rs, lam.dynkin)
    rows, cols = m.shape
    y = decay(len(s) - 1) if cols > 1 else s[-1]
    r = decay(0) if rows > 1 else None
    return log_scales, _mantissa(_last_axis_polynomials(m, y), r)


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


def _char_holo_parts(rs: RootSystem, lams, Y) -> list[tuple[np.ndarray, np.ndarray]]:
    """The continued characters of the weights lams at exp(iY), Y (..., n,
    rank), one (log_scale, T) per weight in order, chi = T e^{log_scale}:
    _chamber_char_parts at the s of Y's dominant representative, which is
    formed once, as is each e^{-s_i} that a weight reads.  On a torus the
    log-scale is -<lam, Y>, summed over the axes in one fixed order by
    _pairings, as the alternating sum's one term has it."""
    c = np.asarray(Y, float)
    s = _dominant_coordinates(rs, c)
    decay = cache(lambda i: np.exp(-s[i]))
    parts = []
    for lam in lams:
        log_scales, mantissa = _chamber_char_parts(rs, lam, s, decay)
        if rs.is_torus:
            parts.append((-_pairings(c, lam.coords[:, None])[0], mantissa))
        else:
            parts.append((reduce(np.add, log_scales), mantissa))
    return parts


def weyl_chars_holo(rs: RootSystem, lams, Y) -> np.ndarray:
    """Holomorphically continued characters of the weights lams at exp(iY),
    batched, in one pass: (len(lams), ...) for Y (..., rank), row k the
    T e^{log_scale} of lams[k] (_char_holo_parts), with the bits of that
    weight alone.  chi^C(exp iY) = sum over the weights mu of lam of
    e^{-<mu, Y>}: real, >= 1 on the closed dominant chamber and dim lam at 0."""
    c = np.atleast_2d(np.asarray(Y, float))
    out = np.empty((len(lams),) + c.shape[:-1])
    for row, (log_scale, mantissa) in zip(out, _char_holo_parts(rs, lams, c)):
        np.multiply(mantissa, np.exp(log_scale), out=row)
    return out.reshape((len(lams),) + np.shape(Y)[:-1])


def weyl_char_holo(rs: RootSystem, lam: Weight, Y) -> np.ndarray | float:
    """The continued character of one weight (weyl_chars_holo), a float for
    one point Y (rank,)."""
    out = weyl_chars_holo(rs, [lam], Y)[0]
    return float(out) if np.ndim(Y) == 1 else out


def _gelfand_tsetlin_diagonals(m, order: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The diagonal x of U* diag(m) U at the nodes of the GelfandTsetlinSU3
    rule, three arrays (N,), and weights (N,) summing to 1; N = order^3.

    With m_1 >= m_2 >= m_3 the sorted spectrum, the Gelfand-Tsetlin pattern
    m_1 >= p >= m_2 >= q >= m_3, p >= c >= q of Haar-random U is uniform on
    its polytope (Baryshnikov, Probab. Theory Relat. Fields 119 (2001) 256)
    and x = (c, p + q - c, tr m - p - q).  Gauss-Legendre nodes (u, v, w)
    on [0, 1]^3 give p = m_2 + u (m_1 - m_2), q = m_3 + v (m_2 - m_3) and
    c = q + w (p - q), of weight 2 (p - q) / (m_1 - m_3) w_u w_v w_w: the
    Jacobian over the polytope's volume.  m_1 > m_3.
    """
    m1, m2, m3 = sorted(np.asarray(m, float).tolist(), reverse=True)
    nodes, weights = _tensor_rule(*[_gauss_legendre_01(order, 1.0)] * 3)
    p = m2 + nodes[:, 0] * (m1 - m2)
    q = m3 + nodes[:, 1] * (m2 - m3)
    c = q + nodes[:, 2] * (p - q)
    return (c, p + q - c, (m1 + m2 + m3) - p - q), weights * (2.0 * (p - q) / (m1 - m3))


def _adjoint_pairing(ys: np.ndarray, m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<mu, Ad_y Y> = sum_i m_i sum_j b_j |y_ij|^2 at group elements ys
    (..., n, n), for mu = i diag(m) and Y = i diag(b); elementwise
    (_pairings), so a point has the same bits alone and in a batch."""
    moduli = ys.real**2 + ys.imag**2
    return _pairings(_pairings(moduli, b[:, None])[0], m[:, None])[0]


def orbital_average(model: GroupModel, mu, Y, scheme) -> Estimate:
    """Normalized orbital average A(mu, Y) of exp(-<mu, Ad_y Y>) over K/T.

    ClosedFormA1 uses the exact sphere average sinh(|mu||Y|)/(|mu||Y|),
    batched: Y (..., rank) gives an Estimate of arrays, one point floats;
    GelfandTsetlinSU3 is a deterministic rule on the Gelfand-Tsetlin
    polytope of mu's orbit, exactly 1 where mu = 0; MonteCarlo averages
    over the Haar samples of models.haar_nodes (the integrand is right
    T-invariant, so Haar on K realizes the normalized K/T measure) and
    reports a standard error.  The last two see the group element only
    through the diagonal of U* mu U, and both average through
    models.haar_mean.
    """
    mu_c = np.asarray(mu, float)
    y_c = np.asarray(Y, float)
    if isinstance(scheme, ClosedFormA1):
        if model.rs_kind != "A1":
            raise ValueError("ClosedFormA1 scheme requires the SU2 model")
        value = _sinhc(np.linalg.norm(mu_c) * np.linalg.norm(y_c, axis=-1))
        return Estimate(float(value) if y_c.ndim == 1 else value, 0.0)
    # Y = i diag(b), mu = i diag(m): <mu, Ad_y Y> = sum_ij m_i b_j |y_ij|^2
    b = np.diagonal(cartan_element(model, y_c)).imag
    m = np.diagonal(cartan_element(model, mu_c)).imag
    if isinstance(scheme, GelfandTsetlinSU3):
        if model.kind != "SU3":
            raise ValueError("GelfandTsetlinSU3 scheme requires the SU3 model")
        if m.max() == m.min():  # mu = 0: the orbit is a point
            return Estimate(1.0, 0.0)
        points, weights = _gelfand_tsetlin_diagonals(m, scheme.order)

        def integrand(x1, x2, x3):
            return np.exp(-(b[0] * x1 + b[1] * x2 + b[2] * x3))

    elif isinstance(scheme, MonteCarlo):
        points, weights = haar_nodes(model, scheme)

        def integrand(ys):
            return np.exp(-_adjoint_pairing(ys, m, b))

    else:
        raise ValueError(f"unknown orbital-average scheme: {scheme!r}")
    mean, sem = haar_mean(integrand, points, weights)
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
    Under ClosedFormA1, Y may be a batch (..., rank), and both sides are
    then arrays with a point's bits alone.
    """
    rs = build_root_system(model.rs_kind)
    d = dimension(rs, lam)
    y_c = np.asarray(Y, float)
    if half_angle:
        lhs = eta(rs, y_c / 2.0) * weyl_char_holo(rs, lam, y_c)
        mu = lam.coords + rs.rho
    else:
        lhs = eta(rs, y_c) * weyl_char_holo(rs, lam, 2.0 * y_c)
        mu = 2.0 * (lam.coords + rs.rho)
    avg = orbital_average(model, mu, y_c, scheme)
    return (float(lhs) if y_c.ndim == 1 else lhs), Estimate(d * avg.value, d * avg.stderr)
