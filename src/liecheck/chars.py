"""Half-form densities, Weyl characters, and normalized orbital averages.

The density eta is evaluated in its closed product form over positive
roots; an independent determinant oracle lives beside it.  Characters come
in the compact form (oscillatory, on K) and the holomorphically continued
form (positive on exp(i t)); the orbital average A(mu, Y) is the
probability-normalized flag-manifold integral of exp(-<mu, Ad_y Y>), which
makes the character/orbit identity free of volume conventions:

    eta(Y)   * char_holo(lam, 2Y) = d_lam * A(2(lam+rho), Y)
    eta(Y/2) * char_holo(lam,  Y) = d_lam * A(lam+rho, Y)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .models import Estimate, GroupModel, MonteCarlo, algebra_coords, cartan_element, haar_sample
from .rootdata import RootSystem, Weight, build_root_system, coords_of, dimension

__all__ = [
    "CartanPoint",
    "ClosedFormA1",
    "WallSingularityError",
    "eta",
    "eta_det_oracle",
    "j_half_identity_residual",
    "kirillov_residual",
    "orbital_average",
    "weyl_char_compact",
    "weyl_char_holo",
]


class WallSingularityError(ArithmeticError):
    """The Weyl denominator vanished; evaluate off the wall instead."""


@dataclass(frozen=True)
class ClosedFormA1:
    """Orbital-average scheme using the exact 2-sphere average for su(2)."""


@dataclass(frozen=True, eq=False)
class CartanPoint:
    """A point Y of the Cartan subalgebra in orthonormal coordinates.

    |Y|^2 is the Euclidean norm square of coords; for A1 the conventional
    angle theta satisfies <alpha, Y> = 2*theta, i.e. coords = [sqrt(2)*theta].
    """

    coords: np.ndarray

    @classmethod
    def from_a1_theta(cls, theta: float) -> "CartanPoint":
        return cls(coords=np.array([np.sqrt(2.0) * float(theta)]))

    @property
    def theta(self) -> float:
        if self.coords.shape != (1,):
            raise ValueError("theta is defined for rank-1 points only")
        return float(self.coords[0]) / np.sqrt(2.0)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))


def _sinhc(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, float)
    small = np.abs(x) < 1e-8
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 + x * x / 6.0, np.sinh(safe) / safe)


def eta(rs: RootSystem, Y) -> np.ndarray | float:
    """Half-form density: prod over positive roots of sinh<a,Y>/<a,Y>.

    Accepts a CartanPoint or an array of shape (..., rank); strictly
    positive, even, and Weyl invariant.  Empty product (tori) gives 1.
    """
    c = coords_of(Y)
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
    """|j(iY) - eta(Y/2)| with j evaluated from its own product form.

    Both sides reduce to the same product over positive roots; the residual
    guards the implementation, not the identity.
    """
    c = coords_of(Y)
    if rs.is_torus:
        return 0.0
    pair = c @ rs.positive_roots.T
    j_at_i = float(np.prod(_sinhc(pair / 2.0), axis=-1))
    return abs(j_at_i - float(eta(rs, c / 2.0)))


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


# eigenvalue coordinates of the Cartan embedding, rows = orthonormal basis of t
_A1_EMBED = np.array([[1.0, -1.0]]) / np.sqrt(2.0)
_A2_EMBED = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]) / np.sqrt([2.0, 6.0])[:, None]


def _char_holo_positive(rs: RootSystem, lam: Weight, pts: np.ndarray) -> np.ndarray:
    """Continued character as a sum of positive monomials e^{-<weight, a>}.

    Cancellation-free, so it stays exact on and near Weyl-chamber walls
    where the alternating quotient degenerates.  The monomial exponents are
    the diagonal entries a of Y = i diag(a) at exp(iY) = diag(e^{-a}).
    """
    embed = _A1_EMBED if rs.kind == "A1" else _A2_EMBED
    a = pts @ embed
    weights = np.asarray(_gt_weight_vectors(rs.kind, lam.dynkin), dtype=float)
    return np.exp(-(a @ weights.T)).sum(axis=-1)


def weyl_char_compact(rs: RootSystem, lam: Weight, Y) -> complex:
    """Weyl character at exp(Y): alternating sums of e^{i<w(lam+rho), Y>}.

    Raises WallSingularityError when the denominator magnitude falls below
    1e-12; callers perturb or use the dimension at Y = 0.
    """
    if not lam.is_dominant:
        raise ValueError("weyl_char_compact requires a dominant weight")
    c = coords_of(Y)
    signs = rs.weyl_signs.astype(float)
    num = np.sum(signs * np.exp(1j * (_weyl_orbit(rs, lam.coords + rs.rho) @ c)))
    den = np.sum(signs * np.exp(1j * (_weyl_orbit(rs, rs.rho) @ c)))
    if abs(den) < 1e-12:
        raise WallSingularityError(f"Weyl denominator vanished at Y = {c}")
    return complex(num / den)


def weyl_char_holo(rs: RootSystem, lam: Weight, Y) -> np.ndarray | float:
    """Holomorphically continued character at exp(iY), batched.

    chi^C(exp iY) = sum_w det(w) e^{-<w(lam+rho), Y>} over the analogous rho
    sum; real and >= 1 on the closed dominant chamber.  Where the
    alternating quotient degenerates (Weyl-denominator zeros on chamber
    walls, including Y = 0) the value is recomputed from the
    cancellation-free positive-monomial form, which stays exact there.
    """
    if not lam.is_dominant:
        raise ValueError("weyl_char_holo requires a dominant weight")
    c = coords_of(Y)
    scalar = c.ndim == 1
    pts = np.atleast_2d(c)
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
    if np.any(bad) and not rs.is_torus:
        out[bad] = _char_holo_positive(rs, lam, pts[bad])
    return float(out[0]) if scalar else out


def orbital_average(model: GroupModel, mu, Y, scheme) -> Estimate:
    """Normalized orbital average A(mu, Y) of exp(-<mu, Ad_y Y>) over K/T.

    ClosedFormA1 uses the exact sphere average sinh(|mu||Y|)/(|mu||Y|);
    MonteCarlo averages over Haar samples (the integrand is right
    T-invariant, so Haar on K realizes the normalized K/T measure) and
    reports a standard error.
    """
    mu_c = coords_of(mu)
    y_c = coords_of(Y)
    if isinstance(scheme, ClosedFormA1):
        if model.rs_kind != "A1":
            raise ValueError("ClosedFormA1 scheme requires the SU2 model")
        x = float(np.linalg.norm(mu_c) * np.linalg.norm(y_c))
        return Estimate(float(_sinhc(x)), 0.0)
    if isinstance(scheme, MonteCarlo):
        rng = np.random.default_rng(scheme.seed)
        ys = haar_sample(model, rng, scheme.samples)
        Ym = cartan_element(model, y_c)
        Mm = cartan_element(model, mu_c)
        ad_y = ys @ Ym @ np.conj(np.swapaxes(ys, -1, -2))
        pair = -np.einsum("ij,nji->n", Mm, ad_y).real
        vals = np.exp(-pair)
        mean = float(vals.mean())
        sem = float(vals.std(ddof=1) / np.sqrt(len(vals)))
        return Estimate(mean, sem)
    raise ValueError(f"unknown orbital-average scheme: {scheme!r}")


def kirillov_residual(
    model: GroupModel,
    lam: Weight,
    Y,
    scheme,
    half_angle: bool = False,
) -> Estimate:
    """Residual of the character/orbit identity in volume-free form.

    Default: |eta(Y) * char_holo(lam, 2Y) - d * A(2(lam+rho), Y)|.
    half_angle: |eta(Y/2) * char_holo(lam, Y) - d * A(lam+rho, Y)|.
    The stderr is d times the orbital average's standard error.
    """
    rs = build_root_system(model.rs_kind)
    d = dimension(rs, lam)
    y_c = coords_of(Y)
    if half_angle:
        lhs = float(eta(rs, y_c / 2.0)) * float(weyl_char_holo(rs, lam, y_c))
        mu = lam.coords + rs.rho
    else:
        lhs = float(eta(rs, y_c)) * float(weyl_char_holo(rs, lam, 2.0 * y_c))
        mu = 2.0 * (lam.coords + rs.rho)
    avg = orbital_average(model, mu, y_c, scheme)
    return Estimate(abs(lhs - d * avg.value), d * avg.stderr)
