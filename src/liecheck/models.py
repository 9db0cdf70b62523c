"""Concrete matrix models: su(2) and su(3) bases, Haar sampling, SU(2) irreps.

The orthonormal algebra bases realize <X, Y> = -trace(XY) in the defining
representation.  SU(3) is modelled at the level of its defining
representation (adjoint action, Haar sampling); SU(2) additionally carries
its irreducible representations as exact symmetric powers of the defining
one, with the closed-form exp(iY) for the holomorphic extension.  These
serve as brute-force oracles for characters, Fourier coefficients, and the
integral transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

__all__ = [
    "Estimate",
    "GroupModel",
    "IrrepMatrices",
    "MonteCarlo",
    "algebra_coords",
    "algebra_element",
    "build_group_model",
    "cartan_element",
    "chamber_coordinates",
    "exp_i",
    "haar_sample",
    "irrep_matrices",
    "rep_matrices",
    "su2_character",
]

SQRT2 = float(np.sqrt(2.0))


class Estimate(NamedTuple):
    """A numeric estimate with its standard error (0 for exact routes)."""

    value: float
    stderr: float


@dataclass(frozen=True)
class MonteCarlo:
    """Monte-Carlo evaluation scheme: sample count plus explicit seed."""

    samples: int
    seed: int


_PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

_GELLMANN = np.zeros((8, 3, 3), dtype=complex)
_GELLMANN[0] = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
_GELLMANN[1] = [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]
_GELLMANN[2] = np.diag([1, -1, 0])
_GELLMANN[3] = [[0, 0, 1], [0, 0, 0], [1, 0, 0]]
_GELLMANN[4] = [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]]
_GELLMANN[5] = [[0, 0, 0], [0, 0, 1], [0, 1, 0]]
_GELLMANN[6] = [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]
_GELLMANN[7] = np.diag([1, 1, -2]) / np.sqrt(3.0)


@dataclass(frozen=True, eq=False)
class GroupModel:
    """A compact group realized by matrices in its defining representation."""

    kind: str
    rs_kind: str
    defining_dim: int
    ad_basis: np.ndarray        # (dim_k, n, n), orthonormal, anti-hermitian
    cartan_indices: tuple[int, ...]

    @property
    def dim_k(self) -> int:
        return len(self.ad_basis)

    @property
    def rank(self) -> int:
        return len(self.cartan_indices)

    @property
    def cartan_basis(self) -> np.ndarray:
        return self.ad_basis[list(self.cartan_indices)]


@lru_cache(maxsize=None)
def build_group_model(kind: str) -> GroupModel:
    """Build the SU(2) or SU(3) matrix model with validated bases."""
    if kind == "SU2":
        basis = 1j * _PAULI / SQRT2
        model = GroupModel("SU2", "A1", 2, basis, (2,))
    elif kind == "SU3":
        basis = 1j * _GELLMANN / SQRT2
        model = GroupModel("SU3", "A2", 3, basis, (2, 7))
    else:
        raise ValueError(f"unsupported group model kind: {kind!r}")
    gram = -np.einsum("aij,bji->ab", model.ad_basis, model.ad_basis).real
    if np.abs(gram - np.eye(model.dim_k)).max() > 1e-14:
        raise AssertionError("algebra basis is not orthonormal")
    c = model.cartan_basis
    comm = c[:, None] @ c[None, :] - np.swapaxes(c[:, None] @ c[None, :], 0, 1)
    if np.abs(comm).max() > 1e-14:
        raise AssertionError("Cartan basis does not commute")
    return model


def algebra_element(model: GroupModel, coords) -> np.ndarray:
    """Matrix of the algebra element with the given ad-basis coordinates."""
    return np.einsum("...a,aij->...ij", np.asarray(coords, float), model.ad_basis)


def cartan_element(model: GroupModel, coords) -> np.ndarray:
    """Matrix of the Cartan element with the given orthonormal t-coordinates."""
    c = np.asarray(getattr(coords, "coords", coords), float)
    return np.einsum("...a,aij->...ij", c, model.cartan_basis)


def algebra_coords(model: GroupModel, X) -> np.ndarray:
    """Orthonormal coordinates of an anti-hermitian matrix, <X, e_a>."""
    return -np.einsum("...ij,aji->...a", np.asarray(X), model.ad_basis).real


def cartan_to_algebra(model: GroupModel, coords) -> np.ndarray:
    """Embed t-coordinates into full algebra coordinates."""
    c = np.asarray(getattr(coords, "coords", coords), float)
    out = np.zeros(c.shape[:-1] + (model.dim_k,))
    for slot, idx in enumerate(model.cartan_indices):
        out[..., idx] = c[..., slot]
    return out


def _su3_invariants_from_coords(c: np.ndarray):
    # entries of H = -iY = sum c_a (gellmann_a / sqrt 2), without building matrices
    s2, s3 = SQRT2, np.sqrt(3.0)
    h00 = (c[..., 2] + c[..., 7] / s3) / s2
    h11 = (-c[..., 2] + c[..., 7] / s3) / s2
    h22 = -2.0 * c[..., 7] / (s3 * s2)
    q01 = (c[..., 0] ** 2 + c[..., 1] ** 2) / 2.0
    q02 = (c[..., 3] ** 2 + c[..., 4] ** 2) / 2.0
    q12 = (c[..., 5] ** 2 + c[..., 6] ** 2) / 2.0
    tr2 = h00**2 + h11**2 + h22**2 + 2.0 * (q01 + q02 + q12)
    # det H for hermitian H with the off-diagonal moduli above
    re_triple = (
        (c[..., 0] * c[..., 3] + c[..., 1] * c[..., 4]) * c[..., 5]
        + (c[..., 0] * c[..., 4] - c[..., 1] * c[..., 3]) * c[..., 6]
    ) / (2.0 * s2)
    det = h00 * h11 * h22 - h00 * q12 - h11 * q02 - h22 * q01 + 2.0 * re_triple
    return tr2, det


def _eigs_desc_from_invariants(tr2: np.ndarray, det: np.ndarray) -> np.ndarray:
    p = np.sqrt(np.maximum(tr2, 0.0) / 6.0)
    safe = np.where(p > 0, p, 1.0)
    r = np.clip(det / (2.0 * safe**3), -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    e1 = 2.0 * safe * np.cos(phi)
    e3 = 2.0 * safe * np.cos(phi + 2.0 * np.pi / 3.0)
    out = np.stack([e1, -e1 - e3, e3], axis=-1)
    out[p <= 0] = 0.0
    return out


def chamber_coordinates(model: GroupModel, coords) -> np.ndarray:
    """Dominant-chamber representative of algebra elements, batched.

    Parameters
    ----------
    coords : ndarray, shape (..., dim_k)
        Orthonormal ad-basis coordinates of algebra elements.

    Returns
    -------
    ndarray, shape (..., rank)
        Orthonormal t-coordinates of the chamber representative obtained by
        diagonalizing (closed-form, trace invariants) and sorting the
        spectrum.
    """
    c = np.asarray(coords, float)
    if model.kind == "SU2":
        return np.linalg.norm(c, axis=-1)[..., None]
    a = _eigs_desc_from_invariants(*_su3_invariants_from_coords(c))
    u1 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    u2 = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    return np.stack([a @ u1, a @ u2], axis=-1)


def haar_sample(model: GroupModel, rng, size: int | None = None) -> np.ndarray:
    """Haar-distributed elements of SU(2) or SU(3).

    Ginibre matrix, QR with the phase fix that makes the factor Haar on the
    unitary group, then division by det^(1/n) to land in the special
    unitary group.  Deterministic given the generator state.
    """
    rng = np.random.default_rng(rng)
    n = model.defining_dim
    shape = (n, n) if size is None else (size, n, n)
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / SQRT2
    q, r = np.linalg.qr(z)
    d = np.einsum("...ii->...i", r)
    q = q * (d / np.abs(d))[..., None, :]
    det = np.linalg.det(q)
    return q / (det ** (1.0 / n))[..., None, None]


@dataclass(frozen=True, eq=False)
class IrrepMatrices:
    """Spin n/2 representation of su(2): three anti-hermitian generators."""

    n: int
    dim: int
    generators: np.ndarray  # (3, dim, dim)


@lru_cache(maxsize=None)
def irrep_matrices(n: int) -> IrrepMatrices:
    """Angular-momentum matrices for spin j = n/2, mapped to the orthonormal basis.

    The generator for basis vector e_a = i*sigma_a/sqrt(2) is i*sqrt(2)*J_a,
    which reproduces e_a itself at n = 1.
    """
    if n < 0:
        raise ValueError("Dynkin label must be >= 0")
    j = n / 2.0
    m = j - np.arange(n + 1)
    Jz = np.diag(m).astype(complex)
    Jp = np.zeros((n + 1, n + 1))
    for r in range(1, n + 1):
        Jp[r - 1, r] = np.sqrt(j * (j + 1) - m[r] * (m[r] + 1))
    Jm = Jp.T
    Jx = (Jp + Jm) / 2.0
    Jy = (Jp - Jm) / 2j
    gens = 1j * SQRT2 * np.stack([Jx, Jy, Jz]).astype(complex)
    return IrrepMatrices(n=n, dim=n + 1, generators=gens)


def rep_matrices(m: IrrepMatrices, gs) -> np.ndarray:
    """Degree-n symmetric power T_n(g) of a batch of 2x2 complex matrices.

    Column k is the image of the basis vector sqrt(C(n,k)) e1^(n-k) e2^k,
    the product (g e1)^(n-k) (g e2)^k expanded in the same basis.  This is
    the Condon-Shortley basis of irrep_matrices(n), so T_n(exp X) is the
    exponential of the generator action of X.  The entries are polynomials
    in the entries of g: exact and multiplicative on all of GL(2,C), unitary
    on SU(2), and the holomorphic extension at x exp(iY) is T_n(x exp(iY)).
    """
    g = np.asarray(gs, complex)
    n = m.n
    k = np.arange(n + 1)
    # p[..., l, k]: coefficient of e1^(s-l) e2^l after s linear factors of column k
    p = np.zeros(g.shape[:-2] + (n + 1, n + 1), dtype=complex)
    p[..., 0, :] = 1.0
    for s in range(n):
        col = (s < k).astype(int)  # column k takes g e2 for its first k factors
        on_e1 = g[..., 0, col][..., None, :]
        on_e2 = g[..., 1, col][..., None, :]
        nxt = on_e1 * p
        nxt[..., 1:, :] += on_e2 * p[..., :-1, :]
        p = nxt
    scale = np.sqrt([comb(n, i) for i in range(n + 1)])
    return p * (scale[None, :] / scale[:, None])


def exp_i(Y) -> np.ndarray:
    """exp(iY) in SL(2,C) for Y in su(2), in closed form; batched.

    Y carries Cartan (rank) or full algebra (dim_k) coordinates.  Because
    (iY)^2 = r^2 I with r = |Y|/sqrt(2), exp(iY) = cosh(r) I + sinh(r)/r iY,
    a positive-definite hermitian matrix.
    """
    model = build_group_model("SU2")
    c = np.asarray(getattr(Y, "coords", Y), float)
    if c.shape[-1] == model.rank:
        c = cartan_to_algebra(model, c)
    elif c.shape[-1] != model.dim_k:
        raise ValueError("Y must have rank or dim_k coordinates")
    r = np.linalg.norm(c, axis=-1) / SQRT2
    sinhc = np.where(r > 0, np.sinh(r) / np.where(r > 0, r, 1.0), 1.0)
    iy = 1j * algebra_element(model, c)
    return np.cosh(r)[..., None, None] * np.eye(2) + sinhc[..., None, None] * iy


def su2_character(n: int, xs) -> np.ndarray:
    """Character of the spin n/2 representation at SU(2) elements.

    Chebyshev recurrence U_n(cos phi) on cos phi = Re tr(x)/2; exact at the
    center elements where the sine quotient degenerates.
    """
    c = np.clip(np.einsum("...ii->...", np.asarray(xs, complex)).real / 2.0, -1.0, 1.0)
    u_prev = np.ones_like(c)
    if n == 0:
        return u_prev
    u = 2.0 * c
    for _ in range(n - 1):
        u_prev, u = u, 2.0 * c * u - u_prev
    return u
