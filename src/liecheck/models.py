"""Concrete matrix models: su(2) and su(3) bases, Haar sampling, SU(2) irreps.

The orthonormal algebra bases realize <X, Y> = -trace(XY) in the defining
representation.  Haar samples of both groups are the first n - 1 columns
of a Ginibre matrix, orthonormalised and completed to determinant 1, a
block at a time (HaarDraw), so a Monte-Carlo mean never holds them all; on
SU(2) one polar rule of the Weyl integration formula (_polar_rule) is
exact to a stated degree (HaarSU2), and haar_mean averages a pointwise
integrand over any scheme's points, block by block, Monte-Carlo values
with the point axis last.  SU(3) is modelled at the level of its defining
representation (adjoint action, Haar sampling); SU(2) additionally
carries its irreducible representations as exact symmetric powers of the
defining one, with the closed-form exp(iY) for the holomorphic extension.
These serve as brute-force oracles for characters, Fourier coefficients,
and the integral transforms.  The numerical pieces the layers above share
(the Gauss rules of _gauss_rule, Legendre's by Newton's method with no
LAPACK call, _read_only, sinh(x)/x, the elementwise _pairings, the Cartan
eigenvalue embedding) live here once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, gamma, pi, sqrt
from typing import NamedTuple

import numpy as np

__all__ = [
    "Estimate",
    "GroupModel",
    "HaarDraw",
    "HaarSU2",
    "IrrepMatrices",
    "MonteCarlo",
    "algebra_coords",
    "algebra_element",
    "build_group_model",
    "cartan_element",
    "chamber_coordinates",
    "exp_i",
    "group_model_for",
    "haar_draw",
    "haar_mean",
    "haar_nodes",
    "haar_sample",
    "irrep_matrices",
    "mul2x2",
    "rep_matrices",
    "su2_character",
]

SQRT2 = float(np.sqrt(2.0))
# eigenvalue coordinates of the Cartan embedding, rows = orthonormal basis
# of t: the Cartan element with t-coordinates y is i diag(y @ embed)
CARTAN_EIGEN_EMBED = {
    "A1": np.array([[1.0, -1.0]]) / np.sqrt(2.0),
    "A2": np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]) / np.sqrt([2.0, 6.0])[:, None],
}


class Estimate(NamedTuple):
    """A numeric estimate with its standard error (0 for exact routes)."""

    value: float
    stderr: float


@dataclass(frozen=True)
class MonteCarlo:
    """Monte-Carlo evaluation scheme: sample count plus explicit seed."""

    samples: int
    seed: int


@dataclass(frozen=True)
class HaarSU2:
    """Haar scheme on SU(2): the polar rule exact to polynomial degree `degree`.

    Every polynomial of degree <= D = degree in the entries of x and their
    conjugates is integrated exactly (see _polar_rule).  `samples` is the
    node count, the rule's counterpart of MonteCarlo.samples.
    """

    degree: int

    @property
    def samples(self) -> int:
        return (self.degree // 2 + 1) ** 2 * (self.degree + 1)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, read-only: a cache shares them with every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


# (a_k, b_k, mu_0) of the recurrence p_{k+1} = (x - a_k) p_k - b_k p_{k-1} of
# the monic orthogonal polynomials for e^{-x^2} on R and u^alpha e^{-u} on
# [0, inf); Legendre's rules come from _legendre_rule
_RECURRENCES = {
    "hermite": lambda k, alpha: (0.0 * k, k / 2.0, sqrt(pi)),
    "laguerre": lambda k, alpha: (2.0 * k + alpha + 1.0, k * (k + alpha), gamma(alpha + 1.0)),
}


def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights, by Newton's method in theta.

    P_n(cos theta) is the finite cosine series sum_k a_k a_{n-k}
    cos((n - 2k) theta), a_k = C(2k, k) / 4^k, whose terms k and n - k are
    one harmonic.  Newton's method on it in theta, from Tricomi's asymptotic
    nodes (Hale & Townsend, SIAM J. Sci. Comput. 35 (2013) A652; Bogaert,
    ibid. 36 (2014) A1008), finds the n // 2 roots in (0, pi/2).  The
    weights are 2 (1 - x^2) / (n (x P_n - P_{n-1}))^2 = 2 / ((1 - x^2)
    P_n'(x)^2), with 1 - x^2 = sin^2 theta and P_{n-1}, P_n from one pass
    of the three-term recurrence over the nodes in [0, 1).  The rule is
    mirrored about 0, an odd order's middle node.  Every sum is numpy's own
    along a contiguous axis and no LAPACK or BLAS routine is called, so the
    bits do not depend on a thread count.
    """
    n, half, odd = order, order // 2, order % 2
    a = np.cumprod(np.concatenate(([1.0], 1.0 - 0.5 / np.arange(1, n + 1))))
    k = np.arange((n + 1) // 2)
    h = n - 2.0 * k                          # the harmonics n - 2k > 0
    c = 2.0 * a[k] * a[n - k]
    constant = 0.0 if odd else a[half] ** 2
    j = np.arange(1, half + 1)
    theta = np.arccos((1.0 - 1.0 / (8.0 * n * n) + 1.0 / (8.0 * n**3))
                      * np.cos((4.0 * j - 1.0) * pi / (4.0 * n + 2.0)))
    for _ in range(20):
        ht = theta[:, None] * h
        step = ((np.cos(ht) * c).sum(axis=1) + constant) / -(np.sin(ht) * (h * c)).sum(axis=1)
        theta = theta - step
        # quadratic convergence: after a step below 1e-11 the error is below rounding
        if not np.any(np.abs(step) >= 1e-11):
            break
    # the nodes in (0, 1), descending, then an odd order's middle node 0
    x, s = np.append(np.cos(theta), [0.0] * odd), np.append(np.sin(theta), [1.0] * odd)
    p_prev, p = np.ones_like(x), x
    for m in range(1, n):
        p_prev, p = p, ((2 * m + 1) * x * p - m * p_prev) / (m + 1)
    w = 2.0 * (s * s) / (n * n * (p_prev - x * p) ** 2)
    return (np.concatenate((-x[:half], x[half:], x[:half][::-1])),
            np.concatenate((w[:half], w[half:], w[:half][::-1])))


@lru_cache(maxsize=None)
def _gauss_rule(family: str, order: int, alpha: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes (ascending) and weights of the weight 1 on [-1, 1]
    ("legendre"), e^{-x^2} on R ("hermite") or u^alpha e^{-u} on [0, inf)
    ("laguerre"), built once.

    Legendre by Newton's method (_legendre_rule), for every order the chamber
    rules take.  Hermite and Laguerre, which serve only the tridiagonal
    rule at orders 5-20, by Golub-Welsch (Math. Comp. 23 (1969) 221): nodes
    are the eigenvalues of the Jacobi matrix, diagonal a_k and off-diagonal
    sqrt(b_k); weights are the Christoffel numbers 1 / sum_{k<order}
    p_k(x)^2 of the orthonormal p_k, run by the same recurrence.  The
    arrays are shared, so read-only.
    """
    if family == "legendre":
        return _read_only(*_legendre_rule(order))
    a, b, mass = _RECURRENCES[family](np.arange(order, dtype=float), alpha)
    root = np.sqrt(b)
    x = np.linalg.eigvalsh(np.diag(a) + np.diag(root[1:], 1) + np.diag(root[1:], -1))
    p_prev, p = np.zeros(order), np.full(order, 1.0 / sqrt(mass))
    total = p * p
    for k in range(order - 1):
        p_prev, p = p, ((x - a[k]) * p - root[k] * p_prev) / root[k + 1]
        total += p * p
    return _read_only(x, 1.0 / total)


def _gauss_legendre_01(order: int, upper: float):
    """Gauss-Legendre nodes and weights mapped to [0, upper]."""
    x, w = _gauss_rule("legendre", order)
    return (x + 1.0) * upper / 2.0, w * upper / 2.0


def _sinhc(x: np.ndarray) -> np.ndarray:
    """sinh(x)/x, elementwise; 1 + x^2/6 where |x| < 1e-8, which rounds to 1.
    The small-x branch is formed only where there are such entries."""
    x = np.asarray(x, float)
    small = np.abs(x) < 1e-8
    if not small.any():
        return np.sinh(x) / x
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 + x * x / 6.0, np.sinh(safe) / safe)


def _pairings(c: np.ndarray, matrix: np.ndarray) -> list[np.ndarray]:
    """The columns of c @ matrix, elementwise: no BLAS routine that depends on the batch."""
    return [sum(c[..., i] * col[i] for i in range(len(col))) for col in matrix.T]


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
    if np.count_nonzero(c * (1.0 - np.eye(model.defining_dim))):
        raise AssertionError("Cartan basis is not diagonal")
    return model


def group_model_for(rs_kind: str) -> GroupModel | None:
    """The matrix model realizing root system A1 (SU2) or A2 (SU3); None for tori."""
    kind = {"A1": "SU2", "A2": "SU3"}.get(rs_kind)
    return None if kind is None else build_group_model(kind)


def algebra_element(model: GroupModel, coords) -> np.ndarray:
    """Matrix of the algebra element with the given ad-basis coordinates."""
    return np.einsum("...a,aij->...ij", np.asarray(coords, float), model.ad_basis)


def cartan_element(model: GroupModel, coords) -> np.ndarray:
    """Matrix of the Cartan element with the given orthonormal t-coordinates."""
    return np.einsum("...a,aij->...ij", np.asarray(coords, float), model.cartan_basis)


def algebra_coords(model: GroupModel, X) -> np.ndarray:
    """Orthonormal coordinates of an anti-hermitian matrix, <X, e_a>."""
    return -np.einsum("...ij,aji->...a", np.asarray(X), model.ad_basis).real


def cartan_to_algebra(model: GroupModel, coords) -> np.ndarray:
    """Embed t-coordinates into full algebra coordinates."""
    c = np.asarray(coords, float)
    out = np.zeros(c.shape[:-1] + (model.dim_k,))
    for slot, idx in enumerate(model.cartan_indices):
        out[..., idx] = c[..., slot]
    return out


def _su3_invariants(c) -> tuple[np.ndarray, np.ndarray]:
    """tr H^2 and det H of H = -iY = sum_a c[a] gellmann_a / sqrt 2, from its
    entries, without building matrices.  c holds the 8 coordinates, arrays
    that broadcast or scalars: an exact 0.0 may stand for a coordinate that
    is zero everywhere (quadrature.tridiagonal_rule), as x + 0.0 and x * 0.0
    have the bits they have with an array of zeros."""
    s2, s3 = SQRT2, np.sqrt(3.0)
    h00 = (c[2] + c[7] / s3) / s2
    h11 = (-c[2] + c[7] / s3) / s2
    h22 = -2.0 * c[7] / (s3 * s2)
    q01 = (c[0] ** 2 + c[1] ** 2) / 2.0
    q02 = (c[3] ** 2 + c[4] ** 2) / 2.0
    q12 = (c[5] ** 2 + c[6] ** 2) / 2.0
    tr2 = h00**2 + h11**2 + h22**2 + 2.0 * (q01 + q02 + q12)
    # det H for hermitian H with the off-diagonal moduli above
    re_triple = (
        (c[0] * c[3] + c[1] * c[4]) * c[5] + (c[0] * c[4] - c[1] * c[3]) * c[6]
    ) / (2.0 * s2)
    det = h00 * h11 * h22 - h00 * q12 - h11 * q02 - h22 * q01 + 2.0 * re_triple
    return tr2, det


# tr H^2 below which p^3 = (tr H^2 / 6)^(3/2) of _eigs_desc_from_invariants
# is no normal float (at t = 1e-300 a Cartesian draw's p^3 is 0, and
# det / p^3 is 0 / 0)
_TR2_UNDERFLOW = 6.0 * float(np.finfo(float).tiny) ** (2.0 / 3.0)


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
        spectrum, paired with the embedding elementwise (_pairings), so a
        point has the same bits alone and in a batch.  The coordinates are
        homogeneous of degree 1, so an su(3) point whose tr H^2 is below
        _TR2_UNDERFLOW is mapped scaled by the exact power of two that
        brings its largest |coordinate| to [1/2, 1), and scaled back; every
        other point keeps its bits.
    """
    c = np.asarray(coords, float)
    if model.kind == "SU2":
        return np.linalg.norm(c, axis=-1)[..., None]
    tr2, det = _su3_invariants([c[..., a] for a in range(8)])
    small = tr2 < _TR2_UNDERFLOW
    if not small.any():
        return _su3_chamber(tr2, det)
    exp = np.where(small, np.frexp(np.abs(c).max(axis=-1))[1], 0)[..., None]
    c = np.ldexp(c, -exp)
    return np.ldexp(_su3_chamber(*_su3_invariants([c[..., a] for a in range(8)])), exp)


def _su3_chamber(tr2: np.ndarray, det: np.ndarray) -> np.ndarray:
    """The orthonormal t-coordinates (..., 2) of the chamber representative
    of the su(3) elements with invariants tr H^2 and det H (_su3_invariants)."""
    a = _eigs_desc_from_invariants(tr2, det)
    return np.stack(_pairings(a, CARTAN_EIGEN_EMBED["A2"].T), axis=-1)


# Rows per block of HaarDraw: a block's columns, its factor and the
# temporaries of factor and integrand, a dozen complex arrays, then stay
# near a 2 MB L2 cache, and a Monte-Carlo mean holds one block's buffer in
# place of all N elements.  On a 2-vCPU x86_64 host (numpy 2.4.6;
# medians of 21 runs, 3 repeats) an SU(3) orbital average of 10^5 samples,
# draw plus integrand, took 38-39 ms with the samples in one array, 35-36
# ms at 8192 rows, 34-37 ms at 4096, 38-39 ms at 16384 and 59-63 ms in one
# block; its traced peak fell from 25.5 to 13.7 MiB.
_HAAR_BLOCK = 8192


def _block_edges(n: int, block: int) -> list[int]:
    """Edges of the blocks of `block` points that cover n points.  A lone
    last point joins the block before it: numpy multiplies a one-row matrix
    by another BLAS routine, whose last digits differ."""
    return [0, n] if n <= block + 1 else [*range(0, n - 1, block), n]


def _norm(v) -> np.ndarray:
    """|v| of vectors stored component by component, v[i] of shape (m,)."""
    return np.sqrt(sum(c.real * c.real + c.imag * c.imag for c in v))


def _inner(u, v) -> np.ndarray:
    """<u, v> = sum_i conj(u_i) v_i of vectors stored component by component."""
    return sum(np.conj(a) * b for a, b in zip(u, v))


def _su2_factor(re: np.ndarray, im: np.ndarray, x: np.ndarray) -> None:
    """Write into x (m, 2, 2) the SU(2) element whose first column is the
    unit quaternion (a, b) = z_{.0} / |z_{.0}|, z = re + i im (m, 2, 1)."""
    ar, ai, br, bi = re[:, 0, 0], im[:, 0, 0], re[:, 1, 0], im[:, 1, 0]
    s = 1.0 / np.sqrt(ar * ar + ai * ai + br * br + bi * bi)
    ar, ai, br, bi = ar * s, ai * s, br * s, bi * s
    v = x.view(float)  # (m, 2, 4): re, im of column 0, then of column 1
    v[:, 0, 0], v[:, 0, 1], v[:, 0, 2], v[:, 0, 3] = ar, ai, -br, bi
    v[:, 1, 0], v[:, 1, 1], v[:, 1, 2], v[:, 1, 3] = br, bi, ar, -ai


def _su3_factor(re: np.ndarray, im: np.ndarray, x: np.ndarray) -> None:
    """Write into x (m, 3, 3) the SU(3) element [q0, q1, conj(q0 x q1)] of
    the columns z = re + i im (m, 3, 2)."""
    # [row, column, sample]: each component one contiguous array
    c = np.empty(re.shape[1:] + re.shape[:1], complex)
    c.real, c.imag = np.moveaxis(re, 0, -1), np.moveaxis(im, 0, -1)
    out = np.moveaxis(x, 0, -1)
    q0 = c[:, 0] / _norm(c[:, 0])
    q1 = c[:, 1]
    for _ in range(2):  # Gram-Schmidt twice
        q1 = q1 - _inner(q0, q1) * q0
    q1 = q1 / _norm(q1)
    out[:, 0], out[:, 1] = q0, q1
    out[:, 2] = np.conj([q0[1] * q1[2] - q0[2] * q1[1],
                         q0[2] * q1[0] - q0[0] * q1[2],
                         q0[0] * q1[1] - q0[1] * q1[0]])


@dataclass(frozen=True, eq=False)
class HaarDraw:
    """Haar-distributed elements of SU(2) or SU(3), drawn but not yet formed.

    The Q of a Ginibre matrix z = QR with positive diag(R) is Haar on the
    unitary group (Mezzadri, Notices AMS 54 (2007) 592), and the map
    Q -> Q diag(1, ..., 1, conj det Q), which commutes with left
    multiplication by SU(n), carries it to Haar measure on the special
    unitary group.  Its value depends only on Q's first n - 1 columns,
    which are z's, orthonormalised in order (the column-by-column
    construction of Diaconis & Shahshahani, Prob. Eng. Inf. Sci. 1 (1987)
    15).  So a draw holds only those columns, z = re + i im, re and im
    (N, n, n - 1), and no QR or determinant is formed:
      - SU(2) is fixed by its first column, the unit quaternion (a, b) =
        z_{.0} / |z_{.0}|: x = [[a, -conj b], [b, conj a]];
      - on SU(3), q0 and q1 come from Gram-Schmidt run twice (one pass
        loses orthogonality in proportion to eps cond(z)^2, the second
        restores it; Giraud, Langou & Rozloznik, Numer. Math. 101 (2005)),
        and the last column w = conj(q0 x q1) is the unit vector orthogonal
        to both with det[q0, q1, w] = 1.
    The columns are factored _HAAR_BLOCK rows at a time (_block_edges), by
    elementwise operations only, so element k depends on z[k] alone, bit
    for bit.  blocks() yields the (m, n, n) blocks in order, each written
    into one buffer that the next block reuses, so no (N, n, n) array is
    formed; array() writes them into one such array (haar_sample).
    """

    re: np.ndarray
    im: np.ndarray

    def __len__(self) -> int:
        return len(self.re)

    def blocks(self):
        n = self.re.shape[-2]
        yield from self._factored(np.empty((min(len(self), _HAAR_BLOCK + 1), n, n), complex))

    def array(self) -> np.ndarray:
        n = self.re.shape[-2]
        x = np.empty((len(self), n, n), complex)
        for _ in self._factored(x):
            pass
        return x

    def _factored(self, out: np.ndarray):
        """Each block, factored into its own rows of out if out has a row
        per element, else into the head of out, a buffer."""
        factor = _su2_factor if self.re.shape[-2] == 2 else _su3_factor
        edges = _block_edges(len(self), _HAAR_BLOCK)
        for lo, hi in zip(edges, edges[1:]):
            x = out[lo:hi] if len(out) == len(self) else out[:hi - lo]
            factor(self.re[lo:hi], self.im[lo:hi], x)
            yield x


def haar_draw(model: GroupModel, rng, size: int) -> HaarDraw:
    """size Haar-distributed elements of SU(2) or SU(3), as a HaarDraw.

    Deterministic given the generator state, which draws 2n(n - 1) normals
    per sample in one call: the real parts of every sample's n - 1
    columns, (size, n, n - 1), then their imaginary parts.  The draw and
    haar_sample(model, rng, size) leave the generator in the same state.
    """
    rng = np.random.default_rng(rng)
    n = model.defining_dim
    return HaarDraw(*rng.standard_normal((2, size, n, n - 1)))


def haar_sample(model: GroupModel, rng, size: int | None = None) -> np.ndarray:
    """Haar-distributed elements of SU(2) or SU(3), (size, n, n).

    The elements of haar_draw(model, rng, size), formed in one array by the
    block loop of HaarDraw, with the same bits.  size=None gives one (n, n)
    matrix, the first of a draw of size 1.
    """
    x = haar_draw(model, rng, 1 if size is None else size).array()
    return x[0] if size is None else x


@lru_cache(maxsize=None)
def _sphere_rule(band: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions u (N, 3) and weights (N,) summing to 1 of a rule for the
    uniform measure on S^2, exact for polynomials in u of degree <= band.

    (band//2 + 1)-point Gauss-Legendre in the height u_3 times the
    (band + 1)-point trapezoid rule in the azimuth, which is exact for the
    azimuthal frequencies, |k| <= band, of such a polynomial; the rest is
    of degree <= band in the height.  Shared, so read-only.
    """
    z, wz = _gauss_rule("legendre", band // 2 + 1)
    phi = 2.0 * np.pi * np.arange(band + 1) / (band + 1)
    s = np.sqrt(1.0 - z * z)[:, None]
    u = np.stack(np.broadcast_arrays(s * np.cos(phi), s * np.sin(phi), z[:, None]), axis=-1)
    return _read_only(u.reshape(-1, 3), np.repeat(wz / (2.0 * (band + 1)), band + 1))


@lru_cache(maxsize=None)
def _polar_rule(nodes: int, band: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x (N, 2, 2) and weights (N,) of a Haar rule on SU(2) in polar form.

    x = cos(theta) I + sin(theta) i(u . sigma), u a direction of
    _sphere_rule(band), theta the outer axis.  Haar measure is (2/pi)
    sin^2 theta dtheta times the uniform measure on directions (the Weyl
    integration formula), and theta_k = k pi / (nodes + 1) with weights
    (2 / (nodes + 1)) sin^2 theta_k, Gauss-Chebyshev of the second kind in
    cos theta (Gautschi, Orthogonal Polynomials (2004) 1.4), is exact to
    degree 2 nodes - 1 in cos theta.  A polynomial of degree <= D in the
    entries of x and their conjugates averages over u to one of degree
    <= D in cos theta, so _polar_rule(D//2 + 1, D) is exact for it; see
    Graf & Potts, Numer. Funct. Anal. Optim. 30 (2009) 665.  Read-only.
    """
    theta = np.arange(1, nodes + 1) * (np.pi / (nodes + 1))
    u, wu = _sphere_rule(band)
    c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
    # x = [[a, -conj b], [b, conj a]] with a = c + i s u_3, b = s (-u_2 + i u_1)
    a = c + 1j * s * u[:, 2]
    b = s * (-u[:, 1] + 1j * u[:, 0])
    x = np.stack([np.stack([a, -b.conj()], axis=-1), np.stack([b, a.conj()], axis=-1)], axis=-2)
    w = (2.0 / (nodes + 1)) * s * s * wu
    return _read_only(x.reshape(-1, 2, 2), w.reshape(-1))


def _haar_su2_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (N, 2, 2) and weights (N,) of the HaarSU2 rule of a degree."""
    if degree < 0:
        raise ValueError("HaarSU2 degree must be >= 0")
    return _polar_rule(degree // 2 + 1, degree)


def haar_nodes(model: GroupModel, scheme) -> tuple[np.ndarray | HaarDraw, np.ndarray | None]:
    """Points of a Haar scheme and their weights.

    MonteCarlo: the HaarDraw of scheme.samples elements drawn from
    scheme.seed, whose blocks haar_mean takes one at a time, with weights
    None (all equal).  HaarSU2: the rule's shared, read-only nodes and
    weights; SU(2) only.
    """
    if isinstance(scheme, MonteCarlo):
        return haar_draw(model, np.random.default_rng(scheme.seed), scheme.samples), None
    if isinstance(scheme, HaarSU2):
        if model.kind != "SU2":
            raise ValueError("HaarSU2 scheme requires the SU2 model")
        return _haar_su2_rule(scheme.degree)
    raise ValueError(f"unknown Haar scheme: {scheme!r}")


# Points per block of _evaluate_blocks for points held in arrays.  The
# temporaries of the widest integrands, the A2 characters' last-axis
# polynomials (p + q + 1 arrays of the block), then stay near a 2 MB L2
# cache: on a 2-vCPU x86_64 host, 8192 and 16384 points were fastest and
# 32768 spilled (CHANGES.md).  The chamber rules hand over slabs of their
# own (quadrature._SLAB).  4096 here, for every integrand, took the
# benchmark's constants-sweep from 0.91 to 0.82 s but its a2-verify from
# 0.41 to 0.44 s (medians of 3 pairs of 10 s runs on the same host).
_BLOCK = 16_384


def _value_blocks(f, points, weights=None):
    """The number of points and, block by block, the values of f with the
    weights of their points, (w, values), w None where there are no
    weights and else shaped to broadcast along the values' axis 0.

    points is an array, or a tuple of arrays sliced in step along axis 0,
    taken _BLOCK points at a time (_block_edges); or a source that hands
    over its points itself, len(points) in all: the (rows, weights) slabs
    of points.slabs() (quadrature.ChamberQuadrature), f receiving a slab's
    rows and returning its (n,) values, or the blocks of points.blocks()
    (a HaarDraw's elements, quadrature._NormalDraw's normals; weights
    None), each valid only until the next.  f receives one block of each
    array and must be pointwise: value k of its result depends on point k
    alone, so the blocks give f(points) bit for bit, and w * values
    (weights along axis 0) has the bits of weights * f(points).
    """
    if hasattr(points, "slabs"):
        n = len(points)
        blocks = (((rows,), w) for rows, w in points.slabs())
    elif hasattr(points, "blocks"):
        if weights is not None:
            raise ValueError("a Monte-Carlo draw's points have equal weights")
        n = len(points)
        blocks = (((x,), None) for x in points.blocks())
    else:
        arrays = points if isinstance(points, tuple) else (points,)
        n = len(arrays[0])
        edges = _block_edges(n, _BLOCK)
        blocks = ((tuple(a[lo:hi] for a in arrays), None if weights is None else weights[lo:hi])
                  for lo, hi in zip(edges, edges[1:]))

    def values():
        for args, w in blocks:
            block = np.asarray(f(*args))
            if w is not None:
                w = np.reshape(w, (-1,) + (1,) * (block.ndim - 1))
            yield w, block

    return n, values()


def _evaluate_blocks(f, points, weights=None) -> np.ndarray:
    """f at every point, times its weight if there are weights, written
    block by block into one array, point axis first (see _value_blocks).
    A block's product w * f is formed in its own rows of that array
    (np.multiply with out), so no block makes a product array of its own.
    One block needs no second array: it is f's result, or w * f.
    """
    n, blocks = _value_blocks(f, points, weights)
    vals, lo = None, 0
    for w, block in blocks:
        if len(block) == n:
            return block if w is None else w * block
        if vals is None:
            dtype = block.dtype if w is None else np.result_type(w, block)
            vals = np.empty((n,) + block.shape[1:], dtype)
        rows = vals[lo:lo + len(block)]
        if w is None:
            rows[...] = block
        else:
            np.multiply(w, block, out=rows)
        lo += len(block)
    return vals


def _evaluate_batch_last(f, points) -> np.ndarray:
    """f at every point, written block by block into one C-contiguous array
    with the point axis last, (*trailing axes, n): each component's values
    are one contiguous row, which numpy reduces pairwise.  1-D values are
    those of _evaluate_blocks, and no point-first array outlives its block.
    """
    n, blocks = _value_blocks(f, points)
    vals, lo = None, 0
    for _, block in blocks:
        if vals is None:
            vals = np.empty(block.shape[1:] + (n,), block.dtype)
        vals[..., lo:lo + len(block)] = np.moveaxis(block, 0, -1)
        lo += len(block)
    return vals


def haar_mean(f, points, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Average of a pointwise integrand over a scheme's points, with its standard error.

    The one place where any integration scheme's points become a mean and
    a standard error: the Haar schemes of haar_nodes, the Gelfand-Tsetlin
    rule of chars.orbital_average, the Monte-Carlo oracle
    quadrature.cartesian_oracle_integrate, the tridiagonal rule of
    quadrature.tridiagonal_rule, whose unit-width chamber images serve
    every Gaussian width, the SU(2) polar rule _polar_rule
    and the pairing moments on its directions, and the chamber rules
    of quadrature.integrate_invariant, which come in slabs.  f is evaluated
    block by block (see _value_blocks), so points is an array, a tuple
    of arrays, a rule with slabs() or a Monte-Carlo draw with blocks()
    (HaarDraw, quadrature._NormalDraw), whose points are formed a block
    at a time, and the values may carry trailing axes.  No weights
    (Monte Carlo): the plain mean, and the
    standard error sqrt(var Re + var Im) / sqrt(N) with ddof 1, from
    values stored point axis last (_evaluate_batch_last), so numpy reduces
    each component of trailing axes as one contiguous row, as it reduces
    1-D values.  Otherwise the weighted sum of a deterministic rule, with
    standard error 0: the products w * f fill one array, block by block,
    which numpy sums once.
    """
    if weights is None and not hasattr(points, "slabs"):
        vals = _evaluate_batch_last(f, points)
        var = vals.real.var(axis=-1, ddof=1)
        if np.iscomplexobj(vals):  # a real array's imaginary variance is 0
            var = var + vals.imag.var(axis=-1, ddof=1)
        return vals.mean(axis=-1), np.sqrt(var) / np.sqrt(vals.shape[-1])
    vals = _evaluate_blocks(f, points, weights)
    # numpy's own sum, in one fixed order: a BLAS dot splits the point
    # axis across its threads, and the last digits would follow their count
    return vals.sum(axis=0), np.zeros(vals.shape[1:])


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


def _rep_planes(n: int, gs) -> np.ndarray:
    """The planes p[l, k] (n+1, n+1, N) of the symmetric-power recurrence of
    rep_matrices for 2x2 matrices gs (..., 2, 2), N = gs.size // 4, batch
    axis last: T_n(g)[l, k] = p[l, k] * _condon_shortley_ratio(n)[l, k].

    Column k is the product (g e1)^(n-k) (g e2)^k of linear forms, and p[l, k]
    its coefficient of e1^(n-l) e2^l.  The entries of g e1 and g e2 are
    contiguous arrays over the batch, so every step is an elementwise
    product of long arrays and a plane's point k depends on gs[k] alone, bit
    for bit.  The recurrence has real coefficients: the planes of conj(gs)
    are the conjugates of those of gs.
    """
    g = np.asarray(gs, complex)
    # the entries of g e1 and g e2, rows 0 and 1, each one contiguous array
    e1_top, e2_top, e1_bot, e2_bot = np.moveaxis(g, (-2, -1), (0, 1)).reshape(4, -1)
    size = e1_top.size
    # p[l, k]: coefficient of e1^(s-l) e2^l after s linear factors of column
    # k; rows above s are still zero
    p = np.zeros((n + 1, n + 1, size), complex)
    p[0] = 1.0
    bot = np.empty((n, n + 1, size), complex)
    for s in range(n):
        # column k takes g e2 for its first k factors, g e1 after them
        e1, e2 = np.s_[: s + 1, : s + 1], np.s_[: s + 1, s + 1:]
        np.multiply(e1_bot, p[e1], out=bot[e1])
        np.multiply(e2_bot, p[e2], out=bot[e2])
        np.multiply(e1_top, p[e1], out=p[e1])
        np.multiply(e2_top, p[e2], out=p[e2])
        p[1:s + 2] += bot[:s + 1]
    return p


@lru_cache(maxsize=None)
def _condon_shortley_ratio(n: int) -> np.ndarray:
    """sqrt(C(n, k)) / sqrt(C(n, l)) at [l, k]: the change from the monomial
    coefficients of _rep_planes to the orthonormal basis of irrep_matrices(n).
    Shared, so read-only."""
    scale = np.sqrt([comb(n, i) for i in range(n + 1)])
    return _read_only(scale[None, :] / scale[:, None])[0]


def rep_matrices(m: IrrepMatrices, gs) -> np.ndarray:
    """Degree-n symmetric power T_n(g) of a batch of 2x2 complex matrices.

    Column k is the image of the basis vector sqrt(C(n,k)) e1^(n-k) e2^k,
    the product (g e1)^(n-k) (g e2)^k expanded in the same basis.  This is
    the Condon-Shortley basis of irrep_matrices(n), so T_n(exp X) is the
    exponential of the generator action of X.  The entries are polynomials
    in the entries of g: exact and multiplicative on all of GL(2,C), unitary
    on SU(2), and the holomorphic extension at x exp(iY) is T_n(x exp(iY)).

    The recurrence runs with the batch axis last (_rep_planes), and the
    planes are scaled into a C-contiguous result, (..., n+1, n+1): a
    strided view would reach einsum and matmul callers with other strides,
    and einsum then rounds a lone point differently from a batch.  The
    Fourier layer contracts the planes themselves and calls no
    rep_matrices.
    """
    g = np.asarray(gs, complex)
    n = m.n
    p = _rep_planes(n, g)
    out = np.empty((p.shape[-1], n + 1, n + 1), complex)
    np.multiply(np.moveaxis(p, -1, 0), _condon_shortley_ratio(n), out=out)
    return out.reshape(g.shape[:-2] + (n + 1, n + 1))


def mul2x2(a, b) -> np.ndarray:
    """Products a @ b of 2x2 matrices, batched over broadcasting leading axes.

    Elementwise, entry (i, k) = a_i0 b_0k + a_i1 b_1k: matmul hands a batch
    to BLAS one 2x2 product at a time, and einsum runs its own loop; this
    form is several times faster than either (at 10^5 products on a 2-vCPU
    x86_64 host: matmul 30 ms, einsum 18 ms, here 9 ms), and a product
    alone has the bits it has inside a batch.
    """
    a, b = np.asarray(a), np.asarray(b)
    return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]


def exp_i(Y) -> np.ndarray:
    """exp(iY) in SL(2,C) for Y in su(2), in closed form; batched.

    Y carries Cartan (rank) or full algebra (dim_k) coordinates.  Because
    (iY)^2 = r^2 I with r = |Y|/sqrt(2), exp(iY) = cosh(r) I + sinh(r)/r iY,
    a positive-definite hermitian matrix.
    """
    model = build_group_model("SU2")
    c = np.asarray(Y, float)
    if c.shape[-1] == model.rank:
        c = cartan_to_algebra(model, c)
    elif c.shape[-1] != model.dim_k:
        raise ValueError("Y must have rank or dim_k coordinates")
    r = np.linalg.norm(c, axis=-1) / SQRT2
    iy = 1j * algebra_element(model, c)
    return np.cosh(r)[..., None, None] * np.eye(2) + _sinhc(r)[..., None, None] * iy


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
