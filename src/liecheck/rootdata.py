"""Root systems and weight-lattice arithmetic for A1, A2, and rank-n tori.

All vectors live in an orthonormal basis of the Cartan subalgebra t under
the invariant inner product <X, Y> = -trace(XY) of the defining
representation.  With that normalization every root of su(2) and su(3) has
squared length 2, |rho|^2 = 1/2 for A1 and |rho|^2 = 2 for A2.  Dominant
weights are labelled by integer Dynkin coefficients; real coordinates are
derived from them and never authoritative.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

__all__ = [
    "RootSystem",
    "Weight",
    "build_root_system",
    "dimension",
    "enumerate_dominant",
    "is_dominant",
    "simple_root_pairings",
    "weight",
    "weight_inner",
]

_TORUS_RE = re.compile(r"T([1-9][0-9]?)\Z")  # ranks 1 to 99 in ASCII digits


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Static root data of a compact group, frozen after construction.

    Attributes
    ----------
    kind : str
        "A1", "A2", or "T<n>".
    rank : int
        Dimension of the Cartan subalgebra.
    dim_k : int
        Dimension of the full Lie algebra, rank + 2 * #positive roots.
    positive_roots : ndarray, shape (n_pos, rank)
        Positive roots in orthonormal coordinates.
    rho : ndarray, shape (rank,)
        Half the sum of the positive roots.
    weyl_elements : ndarray, shape (n_w, rank, rank)
        Orthogonal matrices of the Weyl group action on t.
    weyl_signs : ndarray, shape (n_w,)
        Determinants of the Weyl elements, +-1.
    fundamental_weights : ndarray, shape (rank, rank)
        Row i is the weight w_i dual to the i-th simple coroot; Y = sum_i
        s_i w_i in the simple-root coordinates s_i = <alpha_i, Y> (w = I on a torus).
    root_coefficients : ndarray, shape (n_pos, rank)
        The integers c_i = <alpha, w_i> of alpha = sum_i c_i alpha_i, simple roots first.
    cartan_adjugate, cartan_det : ndarray (rank, rank), int
        Integers whose quotient G = <w_i, w_j> is the inverse Cartan matrix,
        so |Y|^2 = s^T G s (the identity and 1 on a torus).
    dual_labels : ndarray, shape (rank, rank)
        Takes the Dynkin labels of lam to those of lam* = -w_0 lam (-1 on a torus).
    """

    kind: str
    rank: int
    dim_k: int
    positive_roots: np.ndarray
    rho: np.ndarray
    weyl_elements: np.ndarray
    weyl_signs: np.ndarray
    fundamental_weights: np.ndarray
    root_coefficients: np.ndarray
    cartan_adjugate: np.ndarray
    cartan_det: int
    dual_labels: np.ndarray

    @property
    def is_torus(self) -> bool:
        return len(self.positive_roots) == 0

    @property
    def n_weyl(self) -> int:
        return len(self.weyl_elements)


@dataclass(frozen=True, eq=False)
class Weight:
    """A weight: integer Dynkin labels plus derived orthonormal coordinates."""

    dynkin: tuple[int, ...]
    coords: np.ndarray

    def __repr__(self) -> str:  # compact: Weight(1, 0)
        return "Weight" + str(self.dynkin)


def _reflection(alpha: np.ndarray) -> np.ndarray:
    return np.eye(len(alpha)) - 2.0 * np.outer(alpha, alpha) / (alpha @ alpha)


def _weyl_closure(generators: list[np.ndarray], rank: int):
    elems = [np.eye(rank)]
    frontier = [np.eye(rank)]
    while frontier:
        new = []
        for g in generators:
            for e in frontier:
                cand = g @ e
                if not any(np.allclose(cand, w, atol=1e-12) for w in elems):
                    elems.append(cand)
                    new.append(cand)
        frontier = new
    mats = np.array(elems)
    signs = np.round(np.linalg.det(mats)).astype(int)
    return mats, signs


@lru_cache(maxsize=None)
def build_root_system(kind: str) -> RootSystem:
    """Construct the root data for "A1", "A2", or "T<n>", 1 <= n <= 99, so
    that any name it accepts builds small arrays; ValueError for any other.

    The roots and fundamental weights are written out; the constants of the
    simple-root coordinates follow, each rounded to its exact value.  The
    flag volume is not part of the data: quadrature.flag_volume gives it
    from Mehta's integral and the Jacobian |det w|.
    """
    if kind == "A1":
        s2 = np.sqrt(2.0)
        positive = np.array([[s2]])
        fundamental = np.array([[1.0 / s2]])
    elif kind == "A2":
        # orthonormal coordinates via u1 = (1,-1,0)/sqrt2, u2 = (1,1,-2)/sqrt6
        a1 = np.array([np.sqrt(2.0), 0.0])
        a2 = np.array([-1.0 / np.sqrt(2.0), np.sqrt(1.5)])
        positive = np.array([a1, a2, a1 + a2])
        w1 = np.array([1.0 / np.sqrt(2.0), 1.0 / np.sqrt(6.0)])
        w2 = np.array([0.0, 2.0 / np.sqrt(6.0)])
        fundamental = np.array([w1, w2])
    else:
        m = _TORUS_RE.match(kind)
        if not m:
            raise ValueError(f"unsupported root-system kind: {kind!r}")
        n = int(m.group(1))
        mats = np.eye(n)[None, :, :]
        return RootSystem(
            kind=kind,
            rank=n,
            dim_k=n,
            positive_roots=np.zeros((0, n)),
            rho=np.zeros(n),
            weyl_elements=mats,
            weyl_signs=np.ones(1, dtype=int),
            fundamental_weights=np.eye(n),
            root_coefficients=np.zeros((0, n)),
            cartan_adjugate=np.eye(n),
            cartan_det=1,
            dual_labels=-np.eye(n),
        )

    rank = positive.shape[1]
    rho = 0.5 * positive.sum(axis=0)
    simple = positive[:rank]
    weyl, signs = _weyl_closure([_reflection(a) for a in simple], rank)
    dim_k = rank + 2 * len(positive)
    cartan = np.rint(simple @ simple.T)
    det = round(float(np.linalg.det(cartan)))
    # w_0 sends rho to -rho; a label of lam* is <-w_0 lam, alpha_i> (coroot = root)
    w0 = weyl[np.argmin(np.linalg.norm(weyl @ rho + rho, axis=-1))]
    return RootSystem(
        kind=kind,
        rank=rank,
        dim_k=dim_k,
        positive_roots=positive,
        rho=rho,
        weyl_elements=weyl,
        weyl_signs=signs,
        fundamental_weights=fundamental,
        root_coefficients=np.rint(positive @ fundamental.T),
        cartan_adjugate=np.rint(det * np.linalg.inv(cartan)),
        cartan_det=det,
        dual_labels=np.rint(simple @ -w0 @ fundamental.T),
    )


def simple_root_pairings(rs: RootSystem, s) -> list[np.ndarray]:
    """<alpha, Y> = sum_i c_i s_i for each positive root, Y = sum_i s_i w_i,
    over the nonzero c_i: the s_i arrays broadcast (one per chamber-grid
    axis), so a simple root's pairing is its s_i itself."""
    return [reduce(np.add, [x if c == 1 else c * x for c, x in zip(row, s) if c])
            for row in rs.root_coefficients.tolist()]


def weight(rs: RootSystem, dynkin) -> Weight:
    """Build the Weight with the given integer Dynkin labels."""
    labels = tuple(int(k) for k in np.atleast_1d(dynkin))
    if len(labels) != rs.rank:
        raise ValueError(f"expected {rs.rank} Dynkin labels, got {len(labels)}")
    coords = np.asarray(labels, dtype=float) @ rs.fundamental_weights
    return Weight(dynkin=labels, coords=coords)


def is_dominant(rs: RootSystem, lam: Weight) -> bool:
    """Whether lam is dominant for rs: every Dynkin label >= 0, and every
    weight of a torus, whose Weyl group is trivial."""
    return rs.is_torus or all(k >= 0 for k in lam.dynkin)


def enumerate_dominant(rs: RootSystem, max_level: int) -> list[Weight]:
    """All dominant weights with every Dynkin label in [0, max_level], lex order."""
    if max_level < 0:
        raise ValueError("max_level must be >= 0")
    return [
        weight(rs, labels)
        for labels in itertools.product(range(max_level + 1), repeat=rs.rank)
    ]


def weight_inner(rs: RootSystem, a, b) -> float:
    """Invariant inner product of two coordinate vectors."""
    va, vb = np.asarray(a, float), np.asarray(b, float)
    if va.shape != (rs.rank,) or vb.shape != (rs.rank,):
        raise ValueError("rank mismatch in weight_inner")
    return float(va @ vb)


def dimension(rs: RootSystem, lam: Weight) -> int:
    """Dimension of the irreducible representation with highest weight lam.

    Computed as prod_alpha <lam+rho, alpha> / <rho, alpha> over the positive
    roots and rounded; the product is required to sit within 1e-9 of an
    integer.
    """
    if not is_dominant(rs, lam):
        raise ValueError(f"dimension requires a dominant weight, got {lam}")
    if rs.is_torus:
        return 1
    lr = lam.coords + rs.rho
    num = rs.positive_roots @ lr
    den = rs.positive_roots @ rs.rho
    val = float(np.prod(num / den))
    d = round(val)
    if abs(val - d) > 1e-9:
        raise ArithmeticError(f"dimension formula gave non-integer {val}")
    return d
