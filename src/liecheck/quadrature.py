"""Deterministic integration over the Lie algebra via chamber reduction.

For Ad-invariant integrands the integral over the whole algebra collapses
to the dominant chamber against the density prod_alpha <alpha, Y>^2 times a
constant flag-manifold volume factor.  Every chamber rule works in the
simple-root coordinates s_i = <alpha_i, Y> of Y = sum_i s_i w_i (w the
fundamental weights), where the chamber is the orthant s >= 0; on a torus
w = I, s = Y, and the rule covers a full box, the tensor power of one
mirrored axis rule (torus_axis_rule).  A rule keeps its 1-D factor and
forms its nodes and weights a slab of whole grid rows at a time, where
they are summed (ChamberQuadrature.slabs).  The flag volume is exact:
flag_volume takes it from Mehta's integral, the k = 1 case of Macdonald's
conjecture (Macdonald, SIAM J. Math. Anal. 13 (1982) 988; Mehta, Random
Matrices, 3rd ed., ch. 17), and the Jacobian |det w|.  Two Cartesian
routes that never use the chamber reduction check it: the Monte-Carlo
oracle, and the deterministic tridiagonal rule, which needs neither the
Weyl integration formula nor the flag volume and hands back its nodes
mapped to the chamber, so one rule serves every integrand of one Gaussian
width.  All their 1-D Gauss rules come from models._gauss_rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from math import factorial, hypot, prod

import numpy as np

from .models import (
    Estimate,
    GroupModel,
    MonteCarlo,
    _evaluate_blocks,
    _gauss_legendre_01,
    _gauss_rule,
    chamber_coordinates,
    haar_mean,
)
from .rootdata import RootSystem, simple_root_pairings

__all__ = [
    "ChamberQuadrature",
    "build_chamber_quadrature",
    "cartesian_oracle_integrate",
    "default_order",
    "flag_volume",
    "flag_volume_from_gaussian",
    "gaussian_linear_moment",
    "integrate_invariant",
    "torus_axis_rule",
    "tridiagonal_rule",
]

# the ValueError of every chamber-rule sum whose integrand overflows
NON_FINITE_VALUES = "integrand produced non-finite values at quadrature nodes"
# the log of the largest float: a value whose log is past it overflows
LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))
# degrees of the basic invariants of each Weyl group, for Mehta's integral
_INVARIANT_DEGREES = {"A1": (2,), "A2": (2, 3)}


# Points per slab of a chamber rule, to whole grid rows: the integrand's
# temporaries on a slab stay in the heap the allocator reuses (see
# models._BLOCK for the blocks of every other integrand)
_SLAB = 4096


@dataclass(frozen=True, eq=False)
class ChamberQuadrature:
    """A chamber rule, kept as its 1-D factor and handed over in slabs.

    The rule is the rank-fold tensor grid of one 1-D rule in the simple-root
    coordinates s_i = <alpha_i, Y>: Gauss-Legendre on [0, R / |w_1|], its
    weights times s^2 (the simple roots' share of the density), or
    torus_axis_rule.  slabs() yields a slab of whole grid rows at a time, in
    the C order of the grid: its coordinates, one array per axis that
    broadcast to the slab, and its weights (n,), positive.  cartan() maps
    coordinates to Cartan nodes (n, rank), strictly dominant; nodes and
    weights are the whole rule, built on demand.  The weights contain the
    density prod <alpha, Y>^2, the Jacobian of the coordinates and the
    factor volume (flag_volume(rs)), so that sum(weights * f(nodes))
    approximates the integral of an Ad-invariant f over the whole algebra.
    """

    rs: RootSystem
    axis: np.ndarray          # (m,) nodes of every grid axis
    axis_weights: np.ndarray  # (m,) the 1-D factor of the weights
    volume: float
    order: int

    @property
    def rs_kind(self) -> str:
        return self.rs.kind

    def __len__(self) -> int:
        return len(self.axis) ** self.rs.rank

    @property
    def rows(self) -> int:
        """Grid rows: each holds the m points that share their first rank - 1 axis indices."""
        return len(self.axis) ** (self.rs.rank - 1)

    def slabs(self):
        """(coordinates, weights) of consecutive slabs of about _SLAB points.

        The rows are split as evenly as whole rows allow into round(n /
        _SLAB) slabs, at least one and at most one per row, so no slab is a
        small remainder (each call of an integrand has a fixed cost), none
        is a single point (m >= 8), and a rank-1 rule is one slab.
        """
        count = min(self.rows, max(1, round(len(self) / _SLAB)))
        for k in range(count):
            lo, hi = self.rows * k // count, self.rows * (k + 1) // count
            coords, raw = _chamber_nodes_raw(self, lo, hi)
            yield coords, self.volume * raw

    def cartan(self, coords) -> np.ndarray:
        """The Cartan nodes (n, rank), sum_i s_i w_i, of a slab's coordinates:
        the same elementwise expression at every point, so a slab's nodes
        have the bits of its points in the whole grid."""
        fw = self.rs.fundamental_weights
        Y = reduce(np.add, [s[..., None] * w for s, w in zip(coords, fw)])
        return Y.reshape(-1, self.rs.rank)

    @property
    def nodes(self) -> np.ndarray:
        return self.cartan(_chamber_nodes_raw(self, 0, self.rows)[0])

    @property
    def weights(self) -> np.ndarray:
        return self.volume * _chamber_nodes_raw(self, 0, self.rows)[1]


def default_order(rank: int) -> int:
    """Points per dimension of a chamber rule when none is given."""
    return 64 if rank == 1 else 96


def truncation_radius(t: float, target_mu_norm: float) -> float:
    """Gaussian tail cut: |Y| range for integrands e^{-|Y|^2/t + |mu||Y|} poly."""
    return float(np.sqrt(t) * (target_mu_norm * np.sqrt(t) / 2.0 + 8.0))


def _check_rule_parameters(t: float, order: int) -> None:
    if order < 8:
        raise ValueError("quadrature order must be >= 8")
    if t <= 0:
        raise ValueError("t must be positive")


def _tensor_rule(*rules):
    """Tensor product of 1-D rules (x, w): (N, len(rules)) nodes and (N,) weights."""
    grids = np.meshgrid(*(x for x, _ in rules), indexing="ij", copy=False)
    nodes = np.stack(grids, axis=-1).reshape(-1, len(rules))
    return nodes, reduce(np.multiply.outer, [w for _, w in rules]).reshape(-1)


def _chamber_nodes_raw(q: ChamberQuadrature, lo: int, hi: int):
    """Simple-root coordinates and weights, without the volume factor, of
    grid rows lo to hi - 1 of q.

    The coordinates are one array per axis, broadcasting to the slab: a
    column per leading axis (unravelled from the row index), the last axis
    a row.  The weights are the outer product of the axis weights, times
    (sum_i c_i s_i)^2 for each non-simple positive root: the same
    elementwise expression at every point, so a slab has the bits of its
    points in the whole grid.
    """
    x, w, rank = q.axis, q.axis_weights, q.rs.rank
    lead = np.unravel_index(np.arange(lo, hi), (len(x),) * (rank - 1)) if rank > 1 else ()
    coords = (*(x[i][:, None] for i in lead), x[None, :])
    raw = np.multiply.outer(reduce(np.multiply, [w[i] for i in lead], np.ones(hi - lo)), w)
    for pairing in simple_root_pairings(q.rs, coords)[rank:]:
        raw *= pairing * pairing
    return coords, raw.reshape(-1)


def torus_axis_rule(t: float, order: int, target_mu_norm: float):
    """Nodes (2 order,) and weights of one axis of the torus chamber rule.

    Gauss-Legendre on [0, R] mirrored onto [-R, 0], R =
    truncation_radius(t, target_mu_norm): `order` points per half-axis,
    matching the resolution of the A1 half-line rule.  The torus rule of
    build_chamber_quadrature is its rank-fold tensor product, so an
    integrand that is a product over the axes sums, by Fubini over a finite
    sum, as the product of rank sums over this rule.
    """
    _check_rule_parameters(t, order)
    half, gw_half = _gauss_legendre_01(order, truncation_radius(t, target_mu_norm))
    return np.concatenate([-half[::-1], half]), np.concatenate([gw_half[::-1], gw_half])


@lru_cache(maxsize=None)  # every chamber rule built for rs reads it
def flag_volume(rs: RootSystem) -> float:
    """Flag-volume factor V of the chamber rules, in closed form.

    For Ad-invariant f, the integral of f over the whole algebra is V times
    the integral over the chamber, in the simple-root coordinates s of
    _chamber_nodes_raw, of prod_alpha <alpha, Y>^2 f(Y).  Mehta's integral
    (Macdonald's conjecture at k = 1) gives the Gaussian case exactly:

        integral over t of prod_alpha <alpha, x>^2 e^{-|x|^2} dx
            = pi^(r/2) prod_i d_i! prod_alpha |alpha|^2 / 4,

    d_i the degrees of the basic Weyl-group invariants.  The chamber is
    1/|W| of t, and Y = sum_i s_i w_i has the Jacobian J = |det w|, so
    V = pi^(dim_k/2) |W| J / (Mehta's integral): 2^(1/2) pi on A1,
    4 pi^3 / sqrt(3) on A2, and 1 on a torus.
    """
    jacobian = abs(float(np.linalg.det(rs.fundamental_weights)))
    mehta = (np.pi ** (rs.rank / 2.0)
             * prod(factorial(d) for d in _INVARIANT_DEGREES.get(rs.kind, ()))
             * float(np.prod((rs.positive_roots**2).sum(axis=1) / 4.0)))
    return float(np.pi ** (rs.dim_k / 2.0) * rs.n_weyl * jacobian / mehta)


def flag_volume_from_gaussian(rs: RootSystem, order: int = 200) -> float:
    """The flag volume by quadrature, the numerical route to flag_volume.

    V = pi^(dim_k/2) / Q, Q the chamber rule of the given order for the
    density times e^{-|Y|^2}, without any flag-volume factor (volume 1).
    """
    if rs.is_torus:
        return 1.0
    q = replace(build_chamber_quadrature(rs, 1.0, order), volume=1.0)
    # |Y|^2 by einsum: the same bits as np.sum(Y**2, -1) at rank <= 2,
    # without numpy's slow reduction over a length-1 or -2 axis
    gauss = integrate_invariant(q, lambda Y: np.exp(-np.einsum("...i,...i->...", Y, Y)))
    return float(np.pi ** (rs.dim_k / 2.0) / gauss)


def build_chamber_quadrature(
    rs: RootSystem, t: float, order: int, target_mu_norm: float = 0.0
) -> ChamberQuadrature:
    """Gauss-Legendre chamber rule sized for integrands e^{-|Y|^2/t + |mu||Y|}.

    Only the 1-D factor of the grid is built here; the rule's nodes and
    weights are formed a slab at a time where they are summed
    (ChamberQuadrature.slabs).

    Parameters
    ----------
    rs : RootSystem
    t : float
        Gaussian width parameter of the target integrand family.
    order : int
        Points per dimension, at least 8.
    target_mu_norm : float
        Norm of the largest exponential-growth vector mu expected; sets the
        truncation radius R = sqrt(t) * (|mu| sqrt(t)/2 + 8).
    """
    _check_rule_parameters(t, order)
    if rs.is_torus:
        axis, weights = torus_axis_rule(t, order, target_mu_norm)
    else:
        # in the chamber |Y| >= s_i |w_i| (<w_i, w_j> >= 0): s_i <= R / min |w_i|
        w_min = min(hypot(*w) for w in rs.fundamental_weights.tolist())
        axis, weights = _gauss_legendre_01(order, truncation_radius(t, target_mu_norm) / w_min)
        weights = weights * (axis * axis)
    return ChamberQuadrature(rs, axis, weights, volume=flag_volume(rs), order=order)


def integrate_invariant(q: ChamberQuadrature, f) -> float:
    """Integrate an Ad-invariant function over the algebra.

    f receives Cartan nodes of shape (n, rank), one slab of the rule at a
    time (ChamberQuadrature.slabs, mapped by ChamberQuadrature.cartan), and
    must return (n,) values, each depending on its own node alone; the
    caller is responsible for Ad-invariance of the integrand it represents.
    models.haar_mean writes the products w * f of every slab into one array
    and sums it once, so the value has the bits of sum(q.weights *
    f(q.nodes)).  A non-finite value raises ValueError at the slab where it
    appears.
    """

    def checked(coords):
        Y = q.cartan(coords)
        vals = np.asarray(f(Y), dtype=float)
        if vals.shape != (len(Y),):
            raise ValueError("integrand must return one value per node")
        if not np.all(np.isfinite(vals)):
            raise ValueError(NON_FINITE_VALUES)
        return vals

    return float(haar_mean(checked, q)[0])


def gaussian_linear_moment(rs: RootSystem, mu, t: float) -> float:
    """Closed form of the Gaussian-exponential moment over the algebra.

    integral of e^{-<mu, Y> - |Y|^2/t} dY = (t*pi)^(dim_k/2) * e^{t|mu|^2/4};
    ArithmeticError, naming its log, where it exceeds the largest float.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    mu = np.asarray(mu, float)
    log_value = rs.dim_k / 2.0 * np.log(t * np.pi) + t * float(mu @ mu) / 4.0
    if log_value > LOG_FLOAT_MAX:
        raise ArithmeticError(f"the closed form e^{log_value:.6g} exceeds the largest float")
    return float((t * np.pi) ** (rs.dim_k / 2.0) * np.exp(t * float(mu @ mu) / 4.0))


def tridiagonal_rule(model: GroupModel, t: float, order: int):
    """Chamber images (N, rank), weights (N,) and norm of the tridiagonal rule
    for e^{-|c|^2/t} over su(2) or su(3), `order` points per axis.

    Unitary invariance brings H = -iY to real tridiagonal form (Trotter,
    Adv. Math. 54 (1984) 67; Dumitriu & Edelman, J. Math. Phys. 43 (2002)
    5830), so for an Ad-invariant f the integral of f(Y) e^{-|Y|^2/t} over
    the algebra is norm * haar_mean(f, nodes, weights), f taking chamber
    coordinates.  It uses no Weyl integration formula and no flag volume.

    su(3): a U(1) x U(2) conjugation sends the off-diagonal part of H's
    first column to (s, 0) and a diagonal phase makes H_12 real, so polar
    coordinates on C^2 and C (sphere areas 2 pi^2 and 2 pi) make the
    integral over R^8 2 pi^2 * 2 pi times that over (c_2, c_7) in R^2,
    s > 0 and rho > 0 of s^3 rho f(c_0 = s, c_5 = rho, c_2, c_7, other
    c = 0) e^{-(c_2^2 + c_7^2 + s^2 + rho^2)/t}.  With c_2, c_7 = sqrt(t) x
    (Gauss-Hermite), s^2 = t u (Gauss-Laguerre, alpha = 1) and rho^2 = t v
    (alpha = 0) it is pi^3 t^4 sum w f.  su(2): one phase leaves 2 pi times
    the integral over c_2 in R and rho > 0 of rho f(c_0 = rho, c_2, c_1 = 0)
    e^{-(c_2^2 + rho^2)/t}, or pi t^(3/2) sum w f.  f = 1 gives
    (pi t)^(dim_k/2) exactly.

    The Cartesian nodes go through models.chamber_coordinates once, in the
    blocks of models._evaluate_blocks, so an integrand evaluated on the
    returned nodes in those blocks has the bits it would have composed with
    chamber_coordinates; one rule and its chamber images serve every
    integrand of one width.
    """
    x, wx = _gauss_rule("hermite", order)
    v, wv = _gauss_rule("laguerre", order)
    diagonal = (np.sqrt(t) * x, wx)
    rho = (np.sqrt(t * v), wv)
    if model.kind == "SU2":
        slots, rules, norm = [0, 2], (rho, diagonal), np.pi * t**1.5
    elif model.kind == "SU3":
        u, wu = _gauss_rule("laguerre", order, 1.0)
        slots, rules = [0, 5, 2, 7], ((np.sqrt(t * u), wu), rho, diagonal, diagonal)
        norm = np.pi**3 * t**4
    else:
        raise ValueError(f"the tridiagonal rule needs the SU2 or SU3 model, not {model.kind!r}")
    nodes, weights = _tensor_rule(*rules)
    c = np.zeros((len(nodes), model.dim_k))
    c[:, slots] = nodes
    return _evaluate_blocks(lambda block: chamber_coordinates(model, block), c), weights, norm


def cartesian_oracle_integrate(model: GroupModel, f, t: float, scheme: MonteCarlo) -> Estimate:
    """Monte-Carlo integral of f(Y) e^{-|Y|^2/t} over the full algebra.

    No chamber reduction is used.  f receives orthonormal ad-basis
    coordinates of shape (n, dim_k), a block of the points at a time, and
    returns the non-Gaussian factor at each as (n,) values.  Importance
    sampling with Y ~ Normal(0, t/2 per coordinate): the estimator is
    (t*pi)^(m/2) * mean f with a reported standard error, averaged through
    models.haar_mean with weights None.  The draw is one rng.normal call,
    only f runs block by block.  The deterministic Cartesian route is
    tridiagonal_rule.
    """
    if not isinstance(scheme, MonteCarlo):
        raise ValueError(f"unknown Cartesian integration scheme: {scheme!r}")
    m = model.dim_k
    rng = np.random.default_rng(scheme.seed)
    c = rng.normal(0.0, np.sqrt(t / 2.0), size=(scheme.samples, m))
    mean, sem = haar_mean(lambda block: np.asarray(f(block), dtype=float), c, None)
    norm = (t * np.pi) ** (m / 2.0)
    return Estimate(norm * float(mean), norm * float(sem))
