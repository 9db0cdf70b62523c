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
mapped to the chamber at unit width, so one rule serves every integrand
of every Gaussian width.  All their 1-D Gauss rules come from
models._gauss_rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from math import factorial, hypot, prod

import numpy as np

from .models import (
    _BLOCK,
    Estimate,
    GroupModel,
    MonteCarlo,
    _block_edges,
    _evaluate_blocks,
    _gauss_legendre_01,
    _gauss_rule,
    _su3_chamber,
    _su3_invariants,
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
# models._BLOCK for the blocks of every other integrand).  A slab of the
# character integrals forms only its cross terms, non-simple roots and
# mantissa contraction, so its fixed cost weighs more than its
# temporaries: on a 2-vCPU x86_64 host, the benchmark's constants-sweep
# report_s was 0.223 s at 4096, 0.203 s at 8192 and 0.186 s at 16384
# (medians of 5 rotating runs of 10 s each).  But at 16384 a slab's
# temporaries pass glibc's 128 KiB mmap threshold: an order-192 A2 C
# integral took 1.44 ms in process against 0.95 ms at 8192, a fresh
# process's constants-sweep rows read 0.173-0.176 s against 0.141-0.146 s,
# and a2-verify's report_s rose 3.6% (BENCH_32).  An order-96 A2 rule is
# one slab
_SLAB = 8192


@dataclass(frozen=True, eq=False)
class ChamberQuadrature:
    """A chamber rule, kept as its 1-D factor and handed over in slabs.

    The rule is the rank-fold tensor grid of one 1-D rule in the simple-root
    coordinates s_i = <alpha_i, Y>: Gauss-Legendre on [0, R / |w_1|], its
    weights times s^2 (the simple roots' share of the density), or
    torus_axis_rule.  slabs() yields a slab of whole grid rows at a time, in
    the C order of the grid: its rows, a slice, and its weights (n,),
    positive.  lay_out() puts per-axis terms, formed once on the axis, on a
    slab as its coordinates() are: one array per axis that broadcast to
    the slab.  cartan() maps coordinates to Cartan nodes (n, rank),
    strictly dominant; nodes and weights are the whole rule, built on
    demand.  The weights contain the density prod <alpha, Y>^2, the
    Jacobian of the coordinates and the factor volume (flag_volume(rs)), so
    that sum(weights * f(nodes)) approximates the integral of an
    Ad-invariant f over the whole algebra.
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
        """(rows, weights) of consecutive slabs of about _SLAB points, rows
        the slice of grid rows a slab holds.

        The rows are split as evenly as whole rows allow into round(n /
        _SLAB) slabs, at least one and at most one per row, so no slab is a
        small remainder (each call of an integrand has a fixed cost), none
        is a single point (m >= 8), and a rank-1 rule is one slab.
        """
        count = min(self.rows, max(1, round(len(self) / _SLAB)))
        for k in range(count):
            rows = slice(self.rows * k // count, self.rows * (k + 1) // count)
            weights = _chamber_weights_raw(self, rows)
            weights *= self.volume
            yield rows, weights

    def lay_out(self, rows: slice, values) -> list[np.ndarray]:
        """Per-axis terms on the slab of grid rows `rows`: values[i] (m,)
        holds axis i's term at each axis point; it becomes a column at the
        rows' indices of axis i for a leading axis (on rank 2 a view, the
        rows being those indices), a row for the last, and the arrays
        broadcast to the slab."""
        rank = self.rs.rank
        if rank == 1:
            lead = ()
        elif rank == 2:
            lead = (rows,)
        else:
            grid = (len(self.axis),) * (rank - 1)
            lead = np.unravel_index(np.arange(rows.start, rows.stop), grid)
        return [*(v[i][:, None] for v, i in zip(values, lead)), values[-1][None, :]]

    def coordinates(self, rows: slice) -> list[np.ndarray]:
        """The simple-root coordinates of a slab, one array per axis."""
        return self.lay_out(rows, [self.axis] * self.rs.rank)

    def cartan(self, coords) -> np.ndarray:
        """The Cartan nodes (n, rank), sum_i s_i w_i, of a slab's coordinates:
        the same elementwise expression at every point, so a slab's nodes
        have the bits of its points in the whole grid."""
        fw = self.rs.fundamental_weights
        Y = reduce(np.add, [s[..., None] * w for s, w in zip(coords, fw)])
        return Y.reshape(-1, self.rs.rank)

    @property
    def nodes(self) -> np.ndarray:
        return self.cartan(self.coordinates(slice(0, self.rows)))

    @property
    def weights(self) -> np.ndarray:
        weights = _chamber_weights_raw(self, slice(0, self.rows))
        weights *= self.volume
        return weights


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


def _chamber_weights_raw(q: ChamberQuadrature, rows: slice) -> np.ndarray:
    """Weights (n,), without the volume factor, of the grid rows `rows` of q,
    a new array that the caller may scale in place.

    The outer product of the axis weights, laid out as the coordinates are
    (ChamberQuadrature.lay_out), times (sum_i c_i s_i)^2 for each
    non-simple positive root, each pairing a new array squared in place:
    the same elementwise expression at every point, so a slab has the bits
    of its points in the whole grid.
    """
    rank = q.rs.rank
    coords, w = q.coordinates(rows), q.lay_out(rows, [q.axis_weights] * rank)
    raw = reduce(np.multiply, w[:-1], np.ones((rows.stop - rows.start, 1))) * w[-1]
    for pairing in simple_root_pairings(q.rs, coords)[rank:]:
        raw *= np.multiply(pairing, pairing, out=pairing)
    return raw.reshape(-1)


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
    ChamberQuadrature.coordinates, of prod_alpha <alpha, Y>^2 f(Y).
    Mehta's integral (Macdonald's conjecture at k = 1) gives the Gaussian
    case exactly:

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


def flag_volume_from_gaussian(rs: RootSystem, order: int = 64) -> float:
    """The flag volume by quadrature, the numerical route to flag_volume.

    V = pi^(dim_k/2) / Q, Q the chamber rule of the given order for the
    density times e^{-|Y|^2}, without any flag-volume factor (volume 1).
    At the default order 64 it is within 2.0e-16 of the closed form,
    relative, on A1 and 6.0e-16 on A2 (at order 200: 0 and 2.0e-16).
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
    time (ChamberQuadrature.slabs, its coordinates mapped by
    ChamberQuadrature.cartan), and must return (n,) values, each depending
    on its own node alone; the caller is responsible for Ad-invariance of
    the integrand it represents.
    models.haar_mean writes the products w * f of every slab into one array
    and sums it once, so the value has the bits of sum(q.weights *
    f(q.nodes)).  A non-finite value raises ValueError at the slab where it
    appears.
    """

    def checked(rows):
        Y = q.cartan(q.coordinates(rows))
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
    log_value = _log_gaussian_moment(rs, mu, t)
    if log_value > LOG_FLOAT_MAX:
        raise ArithmeticError(f"the closed form e^{log_value:.6g} exceeds the largest float")
    return float((t * np.pi) ** (rs.dim_k / 2.0) * np.exp(t * float(mu @ mu) / 4.0))


def _log_gaussian_moment(rs: RootSystem, mu, t: float) -> float:
    """The log of gaussian_linear_moment(rs, mu, t), at every t > 0."""
    mu = np.asarray(mu, float)
    return rs.dim_k / 2.0 * np.log(t * np.pi) + t * float(mu @ mu) / 4.0


def tridiagonal_rule(model: GroupModel, order: int, moduli_order: int | None = None):
    """Chamber images (N, rank), weights (N,) and norm of the tridiagonal rule
    for e^{-|c|^2} over su(2) or su(3): `order` Gauss-Hermite points per
    diagonal axis and `moduli_order` (default `order`) Gauss-Laguerre points
    per off-diagonal modulus, (order * moduli_order)^rank nodes in all.

    Unitary invariance brings H = -iY to real tridiagonal form (Trotter,
    Adv. Math. 54 (1984) 67; Dumitriu & Edelman, J. Math. Phys. 43 (2002)
    5830), so for an Ad-invariant f the integral of f(Y) e^{-|Y|^2} over
    the algebra is norm * haar_mean(f, nodes, weights), f taking chamber
    coordinates.  It uses no Weyl integration formula and no flag volume.

    su(3): a U(1) x U(2) conjugation sends the off-diagonal part of H's
    first column to (s, 0) and a diagonal phase makes H_12 real, so polar
    coordinates on C^2 and C (sphere areas 2 pi^2 and 2 pi) make the
    integral over R^8 2 pi^2 * 2 pi times that over (c_2, c_7) in R^2,
    s > 0 and rho > 0 of s^3 rho f(c_0 = s, c_5 = rho, c_2, c_7, other
    c = 0) e^{-(c_2^2 + c_7^2 + s^2 + rho^2)}.  With c_2, c_7 = x
    (Gauss-Hermite), s^2 = u (Gauss-Laguerre, alpha = 1) and rho^2 = v
    (alpha = 0) it is pi^3 sum w f.  su(2): one phase leaves 2 pi times
    the integral over c_2 in R and rho > 0 of rho f(c_0 = rho, c_2, c_1 = 0)
    e^{-(c_2^2 + rho^2)}, or pi sum w f.  f = 1 gives pi^(dim_k/2) exactly.

    The moduli need fewer points than the diagonal: on su(3) the chamber
    image depends on (u, v) only through tr H^2 = H(c_2, c_7) + u + v and
    det H = D(c_2, c_7) - h_00 v / 2 - h_22 u / 2, both affine in u and v
    (q_02 = 0 and the triple product vanishes at the nodes).  On weylint's
    A2 test integrands, against the order-192 chamber rule at 61 widths in
    [1e-6, 8], 16^2 x 10^2 nodes were off at most 1.51e-14 relative and
    16^4 nodes 1.45e-14, both at t = 0.75; 14^2 x 10^2 nodes were off
    2.3e-12 there.

    The rule is built at unit width: chamber coordinates are homogeneous of
    degree 1 and the weights do not depend on the width, so width t takes
    the images times sqrt(t) and the norm times t^(dim_k/2).  The images
    come from the nodes' nonzero entries, each on its own grid axis, so
    that they broadcast to the grid: sqrt(rho^2 + c_2^2) on su(2), the norm
    over (rho, 0, c_2); on su(3) models._su3_invariants with the four zero
    coordinates as scalars, mapped by models._su3_chamber in the blocks of
    models._evaluate_blocks.  No (N, dim_k) node array is formed, and every
    image has the bits of models.chamber_coordinates at its zero-padded
    Cartesian node.
    """
    moduli = order if moduli_order is None else moduli_order
    x, wx = _gauss_rule("hermite", order)
    v, wv = _gauss_rule("laguerre", moduli)
    rho = np.sqrt(v)
    if model.kind == "SU2":
        weights = np.multiply.outer(wv, wx).reshape(-1)
        images = np.sqrt(rho[:, None] ** 2 + x**2).reshape(-1, 1)
        return images, weights, np.pi
    if model.kind != "SU3":
        raise ValueError(f"the tridiagonal rule needs the SU2 or SU3 model, not {model.kind!r}")
    u, wu = _gauss_rule("laguerre", moduli, 1.0)
    weights = reduce(np.multiply.outer, [wu, wv, wx, wx]).reshape(-1)
    # grid axes s = c_0, rho = c_5, c_2 and c_7
    c = [np.sqrt(u)[:, None, None, None], 0.0, x[:, None], 0.0, 0.0, rho[:, None, None], 0.0, x]
    tr2, det = _su3_invariants(c)
    images = _evaluate_blocks(_su3_chamber, (tr2.reshape(-1), det.reshape(-1)))
    return images, weights, np.pi**3


def cartesian_oracle_integrate(model: GroupModel, f, t: float, scheme: MonteCarlo) -> Estimate:
    """Monte-Carlo integral of f(Y) e^{-|Y|^2/t} over the full algebra.

    No chamber reduction is used.  f receives orthonormal ad-basis
    coordinates of shape (n, dim_k), a block of the points at a time, and
    returns the non-Gaussian factor at each as (n,) values.  Importance
    sampling with Y ~ Normal(0, t/2 per coordinate): the estimator is
    (t*pi)^(m/2) * mean f with a reported standard error, averaged through
    models.haar_mean with weights None.  The points are drawn a block at a
    time (_NormalDraw), in stream order from one generator, so no (N,
    dim_k) array is formed; the value, the standard error and the
    generator's final state are those of one rng.normal call for all N.
    The deterministic Cartesian route is tridiagonal_rule.
    """
    if not isinstance(scheme, MonteCarlo):
        raise ValueError(f"unknown Cartesian integration scheme: {scheme!r}")
    m = model.dim_k
    draw = _NormalDraw(np.random.default_rng(scheme.seed), np.sqrt(t / 2.0), scheme.samples, m)
    mean, sem = haar_mean(lambda block: np.asarray(f(block), dtype=float), draw)
    norm = (t * np.pi) ** (m / 2.0)
    return Estimate(norm * float(mean), norm * float(sem))


@dataclass(frozen=True, eq=False)
class _NormalDraw:
    """n points of Normal(0, scale^2) in R^dim, handed to models.haar_mean a
    block at a time: blocks() draws the blocks of models._block_edges(n,
    models._BLOCK), the blocks of an (n, dim) array, in stream order, each
    by rng.standard_normal into one buffer that the next block reuses, then
    scaled in place.  Normal variates use no cached state, and rng.normal
    forms 0 + scale * z, so the blocks hold the rows of rng.normal(0,
    scale, (n, dim)) bit for bit and leave the generator in its state."""

    rng: np.random.Generator
    scale: float
    n: int
    dim: int

    def __len__(self) -> int:
        return self.n

    def blocks(self):
        edges = _block_edges(self.n, _BLOCK)
        buffer = np.empty((min(self.n, _BLOCK + 1), self.dim))
        for lo, hi in zip(edges, edges[1:]):
            block = self.rng.standard_normal(out=buffer[:hi - lo])
            block *= self.scale
            yield block
