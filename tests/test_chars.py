import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liecheck import chars
from liecheck.chars import (
    ClosedFormA1,
    GelfandTsetlinSU3,
    _gelfand_tsetlin_diagonals,
    eta,
    eta_det_oracle,
    j_half_identity_residual,
    kirillov_sides,
    orbital_average,
    weyl_char_holo,
)
from liecheck.models import (
    CARTAN_EIGEN_EMBED,
    MonteCarlo,
    algebra_element,
    cartan_element,
    chamber_coordinates,
    haar_sample,
)
from liecheck.quadrature import build_chamber_quadrature, cartesian_oracle_integrate
from liecheck.rootdata import build_root_system, dimension, enumerate_dominant, weight


def a1_point(theta):
    """The A1 Cartan point of angle theta: <alpha, Y> = 2 theta."""
    return np.array([np.sqrt(2.0) * theta])


class WallSingularityError(ArithmeticError):
    """The Weyl denominator vanished; evaluate off the wall instead."""


def weyl_char_compact(rs, lam, Y) -> complex:
    """Weyl character at exp(Y): alternating sums of e^{i<w(lam+rho), Y>}.

    The tests' oracle for the compact character.  Raises
    WallSingularityError when the denominator magnitude falls below 1e-12.
    """
    signs = rs.weyl_signs.astype(float)
    wl = np.einsum("wij,j->wi", rs.weyl_elements, lam.coords + rs.rho)
    wr = np.einsum("wij,j->wi", rs.weyl_elements, rs.rho)
    num = np.sum(signs * np.exp(1j * (wl @ Y)))
    den = np.sum(signs * np.exp(1j * (wr @ Y)))
    if abs(den) < 1e-12:
        raise WallSingularityError(f"Weyl denominator vanished at Y = {Y}")
    return complex(num / den)


def test_eta_values(a1, t2):
    assert eta(a1, np.zeros(1)) == 1.0
    assert abs(eta(a1, a1_point(1.0)) - np.sinh(2.0) / 2.0) < 1e-14
    rng = np.random.default_rng(1)
    assert np.abs(eta(t2, rng.normal(size=(20, 2))) - 1.0).max() == 0.0


def test_eta_symmetries(a1, a2):
    rng = np.random.default_rng(2)
    for rs in (a1, a2):
        pts = rng.normal(size=(50, rs.rank))
        vals = eta(rs, pts)
        assert vals.min() > 0.0
        assert np.abs(vals - eta(rs, -pts)).max() < 1e-12
        for w in rs.weyl_elements:
            assert np.abs(eta(rs, pts @ w.T) - vals).max() < 1e-12


def test_eta_det_oracle_su2(su2, a1):
    assert abs(eta_det_oracle(su2, np.zeros((2, 2))) - 1.0) < 1e-14
    # conjugate of theta = 0.7 by a generic unitary
    rng = np.random.default_rng(3)
    from liecheck.models import haar_sample

    y = haar_sample(su2, rng)
    Y = y @ cartan_element(su2, np.array([np.sqrt(2.0) * 0.7])) @ np.conj(y.T)
    assert abs(eta_det_oracle(su2, Y) - np.sinh(1.4) / 1.4) < 1e-10


def test_eta_product_vs_det_oracle_random(a1, a2, su2, su3):
    rng = np.random.default_rng(4)
    for rs, model in ((a1, su2), (a2, su3)):
        coords = rng.normal(0.0, 0.8, size=(100, model.dim_k))
        reps = chamber_coordinates(model, coords)
        for c, rep in zip(coords, reps):
            prod = float(eta(rs, rep))
            det = eta_det_oracle(model, algebra_element(model, c))
            assert abs(prod - det) < 1e-10


def test_batched_eta_det_oracle_equals_per_matrix_calls(a1, a2, su2, su3):
    # one eigvalsh call over a stack gives each matrix the bits of its own call
    rng = np.random.default_rng(47)
    for rs, model in ((a1, su2), (a2, su3)):
        Ys = algebra_element(model, rng.normal(0.0, 0.8, size=(60, model.dim_k)))
        batch = eta_det_oracle(model, Ys)
        assert batch.shape == (60,)
        alone = [eta_det_oracle(model, Y) for Y in Ys]
        assert all(isinstance(v, float) for v in alone)
        assert np.array_equal(batch, alone)
        assert np.array_equal(eta_det_oracle(model, Ys.reshape(3, 20, *Ys.shape[1:])),
                              batch.reshape(3, 20))
        pts = rng.normal(0.0, 0.8, size=(60, rs.rank))
        residuals = j_half_identity_residual(rs, pts)
        assert np.array_equal(residuals, [j_half_identity_residual(rs, p) for p in pts])


def test_j_half_identity(a1, a2):
    assert j_half_identity_residual(a1, a1_point(0.0)) == 0.0
    assert j_half_identity_residual(a1, a1_point(1.3)) < 1e-14
    rng = np.random.default_rng(5)
    for _ in range(20):
        assert j_half_identity_residual(a2, rng.normal(size=2)) < 1e-13


def test_weyl_char_compact(a1, su2):
    lam1 = weight(a1, (1,))
    theta = 0.61
    val = weyl_char_compact(a1, lam1, a1_point(theta))
    # oracle: trace of the defining representation at exp(Y)
    x = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    assert abs(val - np.trace(x)) < 1e-12
    assert abs(val - 2.0 * np.cos(theta)) < 1e-13
    assert abs(weyl_char_compact(a1, weight(a1, (0,)), a1_point(0.3)) - 1.0) < 1e-14
    with pytest.raises(WallSingularityError):
        weyl_char_compact(a1, lam1, np.zeros(1))


def test_weyl_char_compact_a2_eigenvalue_oracle(a2):
    # defining and dual characters are the sums of e^{+-i a_j} over the
    # diagonal entries a of Y = i diag(a)
    rng = np.random.default_rng(7)
    embed = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]) / np.sqrt([2.0, 6.0])[:, None]
    for _ in range(10):
        Y = rng.normal(size=2)
        a = Y @ embed
        v10 = weyl_char_compact(a2, weight(a2, (1, 0)), Y)
        v01 = weyl_char_compact(a2, weight(a2, (0, 1)), Y)
        assert abs(v10 - np.exp(1j * a).sum()) < 1e-12
        assert abs(v01 - np.exp(-1j * a).sum()) < 1e-12
        assert abs(v01 - np.conj(v10)) < 1e-12


def test_weyl_char_holo_closed_form(a1):
    theta = 0.5
    for n in range(5):
        val = weyl_char_holo(a1, weight(a1, (n,)), a1_point(theta))
        expected = np.sinh((n + 1) * theta) / np.sinh(theta)
        assert abs(val - expected) < 1e-12 * expected
    assert weyl_char_holo(a1, weight(a1, (0,)), a1_point(2.0)) == 1.0


def test_weyl_char_holo_limits_and_bounds(a1, a2):
    for rs in (a1, a2):
        origin = np.zeros(rs.rank)
        rng = np.random.default_rng(6)
        for lam in enumerate_dominant(rs, 3):
            d = dimension(rs, lam)
            assert abs(weyl_char_holo(rs, lam, origin) - d) < 1e-6
            # dominance bound: continued characters dominate the trivial one
            pts = np.abs(rng.normal(size=(10, rs.rank))) @ rs.fundamental_weights
            vals = weyl_char_holo(rs, lam, pts)
            assert np.all(vals >= 1.0 - 1e-12)


def test_weyl_char_holo_torus(t2):
    lam = weight(t2, (1, 2))
    y = np.array([0.3, -0.4])
    assert abs(weyl_char_holo(t2, lam, y) - np.exp(-lam.coords @ y)) < 1e-14


def _gt_weight_vectors(kind, dynkin):
    """Monomial exponents of the character as a positive sum, one per basis
    state (Gelfand-Tsetlin pattern); A1 and A2 only."""
    if kind == "A1":
        n = dynkin[0]
        return [(k, n - k) for k in range(n + 1)]
    p, q = dynkin
    k1, k2, k3 = p + q, q, 0
    out = []
    for m1 in range(k2, k1 + 1):
        for m2 in range(k3, k2 + 1):
            for b in range(m2, m1 + 1):
                out.append((b, m1 + m2 - b, k1 + k2 + k3 - m1 - m2))
    return out


def _log_char_holo_positive(rs, lam, pts):
    """The tests' oracle for log chi^C: log-sum-exp over the dim lam
    monomials e^{-<weight, a>} of the Gelfand-Tsetlin basis, with the
    diagonal entries a of Y = i diag(a), exp(iY) = diag(e^{-a}); on a
    torus the one monomial e^{-<lam, Y>}."""
    if rs.is_torus:
        return -(pts @ lam.coords)
    a = pts @ CARTAN_EIGEN_EMBED[rs.kind]
    exponents = -(a @ np.asarray(_gt_weight_vectors(rs.kind, lam.dynkin), float).T)
    top = exponents.max(axis=-1)
    return top + np.log(np.exp(exponents - top[:, None]).sum(axis=-1))


def _weyl_char_holo_two_exp(rs, lam, pts):
    """The continued character with the denominator exponentiated twice;
    returns the values and the points sent to the positive-monomial form.
    The exponents <w mu, Y> are summed over the axes elementwise
    (chars._pairings): a BLAS product's last bits depend on the batch."""
    signs = rs.weyl_signs.astype(float)
    wl = np.einsum("wij,j->wi", rs.weyl_elements, lam.coords + rs.rho)
    wr = np.einsum("wij,j->wi", rs.weyl_elements, rs.rho)
    num = np.exp(-np.stack(chars._pairings(pts, wl.T), axis=-1)) @ signs
    wr_terms = np.exp(-np.stack(chars._pairings(pts, wr.T), axis=-1))
    den = wr_terms @ signs
    den_scale = wr_terms @ np.abs(signs)
    bad = (np.abs(den) < 1e-12) | (np.abs(den) < 1e-7 * den_scale)
    out = np.divide(num, np.where(bad, 1.0, den))
    if bad.any():
        out[bad] = np.exp(_log_char_holo_positive(rs, lam, pts[bad]))
    return out, bad


def _wall_and_interior_points(rs, rng, n):
    """The origin, n points at 1e-9 to 1e-2 from each chamber wall, n points
    of scale 1e-2 to 30 in random directions, and the negatives of all of
    them, which lie outside the dominant chamber."""
    fw = rs.fundamental_weights
    near = 10.0 ** rng.uniform(-9.0, -2.0, size=(n, 1))
    along = 10.0 ** rng.uniform(-2.0, np.log10(30.0), size=(n, 1))
    if rs.rank == 1:
        walls = near * fw[0]
    else:
        walls = np.vstack([along * fw[0] + near * fw[1], near * fw[0] + along * fw[1]])
    direction = rng.normal(size=(n, rs.rank))
    interior = (10.0 ** rng.uniform(-2.0, np.log10(30.0), size=(n, 1))
                * direction / np.linalg.norm(direction, axis=1)[:, None])
    pts = np.vstack([walls, interior])
    return np.vstack([np.zeros((1, rs.rank)), pts, -pts])


def _assert_matches_oracle(rs, lam, pts):
    log_scale, mantissa = chars._char_holo_parts(rs, [lam], pts)[0]
    assert np.all((mantissa >= 1.0) & (mantissa <= dimension(rs, lam)))
    want = _log_char_holo_positive(rs, lam, pts)
    err = np.abs(log_scale + np.log(mantissa) - want)
    assert np.all(err <= 1e-13 * np.maximum(1.0, np.abs(want))), (lam.dynkin, err.max())


def test_char_holo_matches_the_positive_sum_oracle_at_walls_and_inside(a1, a2):
    # the alternating quotient missed this by about 2e-10 near the walls
    rng = np.random.default_rng(11)
    for rs in (a1, a2):
        pts = _wall_and_interior_points(rs, rng, 200)
        for lam in enumerate_dominant(rs, 8):
            _assert_matches_oracle(rs, lam, pts)
            # chi(0) is dim lam exactly: every term is 1
            assert weyl_char_holo(rs, lam, np.zeros(rs.rank)) == dimension(rs, lam)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["A1", "A2"]),
       labels=st.tuples(st.integers(0, 8), st.integers(0, 8)),
       along=st.floats(0.0, 30.0),
       off=st.one_of(st.floats(1e-9, 1e-2), st.floats(0.0, 30.0)),
       sign=st.sampled_from([1.0, -1.0]),
       conjugate=st.integers(0, 5))
def test_char_holo_matches_the_positive_sum_oracle_property(kind, labels, along, off, sign,
                                                            conjugate):
    rs = build_root_system(kind)
    fw = rs.fundamental_weights
    lam = weight(rs, labels[:rs.rank])
    Y = sign * (off * fw[0] if rs.rank == 1 else along * fw[0] + off * fw[1])
    _assert_matches_oracle(rs, lam, Y[None, :])
    # the s-coordinate evaluator at the point's dominant representative,
    # its s written down (-w_0 permutes the w_i, so -Y has the s of
    # dual_labels @ s), and at a Weyl conjugate of the point, mapped to s
    # as scattered points are
    want = _log_char_holo_positive(rs, lam, Y[None, :])
    s = np.array([off] if rs.rank == 1 else [along, off])
    dominant = s if sign > 0 else rs.dual_labels @ s
    w = rs.weyl_elements[conjugate % rs.n_weyl]
    for coords in ([np.array([x]) for x in dominant],
                   chars._dominant_coordinates(rs, (w @ Y)[None, :])):
        log_scales, mantissa = chars._chamber_char_parts(rs, lam, coords)
        assert np.all((mantissa >= 1.0) & (mantissa <= dimension(rs, lam)))
        err = np.abs(sum(log_scales) + np.log(mantissa) - want)
        assert np.all(err <= 1e-13 * np.maximum(1.0, np.abs(want))), (lam.dynkin, err.max())


def test_char_holo_of_a_point_alone_equals_it_inside_a_batch(a1, a2, t2):
    # elementwise arithmetic only: no BLAS routine that depends on the batch
    rng = np.random.default_rng(13)
    t1 = build_root_system("T1")
    for rs, dynkins in ((a1, [(1,), (8,)]), (a2, [(1, 0), (3, 2), (8, 8)]),
                        (t1, [(1,), (8,)]), (t2, [(1, 0), (3, 2), (8, 8)])):
        pts = rng.normal(0.0, 3.0, size=(5000, rs.rank))
        for dynkin in dynkins:
            lam = weight(rs, dynkin)
            batch = weyl_char_holo(rs, lam, pts)
            alone = np.array([weyl_char_holo(rs, lam, y) for y in pts])
            assert np.array_equal(batch, alone), (dynkin, np.count_nonzero(batch != alone))


def test_multi_weight_characters_equal_each_weight_alone(a1, a2, t2):
    # one pass forms the dominant coordinates and their e^{-s_i} once for
    # all the weights; each row keeps the bits of its weight alone, lam = 0
    # included, in a batch, at single points and on the chamber walls
    rng = np.random.default_rng(31)
    t1 = build_root_system("T1")
    for rs in (a1, a2, t1, t2):
        if rs.is_torus:
            pts = np.vstack([np.zeros((1, rs.rank)), rng.normal(0.0, 3.0, size=(200, rs.rank))])
        else:
            on_walls = np.vstack([np.outer(rng.uniform(0.0, 30.0, 50), w)
                                  for w in rs.fundamental_weights])
            pts = np.vstack([_wall_and_interior_points(rs, rng, 100), on_walls, -on_walls])
        lams = enumerate_dominant(rs, 3)
        assert (0,) * rs.rank in [lam.dynkin for lam in lams]
        batch = chars.weyl_chars_holo(rs, lams, pts)
        assert batch.shape == (len(lams), len(pts))
        for lam, row in zip(lams, batch):
            assert np.array_equal(row, weyl_char_holo(rs, lam, pts)), lam.dynkin
        for y in pts[::13]:
            assert np.array_equal(chars.weyl_chars_holo(rs, lams, y),
                                  [weyl_char_holo(rs, lam, y) for lam in lams])


def test_branching_mantissa_broadcasts_bit_for_bit(a2):
    # scattered points take the last axis's polynomials and Horner's rule
    # in r, elementwise: y a row and r a column give the bits of the same
    # points flat, so a point has the same bits alone and in a batch (a
    # chamber grid takes _grid_mantissa instead, tested below)
    rng = np.random.default_rng(17)
    y = np.concatenate([[1.0, 1e-300], rng.uniform(1e-9, 1.0, 35)])
    r = np.concatenate([[1.0, 1e-300], rng.uniform(1e-9, 1.0, 21)])
    flat_y, flat_r = (a.ravel() for a in np.broadcast_arrays(y[None, :], r[:, None]))
    for lam in enumerate_dominant(a2, 8):
        m = chars._weight_multiplicities(a2, lam.dynkin)
        # at (0, 0) the mantissa is 1 of y's shape, which broadcasts
        grid = np.broadcast_to(chars._mantissa(chars._last_axis_polynomials(m, y), r[:, None]),
                               (len(r), len(y)))
        flat = chars._mantissa(chars._last_axis_polynomials(m, flat_y), flat_r)
        assert np.array_equal(grid.ravel(), flat)


def test_grid_mantissa_matches_horners_rule_at_the_same_r_and_y(a2):
    # a chamber grid takes T = E m E^T, scattered points Horner's rule: at
    # the same r = y = e^{-x} the two agree to a few ulp (the largest
    # difference, 1.3e-15, is at (10, 12)), on the axis of an order-96 rule
    # and at x = 0, where T is dim lam exactly, and e^{-x} = 1e-300
    x = np.concatenate([[0.0, -np.log(1e-300)],
                        2.0 * build_chamber_quadrature(a2, 1.0, 96, 10.0).axis])
    decay = np.exp(-x)
    assert math.isclose(decay[1], 1e-300, rel_tol=1e-12)
    for lam in enumerate_dominant(a2, 12):
        m = chars._weight_multiplicities(a2, lam.dynkin)
        # at (0, 0) the grid mantissa is a row of ones, which broadcasts
        grid = np.broadcast_to(chars._grid_mantissa(m, x)(slice(None)), (len(x), len(x)))
        horner = chars._mantissa(chars._last_axis_polynomials(m, decay), decay[:, None])
        assert grid[0, 0] == dimension(a2, lam)
        assert np.all(np.abs(grid - horner) <= 2e-15 * horner), lam.dynkin


def test_weight_multiplicities_count_the_gelfand_tsetlin_patterns(a1, a2):
    # m[k1, k2] is the number of basis states whose monomial is e^{-k1 s_1 -
    # k2 s_2} times the largest, at Y = s_1 w_1 + s_2 w_2 (A1: m[0, k], e^{-k
    # s_1}); the closed form on A2, ones on A1, exactly, and dim lam in all
    for rs in (a1, a2):
        a = rs.fundamental_weights @ CARTAN_EIGEN_EMBED[rs.kind]
        for dynkin in np.ndindex(*(11,) * rs.rank):
            lam = weight(rs, dynkin)
            pairings = np.asarray(_gt_weight_vectors(rs.kind, dynkin), float) @ a.T
            k = np.rint(pairings - pairings.min(axis=0)).astype(int)
            assert np.allclose(pairings - pairings.min(axis=0), k, rtol=0.0, atol=1e-9)
            m = chars._weight_multiplicities(rs, dynkin)
            counts = np.zeros(m.shape)
            np.add.at(counts, tuple(k.T) if rs.rank == 2 else (0, k[:, 0]), 1)
            assert np.array_equal(m, counts), dynkin
            assert m.sum() == dimension(rs, lam)


def test_chamber_char_parts_match_the_oracle_next_to_the_walls(a1, a2, t2):
    # the chamber rules evaluate the character from the simple-root
    # coordinates s_i = <alpha_i, Y>; at the grid nodes next to each wall
    # (the first two axis points of one s_i beside the whole of the other
    # axis, at the character scales 1 and 2) it agrees with the
    # Gelfand-Tsetlin sum.  The torus rule has no walls: its first two axis
    # points are the far ends of the box, where the one monomial is largest
    for rs in (a1, a2, t2):
        q = build_chamber_quadrature(rs, 1.0, 192, 12.0)
        x = q.axis
        for lam in enumerate_dominant(rs, 8):
            for wall in range(rs.rank):
                s = np.ix_(*[x[:2] if i == wall else x for i in range(rs.rank)])
                for scale in (1.0, 2.0):
                    log_scales, mantissa = chars._chamber_char_parts(rs, lam, [scale * c for c in s])
                    assert np.all((mantissa >= 1.0) & (mantissa <= dimension(rs, lam)))
                    want = _log_char_holo_positive(rs, lam, scale * q.cartan(s))
                    err = np.abs((sum(log_scales) + np.log(mantissa)).ravel() - want)
                    assert np.all(err <= 1e-13 * np.maximum(1.0, np.abs(want))), \
                        (rs.kind, lam.dynkin, err.max())


def test_weyl_char_holo_torus_matches_two_exponential_reference(t2):
    # W = {1} and rho = 0: the quotient's denominator is exactly 1, so the
    # single monomial must reproduce the alternating quotient bit for bit
    rng = np.random.default_rng(12)
    for rs in (build_root_system("T1"), t2, build_root_system("T3")):
        interior = rng.normal(0.0, 3.0, size=(40, rs.rank))
        pts = np.vstack([interior, -np.abs(interior), np.zeros((1, rs.rank))])
        for lam in enumerate_dominant(rs, 3):
            ref, bad = _weyl_char_holo_two_exp(rs, lam, pts)
            assert not bad.any()
            assert np.array_equal(weyl_char_holo(rs, lam, pts), ref)
            assert weyl_char_holo(rs, lam, np.zeros(rs.rank)) == 1.0
            scalar = weyl_char_holo(rs, lam, interior[0])
            assert isinstance(scalar, float)
            assert scalar == _weyl_char_holo_two_exp(rs, lam, interior[:1])[0][0]
    # the sweep's rank-2 rule: order 96 at the radius of lam = (6, 6), t = 2
    top = weight(t2, (6, 6))
    q = build_chamber_quadrature(t2, 2.0, 96, 2.0 * float(np.linalg.norm(top.coords)))
    pts = 2.0 * q.nodes
    for lam in (weight(t2, (0, 0)), weight(t2, (3, 4)), top):
        assert np.array_equal(weyl_char_holo(t2, lam, pts), _weyl_char_holo_two_exp(t2, lam, pts)[0])
    # every torus weight is dominant: (-1,) is the mirror of (1,); on A1 it raises
    t1, a1 = build_root_system("T1"), build_root_system("A1")
    assert weyl_char_holo(t1, weight(t1, (-1,)), np.ones(1)) == weyl_char_holo(
        t1, weight(t1, (1,)), -np.ones(1))
    with pytest.raises(ValueError):
        weyl_char_holo(a1, weight(a1, (-1,)), np.ones(1))


def test_orbital_average_trivial(su2):
    est = orbital_average(su2, np.array([1.7]), np.zeros(1), ClosedFormA1())
    assert est.value == 1.0 and est.stderr == 0.0


def test_orbital_average_closed_form_vs_mc(su2, a1):
    # mu = 2(lam+rho) at n = 1, theta = 0.5: |mu||Y| = 2, average sinh(2)/2
    lam = weight(a1, (1,))
    mu = 2.0 * (lam.coords + a1.rho)
    Y = a1_point(0.5)
    closed = orbital_average(su2, mu, Y, ClosedFormA1())
    assert abs(closed.value - np.sinh(2.0) / 2.0) < 1e-14
    mc = orbital_average(su2, mu, Y, MonteCarlo(1_000_000, 7))
    assert abs(mc.value - closed.value) < 3 * mc.stderr


def _orbital_average_ad_y(model, mu, Y, scheme):
    """Reference MonteCarlo orbital average: -tr(M y Y y^H) by matrix products."""
    ys = haar_sample(model, np.random.default_rng(scheme.seed), scheme.samples)
    Ym = cartan_element(model, Y)
    Mm = cartan_element(model, mu)
    ad_y = ys @ Ym @ np.conj(np.swapaxes(ys, -1, -2))
    vals = np.exp(np.einsum("ij,nji->n", Mm, ad_y).real)
    return vals.mean(), vals.std(ddof=1) / np.sqrt(len(vals))


def test_monte_carlo_standard_error_is_calibrated(su2, a1):
    # seeds, sample size and bands fixed before the first run: the z-scores
    # of 300 independent estimates must look like N(0, 1) draws.  mean z^2
    # is chi^2_300 / 300 (sd 0.0816), |mean z| has sd 1/sqrt(300); both
    # bands are +-4 sd.  A wrong ddof or a missing factor in the standard
    # error moves mean z^2 out of its band.
    lam = weight(a1, (1,))
    mu = 2.0 * (lam.coords + a1.rho)
    Y = np.array([0.5 * np.sqrt(2.0)])
    exact = orbital_average(su2, mu, Y, ClosedFormA1()).value
    z = np.array([(est.value - exact) / est.stderr
                  for est in (orbital_average(su2, mu, Y, MonteCarlo(2000, seed))
                              for seed in range(300))])
    assert 0.67 <= float(np.mean(z**2)) <= 1.33
    assert abs(float(np.mean(z))) <= 0.231


def test_gelfand_tsetlin_rule_is_an_orbit_rule():
    # the diagonal x of U* diag(m) U, U Haar: E x_i = tr m / 3 and
    # E x_1^2 = (sum m_i^2 + (tr m)^2) / 12, the moduli |U_i1|^2 being
    # uniform on the simplex; summed exactly so that only the rule is tested
    for m, order in (((1.3, -0.4, -0.9), 4), ((-2.0, 0.5, 3.5), 9), ((1.0, 1.0, -2.0), 16)):
        m = np.array(m)
        x, weights = _gelfand_tsetlin_diagonals(m, order)
        assert all(xi.shape == (order**3,) for xi in x) and weights.shape == (order**3,)
        assert abs(math.fsum(weights) - 1.0) <= 1e-14
        assert weights.min() >= 0.0
        scale = float(np.abs(m).max())
        for xi in x:
            assert abs(math.fsum(weights * xi) - m.sum() / 3.0) <= 1e-14 * scale
        second = (np.sum(m**2) + m.sum() ** 2) / 12.0
        assert abs(math.fsum(weights * x[0] ** 2) - second) <= 1e-14 * scale**2
        # every x is a diagonal of the orbit: it sums to tr m, inside [m_3, m_1]
        assert np.abs(x[0] + x[1] + x[2] - m.sum()).max() <= 1e-14 * scale
        for xi in x:
            assert m.min() - 1e-14 * scale <= xi.min() and xi.max() <= m.max() + 1e-14 * scale


def test_gelfand_tsetlin_orbital_average_at_mu_zero_is_one(su3):
    # the orbit of mu = 0 is a point: the rule's weight 2 (p - q) / (m_1 - m_3)
    # would be 0 / 0 there
    for Y in (np.array([0.3, -1.2]), np.zeros(2)):
        assert orbital_average(su3, np.zeros(2), Y, GelfandTsetlinSU3(20)) == (1.0, 0.0)


def _hciz(m, b):
    """The HCIZ average of exp(-sum_ij m_i b_j |U_ij|^2) over SU(3):
    2 det[e^{-m_i b_j}] / (Delta(m) Delta(-b))."""
    def vandermonde(a):
        return (a[0] - a[1]) * (a[0] - a[2]) * (a[1] - a[2])

    return 2.0 * np.linalg.det(np.exp(-np.outer(m, b))) / (vandermonde(m) * vandermonde(-b))


gaps = st.floats(0.2, 1.8)


@settings(max_examples=60, deadline=None)
@given(gm=st.tuples(gaps, gaps), gb=st.tuples(gaps, gaps), perm=st.permutations(range(3)),
       flip=st.booleans())
def test_gelfand_tsetlin_orbital_average_matches_hciz(su3, gm, gb, perm, flip):
    # separated spectra, so the determinant formula keeps its digits
    def spectrum(g):
        a = np.array([0.0, -g[0], -g[0] - g[1]])
        return a - a.mean()

    embed = CARTAN_EIGEN_EMBED["A2"]
    m, b = spectrum(gm), spectrum(gb)[list(perm)] * (-1.0 if flip else 1.0)
    assume(np.linalg.norm(m) * np.linalg.norm(b) <= 6.0)
    mu, Y = embed @ m, embed @ b
    m = np.diagonal(cartan_element(su3, mu)).imag
    b = np.diagonal(cartan_element(su3, Y)).imag
    exact = _hciz(m, b)
    rule = orbital_average(su3, mu, Y, GelfandTsetlinSU3(20))
    assert rule.stderr == 0.0
    assert abs(rule.value - exact) <= 1e-11 * exact


def test_gelfand_tsetlin_su3_matches_character_side(su3, a2):
    # the 12 (lam, double/half) cases of the kirillov suite, Y ~ N(0, 0.5^2),
    # and 12 wide ones, Y ~ N(0, 2^2), all at order 20
    rng = np.random.default_rng(606)
    for sd in (0.5, 2.0):
        for dn in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 2)):
            lam = weight(a2, dn)
            Y = rng.normal(0.0, sd, size=2)
            for half in (False, True):
                lhs, rhs = kirillov_sides(su3, lam, Y, GelfandTsetlinSU3(20), half_angle=half)
                assert rhs.stderr == 0.0
                assert abs(lhs - rhs.value) <= 1e-13 * abs(lhs), (sd, dn, half)


def test_gelfand_tsetlin_su3_agrees_with_monte_carlo(su3, a2):
    lam = weight(a2, (2, 2))
    mu = 2.0 * (lam.coords + a2.rho)
    Y = np.array([0.4, -0.3])
    rule = orbital_average(su3, mu, Y, GelfandTsetlinSU3(20))
    mc = orbital_average(su3, mu, Y, MonteCarlo(100_000, 616))
    assert abs(mc.value - rule.value) <= 3.0 * mc.stderr


def test_orbital_average_matches_ad_y_reference(su2, su3):
    rng = np.random.default_rng(61)
    for model in (su2, su3):
        pairs = [(rng.normal(size=model.rank) * 2.0, rng.normal(size=model.rank) * 0.7)
                 for _ in range(4)]
        pairs += [(rng.normal(size=model.rank), np.zeros(model.rank)),
                  (np.zeros(model.rank), rng.normal(size=model.rank))]
        for k, (mu, Y) in enumerate(pairs):
            est = orbital_average(model, mu, Y, MonteCarlo(20_000, 70 + k))
            mean, sem = _orbital_average_ad_y(model, mu, Y, MonteCarlo(20_000, 70 + k))
            assert abs(est.value - mean) <= 1e-13 * mean
            assert abs(est.stderr - sem) <= 1e-13 * sem


def test_orbital_average_a2_seed_consistency(su3, a2):
    rng = np.random.default_rng(8)
    mu = rng.normal(size=2) * 2.0
    Y = rng.normal(size=2) * 0.7
    e1 = orbital_average(su3, mu, Y, MonteCarlo(100_000, 7))
    e2 = orbital_average(su3, mu, Y, MonteCarlo(100_000, 8))
    assert abs(e1.value - e2.value) < 3 * np.hypot(e1.stderr, e2.stderr)
    # determinism under a fixed seed
    e3 = orbital_average(su3, mu, Y, MonteCarlo(100_000, 7))
    assert e1.value == e3.value


def test_monte_carlo_orbital_average_holds_no_array_of_all_samples(su2, su3):
    # tracemalloc sees numpy's allocations.  With the 10^5 elements formed
    # a block at a time, the traced peak is the normals (9.6 MB on SU(3))
    # and one block; with all of them in one array it read 25.5 MiB on
    # SU(3) and 9.5 MiB on SU(2).  The estimate keeps its bits.
    import tracemalloc

    from liecheck.chars import _adjoint_pairing
    from liecheck.models import haar_mean

    for model, bound in ((su3, 16), (su2, 6.5)):
        mu = np.linspace(2.0, 1.0, model.rank)
        Y = np.linspace(0.3, -0.2, model.rank)
        scheme = MonteCarlo(10**5, 66)
        orbital_average(model, mu, Y, MonteCarlo(10, 66))  # warm the caches
        tracemalloc.start()
        try:
            est = orbital_average(model, mu, Y, scheme)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2**20, (model.kind, peak / 2**20)
        m = np.diagonal(cartan_element(model, mu)).imag
        b = np.diagonal(cartan_element(model, Y)).imag
        ys = haar_sample(model, np.random.default_rng(scheme.seed), scheme.samples)
        mean, sem = haar_mean(lambda x: np.exp(-_adjoint_pairing(x, m, b)), ys)
        assert est == (float(mean), float(sem)), model.kind


def test_kirillov_closed_form_a1(su2, a1):
    for theta in (0.2, 0.55, 1.1):
        Y = a1_point(theta)
        lhs, rhs = kirillov_sides(su2, weight(a1, (0,)), Y, ClosedFormA1())
        assert abs(lhs - rhs.value) < 1e-12
    rng = np.random.default_rng(9)
    lams = enumerate_dominant(a1, 6)
    for k in range(100):
        lam = lams[k % len(lams)]
        Y = rng.normal(0.0, 0.7, size=1)
        d = dimension(a1, lam)
        for half in (False, True):
            lhs, rhs = kirillov_sides(su2, lam, Y, ClosedFormA1(), half_angle=half)
            mu = (1.0 if half else 2.0) * (lam.coords + a1.rho)
            scale = d * orbital_average(su2, mu, Y, ClosedFormA1()).value
            # residual tolerance scales with the identity's magnitude
            # (values reach e^20, where absolute 1e-12 is below one ulp)
            assert abs(lhs - rhs.value) < 1e-12 * max(1.0, scale)


def test_kirillov_closed_form_values(su2, a1):
    # both sides reduce to sinh(2(n+1)theta)/(2 theta)
    n, theta = 2, 0.4
    lam = weight(a1, (n,))
    Y = a1_point(theta)
    lhs = float(eta(a1, Y)) * float(weyl_char_holo(a1, lam, 2.0 * Y))
    assert abs(lhs - np.sinh(2 * (n + 1) * theta) / (2 * theta)) < 1e-12


def test_kirillov_monte_carlo_a2(su3, a2):
    rng = np.random.default_rng(10)
    for i, dn in enumerate([(1, 0), (2, 2)]):
        lam = weight(a2, dn)
        Y = rng.normal(0.0, 0.5, size=2)
        for seed, half in ((20 + i, False), (40 + i, True)):
            lhs, rhs = kirillov_sides(su3, lam, Y, MonteCarlo(100_000, seed), half_angle=half)
            assert abs(lhs - rhs.value) <= 3 * rhs.stderr


def test_scheme_mismatch(su2, su3):
    with pytest.raises(ValueError):
        orbital_average(su3, np.array([1.0, 0.0]), np.array([0.5, 0.0]), ClosedFormA1())
    with pytest.raises(ValueError, match="requires the SU3 model"):
        orbital_average(su2, np.array([1.0]), np.array([0.5]), GelfandTsetlinSU3(8))
    # an unknown scheme object is refused before any averaging
    with pytest.raises(ValueError, match="unknown orbital-average scheme"):
        orbital_average(su2, np.array([1.0]), np.array([0.5]), object())
    with pytest.raises(ValueError, match="unknown Cartesian integration scheme"):
        cartesian_oracle_integrate(su2, lambda c: np.ones(len(c)), 1.0, object())


def test_adjoint_pairing_matches_the_matrix_form_and_is_batch_independent(su2, su3):
    # the Monte-Carlo orbital average's exponent, sum_i m_i sum_j b_j |y_ij|^2
    rng = np.random.default_rng(2033)
    n = 16_386  # the last block of models.haar_mean holds 2 points
    for model in (su2, su3):
        dim = model.defining_dim
        ys = haar_sample(model, rng, n)
        m, b = rng.normal(size=dim), rng.normal(size=dim)
        m, b = m - m.mean(), b - b.mean()
        pair = chars._adjoint_pairing(ys, m, b)
        ref = ((ys.real**2 + ys.imag**2) @ b) @ m
        assert np.all(np.abs(np.exp(-pair) - np.exp(-ref)) <= 4 * np.spacing(np.exp(-ref)))
        for k in (0, 1, 26, 27, 35, n - 2, n - 1):
            assert chars._adjoint_pairing(ys[k], m, b) == pair[k], (model.kind, k)
            assert np.array_equal(chars._adjoint_pairing(ys[k:k + 1], m, b), pair[k:k + 1])
