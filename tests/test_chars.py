import numpy as np
import pytest

from liecheck import chars
from liecheck.chars import (
    CartanPoint,
    ClosedFormA1,
    WallSingularityError,
    eta,
    eta_det_oracle,
    j_half_identity_residual,
    kirillov_residual,
    orbital_average,
    weyl_char_compact,
    weyl_char_holo,
)
from liecheck.models import MonteCarlo, algebra_element, cartan_element, chamber_coordinates
from liecheck.rootdata import dimension, enumerate_dominant, weight


def test_eta_values(a1, t2):
    assert eta(a1, CartanPoint(np.zeros(1))) == 1.0
    assert abs(eta(a1, CartanPoint.from_a1_theta(1.0)) - np.sinh(2.0) / 2.0) < 1e-14
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


def test_j_half_identity(a1, a2):
    assert j_half_identity_residual(a1, CartanPoint.from_a1_theta(0.0)) == 0.0
    assert j_half_identity_residual(a1, CartanPoint.from_a1_theta(1.3)) < 1e-14
    rng = np.random.default_rng(5)
    for _ in range(20):
        assert j_half_identity_residual(a2, rng.normal(size=2)) < 1e-13


def test_weyl_char_compact(a1, su2):
    lam1 = weight(a1, (1,))
    theta = 0.61
    val = weyl_char_compact(a1, lam1, CartanPoint.from_a1_theta(theta))
    # oracle: trace of the defining representation at exp(Y)
    x = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    assert abs(val - np.trace(x)) < 1e-12
    assert abs(val - 2.0 * np.cos(theta)) < 1e-13
    assert abs(weyl_char_compact(a1, weight(a1, (0,)), CartanPoint.from_a1_theta(0.3)) - 1.0) < 1e-14
    with pytest.raises(WallSingularityError):
        weyl_char_compact(a1, lam1, CartanPoint(np.zeros(1)))


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
        val = weyl_char_holo(a1, weight(a1, (n,)), CartanPoint.from_a1_theta(theta))
        expected = np.sinh((n + 1) * theta) / np.sinh(theta)
        assert abs(val - expected) < 1e-12 * expected
    assert weyl_char_holo(a1, weight(a1, (0,)), CartanPoint.from_a1_theta(2.0)) == 1.0


def test_weyl_char_holo_limits_and_bounds(a1, a2):
    for rs in (a1, a2):
        origin = CartanPoint(np.zeros(rs.rank))
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


def _weyl_char_holo_two_exp(rs, lam, pts):
    """The continued character with the denominator exponentiated twice;
    returns the values and the points sent to the positive-monomial form."""
    signs = rs.weyl_signs.astype(float)
    wl = np.einsum("wij,j->wi", rs.weyl_elements, lam.coords + rs.rho)
    wr = np.einsum("wij,j->wi", rs.weyl_elements, rs.rho)
    num = np.exp(-(pts @ wl.T)) @ signs
    den = np.exp(-(pts @ wr.T)) @ signs
    den_scale = np.exp(-(pts @ wr.T)) @ np.abs(signs)
    bad = (np.abs(den) < 1e-12) | (np.abs(den) < 1e-7 * den_scale)
    out = np.divide(num, np.where(bad, 1.0, den))
    out[bad] = chars._char_holo_positive(rs, lam, pts[bad])
    return out, bad


def test_weyl_char_holo_matches_two_exponential_reference(a1, a2):
    rng = np.random.default_rng(11)
    for rs in (a1, a2):
        fw = rs.fundamental_weights
        interior = np.abs(rng.normal(size=(30, rs.rank))) @ fw
        s = np.abs(rng.normal(size=(30, 1)))
        near = rng.uniform(-1e-9, 1e-9, size=(30, 1))
        if rs.rank == 1:
            wall = np.zeros((1, 1))
            near_wall = near * fw[0]
        else:
            wall = np.vstack([s * fw[0], s * fw[1]])
            near_wall = np.vstack([s * fw[0] + near * fw[1], near * fw[0] + s * fw[1]])
        pts = np.vstack([interior, wall, np.zeros((1, rs.rank)), near_wall, -interior])
        for lam in enumerate_dominant(rs, 3):
            ref, bad = _weyl_char_holo_two_exp(rs, lam, pts)
            # walls, the origin and points within 1e-9 of a wall take the fallback
            assert bad[len(interior):len(pts) - len(interior)].all()
            assert np.array_equal(weyl_char_holo(rs, lam, pts), ref)


def test_orbital_average_trivial(su2):
    est = orbital_average(su2, np.array([1.7]), np.zeros(1), ClosedFormA1())
    assert est.value == 1.0 and est.stderr == 0.0


def test_orbital_average_closed_form_vs_mc(su2, a1):
    # mu = 2(lam+rho) at n = 1, theta = 0.5: |mu||Y| = 2, average sinh(2)/2
    lam = weight(a1, (1,))
    mu = 2.0 * (lam.coords + a1.rho)
    Y = CartanPoint.from_a1_theta(0.5)
    closed = orbital_average(su2, mu, Y, ClosedFormA1())
    assert abs(closed.value - np.sinh(2.0) / 2.0) < 1e-14
    mc = orbital_average(su2, mu, Y, MonteCarlo(1_000_000, 7))
    assert abs(mc.value - closed.value) < 3 * mc.stderr


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


def test_kirillov_closed_form_a1(su2, a1):
    for theta in (0.2, 0.55, 1.1):
        Y = CartanPoint.from_a1_theta(theta)
        assert kirillov_residual(su2, weight(a1, (0,)), Y, ClosedFormA1()).value < 1e-12
    rng = np.random.default_rng(9)
    lams = enumerate_dominant(a1, 6)
    for k in range(100):
        lam = lams[k % len(lams)]
        Y = CartanPoint(rng.normal(0.0, 0.7, size=1))
        d = dimension(a1, lam)
        for half in (False, True):
            est = kirillov_residual(su2, lam, Y, ClosedFormA1(), half_angle=half)
            mu = (1.0 if half else 2.0) * (lam.coords + a1.rho)
            scale = d * orbital_average(su2, mu, Y, ClosedFormA1()).value
            # residual tolerance scales with the identity's magnitude
            # (values reach e^20, where absolute 1e-12 is below one ulp)
            assert est.value < 1e-12 * max(1.0, scale)


def test_kirillov_closed_form_values(su2, a1):
    # both sides reduce to sinh(2(n+1)theta)/(2 theta)
    n, theta = 2, 0.4
    lam = weight(a1, (n,))
    Y = CartanPoint.from_a1_theta(theta)
    lhs = float(eta(a1, Y)) * float(weyl_char_holo(a1, lam, 2.0 * Y.coords))
    assert abs(lhs - np.sinh(2 * (n + 1) * theta) / (2 * theta)) < 1e-12


def test_kirillov_monte_carlo_a2(su3, a2):
    rng = np.random.default_rng(10)
    for i, dn in enumerate([(1, 0), (2, 2)]):
        lam = weight(a2, dn)
        Y = CartanPoint(rng.normal(0.0, 0.5, size=2))
        est = kirillov_residual(su3, lam, Y, MonteCarlo(100_000, 20 + i))
        assert est.value <= 3 * est.stderr
        est = kirillov_residual(su3, lam, Y, MonteCarlo(100_000, 40 + i), half_angle=True)
        assert est.value <= 3 * est.stderr


def test_scheme_mismatch(su3):
    with pytest.raises(ValueError):
        orbital_average(su3, np.array([1.0, 0.0]), np.array([0.5, 0.0]), ClosedFormA1())
