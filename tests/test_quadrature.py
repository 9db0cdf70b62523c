import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from liecheck import chars
from liecheck.models import MonteCarlo, chamber_coordinates
from liecheck.quadrature import (
    GridA1,
    _leggauss,
    build_chamber_quadrature,
    calibrate_flag_volume,
    cartesian_oracle_integrate,
    gaussian_linear_moment,
    integrate_invariant,
)
from liecheck.rootdata import build_root_system, dimension, weight


def gauss(t):
    return lambda Y: np.exp(-np.sum(Y**2, axis=-1) / t)


def test_gaussian_reproduction_a1(a1):
    q = build_chamber_quadrature(a1, 1.0, 64)
    assert abs(integrate_invariant(q, gauss(1.0)) - np.pi**1.5) < 1e-10


def test_gaussian_reproduction_torus(t2):
    q = build_chamber_quadrature(t2, 1.0, 32)
    assert abs(integrate_invariant(q, gauss(1.0)) - np.pi) < 1e-12


def test_gaussian_reproduction_a2(a2):
    q = build_chamber_quadrature(a2, 1.0, 96)
    assert abs(integrate_invariant(q, gauss(1.0)) - np.pi**4) < 1e-8 * np.pi**4


def test_integrate_zero(a1):
    q = build_chamber_quadrature(a1, 1.0, 16)
    assert integrate_invariant(q, lambda Y: np.zeros(len(Y))) == 0.0


def test_norm_constant_integrand(a1):
    # eta * continued character over the Gaussian: pi^(3/2) e^2 at n = 1
    lam = weight(a1, (1,))
    d = dimension(a1, lam)
    q = build_chamber_quadrature(a1, 1.0, 64, 2.0 * np.linalg.norm(lam.coords + a1.rho))

    def f(Y):
        return (chars.eta(a1, Y) * chars.weyl_char_holo(a1, lam, 2.0 * Y)
                * np.exp(-np.sum(Y**2, axis=-1))) / d

    val = integrate_invariant(q, f)
    assert abs(val - np.pi**1.5 * np.e**2) < 1e-8 * val
    # independent 1-D oracle: sqrt(2) pi * integral of 2 theta sinh(4 theta) e^{-2 theta^2}
    x, w = leggauss(400)
    th = (x + 1) * 6.0
    gw = w * 6.0
    oracle = np.sqrt(2.0) * np.pi * float(gw @ (2 * th * np.sinh(4 * th) * np.exp(-2 * th**2)))
    assert abs(val - oracle) < 1e-9 * val


def test_gaussian_linear_moment(a1, a2):
    assert abs(gaussian_linear_moment(a1, np.zeros(1), 1.0) - np.pi**1.5) < 1e-13
    lam = weight(a1, (2,))
    mu = 2.0 * (lam.coords + a1.rho)
    lr2 = float((lam.coords + a1.rho) @ (lam.coords + a1.rho))
    assert abs(gaussian_linear_moment(a1, mu, 1.0) - np.pi**1.5 * np.exp(lr2)) < 1e-10
    assert abs(gaussian_linear_moment(a2, np.zeros(2), 2.0) - (2 * np.pi) ** 4) < 1e-10


def test_cartesian_oracle_constant(su2):
    est = cartesian_oracle_integrate(su2, lambda c: np.ones(len(c)), 1.0, MonteCarlo(10_000, 3))
    assert est.stderr == 0.0
    assert abs(est.value - np.pi**1.5) < 1e-12


def test_cartesian_oracle_grid_vs_chamber(a1, su2):
    def f_cart(c):
        rep = chamber_coordinates(su2, c)
        return np.asarray(chars.eta(a1, rep))

    grid = cartesian_oracle_integrate(su2, f_cart, 1.0, GridA1(200))
    q = build_chamber_quadrature(a1, 1.0, 128, 2.0 * np.linalg.norm(a1.rho))
    chamber = integrate_invariant(q, lambda Y: chars.eta(a1, Y) * np.exp(-np.sum(Y**2, axis=-1)))
    assert abs(grid.value - chamber) < 1e-9 * chamber
    mc = cartesian_oracle_integrate(su2, f_cart, 1.0, MonteCarlo(400_000, 5))
    assert abs(mc.value - chamber) < 3 * mc.stderr


def test_cartesian_oracle_a2(a2, su3):
    def f_cart(c):
        rep = chamber_coordinates(su3, c)
        return np.asarray(chars.eta(a2, rep))

    mc = cartesian_oracle_integrate(su3, f_cart, 1.0, MonteCarlo(400_000, 6))
    q = build_chamber_quadrature(a2, 1.0, 128, 2.0 * np.linalg.norm(a2.rho))
    chamber = integrate_invariant(q, lambda Y: chars.eta(a2, Y) * np.exp(-np.sum(Y**2, axis=-1)))
    assert abs(mc.value - chamber) < 3 * mc.stderr


def test_quadrature_nodes_dominant(a1, a2):
    for rs in (a1, a2):
        q = build_chamber_quadrature(rs, 1.0, 24, 3.0)
        assert np.all(q.weights > 0)
        assert np.all(q.nodes @ rs.positive_roots.T > 0)


def test_order_doubling_stability(a1, a2):
    for rs, tol in ((a1, 1e-10), (a2, 1e-7)):
        lam = weight(rs, (1,) * rs.rank)
        mu = 2.0 * np.linalg.norm(lam.coords + rs.rho)
        order = 64 if rs.rank == 1 else 96

        def f(Y):
            return (chars.eta(rs, Y) * chars.weyl_char_holo(rs, lam, 2.0 * Y)
                    * np.exp(-np.sum(Y**2, axis=-1)))

        v1 = integrate_invariant(build_chamber_quadrature(rs, 1.0, order, mu), f)
        v2 = integrate_invariant(build_chamber_quadrature(rs, 1.0, 2 * order, mu), f)
        assert abs(v1 - v2) / abs(v1) < tol


def test_calibrate_flag_volume(a1, a2, t2, su2, su3):
    v1 = calibrate_flag_volume(a1, su2, samples=200_000, seed=1)
    assert abs(v1 - 2.0**1.5 * np.pi) < 1e-3
    v2a = calibrate_flag_volume(a2, su3, samples=100_000, seed=2)
    v2b = calibrate_flag_volume(a2, su3, samples=1_000_000, seed=3)
    assert v2a > 0
    assert abs(v2a - v2b) / v2a < 1e-3
    assert calibrate_flag_volume(t2) == 1.0


def test_flag_volume_field_matches_calibration(a1, a2, su2, su3):
    assert abs(a1.flag_volume - calibrate_flag_volume(a1, su2, samples=50_000, seed=4)) < 1e-12
    assert abs(a2.flag_volume - calibrate_flag_volume(a2, su3, samples=50_000, seed=5)) < 1e-12


def test_errors(a1, su2):
    with pytest.raises(ValueError):
        build_chamber_quadrature(a1, 1.0, 4)
    with pytest.raises(ValueError):
        build_chamber_quadrature(a1, -1.0, 16)
    q = build_chamber_quadrature(a1, 1.0, 16)
    with pytest.raises(ValueError):
        integrate_invariant(q, lambda Y: np.full(len(Y), np.nan))
    with pytest.raises(ValueError):
        cartesian_oracle_integrate(su2, lambda c: np.ones(len(c)), 1.0, "nope")


def _reference_rule(rs, t, order, mu):
    """Chamber rule rebuilt from a fresh leggauss call and per-axis meshgrids."""
    R = np.sqrt(t) * (mu * np.sqrt(t) / 2.0 + 8.0)
    x, w = leggauss(order)

    def rule01(upper):
        return (x + 1.0) * upper / 2.0, w * upper / 2.0

    if rs.kind == "A1":
        theta, gw = rule01(R / np.sqrt(2.0))
        nodes, raw = (np.sqrt(2.0) * theta)[:, None], (2.0 * theta) ** 2 * gw
    elif rs.kind == "A2":
        s, gw = rule01(float(np.sqrt(1.5) * R))
        s1, s2 = np.meshgrid(s, s, indexing="ij")
        fw = rs.fundamental_weights
        nodes = (s1[..., None] * fw[0] + s2[..., None] * fw[1]).reshape(-1, 2)
        raw = ((s1 * s2 * (s1 + s2)) ** 2 * np.outer(gw, gw)).reshape(-1)
    else:
        half, gw_half = rule01(R)
        pts = np.concatenate([-half[::-1], half])
        gw = np.concatenate([gw_half[::-1], gw_half])
        nodes = np.stack(np.meshgrid(*([pts] * rs.rank), indexing="ij"), axis=-1).reshape(-1, rs.rank)
        raw = np.ones(len(nodes))
        for axis in range(rs.rank):
            raw *= np.meshgrid(*([gw] * rs.rank), indexing="ij")[axis].reshape(-1)
    return nodes, rs.flag_volume * raw


@pytest.mark.parametrize("t, order, mu", [(1.0, 16, 0.0), (0.5, 24, 3.7)])
def test_chamber_rules_match_fresh_leggauss_reference(a1, a2, t2, t, order, mu):
    for rs in (a1, a2, t2, build_root_system("T1"), build_root_system("T3")):
        q = build_chamber_quadrature(rs, t, order, mu)
        nodes, weights = _reference_rule(rs, t, order, mu)
        assert np.array_equal(q.nodes, nodes)
        assert np.array_equal(q.weights, weights)


def test_cached_leggauss_rule_is_read_only_and_repeats():
    x, w = _leggauss(20)
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert _leggauss(20)[0] is x
    _leggauss.cache_clear()
    x2, w2 = _leggauss(20)
    assert x2 is not x
    assert np.array_equal(x2, x) and np.array_equal(w2, w)
    ref_x, ref_w = leggauss(20)
    assert np.array_equal(x2, ref_x) and np.array_equal(w2, ref_w)
