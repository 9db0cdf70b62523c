import tracemalloc
from dataclasses import replace
from math import factorial, hypot

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss

from liecheck import chars, models, quadrature
from liecheck.models import MonteCarlo, _gauss_rule, cartan_element, chamber_coordinates
from liecheck.quadrature import (
    build_chamber_quadrature,
    cartesian_oracle_integrate,
    default_order,
    flag_volume,
    flag_volume_from_gaussian,
    gaussian_linear_moment,
    integrate_invariant,
    torus_axis_rule,
    tridiagonal_rule,
    truncation_radius,
)
from liecheck.rootdata import build_root_system, dimension, weight
from test_models import _counted


def gauss(t):
    return lambda Y: np.exp(-np.sum(Y**2, axis=-1) / t)


def _tridiagonal(model, f, t, order):
    """The integral of f(Y) e^{-|Y|^2/t} over the algebra by the tridiagonal
    rule, f taking the chamber coordinates of the unit-width rule's nodes
    scaled by sqrt(t), the norm scaled by t^(dim_k/2)."""
    nodes, weights, norm = tridiagonal_rule(model, order)
    assert nodes.shape == (len(weights), model.rank)
    scaled = np.sqrt(t) * nodes
    return norm * t ** (model.dim_k / 2.0) * float(models.haar_mean(f, scaled, weights)[0])


def test_gaussian_reproduction_a1(a1):
    q = build_chamber_quadrature(a1, 1.0, 64)
    assert abs(integrate_invariant(q, gauss(1.0)) - np.pi**1.5) < 1e-10


def test_gaussian_reproduction_torus(t2):
    q = build_chamber_quadrature(t2, 1.0, 32)
    assert abs(integrate_invariant(q, gauss(1.0)) - np.pi) < 1e-12


def test_torus_rule_is_the_tensor_power_of_its_axis_rule(t2):
    x, w = torus_axis_rule(2.0, 24, 3.0)
    assert len(x) == 48 and np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0) and abs(x[-1]) < truncation_radius(2.0, 3.0)
    q = build_chamber_quadrature(t2, 2.0, 24, 3.0)
    assert np.array_equal(q.nodes, np.stack(np.meshgrid(x, x, indexing="ij"), -1).reshape(-1, 2))
    assert np.array_equal(q.weights, np.outer(w, w).reshape(-1))
    with pytest.raises(ValueError, match="order"):
        torus_axis_rule(1.0, 4, 0.0)
    with pytest.raises(ValueError, match="t must be positive"):
        torus_axis_rule(0.0, 16, 0.0)


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

    grid = _tridiagonal(su2, lambda Y: chars.eta(a1, Y), 1.0, 20)
    q = build_chamber_quadrature(a1, 1.0, 128, 2.0 * np.linalg.norm(a1.rho))
    chamber = integrate_invariant(q, lambda Y: chars.eta(a1, Y) * np.exp(-np.sum(Y**2, axis=-1)))
    assert abs(grid - chamber) < 1e-12 * chamber
    mc = cartesian_oracle_integrate(su2, f_cart, 1.0, MonteCarlo(400_000, 5))
    assert abs(mc.value - chamber) < 3 * mc.stderr


def _hermitian_moments(model):
    """tr H^2, tr H^4 and det(H)^2 of H = -iY at the chamber coordinates c, as integrands."""
    def h(c):
        return -1j * cartan_element(model, c)

    def tr2(c):
        return np.einsum("nij,nji->n", h(c), h(c)).real

    def tr4(c):
        h2 = h(c) @ h(c)
        return np.einsum("nij,nji->n", h2, h2).real

    def det2(c):
        return np.abs(np.linalg.det(h(c))) ** 2

    return tr2, tr4, det2


def test_tridiagonal_exact_on_gaussian_moments(su2, su3):
    # means over the density e^{-|c|^2/t} / (pi t)^(dim/2) of the traceless
    # hermitian H = -iY: on su(3) E tr H^2 = 4t, E tr H^4 = 10t^2 and
    # E det(H)^2 = 5t^3/9; on su(2) E tr H^2 = 3t/2 and E tr H^4 = 15t^2/8.
    # In the rule's variables each is a polynomial of degree <= 2 in s^2/t
    # and rho^2/t and <= 6 in the diagonal, so four points per axis are exact.
    closed = {"SU2": lambda t: (1.5 * t, 15.0 * t**2 / 8.0),
              "SU3": lambda t: (4.0 * t, 10.0 * t**2, 5.0 * t**3 / 9.0)}
    for model in (su2, su3):
        for t in (0.35, 1.0, 2.5):
            gauss_mass = (np.pi * t) ** (model.dim_k / 2.0)
            for order in (4, 16):
                one = _tridiagonal(model, lambda c: np.ones(len(c)), t, order)
                assert abs(one - gauss_mass) <= 1e-14 * gauss_mass
                for f, exact in zip(_hermitian_moments(model), closed[model.kind](t)):
                    mean = _tridiagonal(model, f, t, order) / gauss_mass
                    assert abs(mean - exact) <= 1e-13 * exact, (model.kind, t, order, mean)
    # one point per axis is exact only to degree 1 in each variable
    tr4 = _hermitian_moments(su3)[1]
    low = _tridiagonal(su3, tr4, 1.0, 1) / np.pi**4
    assert abs(low - 10.0) > 1e-2


def test_laguerre_rules_cached_read_only_and_exact():
    x0, w0 = _gauss_rule("laguerre", 12)
    ref_x, ref_w = laggauss(12)
    assert np.allclose(x0, ref_x, rtol=1e-13, atol=0.0)
    assert np.allclose(w0, ref_w, rtol=1e-10, atol=1e-14 * ref_w.max())
    # alpha = 1: the integral of u^k against u e^{-u} is (k + 1)!, and an
    # n-point rule is exact up to k = 2n - 1
    x1, w1 = _gauss_rule("laguerre", 6, 1.0)
    for k in range(12):
        assert abs(w1 @ x1**k - factorial(k + 1)) <= 1e-12 * factorial(k + 1)
    assert abs(w1 @ x1**12 - factorial(13)) > 1e-6 * factorial(13)
    assert _gauss_rule("laguerre", 6, 1.0) is _gauss_rule("laguerre", 6, 1.0)
    for a in (x0, w0, x1, w1):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_cartesian_oracle_a2(a2, su3):
    def f_cart(c):
        rep = chamber_coordinates(su3, c)
        return np.asarray(chars.eta(a2, rep))

    q = build_chamber_quadrature(a2, 1.0, 128, 2.0 * np.linalg.norm(a2.rho))
    chamber = integrate_invariant(q, lambda Y: chars.eta(a2, Y) * np.exp(-np.sum(Y**2, axis=-1)))
    grid = _tridiagonal(su3, lambda Y: chars.eta(a2, Y), 1.0, 16)
    assert abs(grid - chamber) < 1e-12 * chamber
    mc = cartesian_oracle_integrate(su3, f_cart, 1.0, MonteCarlo(400_000, 6))
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
        order = default_order(rs.rank)

        def f(Y):
            return (chars.eta(rs, Y) * chars.weyl_char_holo(rs, lam, 2.0 * Y)
                    * np.exp(-np.sum(Y**2, axis=-1)))

        v1 = integrate_invariant(build_chamber_quadrature(rs, 1.0, order, mu), f)
        v2 = integrate_invariant(build_chamber_quadrature(rs, 1.0, 2 * order, mu), f)
        assert abs(v1 - v2) / abs(v1) < tol


def test_flag_volume_closed_form_values(a1, a2, t2):
    for rs, exact in ((a1, 2.0**0.5 * np.pi), (a2, 4.0 * np.pi**3 / np.sqrt(3.0))):
        assert abs(flag_volume(rs) - exact) <= 4e-16 * exact
    assert flag_volume(t2) == 1.0
    assert flag_volume(build_root_system("T1")) == 1.0


def _mehta_by_hermite(rs, n=40):
    """integral over t of prod_alpha <alpha, x>^2 e^{-|x|^2} by the tensor
    n-point Gauss-Hermite rule, exact for this polynomial times the Gaussian."""
    x, w = hermgauss(n)
    nodes = np.stack(np.meshgrid(*([x] * rs.rank), indexing="ij"), axis=-1).reshape(-1, rs.rank)
    weights = np.prod(np.meshgrid(*([w] * rs.rank), indexing="ij"), axis=0).reshape(-1)
    return float(weights @ np.prod((nodes @ rs.positive_roots.T) ** 2, axis=1))


def test_mehta_integral_and_flag_volume_against_gauss_hermite(a1, a2):
    # Mehta's integral pi^(r/2) prod d_i! prod |alpha|^2/4 with |alpha|^2 = 2:
    # A1 (d = 2) sqrt(pi); A2 (d = 2, 3) pi * 2 * 6 / 8.  Then
    # V = pi^(dim/2) |W| J / Mehta with the Jacobians J = |det w| of the
    # simple-root coordinates: 1/sqrt(2) on A1 and 1/sqrt(3) on A2.
    for rs, mehta, dim, n_weyl, jac in ((a1, np.sqrt(np.pi), 3, 2, 1.0 / np.sqrt(2.0)),
                                        (a2, 1.5 * np.pi, 8, 6, 1.0 / np.sqrt(3.0))):
        herm = _mehta_by_hermite(rs)
        assert abs(herm - mehta) <= 1e-15 * mehta
        v = np.pi ** (dim / 2.0) * n_weyl * jac / herm
        assert abs(flag_volume(rs) - v) <= 1e-14 * v


def test_flag_volume_from_gaussian_matches_closed_form(a1, a2, t2):
    for rs in (a1, a2):
        assert abs(flag_volume_from_gaussian(rs) - flag_volume(rs)) <= 1e-12 * flag_volume(rs)
    # too coarse a rule shows: the route is numerical, not the closed form again
    assert abs(flag_volume_from_gaussian(a2, 8) - flag_volume(a2)) > 1e-6 * flag_volume(a2)
    assert flag_volume_from_gaussian(t2) == 1.0


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
    with pytest.raises(ValueError, match="needs the SU2 or SU3 model"):
        tridiagonal_rule(replace(su2, kind="SU4"), 4)


def _reference_rule(rs, t, order, mu):
    """Chamber rule rebuilt from a fresh Gauss-Legendre rule, not the cached
    one, and per-axis meshgrids, in the simple-root coordinates s_i =
    <alpha_i, Y>: the axis on [0, R / |w_1|] (sqrt(2) R on A1, sqrt(1.5) R
    on A2), the nodes sum_i s_i w_i, the weights prod_i s_i^2 w_i times
    (s_1 + s_2)^2 for A2's third root."""
    R = np.sqrt(t) * (mu * np.sqrt(t) / 2.0 + 8.0)
    x, w = _gauss_rule.__wrapped__("legendre", order)
    fw = rs.fundamental_weights

    def rule01(upper):
        return (x + 1.0) * upper / 2.0, w * upper / 2.0

    if rs.kind == "A1":
        s, gw = rule01(R / abs(fw[0, 0]))
        nodes, raw = s[:, None] * fw[0], gw * (s * s)
    elif rs.kind == "A2":
        s, gw = rule01(R / hypot(*fw[0]))
        s1, s2 = np.meshgrid(s, s, indexing="ij")
        nodes = (s1[..., None] * fw[0] + s2[..., None] * fw[1]).reshape(-1, 2)
        f = gw * (s * s)
        raw = (np.outer(f, f) * (s1 + s2) ** 2).reshape(-1)
    else:
        half, gw_half = rule01(R)
        pts = np.concatenate([-half[::-1], half])
        gw = np.concatenate([gw_half[::-1], gw_half])
        nodes = np.stack(np.meshgrid(*([pts] * rs.rank), indexing="ij"), axis=-1).reshape(-1, rs.rank)
        raw = np.ones(len(nodes))
        for axis in range(rs.rank):
            raw *= np.meshgrid(*([gw] * rs.rank), indexing="ij")[axis].reshape(-1)
    return nodes, flag_volume(rs) * raw


@pytest.mark.parametrize("t, order, mu", [(1.0, 16, 0.0), (0.5, 24, 3.7)])
def test_chamber_rules_match_fresh_leggauss_reference(a1, a2, t2, t, order, mu):
    for rs in (a1, a2, t2, build_root_system("T1"), build_root_system("T3")):
        q = build_chamber_quadrature(rs, t, order, mu)
        nodes, weights = _reference_rule(rs, t, order, mu)
        assert np.array_equal(q.nodes, nodes)
        assert np.array_equal(q.weights, weights)


def test_cached_leggauss_rule_is_read_only_and_repeats():
    x, w = _gauss_rule("legendre", 20)
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert _gauss_rule("legendre", 20)[0] is x
    _gauss_rule.cache_clear()
    x2, w2 = _gauss_rule("legendre", 20)
    assert x2 is not x
    assert np.array_equal(x2, x) and np.array_equal(w2, w)
    ref_x, ref_w = _gauss_rule.__wrapped__("legendre", 20)
    assert np.array_equal(x2, ref_x) and np.array_equal(w2, ref_w)


def _a2_weylint_integrand(a2, su3, tg, ts):
    # the A2 weylint Monte-Carlo integrand: eta * char(2Y) at lam = (1, 0)
    # over the algebra, reweighted from the sampling width ts to tg
    lam = weight(a2, (1, 0))

    def f(c):
        rep = chamber_coordinates(su3, c)
        tail = np.exp(-np.sum(c**2, axis=-1) * (1.0 / tg - 1.0 / ts))
        return chars.eta(a2, rep) * chars.weyl_char_holo(a2, lam, 2.0 * rep) * tail

    return f


@pytest.fixture
def slab_8192(monkeypatch):
    # the partitions these tests spell out are those of 8192-point slabs,
    # whatever size quadrature._SLAB is tuned to
    monkeypatch.setattr(quadrature, "_SLAB", 8192)


def test_blocked_rule_and_monte_carlo_equal_whole_array_references(a2, t2, su3, slab_8192):
    B = models._BLOCK
    # a T2 character times a Gaussian on the order-192 rule: 384^2 nodes in
    # 18 slabs of 21 or 22 rows of 384
    lam = weight(t2, (3, 2))
    mu = 2.0 * np.linalg.norm(lam.coords + t2.rho)
    q = build_chamber_quadrature(t2, 1.0, 192, mu)

    def f(Y):
        return chars.weyl_char_holo(t2, lam, 2.0 * Y) * np.exp(-np.einsum("...i,...i->...", Y, Y))

    calls = []
    val = integrate_invariant(q, _counted(f, calls))
    assert val == float(np.sum(q.weights * f(q.nodes)))
    assert calls == [len(w) for _, w in q.slabs()]
    assert len(calls) == 18 and set(calls) == {21 * 384, 22 * 384}
    # 10^5 SU(3) samples: one draw, the integrand on 6 blocks of B and 1696
    n, seed, ts = 100_000, 77, 0.7
    g = _a2_weylint_integrand(a2, su3, 0.35, ts)
    calls = []
    est = cartesian_oracle_integrate(su3, _counted(g, calls), ts, MonteCarlo(n, seed))
    c = np.random.default_rng(seed).normal(0.0, np.sqrt(ts / 2.0), size=(n, 8))
    vals = g(c)
    norm = (ts * np.pi) ** (8 / 2.0)
    assert est.value == norm * float(vals.mean())
    assert est.stderr == norm * float(np.sqrt(vals.var(ddof=1)) / np.sqrt(n))
    assert calls == [B] * 6 + [n - 6 * B]


def test_non_finite_value_in_the_last_block_raises(t2, slab_8192):
    # 18 slabs of 21 or 22 rows of 384 nodes
    q = build_chamber_quadrature(t2, 1.0, 192)
    last = q.nodes[-1]
    seen = []

    def f(Y):
        vals = np.where(np.all(Y == last, axis=-1), np.nan, 1.0)
        seen.append(bool(np.isnan(vals).any()))
        return vals

    with pytest.raises(ValueError, match="non-finite"):
        integrate_invariant(q, f)
    assert seen == [False] * 17 + [True]


@pytest.mark.parametrize("kind", ["A1", "A2", "T1", "T2", "T3"])
def test_slab_sums_equal_the_whole_grid_sum_bit_for_bit(kind):
    # a character times a Gaussian at mu != 0; T3 at orders 8 and 24 only,
    # since its whole grid at order 97 would hold 194^3 = 7.3e6 nodes
    rs = build_root_system(kind)
    lam = weight(rs, (2,) * rs.rank)
    mu = 2.0 * np.linalg.norm(lam.coords + rs.rho)

    def f(Y):
        return chars.weyl_char_holo(rs, lam, 2.0 * Y) * np.exp(-np.einsum("...i,...i->...", Y, Y))

    for order in (8, 97, 192) if rs.rank < 3 else (8, 24):
        q = build_chamber_quadrature(rs, 1.0, order, mu)
        assert len(q) == len(q.nodes) == len(q.weights)
        assert sum(len(w) for _, w in q.slabs()) == len(q)
        assert integrate_invariant(q, f) == float(np.sum(q.weights * f(q.nodes))), order


@pytest.mark.parametrize("slab", [1, 1000, quadrature._SLAB])
def test_weighted_slab_values_equal_weights_times_f_bit_for_bit(a2, monkeypatch, slab):
    # models._evaluate_blocks multiplies each slab's values by its weights
    # into the slab's rows of one array: the bits of q.weights * f(q.nodes),
    # from one slab per grid row (slab 1) to the rule in a few slabs
    monkeypatch.setattr(quadrature, "_SLAB", slab)
    lam = weight(a2, (2, 1))
    mu = 2.0 * np.linalg.norm(lam.coords + a2.rho)

    def real(Y):
        return chars.weyl_char_holo(a2, lam, 2.0 * Y) * np.exp(-np.einsum("...i,...i->...", Y, Y))

    def complex_(Y):
        return np.exp(1j * Y[:, 0] - Y[:, 1] * Y[:, 1])

    for order in (96, 97, 192):
        q = build_chamber_quadrature(a2, 1.0, order, mu)
        count = min(q.rows, max(1, round(len(q) / slab)))
        assert len(list(q.slabs())) == count, order
        for f in (real, complex_):
            vals = models._evaluate_blocks(lambda rows: f(q.cartan(q.coordinates(rows))), q)
            ref = q.weights * f(q.nodes)
            assert vals.dtype == ref.dtype and np.array_equal(vals, ref), (order, f.__name__)


def test_non_finite_value_in_a_middle_slab_raises(a2, slab_8192):
    # order 192: 4 slabs of 48 rows of 192 nodes; a NaN in row 100, which
    # slab 2 (rows 96 to 143) holds
    q = build_chamber_quadrature(a2, 1.0, 192)
    bad = q.nodes[100 * 192 + 7]
    seen = []

    def f(Y):
        vals = np.where(np.all(Y == bad, axis=-1), np.nan, 1.0)
        seen.append(bool(np.isnan(vals).any()))
        return vals

    with pytest.raises(ValueError, match="non-finite"):
        integrate_invariant(q, f)
    assert seen == [False] * 2 + [True]


def test_chamber_integral_memory_grows_by_one_array_of_the_rule(a2, slab_8192):
    # Traced peak of one A2 C integral at lam = (6, 6): doubling the order
    # adds 384^2 - 192^2 nodes, and the peak may grow by 1.5 float64 a node
    # (the one array of products w * f), not by whole-grid temporaries.
    # Both rules come in several slabs; an order-96 rule is one slab, whose
    # products are f's own result, with no array of the rule beside it
    from liecheck.hilbert import _character_integral

    lam = weight(a2, (6, 6))
    mu = 2.0 * np.linalg.norm(lam.coords + a2.rho)
    peaks = {}
    for order in (192, 384):
        _character_integral(a2, lam, 2.0, 1.0, order, 1, mu)  # warm the caches
        tracemalloc.start()
        try:
            _character_integral(a2, lam, 2.0, 1.0, order, 1, mu)
            peaks[order] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[384] - peaks[192] <= 1.5 * 8 * (384**2 - 192**2), peaks


def test_monte_carlo_average_peak_allocation_is_bounded_by_the_block(a2, su3):
    # Bound, from the block size: the one draw (n x 8 float64), the values
    # and the reduction's temporaries (4 arrays of n float64), and the
    # integrand's temporaries on one block, allowed 64 float64 per point.
    # Evaluating the integrand on all n points at once needs its
    # temporaries n / B times over.
    n, B = 100_000, models._BLOCK
    bound = 8 * (n * 8 + 4 * n + 64 * B)
    g = _a2_weylint_integrand(a2, su3, 0.35, 0.7)
    cartesian_oracle_integrate(su3, g, 0.7, MonteCarlo(1000, 1))  # warm the caches
    tracemalloc.start()
    try:
        cartesian_oracle_integrate(su3, g, 0.7, MonteCarlo(n, 78))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)
