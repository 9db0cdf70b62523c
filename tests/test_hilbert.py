import warnings
from math import log, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecheck import chars, hilbert, quadrature
from liecheck.fourier import FourierSeries, character_series, plancherel_norm
from liecheck.hilbert import (
    bks_bracket,
    bks_integral_transform,
    c_constant,
    constants_row,
    d_constant,
    naive_constant,
    ratio_defect,
    transform_apply,
    verify_norm_identity,
)
from liecheck.models import HaarSU2, MonteCarlo, _gauss_rule, haar_sample, su2_character
from liecheck.quadrature import (
    LOG_FLOAT_MAX,
    NON_FINITE_VALUES,
    build_chamber_quadrature,
    default_order,
    integrate_invariant,
)
from liecheck.rootdata import (
    build_root_system,
    dimension,
    enumerate_dominant,
    simple_root_pairings,
    weight,
)


def random_series(dynkins, rng, space, t=1.0):
    terms = {dn: rng.normal(size=(dn[0] + 1, dn[0] + 1))
             + 1j * rng.normal(size=(dn[0] + 1, dn[0] + 1)) for dn in dynkins}
    return FourierSeries("A1", space, t, terms)


def test_c_constant_values(a1):
    assert abs(c_constant(a1, weight(a1, (0,)), 1.0) - np.pi**1.5 * np.exp(0.5)) < 1e-12
    assert abs(c_constant(a1, weight(a1, (1,)), 1.0) - np.pi**1.5 * np.exp(2.0)) < 1e-11
    # scaling in t is pure algebra
    lam0 = weight(a1, (0,))
    for t in (0.25, 0.5, 2.0, 4.0):
        ratio = c_constant(a1, lam0, t) / c_constant(a1, lam0, 1.0)
        assert abs(ratio - t**1.5 * np.exp((t - 1.0) * 0.5)) < 1e-12 * ratio


def test_c_and_d_are_gaussian_moments_bit_for_bit(a1, a2, t2):
    # the closed forms as they were written out before they became
    # quadrature.gaussian_linear_moment calls
    for rs in (a1, a2, t2):
        for lam in enumerate_dominant(rs, 6):
            n2 = float((lam.coords + rs.rho) @ (lam.coords + rs.rho))
            for t in (0.3, 0.5, 1.0, 1.5, 2.0, 2.5):
                assert c_constant(rs, lam, t) == float(
                    (t * np.pi) ** (rs.dim_k / 2.0) * np.exp(t * n2))
                assert d_constant(rs, lam, t) == float(
                    (2.0 * t * np.pi) ** (rs.dim_k / 2.0) * np.exp(t * n2 / 2.0))


def test_density_free_constant_never_evaluates_eta(a1, a2, monkeypatch):
    def no_eta(*args, **kwargs):
        raise AssertionError("eta evaluated at p = 0")

    monkeypatch.setattr(chars, "log_eta", no_eta)
    monkeypatch.setattr(chars, "eta", no_eta)
    for rs in (a1, a2):
        naive_constant(rs, weight(rs, (1,) * rs.rank), 1.0, 16)
        with pytest.raises(AssertionError, match="p = 0"):
            verify_norm_identity(rs, weight(rs, (1,) * rs.rank), 1.0, "C", 16)


def test_d_constant_values(a1):
    assert abs(d_constant(a1, weight(a1, (0,)), 1.0) - (2 * np.pi) ** 1.5 * np.exp(0.25)) < 1e-12


def test_ratio_identity(a1, a2, t2):
    for rs in (a1, a2, t2):
        for t in (0.5, 1.0, 2.0):
            for lam in enumerate_dominant(rs, 4 if rs.rank == 1 else 2):
                lhs = (4 * t * np.pi) ** (-rs.dim_k / 4.0) * d_constant(rs, lam, t)
                rhs = np.sqrt(c_constant(rs, lam, t))
                assert abs(lhs - rhs) <= 1e-13 * rhs


def test_adjoint_factor_matches_ratio(a1):
    for t in (0.5, 1.0, 2.0):
        for lam in enumerate_dominant(a1, 4):
            lr2 = float((lam.coords + a1.rho) @ (lam.coords + a1.rho))
            ratio = d_constant(a1, lam, t) / c_constant(a1, lam, t)
            assert abs(ratio - 2.0**1.5 * np.exp(-t * lr2 / 2.0)) <= 1e-13 * ratio


def test_verify_norm_identity_a1_grid(a1):
    for t in (0.5, 1.0, 2.0):
        for n in range(7):
            chk = verify_norm_identity(a1, weight(a1, (n,)), t, "C", 64)
            assert chk.rel_err <= 1e-8
    chk = verify_norm_identity(a1, weight(a1, (0,)), 1.0, "D", 64)
    assert chk.rel_err <= 1e-8
    assert abs(chk.closed_form - (2 * np.pi) ** 1.5 * np.exp(0.25)) < 1e-12


def test_verify_norm_identity_a2(a2):
    chk = verify_norm_identity(a2, weight(a2, (1, 1)), 1.0, "C", 96)
    assert chk.rel_err <= 1e-6
    chk = verify_norm_identity(a2, weight(a2, (2, 2)), 1.0, "D", 96)
    assert chk.rel_err <= 1e-6


def test_naive_constant(a1):
    # at the trivial weight the continued character is 1: plain Gaussian
    est = naive_constant(a1, weight(a1, (0,)), 1.0, 64)
    assert abs(est.value - np.pi**1.5) < 1e-10
    assert est.stderr <= 1e-10
    for n in range(5):
        est = naive_constant(a1, weight(a1, (n,)), 1.0, 64)
        assert est.value > 0


def test_naive_constant_torus_degenerate(t2):
    # eta = 1 on a torus, so the density-free constant is C itself
    t1 = build_root_system("T1")
    for n in range(4):
        lam = weight(t1, (n,))
        est = naive_constant(t1, lam, 1.0, 64)
        C = c_constant(t1, lam, 1.0)
        assert abs(est.value - C) <= 1e-12 * C
    # the rank-2 product of one-axis sums of the constants sweep, at its order
    for t in (0.5, 1.0, 2.0):
        for lam in enumerate_dominant(t2, 3):
            est = naive_constant(t2, lam, t, 96)
            C = c_constant(t2, lam, t)
            assert abs(est.value - C) <= 1e-12 * C


def _naive_constant_reference(rs, lam, t, order):
    """C~ and its order-doubling delta from a reference integrand: the
    character's mantissa times one exponential of its log-scale and the
    Gaussian's exponent, with |Y|^2 by np.sum."""
    d = dimension(rs, lam)
    mu = 2.0 * np.linalg.norm(lam.coords + rs.rho)

    def f(Y):
        log_scale, mantissa = chars._char_holo_parts(rs, lam, 2.0 * Y)
        return mantissa * np.exp(log_scale - np.sum(Y**2, axis=-1) / t)

    v0, v1 = (integrate_invariant(build_chamber_quadrature(rs, t, o, mu), f) / d
              for o in (order, 2 * order))
    return v0, abs(v0 - v1)


def _torus_c_tilde_reference(rs, lam, t, order):
    """C~ and its order-doubling delta on a torus, written out: the product
    over the axes of sum w e^{-mu_i x - x^2/t}, mu = 2 lam, on Gauss-Legendre
    over [0, R] mirrored onto [-R, 0], R = sqrt(t) (|mu| sqrt(t)/2 + 8)."""
    mu = 2.0 * lam.coords
    R = float(np.sqrt(t) * (2.0 * np.linalg.norm(lam.coords) * np.sqrt(t) / 2.0 + 8.0))
    vals = []
    for o in (order, 2 * order):
        x, w = _gauss_rule.__wrapped__("legendre", o)  # built afresh, not the cached rule
        half, hw = (x + 1.0) * R / 2.0, w * R / 2.0
        x, w = np.concatenate([-half[::-1], half]), np.concatenate([hw[::-1], hw])
        vals.append(prod(float(np.sum(w * np.exp(-m * x - x**2 / t))) for m in mu))
    return vals[0], abs(vals[0] - vals[1])


def test_constants_row_c_tilde_matches_the_reference(a1, a2, t2):
    # bit for bit on T2, whose route evaluates the reference's axis sums;
    # A1 and A2 sum in the chamber's simple-root coordinates, within 1e-13
    # of the reference at the rule's Cartan nodes, the order-doubling delta
    # within 1e-13 C~ (the largest moves here are 1.0e-15 and 5.8e-16)
    for rs, dynkins, reference in ((a1, [(0,), (5,)], _naive_constant_reference),
                                   (a2, [(0, 0), (2, 3)], _naive_constant_reference),
                                   (t2, [(0, 0), (3, 4)], _torus_c_tilde_reference)):
        order = default_order(rs.rank)
        for dynkin in dynkins:
            lam = weight(rs, dynkin)
            row = constants_row(rs, lam, 1.0, order)
            value, delta = reference(rs, lam, 1.0, order)
            if not rs.is_torus:
                assert abs(row.C_tilde - value) <= 1e-13 * value
                assert abs(row.C_tilde_err - delta) <= 1e-13 * value
            else:
                assert (row.C_tilde, row.C_tilde_err) == (value, delta)


def _pointwise_integrals(rs, lam, scale, s, order, mu, powers):
    """_character_integral at each eta power, written out point by point over
    the whole grid, in long double where float64 rounding would show: at
    the rule's simple-root coordinates s_i, the exponent <lam*, scale Y> -
    s^T G s / s + p log eta(scale Y / 2), from the exact rationals <lam*,
    w_i> and G = <w_i, w_j>, its exponential and the weighted sum.  The
    weights, log eta (tens at most) and the character's mantissa (in [1,
    dim lam]) are float64 values."""
    q = build_chamber_quadrature(rs, s, order, mu)
    grid = [a.reshape(-1) for a in np.meshgrid(*[q.axis] * rs.rank, indexing="ij")]
    _, mantissa = chars._chamber_char_parts(rs, lam, [scale * a for a in grid])
    log_eta = chars.log_eta(simple_root_pairings(rs, [scale / 2.0 * a for a in grid]))
    L = np.longdouble
    x, adj, det = [a.astype(L) for a in grid], rs.cartan_adjugate.astype(L), L(rs.cartan_det)
    k = adj @ (rs.dual_labels.astype(L) @ np.asarray(lam.dynkin, L)) / det
    rank = range(rs.rank)
    exponent = (L(scale) * sum(k[i] * x[i] for i in rank)
                - sum(adj[i, j] * x[i] * x[j] for i in rank for j in rank) / (det * L(s)))
    w = q.weights.astype(L) * mantissa.astype(L)
    return [float(np.sum(w * np.exp(exponent + p * log_eta.astype(L) if p else exponent)))
            for p in powers]


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 4.0])
def test_a2_chamber_route_matches_the_pointwise_integrand(a1, a2, t):
    # C, D and C~ of every A1 and A2 weight up to level 8 at the default
    # order and twice it, against a long-double evaluation of the same rule,
    # so that the gate measures the chamber route's own rounding: at most
    # 5.7e-14 (A2, C of (8, 8) at order 96, t = 4, where the exponents
    # reach 650 and a float64 exponent alone carries about 1e-13 of rounding)
    for rs in (a1, a2):
        for lam in enumerate_dominant(rs, 8):
            r = np.linalg.norm(lam.coords + rs.rho)
            for order in (default_order(rs.rank), 2 * default_order(rs.rank)):
                # (character scale, Gaussian width, rule's |mu|, eta powers): C and C~, then D
                for scale, s, mu, powers in ((2.0, t, 2.0 * r, (1, 0)), (1.0, 2.0 * t, r, (1,))):
                    wants = _pointwise_integrals(rs, lam, scale, s, order, mu, powers)
                    for p, want in zip(powers, wants):
                        got = hilbert._character_integral(rs, lam, scale, s, order, p, mu)
                        assert abs(got - want) <= 1e-13 * want, (rs.kind, lam.dynkin, order, scale, p)


@pytest.mark.parametrize("kind", ["A1", "A2"])
def test_character_integral_has_the_same_bits_for_any_slab_partition(kind, monkeypatch):
    # the per-axis terms, and on A2 the mantissa's factors E and m E^T, are
    # formed once per integral and sliced per slab: one grid row per slab,
    # uneven slabs of 5 to 11 rows, the default slabs and the whole grid in
    # one slab give the same bits, at even and odd orders, up to the widest
    # contraction, (8, 8)
    rs = build_root_system(kind)
    default = quadrature._SLAB
    for dynkin in [(0,) * rs.rank, (2,) * rs.rank, (3, 1)[:rs.rank], (8, 8)[:rs.rank]]:
        lam = weight(rs, dynkin)
        r = np.linalg.norm(lam.coords + rs.rho)
        for order in (96, 97, 192):
            for p in (0, 1, 2):
                values = []
                for slab in (1, 1000, default, 10**9):
                    monkeypatch.setattr(quadrature, "_SLAB", slab)
                    values.append(hilbert._character_integral(rs, lam, 2.0, 1.0, order, p, 2.0 * r))
                assert len(set(values)) == 1, (dynkin, order, p, values)


@pytest.mark.parametrize("group, order", [("T1", 64), ("T2", 96), ("T3", 16)])
def test_torus_product_route_equals_the_tensor_grid_sum(group, order):
    rs = build_root_system(group)
    for t in (0.5, 1.0, 2.0):
        for lam in enumerate_dominant(rs, 3):
            # (product-route value, character scale, Gaussian width, with eta)
            routes = ((verify_norm_identity(rs, lam, t, "C", order).quadrature, 2.0, t, True),
                      (verify_norm_identity(rs, lam, t, "D", order).quadrature, 1.0, 2.0 * t, True),
                      (naive_constant(rs, lam, t, order).value, 2.0, t, False))
            for value, scale, s, with_eta in routes:

                def f(Y):
                    v = chars.weyl_char_holo(rs, lam, scale * Y)
                    if with_eta:
                        v = v * chars.eta(rs, scale * Y / 2.0)
                    return v * np.exp(-np.sum(Y**2, axis=-1) / s)

                mu = scale * np.linalg.norm(lam.coords)
                grid = integrate_invariant(build_chamber_quadrature(rs, s, order, mu), f)
                assert abs(value - grid) <= 1e-13 * grid, (lam.dynkin, t, scale, with_eta)


def test_torus_rows_never_build_the_tensor_grid(t2, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("a torus row built the tensor grid")

    for module, name in ((hilbert, "build_chamber_quadrature"),
                         (quadrature, "build_chamber_quadrature"),
                         (quadrature, "_chamber_weights_raw")):
        monkeypatch.setattr(module, name, no_grid)
    lam = weight(t2, (3, 4))
    row = constants_row(t2, lam, 1.0, 96)
    assert abs(row.C_tilde - row.C) <= 1e-12 * row.C
    for which in ("C", "D"):
        assert verify_norm_identity(t2, lam, 1.0, which, 96).rel_err <= 1e-12


def test_finite_torus_rows_never_take_the_log_sum(t2, monkeypatch):
    # the axis sums come first; the logs of their terms are taken only to
    # name the log of an integral that is not finite
    def no_log_sum(*args, **kwargs):
        raise AssertionError("a finite torus row took the log-sum-exp")

    monkeypatch.setattr(hilbert, "_log_sum", no_log_sum)
    t1 = build_root_system("T1")
    for rs, dynkin, t in ((t1, (3,), 1.0), (t1, (14,), 2.0), (t2, (3, 4), 1.0),
                          (t2, (6, 6), 2.0), (t2, (0, 0), 1e-6)):
        lam = weight(rs, dynkin)
        row = constants_row(rs, lam, t, default_order(rs.rank))
        assert np.isfinite(row.C_tilde) and abs(row.C_tilde - row.C) <= 1e-10 * row.C
        for which in ("C", "D"):
            assert verify_norm_identity(rs, lam, t, which, 64).rel_err <= 1e-10
    # the T1 (19,) integral at t = 2 is e^722.9: only its diagnosis sums logs
    with pytest.raises(AssertionError, match="log-sum-exp"):
        naive_constant(t1, weight(t1, (19,)), 2.0, 64)


def test_a2_overflow_names_the_peak_of_the_first_slab_past_the_largest_float(a2, monkeypatch):
    # order 192 in 4 slabs of 48 grid rows: at (0, 20), t = 3 the C
    # integrand's exponent first passes LOG_FLOAT_MAX in slab 1, below the
    # larger peak of slab 2.  The sum overflows, and walking the slabs in
    # order names slab 1's peak, not the largest exponent of the rule
    monkeypatch.setattr(quadrature, "_SLAB", 8192)
    lam = weight(a2, (0, 20))
    mu = 2.0 * np.linalg.norm(lam.coords + a2.rho)
    q = build_chamber_quadrature(a2, 3.0, 192, mu)
    parts = hilbert._chamber_parts(q, lam, 2.0, 3.0, 1)
    peaks = [parts(rows)[0].max() for rows, _ in q.slabs()]
    assert len(peaks) == 4 and peaks[0] <= LOG_FLOAT_MAX < peaks[1] < max(peaks)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            hilbert._character_integral(a2, lam, 2.0, 3.0, 192, 1, mu)
    assert str(exc.value) == (f"{NON_FINITE_VALUES}: the integrand reaches e^{peaks[1]:.6g}, "
                              f"past the largest float")
    assert "e^828.656," in str(exc.value)


_GROUPS = {kind: build_root_system(kind) for kind in ("A1", "A2", "T1", "T2")}


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(sorted(_GROUPS)),
       labels=st.tuples(st.integers(0, 12), st.integers(0, 12)),
       log_t=st.floats(log(1e-6), log(50.0)),
       order=st.integers(8, 128),
       p=st.sampled_from([0, 1]),
       which=st.sampled_from(["C", "D"]))
def test_character_integral_is_a_finite_positive_value_or_a_named_overflow(
        kind, labels, log_t, order, p, which):
    # the C integrand (scale 2, width t) or the D integrand (scale 1, width
    # 2t) at any accepted t, weight and order: the sum is a positive float,
    # or it is not finite and a ValueError names its log; numpy never warns
    rs = _GROUPS[kind]
    lam = weight(rs, labels[:rs.rank])
    t = float(np.exp(log_t))
    scale, width = (2.0, t) if which == "C" else (1.0, 2.0 * t)
    mu = scale * np.linalg.norm(lam.coords + rs.rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = hilbert._character_integral(rs, lam, scale, width, order, p, mu)
        except ValueError as exc:
            assert str(exc).startswith(NON_FINITE_VALUES), exc
            return
    assert type(value) is float and np.isfinite(value) and value > 0.0, value


def test_torus_rows_overflow_only_where_c_does(t2):
    t1 = build_root_system("T1")
    # at t = 2 each axis factor peaks at e^{t lam_i^2}: finite up to label 18
    for n in range(11, 15):
        row = constants_row(t1, weight(t1, (n,)), 2.0, 64)
        assert np.isfinite(row.C_tilde) and np.isfinite(row.C_tilde_err)
        assert abs(row.C_tilde - row.C) <= 1e-10 * row.C
    # one axis past e^709, and two finite axes whose product is past it
    for rs, dynkin, order in ((t1, (19,), 64), (t2, (14, 14), 96)):
        with pytest.raises(ArithmeticError, match="exceeds the largest float"):
            c_constant(rs, weight(rs, dynkin), 2.0)
        with pytest.raises(ValueError, match="integrand produced non-finite values at quadrature nodes"):
            naive_constant(rs, weight(rs, dynkin), 2.0, order)


def test_ratio_defect_equals_the_constants_row_and_the_direct_expression(a1, a2):
    # the expression acceptance criterion 08 evaluated inline, bit for bit
    for rs in (a1, a2, build_root_system("T1")):
        for t in (0.5, 1.0, 2.0):
            for lam in enumerate_dominant(rs, 4 if rs.rank == 1 else 2):
                lhs = (4 * t * np.pi) ** (-rs.dim_k / 4.0) * d_constant(rs, lam, t)
                rhs = np.sqrt(c_constant(rs, lam, t))
                ratio = ratio_defect(rs, lam, t)
                assert type(ratio) is float
                assert np.float64(ratio).tobytes() == np.float64(abs(lhs - rhs) / rhs).tobytes()
                assert ratio == constants_row(rs, lam, t, 16).ratio_check


def test_constants_row(a1):
    row = constants_row(a1, weight(a1, (0,)), 1.0, 64)
    assert row.d == 1
    assert abs(row.norm2_shift - 0.5) < 1e-14
    assert abs(row.C - 9.180620810611474) < 1e-10
    assert abs(row.D - 20.222899473225628) < 1e-10
    assert row.ratio_check < 1e-12
    assert row.C_tilde > 0 and row.C_tilde_err < 1e-10


def test_transform_identities(a1):
    rng = np.random.default_rng(3)
    for t in (0.5, 1.0):
        s = random_series([(0,), (1,), (2,)], rng, "HL2", t)
        h = transform_apply(s, "H")
        assert h.space == "L2K"
        scaled = transform_apply(s, "ScaledTheta")
        for dn in s.terms:
            assert np.abs(scaled.terms[dn] - h.terms[dn]).max() <= 1e-13 * np.abs(h.terms[dn]).max()
        # norm preservation
        assert abs(plancherel_norm(h) - plancherel_norm(s)) <= 1e-12 * plancherel_norm(s)
        # scaled adjoint inverts
        back = transform_apply(h, "ThetaStar")
        assert back.space == "HL2"
        scale = (4 * t * np.pi) ** (-a1.dim_k / 4.0)
        for dn in s.terms:
            dev = np.abs(scale * back.terms[dn] - s.terms[dn]).max()
            assert dev <= 1e-12 * np.abs(s.terms[dn]).max()


def test_transform_htilde(a1):
    s = character_series("A1", (1,), "HL2", 1.0)
    out = transform_apply(s, "Htilde")
    expected = np.sqrt(naive_constant(a1, weight(a1, (1,)), 1.0, 64).value)
    assert abs(out.terms[(1,)][0, 0] * 2.0 - expected) < 1e-12 * expected


def test_transform_domain_errors():
    s = character_series("A1", (1,), "L2K", 1.0)
    with pytest.raises(ValueError):
        transform_apply(s, "H")
    with pytest.raises(ValueError):
        transform_apply(character_series("A1", (1,), "HL2", 1.0), "ThetaStar")
    with pytest.raises(ValueError):
        transform_apply(s, "Bogus")


def test_bks_spectral_values(a1):
    phi = character_series("A1", (0,), "HL2", 1.0)
    f = character_series("A1", (0,), "L2K", 1.0)
    est = bks_bracket(phi, f, "spectral")
    assert abs(est.value - (2 * np.pi) ** 1.5 * np.exp(0.25)) < 1e-12
    cross = bks_bracket(phi, character_series("A1", (1,), "L2K", 1.0), "spectral")
    assert cross.value == 0.0


def test_bks_sesquilinearity(a1):
    rng = np.random.default_rng(4)
    phi = random_series([(0,), (1,)], rng, "HL2")
    f = random_series([(0,), (1,)], rng, "L2K")
    z = 0.7 - 0.2j
    lhs = bks_bracket(FourierSeries("A1", "HL2", 1.0, {k: z * v for k, v in phi.terms.items()}),
                      f, "spectral").value
    assert abs(lhs - np.conj(z) * bks_bracket(phi, f, "spectral").value) < 1e-12
    lhs = bks_bracket(phi, FourierSeries("A1", "L2K", 1.0, {k: z * v for k, v in f.terms.items()}),
                      "spectral").value
    assert abs(lhs - z * bks_bracket(phi, f, "spectral").value) < 1e-12


def test_bks_spectral_vs_integral(su2):
    for t in (0.5, 1.0):
        for n in (0, 1, 2, 3, 4):
            phi = character_series("A1", (n,), "HL2", t)
            f = character_series("A1", (n,), "L2K", t)
            spec = bks_bracket(phi, f, "spectral")
            integ = bks_bracket(phi, f, MonteCarlo(2000, 5 + n))
            tol = 3 * integ.stderr + 1e-10 * abs(spec.value)
            assert abs(integ.value - spec.value) <= tol
            # the integrand has degree 2n in x, so the Haar rule of that
            # degree leaves only the error of the pairing moments
            rule = bks_bracket(phi, f, HaarSU2(2 * n))
            assert rule.stderr == 0.0
            assert abs(rule.value - spec.value) <= 1e-12 * abs(spec.value)


def test_bks_integral_orthogonality(su2):
    phi = character_series("A1", (0,), "HL2", 1.0)
    f = character_series("A1", (1,), "L2K", 1.0)
    integ = bks_bracket(phi, f, MonteCarlo(3000, 11))
    assert abs(integ.value) <= 3 * integ.stderr


def test_pointwise_transform_is_d_times_character(a1, su2):
    # the integral transform of a character series is D * character, pointwise
    rng = np.random.default_rng(6)
    xs = haar_sample(su2, rng, 20)
    for t in (0.5, 1.0, 5.0, 50.0):
        for n in (0, 1, 2):
            lam = weight(a1, (n,))
            phi = character_series("A1", (n,), "HL2", t)
            vals = bks_integral_transform(phi, su2, xs)
            target = d_constant(a1, lam, t) * su2_character(n, xs)
            rel = np.abs(vals - target) / np.abs(target)
            assert rel.max() <= 1e-6, (t, n, rel.max())


def test_bks_route_errors(su2):
    phi = character_series("A1", (1,), "HL2", 1.0)
    f = character_series("A1", (1,), "L2K", 1.0)
    with pytest.raises(ValueError):
        bks_bracket(f, phi, "spectral")
    with pytest.raises(ValueError):
        bks_bracket(phi, f, "quadrature")
    with pytest.raises(ValueError, match="unknown Haar scheme"):
        bks_bracket(phi, f, object())
