from math import gamma

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss

from liecheck import chars, models
from liecheck.models import (
    HaarSU2,
    build_group_model,
    chamber_coordinates,
    exp_i,
    haar_draw,
    haar_mean,
    haar_nodes,
    haar_sample,
    irrep_matrices,
    rep_matrices,
    su2_character,
)
from liecheck.rootdata import build_root_system, weight
from test_chars import a1_point, weyl_char_compact


def generator_exp(m, coords):
    """Reference T_n(exp X) = exp(sum_a X_a generators_a), by eigh."""
    A = np.einsum("...a,aij->...ij", np.asarray(coords, float), m.generators)
    w, V = np.linalg.eigh(1j * A)
    return (V * np.exp(-1j * w)[..., None, :]) @ np.conj(np.swapaxes(V, -1, -2))


def generator_exp_i(m, coords):
    """Reference T_n(exp iY) = exp(i sum_a Y_a generators_a), by eigh."""
    B = 1j * np.einsum("...a,aij->...ij", np.asarray(coords, float), m.generators)
    w, V = np.linalg.eigh(B)
    return (V * np.exp(w)[..., None, :]) @ np.conj(np.swapaxes(V, -1, -2))


def su2_log_coords(xs):
    """Algebra coordinates X with exp(X) = x, for x away from +-I."""
    pauli = -1j * np.sqrt(2.0) * build_group_model("SU2").ad_basis
    c = np.einsum("...ii->...", xs).real / 2.0
    phi = np.arccos(c)
    n_sigma = (xs - c[..., None, None] * np.eye(2)) / (1j * np.sin(phi)[..., None, None])
    axis = np.einsum("...ij,aji->...a", n_sigma, pauli).real / 2.0
    return np.sqrt(2.0) * phi[..., None] * axis


def qr_complete(z):
    """Reference SU(n) factor of the columns z (..., n, n - 1): Householder
    QR, the phase fix that makes diag(R) positive, then Q diag(1, ..., conj
    det Q) with LAPACK det."""
    q, r = np.linalg.qr(z, mode="complete")
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q[..., :-1] *= (d / np.abs(d))[..., None, :]
    q[..., -1] *= np.conj(np.linalg.det(q))[..., None]
    return q


def qr_haar_sample(model, rng, size=None):
    """Reference Haar sampler: the same n - 1 Ginibre columns, drawn in the
    same order, through qr_complete."""
    rng = np.random.default_rng(rng)
    n = model.defining_dim
    m = 1 if size is None else size
    re, im = rng.standard_normal((2, m, n, n - 1))
    x = qr_complete((re + 1j * im) / np.sqrt(2.0))
    return x[0] if size is None else x


def su2_diag(theta):
    """exp of the Cartan element with coordinate sqrt(2)*theta."""
    return np.diag([np.exp(1j * theta), np.exp(-1j * theta)])


def test_basis_orthonormality(su2, su3):
    for model in (su2, su3):
        gram = -np.einsum("aij,bji->ab", model.ad_basis, model.ad_basis).real
        assert np.abs(gram - np.eye(model.dim_k)).max() < 1e-14
        c = model.cartan_basis
        assert np.abs(c * (1.0 - np.eye(model.defining_dim))).max() == 0.0
        for i in range(len(c)):
            for j in range(len(c)):
                assert np.abs(c[i] @ c[j] - c[j] @ c[i]).max() < 1e-14


def test_generator_brackets():
    m = irrep_matrices(4)
    g = m.generators
    assert np.abs(g + np.conj(np.swapaxes(g, -1, -2))).max() < 1e-13
    # same structure constants as the defining basis: [e1, e2] = -sqrt(2) e3
    s2 = np.sqrt(2.0)
    assert np.abs((g[0] @ g[1] - g[1] @ g[0]) + s2 * g[2]).max() < 1e-12
    assert np.abs((g[1] @ g[2] - g[2] @ g[1]) + s2 * g[0]).max() < 1e-12
    assert np.abs((g[2] @ g[0] - g[0] @ g[2]) + s2 * g[1]).max() < 1e-12


def test_rep_matrix_basics(su2):
    assert rep_matrices(irrep_matrices(0), haar_sample(su2, 1)).shape == (1, 1)
    assert abs(rep_matrices(irrep_matrices(0), haar_sample(su2, 2))[0, 0] - 1.0) < 1e-14
    assert np.abs(rep_matrices(irrep_matrices(1), np.eye(2)) - np.eye(2)).max() < 1e-14


def test_rep_trace_matches_compact_character(a1, su2):
    theta = 0.37
    tr = np.trace(rep_matrices(irrep_matrices(2), su2_diag(theta)))
    assert abs(tr - np.sin(3 * theta) / np.sin(theta)) < 1e-12
    assert abs(tr - weyl_char_compact(a1, weight(a1, (2,)), a1_point(theta))) < 1e-12


def test_unitarity_and_multiplicativity(su2):
    rng = np.random.default_rng(5)
    xs = haar_sample(su2, rng, 1000)
    m = irrep_matrices(3)
    reps = rep_matrices(m, xs)
    dev = np.abs(np.conj(np.swapaxes(reps, 1, 2)) @ reps - np.eye(4)).max()
    assert dev < 1e-12
    prod = rep_matrices(m, xs[:500] @ xs[500:])
    assert np.abs(prod - reps[:500] @ reps[500:]).max() < 1e-11


def test_rep_matrices_of_a_point_alone_equal_them_inside_a_batch(su2):
    # leading shapes (), (N,) and (a, b) give the same bits, and a
    # C-contiguous result, for unitary and general GL(2, C) points
    rng = np.random.default_rng(41)
    gl = rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2))
    for xs in (haar_sample(su2, rng, 6), gl):
        for n in range(7):
            m = irrep_matrices(n)
            flat = rep_matrices(m, xs)
            grid = rep_matrices(m, xs.reshape(2, 3, 2, 2))
            assert flat.shape == (6, n + 1, n + 1) and grid.shape == (2, 3, n + 1, n + 1)
            assert flat.flags.c_contiguous and grid.flags.c_contiguous
            assert np.array_equal(grid.reshape(flat.shape), flat), n
            for k, x in enumerate(xs):
                assert np.array_equal(rep_matrices(m, x), flat[k]), (n, k)


def test_mul2x2_is_the_matrix_product_and_batch_independent(su2):
    rng = np.random.default_rng(43)
    a = rng.standard_normal((50, 2, 2)) + 1j * rng.standard_normal((50, 2, 2))
    b = haar_sample(su2, rng, 50)
    prod = models.mul2x2(a, b)
    assert np.abs(prod - a @ b).max() <= 1e-14
    assert np.array_equal(models.mul2x2(a, b[0]), np.array([models.mul2x2(x, b[0]) for x in a]))
    assert np.array_equal(models.mul2x2(b[0], a), np.array([models.mul2x2(b[0], x) for x in a]))
    for k in (0, 49):
        assert np.array_equal(models.mul2x2(a[k], b[k]), prod[k])


def test_rep_matrices_match_generator_exponential(su2):
    rng = np.random.default_rng(37)
    xs = haar_sample(su2, rng, 200)
    coords = su2_log_coords(xs)
    assert np.abs(generator_exp(irrep_matrices(1), coords) - xs).max() < 1e-13
    # exactly -I, and within 1e-9 of it, where a principal-branch log degenerates
    axes = rng.normal(size=(20, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    delta = rng.uniform(-1e-9, 1e-9, size=20)
    near = np.sqrt(2.0) * (np.pi - delta)[:, None] * axes
    near_pi = generator_exp(irrep_matrices(1), near)
    assert np.abs(near_pi + np.eye(2)).max() < 2e-9
    for n in range(7):
        m = irrep_matrices(n)
        tol = 1e-12 * max(1, n)
        assert np.abs(rep_matrices(m, xs) - generator_exp(m, coords)).max() < tol
        assert np.abs(rep_matrices(m, -np.eye(2)) - (-1) ** n * np.eye(n + 1)).max() == 0.0
        at_pi = generator_exp(m, np.sqrt(2.0) * np.pi * axes)
        assert np.abs(rep_matrices(m, -np.eye(2)) - at_pi).max() < tol
        assert np.abs(rep_matrices(m, near_pi) - generator_exp(m, near)).max() < tol


def test_polar_points_match_hermitian_exponential(su2):
    rng = np.random.default_rng(41)
    xs = haar_sample(su2, rng, 50)
    coords = su2_log_coords(xs)
    Y = rng.normal(0.0, 0.8, size=3)
    assert np.abs(exp_i(Y) - generator_exp_i(irrep_matrices(1), Y)).max() < 1e-13
    assert np.abs(exp_i(np.zeros(3)) - np.eye(2)).max() == 0.0
    assert np.abs(exp_i(np.zeros(1)) - np.eye(2)).max() == 0.0
    for n in range(7):
        m = irrep_matrices(n)
        hol = rep_matrices(m, xs @ exp_i(Y))
        ref = generator_exp(m, coords) @ generator_exp_i(m, Y)
        assert np.abs(hol - ref).max() < 1e-11 * np.abs(ref).max()


def test_multiplicative_on_gl2c():
    rng = np.random.default_rng(43)
    g = rng.normal(size=(100, 2, 2)) + 1j * rng.normal(size=(100, 2, 2))
    h = rng.normal(size=(100, 2, 2)) + 1j * rng.normal(size=(100, 2, 2))
    for n in range(7):
        m = irrep_matrices(n)
        tg, th = rep_matrices(m, g), rep_matrices(m, h)
        err = np.linalg.norm(rep_matrices(m, g @ h) - tg @ th, axis=(1, 2))
        scale = np.linalg.norm(tg, axis=(1, 2)) * np.linalg.norm(th, axis=(1, 2))
        assert (err / scale).max() < 1e-14 * (n + 1)


def test_rep_matrix_holo(su2, a1):
    m = irrep_matrices(1)
    rng = np.random.default_rng(9)
    x = haar_sample(su2, rng)
    assert np.abs(rep_matrices(m, x @ exp_i(np.zeros(1))) - rep_matrices(m, x)).max() < 1e-13
    theta = 0.4
    Y = a1_point(theta)
    hol = rep_matrices(m, exp_i(Y))
    hs2 = np.sum(np.abs(hol) ** 2)
    assert abs(hs2 - np.sinh(4 * theta) / np.sinh(2 * theta)) < 1e-12
    # hermitian positive factor
    assert np.abs(hol - np.conj(hol.T)).max() < 1e-13
    assert np.linalg.eigvalsh(hol).min() > 0


def test_hermitian_continuation_hs_norm(a1, su2):
    # ||T(exp iY)||_HS^2 equals the continued character at 2Y, spins <= 3
    rng = np.random.default_rng(11)
    for n in range(7):
        m = irrep_matrices(n)
        theta = rng.uniform(0.1, 0.9)
        Y = a1_point(theta)
        hol = rep_matrices(m, exp_i(Y))
        hs2 = float(np.sum(np.abs(hol) ** 2))
        expected = chars.weyl_char_holo(a1, weight(a1, (n,)), 2.0 * Y)
        assert abs(hs2 - expected) < 1e-10 * max(1.0, expected)


def test_restriction_principle_traces(a1, su2):
    rng = np.random.default_rng(13)
    for n in range(7):
        theta = rng.uniform(0.05, 1.0)
        Y = a1_point(theta)
        tr = np.trace(rep_matrices(irrep_matrices(n), exp_i(Y))).real
        assert abs(tr - chars.weyl_char_holo(a1, weight(a1, (n,)), Y)) < 1e-11 * max(1.0, tr)


def test_haar_schur_orthogonality(su2, su3):
    rng = np.random.default_rng(17)
    for model in (su2, su3):
        xs = haar_sample(model, rng, 100_000)
        n = len(xs)
        col = xs[:, :, 0]
        sem_re = col.real.std(axis=0, ddof=1) / np.sqrt(n)
        sem_im = col.imag.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(col.real.mean(axis=0)) < 4 * sem_re)
        assert np.all(np.abs(col.imag.mean(axis=0)) < 4 * sem_im)
        tr = np.einsum("nii->n", xs)
        sem_tr = np.hypot(tr.real.std(ddof=1), tr.imag.std(ddof=1)) / np.sqrt(n)
        assert abs(tr.mean()) < 3.5 * sem_tr
        vals = np.abs(tr) ** 2
        sem2 = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1.0) < 3.5 * sem2


def schur_defect(xs, weights, degree):
    """Largest error of a rule on Schur orthogonality up to a degree: the
    Haar mean of T_n(x)_ij conj(T_m(x)_kl), a polynomial of degree n + m,
    is delta_nm delta_ik delta_jl / (n + 1)."""
    reps = [rep_matrices(irrep_matrices(n), xs) for n in range(degree + 1)]
    worst = 0.0
    for n in range(degree + 1):
        for m in range(degree + 1 - n):
            gram = np.einsum("k,kij,kab->ijab", weights, reps[n], np.conj(reps[m]))
            ref = np.zeros_like(gram)
            if n == m:
                idx = np.arange(n + 1)
                ref[idx[:, None], idx[None, :], idx[:, None], idx[None, :]] = 1.0 / (n + 1)
            worst = max(worst, float(np.abs(gram - ref).max()))
    return worst


def test_haar_su2_rule_is_exact_to_its_degree(su2):
    for degree in range(13):
        xs, weights = haar_nodes(su2, HaarSU2(degree))
        assert len(xs) == len(weights) == HaarSU2(degree).samples
        assert HaarSU2(degree).samples == (degree // 2 + 1) ** 2 * (degree + 1)
        assert not xs.flags.writeable and not weights.flags.writeable
        assert abs(weights.sum() - 1.0) <= 1e-15
        assert np.abs(np.conj(np.swapaxes(xs, 1, 2)) @ xs - np.eye(2)).max() <= 1e-15
        assert np.abs(np.linalg.det(xs) - 1.0).max() <= 1e-15
        assert schur_defect(xs, weights, degree) <= 1e-13, degree
    assert HaarSU2(3).samples == 16 and HaarSU2(4).samples == 45 and HaarSU2(12).samples == 637
    with pytest.raises(ValueError, match="SU2"):
        haar_nodes(build_group_model("SU3"), HaarSU2(4))
    with pytest.raises(ValueError, match=">= 0"):
        haar_nodes(su2, HaarSU2(-1))


def test_haar_su2_rule_degree_bound_is_tight(su2):
    # HaarSU2(D) is _polar_rule(D//2 + 1, D); one theta node fewer (exact
    # in cos theta to degree D - 1 or D - 2) or one band lower (directions
    # exact to degree D - 1) misses Schur orthogonality at degree D
    for degree in (2, 4, 8, 9):
        nodes = degree // 2 + 1
        assert schur_defect(*models._polar_rule(nodes, degree), degree) <= 1e-13
        assert schur_defect(*models._polar_rule(nodes - 1, degree), degree) > 0.1, degree
        assert schur_defect(*models._polar_rule(nodes, degree - 1), degree) > 0.1, degree


def test_sphere_rule_is_exact_to_its_band():
    # the uniform mean of u1^a u2^b u3^c on S^2 is 0 unless a, b, c are all
    # even, and then Gamma(3/2) prod Gamma((a_i + 1)/2) / (pi^(3/2)
    # Gamma((a + b + c + 3)/2))
    def moment(a, b, c):
        if a % 2 or b % 2 or c % 2:
            return 0.0
        return (gamma(1.5) * gamma((a + 1) / 2) * gamma((b + 1) / 2) * gamma((c + 1) / 2)
                / (np.pi**1.5 * gamma((a + b + c + 3) / 2)))

    def defect(u, w, degree):
        return max(abs(w @ (u[:, 0] ** a * u[:, 1] ** b * u[:, 2] ** (k - a - b)) - moment(a, b, k - a - b))
                   for k in range(degree + 1) for a in range(k + 1) for b in range(k + 1 - a))

    for band in range(9):
        u, w = models._sphere_rule(band)
        assert len(u) == len(w) == (band // 2 + 1) * (band + 1)
        assert not u.flags.writeable and not w.flags.writeable
        assert np.abs(np.linalg.norm(u, axis=1) - 1.0).max() <= 1e-15
        assert abs(w.sum() - 1.0) <= 1e-15
        assert defect(u, w, band) <= 1e-15, band
        # and not beyond: some monomial of degree band + 1 is missed
        assert defect(u, w, band + 1) > 1e-3, band


def test_haar_determinant_and_unitarity(su2, su3):
    for model in (su2, su3):
        xs = haar_sample(model, 23, 200_000)
        assert np.abs(np.linalg.det(xs) - 1.0).max() <= 1e-13
        gram = np.conj(np.swapaxes(xs, 1, 2)) @ xs
        assert np.abs(gram - np.eye(model.defining_dim)).max() <= 1e-13


def test_haar_sample_matches_qr_reference(su2, su3):
    for model in (su2, su3):
        for seed in (3, 4):
            one = haar_sample(model, seed)
            assert one.shape == (model.defining_dim,) * 2
            assert np.abs(one - qr_haar_sample(model, seed)).max() <= 1e-12
        xs = haar_sample(model, 5, 20_000)
        assert np.abs(xs - qr_haar_sample(model, 5, 20_000)).max() <= 1e-12


def test_haar_sample_draws_2n_n_minus_1_normals_per_sample(su2, su3):
    for model in (su2, su3):
        n = model.defining_dim
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        for size, count in ((7, 7), (None, 1), (1, 1)):
            haar_sample(model, rng, size)
            ref_rng.standard_normal(count * 2 * n * (n - 1))
            assert np.array_equal(rng.standard_normal(3), ref_rng.standard_normal(3))


def _ginibre(rng, size, n, angle):
    """The first n - 1 columns of Ginibre matrices, the later ones at about
    `angle` from the first."""
    z = rng.standard_normal((size, n, n)) + 1j * rng.standard_normal((size, n, n))
    z[..., 1:] = z[..., :1] + angle * z[..., 1:]
    return z[..., :n - 1]


def test_haar_factor_of_ill_conditioned_columns_matches_qr():
    # columns at angles 1e-3, 1e-6 and 1e-11 (on SU(3), cond 3e2 to 5e13;
    # SU(2) takes one column, of cond 1): the closed form and the QR
    # reference are both accurate to about eps * cond(z)
    rng = np.random.default_rng(7)
    for n in (2, 3):
        for angle in (1e-3, 1e-6, 1e-11):
            z = _ginibre(rng, 2000, n, angle)
            err = np.abs(models.HaarDraw(z.real, z.imag).array() - qr_complete(z))
            assert (err.max(axis=(1, 2)) <= 1e-14 * np.linalg.cond(z)).all(), (n, angle)


def test_haar_factor_of_nearly_parallel_columns():
    rng = np.random.default_rng(53)
    z = _ginibre(rng, 2000, 3, 1e-11)
    assert np.linalg.cond(z).min() >= 1e10
    x = models.HaarDraw(z.real, z.imag).array()
    gram = np.conj(np.swapaxes(x, 1, 2)) @ x
    assert np.abs(gram - np.eye(3)).max() <= 1e-14
    assert np.abs(np.linalg.det(x) - 1.0).max() <= 1e-14
    # the first two columns of x are those of Q in z = QR with positive
    # diag(R): each has a positive component along its own z column
    assert (np.einsum("nik,nik->nk", np.conj(x[..., :2]), z).real > 0).all()


def test_haar_factor_of_a_point_alone_equals_it_inside_a_batch(su2, su3):
    # elementwise operations only: a row's bits do not depend on the batch,
    # its size or the block it falls in (N = 2 _HAAR_BLOCK + 2 ends in a
    # block of 2)
    B = models._HAAR_BLOCK
    rng = np.random.default_rng(61)
    for model in (su2, su3):
        n = model.defining_dim
        re, im = rng.standard_normal((2, 2 * B + 2, n, n - 1))
        x = models.HaarDraw(re, im).array()
        for k in (0, 1, B - 1, B, 2 * B, 2 * B + 1):
            assert np.array_equal(models.HaarDraw(re[k:k + 1], im[k:k + 1]).array()[0], x[k]), k
        assert np.array_equal(haar_sample(model, 62), haar_sample(model, 62, 1)[0])


def test_haar_draw_blocks_equal_haar_sample_bit_for_bit(su2, su3):
    # the draw takes haar_sample's normals in one call, so the generator
    # ends in the same state; its blocks reuse one buffer, and the last
    # holds B + 1 points (a lone point joins it) or 2
    B = models._HAAR_BLOCK
    for model in (su2, su3):
        for n in (2, B - 1, B, B + 1, B + 2, 10**5):
            rng, ref_rng = np.random.default_rng(63), np.random.default_rng(63)
            draw = haar_draw(model, rng, n)
            assert len(draw) == n
            blocks = [(x.copy(), x.__array_interface__["data"][0]) for x in draw.blocks()]
            xs = haar_sample(model, ref_rng, n)
            assert rng.bit_generator.state == ref_rng.bit_generator.state, n
            assert np.array_equal(np.concatenate([x for x, _ in blocks]), xs), n
            assert len({address for _, address in blocks}) == 1, n
            sizes = [len(x) for x, _ in blocks]
            assert max(sizes) <= B + 1 and (len(sizes) == 1 or sizes[-1] > 1), (n, sizes)


def test_haar_mean_over_a_draw_equals_it_over_the_array_bit_for_bit(su2, su3):
    # a real scalar (the orbital-average exponent), a complex scalar (the
    # convolution integrand) and (N, d, d) values (a Fourier coefficient's
    # integrand at n = 2), in blocks of _HAAR_BLOCK against blocks of _BLOCK
    from liecheck import fourier
    from liecheck.checks import random_series

    rng = np.random.default_rng(64)
    a = random_series("A1", "L2K", 1.0, [(0,), (1,)], rng)
    b = random_series("A1", "L2K", 1.0, [(1,), (2,)], rng)
    q = haar_sample(su2, rng)

    def exponent(model):
        m = np.diagonal(models.cartan_element(model, np.linspace(1.0, 2.0, model.rank))).imag
        y = np.diagonal(models.cartan_element(model, np.linspace(0.3, -0.2, model.rank))).imag
        return lambda ys: np.exp(-chars._adjoint_pairing(ys, m, y))

    def convolution(x):
        return (fourier.synthesize_many(a, su2, x)
                * fourier.synthesize_many(b, su2, models.mul2x2(np.conj(np.swapaxes(x, 1, 2)), q)))

    def coefficient(x):
        return fourier._times_rep_adjoint(fourier.synthesize_many(a, su2, x), 2, x)

    cases = [(su3, exponent(su3)), (su2, exponent(su2)), (su2, convolution), (su2, coefficient)]
    for n in (2, models._HAAR_BLOCK + 1, 10**5):
        for model, f in cases:
            draw = haar_draw(model, 65, n)
            mean, sem = haar_mean(f, draw)
            ref_mean, ref_sem = haar_mean(f, draw.array())
            assert mean.shape == ref_mean.shape and sem.shape == ref_sem.shape
            assert np.array_equal(mean, ref_mean) and np.array_equal(sem, ref_sem), (n, f)
    with pytest.raises(ValueError, match="equal weights"):
        haar_mean(np.abs, draw, np.ones(len(draw)))


def test_haar_sample_schur_orthogonality_of_t1_and_t2(su2, su3):
    # SU(2): the Haar mean of T_n(x)_ij conj(T_m(x)_kl) is
    # delta_nm delta_ik delta_jl / (n + 1); every coefficient within 4 sigma
    N = 100_000
    xs = haar_sample(su2, 71, N)
    reps = {n: rep_matrices(irrep_matrices(n), xs).reshape(N, -1) for n in (1, 2)}
    for n in (1, 2):
        for m in (1, 2):
            mean = np.einsum("ki,kj->ij", reps[n], np.conj(reps[m])) / N
            square = np.einsum("ki,kj->ij", np.abs(reps[n]) ** 2, np.abs(reps[m]) ** 2) / N
            sem = np.sqrt((square - np.abs(mean) ** 2) / (N - 1))
            ref = np.eye((n + 1) ** 2) / (n + 1) if n == m else 0.0
            assert (np.abs(mean - ref) <= 4 * sem).all(), (n, m)
    # SU(3): E |tr x|^4 = 2
    vals = np.abs(np.einsum("nii->n", haar_sample(su3, 72, N))) ** 4
    assert abs(vals.mean() - 2.0) <= 4 * vals.std(ddof=1) / np.sqrt(N)


def test_chamber_coordinates_of_a_point_alone_equal_them_inside_a_batch(su3):
    # the eigenvalues meet the Cartan embedding elementwise, not in a BLAS
    # product whose rounding depends on the batch
    coords = np.random.default_rng(2031).normal(size=(models._BLOCK + 2, 8))
    batch = chamber_coordinates(su3, coords)
    for k in (0, 1, 26, 27, 35, len(coords) - 2, len(coords) - 1):
        assert np.array_equal(chamber_coordinates(su3, coords[k]), batch[k]), k
        assert np.array_equal(chamber_coordinates(su3, coords[k:k + 2]), batch[k:k + 2]), k


def test_chamber_coordinates_match_eigvalsh(su3):
    rng = np.random.default_rng(29)
    coords = rng.normal(size=(200, 8))
    fast = chamber_coordinates(su3, coords)
    H = np.einsum("na,aij->nij", coords, -1j * su3.ad_basis)
    eigs = np.sort(np.linalg.eigvalsh(H), axis=-1)[:, ::-1]
    u1 = np.array([1, -1, 0]) / np.sqrt(2.0)
    u2 = np.array([1, 1, -2]) / np.sqrt(6.0)
    ref = np.stack([eigs @ u1, eigs @ u2], axis=-1)
    assert np.abs(fast - ref).max() < 1e-12


def test_su2_character_values(su2):
    xs = haar_sample(su2, 31, 50)
    assert np.abs(su2_character(1, xs) - np.einsum("nii->n", xs).real).max() < 1e-13
    assert np.abs(su2_character(0, xs) - 1.0).max() == 0.0
    assert abs(su2_character(4, np.eye(2)) - 5.0) < 1e-13


def test_model_errors():
    with pytest.raises(ValueError):
        build_group_model("SU4")
    with pytest.raises(ValueError):
        exp_i(np.zeros(2))
    with pytest.raises(ValueError):
        irrep_matrices(-1)


def _counted(f, calls):
    """f, recording the length of every block it is called on."""

    def wrapped(*blocks):
        calls.append(len(blocks[0]))
        return f(*blocks)

    return wrapped


def test_block_evaluation_equals_whole_array_bit_for_bit(su2, su3):
    # real values from the A2 characters and eta (matrix products over the
    # point axis), complex values from the SU(2) irreps, (n, d, d) values
    # from the irrep matrices themselves, and a pair of arrays sliced in step;
    # with weights, each block's products are written into the output's rows
    a2 = build_root_system("A2")
    lam = weight(a2, (2, 1))
    rep3 = irrep_matrices(3)

    def real(c):
        rep = chamber_coordinates(su3, c)
        return chars.eta(a2, rep) * chars.weyl_char_holo(a2, lam, 2.0 * rep)

    def complex_(xs):
        return np.einsum("nii->n", rep_matrices(rep3, xs @ exp_i(np.array([0.3, -0.2, 0.5]))))

    def matrices(xs):
        return rep_matrices(rep3, xs)

    def pair(xs, c):
        return su2_character(2, xs) * np.exp(-c[:, 0] ** 2)

    B = models._BLOCK
    rng = np.random.default_rng(909)
    for n in (1, B - 1, B, B + 1, B + 2, 2 * B + 1, 3 * B + 7):
        c = rng.normal(0.0, 0.8, size=(n, 8))
        xs = haar_sample(su2, rng, n)
        w = rng.uniform(0.5, 2.0, n)
        for f, points in ((real, c), (complex_, xs), (matrices, xs), (pair, (xs, c))):
            whole = f(*points) if isinstance(points, tuple) else f(points)
            weighted = np.reshape(w, (-1,) + (1,) * (whole.ndim - 1)) * whole
            calls = []
            blocked = models._evaluate_blocks(_counted(f, calls), points)
            assert blocked.dtype == whole.dtype and blocked.shape == whole.shape
            assert np.array_equal(blocked, whole), (f.__name__, n)
            # blocks of B points; a lone last point joins the block before it
            sizes = [min(B, n - lo) for lo in range(0, n, B)]
            if len(sizes) > 1 and sizes[-1] == 1:
                sizes[-2:] = [B + 1]
            assert calls == sizes, (f.__name__, n)
            blocked = models._evaluate_blocks(f, points, w)
            assert blocked.dtype == weighted.dtype and blocked.shape == weighted.shape
            assert np.array_equal(blocked, weighted), (f.__name__, n)


def test_one_block_is_f_itself_or_one_product():
    # no output array beside a single block: without weights f's own
    # result comes back, with weights the one product w * f
    x = np.linspace(0.0, 1.0, 7)
    w = np.linspace(1.0, 2.0, 7)
    result = np.exp(x)
    assert models._evaluate_blocks(lambda block: result, x) is result
    weighted = models._evaluate_blocks(lambda block: result, x, w)
    assert weighted.base is None and np.array_equal(weighted, w * result)


# closed-form moments m_k of each family's weight, and the scale of their
# error: 1 on [-1, 1] (Legendre), e^{-x^2} on R (Hermite), u^alpha e^{-u}
# on [0, inf) (Laguerre); odd moments of the symmetric weights vanish
_MOMENTS = {
    "legendre": lambda k, alpha: (2.0 / (k + 1) * (k % 2 == 0), 1.0),
    "hermite": lambda k, alpha: (gamma((k + 1) / 2) * (k % 2 == 0), gamma((k + 1) / 2)),
    "laguerre": lambda k, alpha: (gamma(k + alpha + 1), gamma(k + alpha + 1)),
}
_MOMENT_TOL = {"legendre": 1e-14, "hermite": 3e-14, "laguerre": 2e-14}


def _moment_errors(family, order, alpha=0.0):
    """|sum w x^k - m_k| / scale_k for k = 0 .. 2 order, from a fresh rule."""
    x, w = models._gauss_rule.__wrapped__(family, order, alpha)
    out = []
    for k in range(2 * order + 1):
        exact, scale = _MOMENTS[family](k, alpha)
        out.append(abs(np.sum(w * x**k) - exact) / scale)
    return np.array(out)


@pytest.mark.parametrize("family, alpha", [
    ("legendre", 0.0), ("hermite", 0.0), ("laguerre", 0.0), ("laguerre", 1.0)])
def test_gauss_rules_are_exact_to_degree_2n_minus_1_and_no_further(family, alpha):
    for order in (1, 2, 6, 17):
        err = _moment_errors(family, order, alpha)
        assert err[:-1].max() <= _MOMENT_TOL[family], (order, err)
        # x^(2n) misses by the squared norm of the monic p_n, far above rounding
        assert err[-1] > 100 * _MOMENT_TOL[family], order


@settings(max_examples=60, deadline=None, database=None)
@given(st.one_of(
    st.tuples(st.just("legendre"), st.integers(1, 400), st.just(0.0)),
    st.tuples(st.just("hermite"), st.integers(1, 40), st.just(0.0)),
    st.tuples(st.just("laguerre"), st.integers(1, 40), st.sampled_from([0.0, 1.0])),
))
def test_every_gauss_rule_integrates_its_moments_below_degree_2n(case):
    family, order, alpha = case
    assert _moment_errors(family, order, alpha)[:-1].max() <= _MOMENT_TOL[family]


def test_gauss_rules_match_numpy_reference_rules():
    # numpy's rules, as test-only oracles: nodes to rounding; numpy's
    # weights carry errors of their own that grow with the order
    for family, ref, orders, w_tol in (
        ("legendre", leggauss, (5, 20, 96), 1e-11),
        ("hermite", hermgauss, (5, 20, 40), 1e-12),
        ("laguerre", laggauss, (5, 12, 40), 5e-12),
    ):
        for order in orders:
            x, w = models._gauss_rule(family, order)
            ref_x, ref_w = ref(order)
            assert np.all(np.abs(x - ref_x) <= 1e-14 * np.maximum(1.0, np.abs(ref_x)))
            assert np.all(np.abs(w - ref_w) <= w_tol * ref_w), (family, order)


def test_gauss_rules_are_cached_read_only_and_ascending():
    for args in (("legendre", 12), ("hermite", 12), ("laguerre", 12, 1.0)):
        x, w = models._gauss_rule(*args)
        assert models._gauss_rule(*args)[0] is x
        for a in (x, w):
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert np.all(np.diff(x) > 0) and np.all(w > 0)


def _golub_welsch_legendre(order):
    """Golub-Welsch (Math. Comp. 23 (1969) 221) as a test-only reference: the
    eigenvalues of the Legendre Jacobi matrix and 2 times the squared first
    components of its eigenvectors."""
    k = np.arange(1, order, dtype=float)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return x, 2.0 * v[0] ** 2


@pytest.mark.parametrize("order", [1, 2, 3, 97, 193, 400])
def test_legendre_rule_calls_no_lapack_and_matches_golub_welsch(order, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a Gauss-Legendre rule calls no LAPACK routine")

    with monkeypatch.context() as patch:
        for name in ("eigvalsh", "eigh", "eig"):
            patch.setattr(np.linalg, name, forbidden)
        x, w = models._gauss_rule.__wrapped__("legendre", order)
    ref_x, ref_w = _golub_welsch_legendre(order)
    assert np.abs(x - ref_x).max() <= 1e-15
    # Golub-Welsch's smallest weights, next to +-1, are off by up to 6e-12
    # relative at order 400 against 34-digit references (these by 2e-13), so
    # the weights are compared on the scale of the largest
    assert np.abs(w - ref_w).max() <= 1e-12 * ref_w.max()
    # an exact mirror image; an odd order's middle node is 0
    assert np.array_equal(x[::-1], -x) and np.array_equal(w[::-1], w)


def test_monte_carlo_moments_of_1d_values_have_numpy_bits():
    rng = np.random.default_rng(2029)
    for n in (2, models._BLOCK + 2, 100_000):
        re = rng.normal(size=n)
        z = re + 1j * rng.normal(size=n)
        mean, sem = models.haar_mean(lambda v: v, re)
        assert mean == re.mean() and sem == np.sqrt(re.var(ddof=1)) / np.sqrt(n)
        mean, sem = models.haar_mean(lambda v: v, z)
        assert mean == z.mean()
        assert sem == np.sqrt(z.real.var(ddof=1) + z.imag.var(ddof=1)) / np.sqrt(n)


def test_monte_carlo_moments_with_trailing_axes_match_each_component():
    # (N, d, d) complex and (N, 4) real values: every component's mean and
    # standard error within 4 ulp of numpy's on that component alone
    rng = np.random.default_rng(2030)
    for n in (3, models._BLOCK + 2, 100_000):
        for vals in (rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3)),
                     rng.normal(size=(n, 4))):
            mean, sem = models.haar_mean(lambda v: v, vals)
            assert mean.shape == sem.shape == vals.shape[1:]
            for idx in np.ndindex(vals.shape[1:]):
                col = vals[(slice(None),) + idx]
                ref_sem = np.sqrt(col.real.var(ddof=1) + col.imag.var(ddof=1)) / np.sqrt(n)
                assert abs(mean[idx] - col.mean()) <= 4 * np.spacing(abs(col.mean())), (n, idx)
                assert abs(sem[idx] - ref_sem) <= 4 * np.spacing(ref_sem), (n, idx)


def test_single_branch_sinhc_forms_equal_their_two_branch_reference():
    def sinhc_ref(x):
        small = np.abs(x) < 1e-8
        safe = np.where(small, 1.0, x)
        return np.where(small, 1.0 + x * x / 6.0, np.sinh(safe) / safe)

    def log_sinhc_ref(x):
        ax = np.abs(x)
        safe = np.maximum(ax, 1e-8)
        return np.where(ax < 1e-8, np.log1p(ax * ax / 6.0),
                        safe + np.log(-np.expm1(-2.0 * safe) / (2.0 * safe)))

    x = np.concatenate(([0.0, -0.0, 1e-9, -3e-9, 1e-8, -1e-8, 2e-8, 700.0, -650.0],
                        np.random.default_rng(2032).normal(0.0, 3.0, 1000)))
    # with small entries, without any, and single values
    for v in (x, x[4:], x[0], x[5], x[-1]):
        assert np.array_equal(models._sinhc(v), sinhc_ref(np.asarray(v)))
        assert np.array_equal(chars._log_sinhc(v), log_sinhc_ref(v))
