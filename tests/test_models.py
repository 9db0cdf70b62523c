import numpy as np
import pytest

from liecheck import chars
from liecheck.models import (
    build_group_model,
    chamber_coordinates,
    exp_i,
    haar_sample,
    irrep_matrices,
    rep_matrices,
    su2_character,
)
from liecheck.rootdata import weight


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


def su2_diag(theta):
    """exp of the Cartan element with coordinate sqrt(2)*theta."""
    return np.diag([np.exp(1j * theta), np.exp(-1j * theta)])


def test_basis_orthonormality(su2, su3):
    for model in (su2, su3):
        gram = -np.einsum("aij,bji->ab", model.ad_basis, model.ad_basis).real
        assert np.abs(gram - np.eye(model.dim_k)).max() < 1e-14
        c = model.cartan_basis
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
    assert abs(tr - chars.weyl_char_compact(a1, weight(a1, (2,)), chars.CartanPoint.from_a1_theta(theta))) < 1e-12


def test_unitarity_and_multiplicativity(su2):
    rng = np.random.default_rng(5)
    xs = haar_sample(su2, rng, 1000)
    m = irrep_matrices(3)
    reps = rep_matrices(m, xs)
    dev = np.abs(np.conj(np.swapaxes(reps, 1, 2)) @ reps - np.eye(4)).max()
    assert dev < 1e-12
    prod = rep_matrices(m, xs[:500] @ xs[500:])
    assert np.abs(prod - reps[:500] @ reps[500:]).max() < 1e-11


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
    Y = chars.CartanPoint.from_a1_theta(theta)
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
        Y = chars.CartanPoint.from_a1_theta(theta)
        hol = rep_matrices(m, exp_i(Y))
        hs2 = float(np.sum(np.abs(hol) ** 2))
        expected = chars.weyl_char_holo(a1, weight(a1, (n,)), 2.0 * Y.coords)
        assert abs(hs2 - expected) < 1e-10 * max(1.0, expected)


def test_restriction_principle_traces(a1, su2):
    rng = np.random.default_rng(13)
    for n in range(7):
        theta = rng.uniform(0.05, 1.0)
        Y = chars.CartanPoint.from_a1_theta(theta)
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


def test_haar_determinant_and_unitarity(su3):
    xs = haar_sample(su3, 23, 100)
    assert np.abs(np.linalg.det(xs) - 1.0).max() < 1e-12
    assert np.abs(np.conj(np.swapaxes(xs, 1, 2)) @ xs - np.eye(3)).max() < 1e-12


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
