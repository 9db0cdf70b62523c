import numpy as np
import pytest

from liecheck.fourier import (
    FourierSeries,
    character_series,
    convolve,
    fourier_coeff,
    plancherel_norm,
    series_from_json,
    series_to_json,
    synthesize,
    synthesize_many,
)
from liecheck.models import MonteCarlo, exp_i, haar_sample, irrep_matrices, rep_matrices, su2_character
from liecheck.rootdata import dimension, weight


def random_series(dynkins, rng, space="L2K", t=1.0):
    terms = {dn: rng.normal(size=(dn[0] + 1, dn[0] + 1))
             + 1j * rng.normal(size=(dn[0] + 1, dn[0] + 1)) for dn in dynkins}
    return FourierSeries("A1", space, t, terms)


def test_coeff_of_character_is_scaled_identity(su2):
    coeff, sem = fourier_coeff(su2, lambda xs: su2_character(1, xs).astype(complex),
                               (1,), MonteCarlo(60_000, 2))
    assert np.all(np.abs(coeff - np.eye(2) / 2.0) <= 3.5 * sem + 1e-12)


def test_coeff_cross_character_vanishes(su2):
    coeff, sem = fourier_coeff(su2, lambda xs: su2_character(2, xs).astype(complex),
                               (1,), MonteCarlo(60_000, 3))
    assert np.all(np.abs(coeff) <= 3.5 * sem + 1e-12)


def test_coeff_constant_function(su2):
    coeff, sem = fourier_coeff(su2, lambda xs: np.ones(len(xs), complex),
                               (0,), MonteCarlo(1_000, 4))
    assert abs(coeff[0, 0] - 1.0) < 1e-13
    assert sem.max() < 1e-13


def test_synthesize_constants(su2):
    one = FourierSeries("A1", "L2K", 1.0, {(0,): np.ones((1, 1))})
    x = haar_sample(su2, 5)
    assert abs(synthesize(one, su2, x) - 1.0) < 1e-14
    chi = character_series("A1", (1,), "L2K", 1.0)
    assert abs(synthesize(chi, su2, x) - su2_character(1, x)) < 1e-12


def test_synthesize_holomorphic_polar_point(a1, su2):
    # the same coefficients represent the extension: at (e, Y) the character
    # series synthesizes to the continued character
    from liecheck.chars import CartanPoint, weyl_char_holo
    from liecheck.rootdata import weight as mk_weight

    theta = 0.35
    Y = CartanPoint.from_a1_theta(theta)
    for n in (1, 3):
        chi = character_series("A1", (n,), "HL2", 1.0)
        val = synthesize(chi, su2, np.eye(2), Y)
        expected = weyl_char_holo(a1, mk_weight(a1, (n,)), Y)
        assert abs(val - expected) < 1e-12 * expected
    # full algebra coordinates: a conjugate of the Cartan point gives the
    # same value at x = e up to the conjugating rotation of x
    chi = character_series("A1", (2,), "HL2", 1.0)
    val = synthesize(chi, su2, np.eye(2), np.array([0.0, np.sqrt(2.0) * theta, 0.0]))
    expected = weyl_char_holo(a1, mk_weight(a1, (2,)), Y)
    assert abs(val - expected) < 1e-12 * expected


def test_synthesize_many_holomorphic_matches_per_point_loop(su2):
    rng = np.random.default_rng(14)
    series = random_series([(0,), (1,), (2,), (4,)], rng, space="HL2")
    xs = haar_sample(su2, rng, 30)
    for Y in (np.array([0.6]), rng.normal(0.0, 0.7, size=3)):
        batched = synthesize_many(series, su2, xs, Y)
        loop = [
            sum((dn[0] + 1) * np.trace(coeff @ rep_matrices(irrep_matrices(dn[0]), x)
                                       @ rep_matrices(irrep_matrices(dn[0]), exp_i(Y)))
                for dn, coeff in series.terms.items())
            for x in xs
        ]
        assert np.abs(batched - np.array(loop)).max() < 1e-12 * np.abs(batched).max()
        assert np.array_equal(batched, [synthesize(series, su2, x, Y) for x in xs])


def test_roundtrip_band_limited(su2):
    rng = np.random.default_rng(6)
    target = random_series([(0,), (1,), (2,)], rng)

    def f(xs):
        return synthesize_many(target, su2, xs)

    recovered = {}
    var_point = 0.0  # independent coefficient errors propagate to the point values
    for dn in target.terms:
        est, sem = fourier_coeff(su2, f, dn, MonteCarlo(60_000, 7))
        assert np.all(np.abs(est - target.terms[dn]) <= 4 * sem + 1e-12)
        recovered[dn] = est
        var_point += (dn[0] + 1) * float(np.sum(sem**2))
    sigma_point = np.sqrt(var_point)
    series = FourierSeries("A1", "L2K", 1.0, recovered)
    xs = haar_sample(su2, 8, 100)
    dev = np.abs(synthesize_many(series, su2, xs) - synthesize_many(target, su2, xs))
    assert np.all(dev <= 3 * sigma_point)


def test_convolution_of_characters(su2, a1):
    chi = character_series("A1", (2,), "L2K", 1.0)
    conv = convolve(chi, chi)
    assert np.abs(conv.terms[(2,)] - np.eye(3) / 9.0).max() < 1e-15
    # convolving with the constant annihilates the nontrivial terms
    rng = np.random.default_rng(9)
    a = random_series([(0,), (1,), (2,)], rng)
    one = FourierSeries("A1", "L2K", 1.0, {(0,): np.ones((1, 1))})
    assert set(convolve(a, one).terms) == {(0,)}


def test_convolution_order_against_integral(su2):
    # the coefficient product order is locked by the direct double average
    rng = np.random.default_rng(10)
    a = random_series([(1,)], rng)
    b = random_series([(1,)], rng)
    ab = convolve(a, b)
    assert np.abs(ab.terms[(1,)] - b.terms[(1,)] @ a.terms[(1,)]).max() < 1e-15
    q = haar_sample(su2, rng)
    xs = haar_sample(su2, rng, 200_000)
    a_vals = synthesize_many(a, su2, xs)
    b_vals = synthesize_many(b, su2, np.einsum("nij,jk->nik", np.conj(np.swapaxes(xs, 1, 2)), q))
    prods = a_vals * b_vals
    sem = np.sqrt(prods.real.var(ddof=1) + prods.imag.var(ddof=1)) / np.sqrt(len(xs))
    assert abs(prods.mean() - synthesize(ab, su2, q)) < 3 * sem
    # the reversed coefficient order is wrong by a distinguishable margin
    wrong = FourierSeries("A1", "L2K", 1.0, {(1,): a.terms[(1,)] @ b.terms[(1,)]})
    assert abs(prods.mean() - synthesize(wrong, su2, q)) > 5 * sem


def test_pairing_at_identity(su2, a1):
    rng = np.random.default_rng(11)
    f = random_series([(0,), (1,)], rng)
    h = random_series([(1,), (2,)], rng)
    val = synthesize(convolve(f, h), su2, np.eye(2))
    spec = sum(
        dimension(a1, weight(a1, dn)) * np.trace(h.terms[dn] @ f.terms[dn])
        for dn in f.terms if dn in h.terms
    )
    assert abs(val - spec) < 1e-10 * max(1.0, abs(spec))


def test_plancherel_norms(a1, su2):
    chi = character_series("A1", (3,), "L2K", 1.0)
    assert abs(plancherel_norm(chi) - 1.0) < 1e-14
    hl2 = FourierSeries("A1", "HL2", 1.0, {(0,): np.ones((1, 1))})
    assert abs(plancherel_norm(hl2) - np.pi**1.5 * np.exp(0.5)) < 1e-12
    assert plancherel_norm(FourierSeries("A1", "L2K", 1.0, {})) == 0.0


def test_plancherel_matches_haar_average(su2):
    rng = np.random.default_rng(12)
    series = random_series([(0,), (1,), (2,)], rng)
    xs = haar_sample(su2, rng, 200_000)
    vals = np.abs(synthesize_many(series, su2, xs)) ** 2
    sem = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - plancherel_norm(series)) < 3 * sem


def test_json_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    series = random_series([(0,), (2,)], rng, space="HL2", t=0.5)
    data = series_to_json(series)
    assert data["group"] == "A1" and data["space"] == "HL2" and data["t"] == 0.5
    assert [e["dynkin"] for e in data["terms"]] == [[0], [2]]
    clone = series_from_json(data)
    for dn in series.terms:
        assert np.abs(clone.terms[dn] - series.terms[dn]).max() == 0.0
    from liecheck.fourier import load_series, save_series

    path = tmp_path / "series.json"
    save_series(path, series)
    clone2 = load_series(path)
    assert np.abs(clone2.terms[(2,)] - series.terms[(2,)]).max() == 0.0


def test_series_validation():
    with pytest.raises(ValueError):
        FourierSeries("A1", "L2K", 1.0, {(1,): np.zeros((3, 3))})
    with pytest.raises(ValueError):
        FourierSeries("A1", "nowhere", 1.0, {})
    a = character_series("A1", (1,), "L2K", 1.0)
    b = character_series("A1", (1,), "HL2", 1.0)
    with pytest.raises(ValueError):
        convolve(a, b)
