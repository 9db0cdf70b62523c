import numpy as np
import pytest

from liecheck.fourier import FourierSeries, character_series
from liecheck.heat import (
    _truncation,
    energy_eigenvalue,
    heat_convolution_residual,
    heat_kernel_eval,
    heat_multiplier_apply,
)
from liecheck.hilbert import transform_apply
from liecheck.models import haar_sample, su2_character
from liecheck.rootdata import build_root_system, enumerate_dominant, weight


def reference_heat_kernel(t, x, cutoff):
    """Term-by-term heat kernel: (value, term count, first omitted bound)."""
    rs = build_root_system("A1")
    total = np.zeros(np.shape(x)[:-2])
    n = 0
    while True:
        eps = energy_eigenvalue(rs, weight(rs, (n,)))
        bound = (n + 1) ** 2 * np.exp(-t * eps / 2.0)
        if bound < cutoff:
            return total, n, float(bound)
        if n >= 10_000:
            raise ValueError("t too small for cutoff")
        total = total + (n + 1) * np.exp(-t * eps / 2.0) * su2_character(n, x)
        n += 1


def random_series(dynkins, rng, space="L2K", t=1.0):
    terms = {dn: rng.normal(size=(dn[0] + 1, dn[0] + 1))
             + 1j * rng.normal(size=(dn[0] + 1, dn[0] + 1)) for dn in dynkins}
    return FourierSeries("A1", space, t, terms)


def test_energy_eigenvalues(a1, a2):
    assert energy_eigenvalue(a1, weight(a1, (0,))) == 0.0
    assert abs(energy_eigenvalue(a1, weight(a1, (1,))) - 1.5) < 1e-14
    for n in range(8):
        j = n / 2.0
        assert abs(energy_eigenvalue(a1, weight(a1, (n,))) - 2 * j * (j + 1)) < 1e-12
    assert energy_eigenvalue(a2, weight(a2, (0, 0))) == 0.0


def test_energy_positivity(a1, a2, t2):
    for rs in (a1, a2):
        eps = [energy_eigenvalue(rs, lam) for lam in enumerate_dominant(rs, 4)]
        assert eps[0] == 0.0
        assert all(e > 0 for e in eps[1:])


def test_multiplier_identity_at_zero_time():
    rng = np.random.default_rng(1)
    s = random_series([(0,), (1,)], rng)
    out = heat_multiplier_apply(s, 0.0)
    for dn in s.terms:
        assert np.abs(out.terms[dn] - s.terms[dn]).max() == 0.0


def test_prefactor_form_matches_adjoint_transform(a1):
    rng = np.random.default_rng(2)
    for t in (0.5, 1.0, 2.0):
        s = random_series([(0,), (1,), (2,)], rng, t=t)
        mult = heat_multiplier_apply(s, t, include_prefactor=True)
        adj = transform_apply(s, "ThetaStar")
        assert mult.space == "HL2"
        for dn in s.terms:
            scale = np.abs(adj.terms[dn]).max()
            assert np.abs(mult.terms[dn] - adj.terms[dn]).max() <= 1e-13 * scale


def test_trivial_term_is_fixed():
    rng = np.random.default_rng(3)
    s = random_series([(0,)], rng)
    out = heat_multiplier_apply(s, 1.7)
    assert np.abs(out.terms[(0,)] - s.terms[(0,)]).max() == 0.0


def test_semigroup():
    rng = np.random.default_rng(4)
    s = random_series([(0,), (1,), (2,)], rng)
    one = heat_multiplier_apply(heat_multiplier_apply(s, 0.4), 0.35)
    two = heat_multiplier_apply(s, 0.75)
    for dn in s.terms:
        assert np.abs(one.terms[dn] - two.terms[dn]).max() <= 1e-13 * np.abs(s.terms[dn]).max()


def test_multiplier_commutes_with_dictionary(a1):
    rng = np.random.default_rng(5)
    s = random_series([(0,), (1,), (2,)], rng, space="HL2")
    a = heat_multiplier_apply(transform_apply(s, "H"), 0.8)
    b = transform_apply(heat_multiplier_apply(s, 0.8), "H")
    for dn in s.terms:
        assert np.abs(a.terms[dn] - b.terms[dn]).max() <= 1e-13 * np.abs(a.terms[dn]).max()


def test_heat_kernel_normalization(su2):
    xs = haar_sample(su2, 6, 50_000)
    vals, _ = heat_kernel_eval(su2, 1.0, xs)
    sem = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - 1.0) <= 3 * sem


def test_heat_kernel_symmetry(su2):
    xs = haar_sample(su2, 7, 200)
    v, _ = heat_kernel_eval(su2, 1.0, xs)
    v_inv, _ = heat_kernel_eval(su2, 1.0, np.conj(np.swapaxes(xs, 1, 2)))
    assert np.abs(v - v_inv).max() < 1e-10


def test_heat_kernel_truncation_stability(su2):
    v1, bound1 = heat_kernel_eval(su2, 1.0, np.eye(2), cutoff=1e-12)
    v2, _ = heat_kernel_eval(su2, 1.0, np.eye(2), cutoff=1e-13)
    assert abs(v1 - v2) < 1e-10
    assert bound1 < 1e-12
    # refused from the bound alone, before x is read
    with pytest.raises(ValueError, match="t too small for cutoff"):
        heat_kernel_eval(su2, 1e-9, "not a group element", cutoff=1e-300)


def test_heat_kernel_matches_term_by_term_reference(su2):
    xs = haar_sample(su2, 12, 100)
    for t in (0.02, 0.1, 0.5, 1.0, 3.0, 40.0):
        for cutoff in (1e-3, 1e-12, 1e-16, 1e-40, 2.0):
            ref, n_terms, ref_bound = reference_heat_kernel(t, xs, cutoff)
            decay, bound = _truncation(t, cutoff)
            assert (len(decay), bound) == (n_terms, ref_bound)
            vals, bound = heat_kernel_eval(su2, t, xs, cutoff)
            assert np.array_equal(vals, ref) and bound == ref_bound
    with pytest.raises(ValueError):
        _truncation(1e-6, 1e-12)


def test_heat_convolution_constant(su2):
    one = FourierSeries("A1", "L2K", 1.0, {(0,): np.ones((1, 1))})
    est = heat_convolution_residual(su2, one, 1.0, 20_000, 8)
    assert est.value <= 3 * est.stderr + 1e-12


def test_heat_convolution_character(su2, a1):
    chi = character_series("A1", (1,), "L2K", 1.0)
    flowed = heat_multiplier_apply(chi, 1.0)
    # multiplier on the n = 1 term is e^{-3/4}
    assert abs(flowed.terms[(1,)][0, 0] * 2.0 - np.exp(-0.75)) < 1e-14
    est = heat_convolution_residual(su2, chi, 1.0, 200_000, 9)
    assert est.value <= 3 * est.stderr


def test_heat_convolution_band_limited(su2):
    rng = np.random.default_rng(10)
    series = random_series([(0,), (1,), (2,), (3,), (4,)], rng)
    est = heat_convolution_residual(su2, series, 1.0, 200_000, 11)
    assert est.value <= 3 * est.stderr
