"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here and match the verification contract; the
statistical checks are gated at 3 sigma with explicit seeds.
"""

import time

import numpy as np

from liecheck import chars, fourier, heat, hilbert
from liecheck.checks import (
    cartesian_monte_carlo,
    chamber_integral,
    character_pairing,
    closed_form_a1_residuals,
    energy_positivity,
    eta_det_residual,
    hl2_char_norm,
    invariant_test_functions,
    inverse_composition_deviation,
    j_half_residual,
    pointwise_transform_deviation,
    random_series,
    series_deviation,
    stat_row,
)
from liecheck.models import MonteCarlo, build_group_model, haar_mean, haar_sample, su2_character
from liecheck.quadrature import default_order, flag_volume, flag_volume_from_gaussian
from liecheck.rootdata import build_root_system, enumerate_dominant, weight

A1 = build_root_system("A1")
A2 = build_root_system("A2")
T1 = build_root_system("T1")
SU2 = build_group_model("SU2")
SU3 = build_group_model("SU3")


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} ({label}) {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_01_holomorphic_norm_constants():
    t0 = time.perf_counter()
    worst_a1 = 0.0
    for t in (0.5, 1.0, 2.0):
        for n in range(7):
            chk = hilbert.verify_norm_identity(A1, weight(A1, (n,)), t, "C", 64)
            worst_a1 = max(worst_a1, chk.rel_err)
    dt_a1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    worst_a2 = 0.0
    for lam in enumerate_dominant(A2, 2):
        chk = hilbert.verify_norm_identity(A2, lam, 1.0, "C", 96)
        worst_a2 = max(worst_a2, chk.rel_err)
    dt_a2 = time.perf_counter() - t0
    ok = worst_a1 <= 1e-8 and dt_a1 < 1.0 and worst_a2 <= 1e-6 and dt_a2 < 30.0
    _report(1, "holomorphic norm constants", ok,
            f"A1 rel {worst_a1:.2e} in {dt_a1:.2f}s; A2 rel {worst_a2:.2e} in {dt_a2:.2f}s")


def test_criterion_02_pairing_constants():
    worst_a1 = 0.0
    for t in (0.5, 1.0, 2.0):
        for n in range(7):
            chk = hilbert.verify_norm_identity(A1, weight(A1, (n,)), t, "D", 64)
            worst_a1 = max(worst_a1, chk.rel_err)
    worst_a2 = 0.0
    for lam in enumerate_dominant(A2, 2):
        chk = hilbert.verify_norm_identity(A2, lam, 1.0, "D", 96)
        worst_a2 = max(worst_a2, chk.rel_err)
    # pointwise: the integral transform of a character is D times the character
    xs = haar_sample(SU2, np.random.default_rng(202), 20)
    worst_pt = pointwise_transform_deviation(A1, SU2, 1.0, xs)
    ok = worst_a1 <= 1e-8 and worst_a2 <= 1e-6 and worst_pt <= 1e-6
    _report(2, "pairing constants", ok,
            f"A1 rel {worst_a1:.2e}; A2 rel {worst_a2:.2e}; pointwise rel {worst_pt:.2e}")


def test_criterion_03_orbit_character_identity():
    rng = np.random.default_rng(303)
    worst = max(closed_form_a1_residuals(A1, SU2, rng, 100))
    ok = worst <= 1e-12
    sig_worst = 0.0
    for i, dn in enumerate([(1, 0), (0, 1), (1, 1), (2, 2)]):
        lam = weight(A2, dn)
        Y = rng.normal(0.0, 0.5, size=2)
        for j, half in enumerate((False, True)):
            lhs, rhs = chars.kirillov_sides(SU3, lam, Y,
                                            MonteCarlo(100_000, 1000 + 10 * i + j),
                                            half_angle=half)
            sig_worst = max(sig_worst, abs(lhs - rhs.value) / rhs.stderr)
    ok = ok and sig_worst <= 3.0
    _report(3, "orbit-method character identity", ok,
            f"A1 closed-form scaled residual {worst:.2e}; A2 MC worst {sig_worst:.2f} sigma")


def test_criterion_04_chamber_reduction_formula():
    sig_worst = 0.0
    count = 0
    for rs, model in ((A1, SU2), (A2, SU3)):
        # the verify suite's 20 integrands per group; at t = 1 each tg is its
        # narrowing factor exactly
        for case in invariant_test_functions(rs, 1.0):
            count += 1
            val = chamber_integral(rs, case, default_order(rs.rank))
            est = cartesian_monte_carlo(rs, model, case, MonteCarlo(1_000_000, 4000 + count))
            sig_worst = max(sig_worst, abs(est.value - val) / est.stderr)
    # the flag volume by the chamber rule of the Gaussian vs Mehta's integral
    flag_dev = max(abs(flag_volume_from_gaussian(rs) - flag_volume(rs)) / flag_volume(rs)
                   for rs in (A1, A2))
    ok = sig_worst <= 3.0 and count == 40 and flag_dev <= 1e-12
    _report(4, "chamber reduction formula", ok,
            f"worst of {count} integrands {sig_worst:.2f} sigma; flag volume rel {flag_dev:.1e}")


def test_criterion_05_density_consistency():
    rng = np.random.default_rng(505)
    worst_eta = 0.0
    worst_j = 0.0
    for rs, model in ((A1, SU2), (A2, SU3)):
        coords = rng.normal(0.0, 0.8, size=(100, model.dim_k))
        worst_eta = max(worst_eta, eta_det_residual(rs, model, coords))
        worst_j = max(worst_j, j_half_residual(rs, rng.normal(0.0, 0.8, size=(100, rs.rank))))
    ok = worst_eta <= 1e-10 and worst_j <= 1e-13
    _report(5, "half-form density consistency", ok,
            f"product-vs-determinant {worst_eta:.2e}; half-argument identity {worst_j:.2e}")


def test_criterion_06_fourier_plancherel():
    rng = np.random.default_rng(606)
    dynkins = [(n,) for n in range(5)]  # spins <= 2
    target = random_series("A1", "L2K", 1.0, dynkins, rng)

    def f(xs):
        return fourier.synthesize_many(target, SU2, xs)

    recovered = {}
    var_point = 0.0
    for k, dn in enumerate(dynkins):
        est, sem = fourier.fourier_coeff(SU2, f, dn, MonteCarlo(100_000, 6000 + k))
        recovered[dn] = est
        var_point += (dn[0] + 1) * float(np.sum(sem**2))
    series = fourier.FourierSeries("A1", "L2K", 1.0, recovered)
    xs = haar_sample(SU2, rng, 100)
    dev = np.abs(fourier.synthesize_many(series, SU2, xs)
                 - fourier.synthesize_many(target, SU2, xs))
    roundtrip_ok = bool(np.all(dev <= 3.0 * np.sqrt(var_point)))
    # squared norm of each character is 1
    xs = haar_sample(SU2, rng, 200_000)
    norm_ok = True
    for n in (1, 2):
        mean, sem = haar_mean(lambda x, n=n: np.abs(su2_character(n, x)) ** 2, xs, None)
        norm_ok = norm_ok and abs(mean - 1.0) <= 3 * sem
    # holomorphic norms equal the closed-form constants
    hl2_worst = 0.0
    for n in range(5):
        norm, quad = hl2_char_norm(A1, weight(A1, (n,)), 1.0, 64)
        hl2_worst = max(hl2_worst, abs(norm - quad) / quad)
    ok = roundtrip_ok and norm_ok and hl2_worst <= 1e-8
    _report(6, "Fourier synthesis and Plancherel", ok,
            f"roundtrip max dev {dev.max():.3f} vs 3sigma {3*np.sqrt(var_point):.3f}; "
            f"HL2 norm rel {hl2_worst:.2e}")


def test_criterion_07_convolution_homomorphism():
    rng = np.random.default_rng(707)
    a = random_series("A1", "L2K", 1.0, [(0,), (1,)], rng)
    b = random_series("A1", "L2K", 1.0, [(1,), (2,)], rng)
    ab = fourier.convolve(a, b)
    xs = haar_sample(SU2, rng, 400_000)
    a_vals = fourier.synthesize_many(a, SU2, xs)
    xinv = np.conj(np.swapaxes(xs, 1, 2))

    def convolution_mean(f_vals, h, q):
        """Monte-Carlo mean and standard error of f(x) h(x^-1 q), f given by its values at xs."""
        return haar_mean(
            lambda xi, fv: fv * fourier.synthesize_many(h, SU2, np.einsum("nij,jk->nik", xi, q)),
            (xinv, f_vals), None)

    sig_worst = 0.0
    for q in haar_sample(SU2, rng, 5):
        mean, sem = convolution_mean(a_vals, b, q)
        sig_worst = max(sig_worst, abs(mean - fourier.synthesize(ab, SU2, q)) / sem)
    # chi * chi = chi / d, via the direct double average
    chi = fourier.character_series("A1", (1,), "L2K", 1.0)
    chi_vals = fourier.synthesize_many(chi, SU2, xs)
    for q in haar_sample(SU2, rng, 3):
        mean, sem = convolution_mean(chi_vals, chi, q)
        sig_worst = max(sig_worst, abs(mean - su2_character(1, q) / 2.0) / sem)
    ok = sig_worst <= 3.0
    _report(7, "convolution homomorphism", ok, f"worst deviation {sig_worst:.2f} sigma")


def test_criterion_08_unitary_dictionary():
    worst_ratio = 0.0
    for rs in (A1, A2, T1):
        for t in (0.5, 1.0, 2.0):
            for lam in enumerate_dominant(rs, 4 if rs.rank == 1 else 2):
                worst_ratio = max(worst_ratio, hilbert.ratio_defect(rs, lam, t))
    rng = np.random.default_rng(808)
    worst_norm = worst_inv = 0.0
    for t in (0.5, 1.0):
        s = random_series("A1", "HL2", t, [(n,) for n in range(4)], rng)
        h = hilbert.transform_apply(s, "H")
        worst_norm = max(worst_norm, abs(fourier.plancherel_norm(h) - fourier.plancherel_norm(s))
                         / fourier.plancherel_norm(s))
        worst_inv = max(worst_inv, inverse_composition_deviation(s, h))
    sig_worst = 0.0
    for k, n in enumerate((0, 1, 2)):
        spec, integ = character_pairing(n, 1.0, MonteCarlo(3000, 8080 + k))
        row = stat_row(f"bks/spectral-vs-integral-{n}", integ.value, spec.value, integ.stderr)
        sig_worst = max(sig_worst, row.sigma_distance)
    ok = worst_ratio <= 1e-12 and worst_norm <= 1e-12 and worst_inv <= 1e-12 and sig_worst <= 3.0
    _report(8, "unitary dictionary", ok,
            f"ratio {worst_ratio:.1e}; norm {worst_norm:.1e}; inverse {worst_inv:.1e}; "
            f"pairing {sig_worst:.2f} sigma")


def test_criterion_09_heat_multiplier():
    rng = np.random.default_rng(909)
    worst_adj = worst_semi = 0.0
    dynkins = [(n,) for n in range(5)]
    for t in (0.5, 1.0, 2.0):
        s = random_series("A1", "L2K", t, dynkins, rng)
        mult = heat.heat_multiplier_apply(s, t, include_prefactor=True)
        adj = hilbert.transform_apply(s, "ThetaStar")
        worst_adj = max(worst_adj, series_deviation(mult.terms, adj.terms, adj.terms))
        one = heat.heat_multiplier_apply(heat.heat_multiplier_apply(s, 0.3), 0.45)
        two = heat.heat_multiplier_apply(s, 0.75)
        # relative to the input series, not to either side
        worst_semi = max(worst_semi, series_deviation(one.terms, two.terms, s.terms))
    series = random_series("A1", "L2K", 1.0, dynkins, rng)
    # polar rule exact for 11 kernel terms at t = 1 and bands <= 4: 8 nodes
    conv = heat.heat_convolution_residual(SU2, series, 1.0, haar_sample(SU2, rng, 10), 8)
    conv_ok = conv <= 1e-12
    pos_ok = all(
        energy_positivity([heat.energy_eigenvalue(rs, lam) for lam in enumerate_dominant(rs, level)])
        for rs, level in ((A1, 6), (A2, 3)))
    ok = worst_adj <= 1e-13 and worst_semi <= 1e-13 and conv_ok and pos_ok
    _report(9, "heat multiplier", ok,
            f"adjoint {worst_adj:.1e}; semigroup {worst_semi:.1e}; "
            f"convolution {conv:.1e}")


def test_criterion_10_open_constants():
    worst_stab = 0.0
    for n in range(5):
        est = hilbert.naive_constant(A1, weight(A1, (n,)), 1.0, 64)
        worst_stab = max(worst_stab, est.stderr / est.value)
    worst_torus = 0.0
    for n in range(5):
        lam = weight(T1, (n,))
        est = hilbert.naive_constant(T1, lam, 1.0, 64)
        C = hilbert.c_constant(T1, lam, 1.0)
        worst_torus = max(worst_torus, abs(est.value - C) / C)
    ok = worst_stab <= 1e-8 and worst_torus <= 1e-12
    _report(10, "density-free constants", ok,
            f"order-doubling stability {worst_stab:.2e}; torus degeneracy {worst_torus:.2e}")
