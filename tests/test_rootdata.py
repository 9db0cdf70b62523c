import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from liecheck import chars, heat, hilbert, rootdata
from liecheck.fourier import FourierSeries, plancherel_norm
from liecheck.models import algebra_coords, cartan_element
from liecheck.rootdata import (build_root_system, dimension, enumerate_dominant, is_dominant,
                               weight, weight_inner)


def test_a1_data(a1):
    assert a1.rank == 1
    assert a1.dim_k == 3
    alpha = a1.positive_roots[0]
    assert abs(alpha @ alpha - 2.0) < 1e-14
    assert np.allclose(a1.rho, alpha / 2.0, atol=1e-14)
    assert abs(weight_inner(a1, a1.rho, a1.rho) - 0.5) < 1e-14


def test_a1_root_bracket_oracle(a1, su2):
    # [Z, E] = i alpha(Z) E on 2x2 matrices, E spanning the raising direction
    E = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    y = 0.83
    Z = cartan_element(su2, np.array([y]))
    bracket = Z @ E - E @ Z
    ratio = bracket[0, 1] / (1j * E[0, 1])
    assert abs(ratio - a1.positive_roots[0][0] * y) < 1e-13


def test_a2_data(a2):
    assert a2.rank == 2
    assert len(a2.positive_roots) == 3
    assert a2.dim_k == 8
    assert abs(weight_inner(a2, a2.rho, a2.rho) - 2.0) < 1e-13
    for alpha in a2.positive_roots:
        assert abs(alpha @ alpha - 2.0) < 1e-13


def test_a2_ad_eigenvalue_oracle(a2, su3):
    # spectrum of ad(Y) is {+-i<alpha, Y>} plus rank zeros
    rng = np.random.default_rng(3)
    yc = rng.normal(size=2)
    Y = cartan_element(su3, yc)
    basis = su3.ad_basis
    brackets = Y[None] @ basis - basis @ Y[None]
    ad = algebra_coords(su3, brackets).T
    w = np.sort(np.linalg.eigvalsh(1j * ad))
    pair = a2.positive_roots @ yc
    expected = np.sort(np.concatenate([pair, -pair, [0.0, 0.0]]))
    assert np.abs(w - expected).max() < 1e-12


def test_torus_data(t2):
    assert t2.rank == 2
    assert t2.dim_k == 2
    assert len(t2.positive_roots) == 0
    assert np.allclose(t2.rho, 0.0)
    assert t2.n_weyl == 1


def test_rho_is_half_sum(a1, a2):
    for rs in (a1, a2):
        assert np.abs(rs.rho - 0.5 * rs.positive_roots.sum(axis=0)).max() < 1e-14


def test_weyl_group_counts(a1, a2, t2):
    assert a1.n_weyl == 2
    assert a2.n_weyl == 6
    assert t2.n_weyl == 1
    assert sorted(a1.weyl_signs) == [-1, 1]
    assert sorted(a2.weyl_signs) == [-1, -1, -1, 1, 1, 1]


def test_weyl_elements_permute_roots_and_preserve_inner(a2):
    full = np.vstack([a2.positive_roots, -a2.positive_roots])
    for w, s in zip(a2.weyl_elements, a2.weyl_signs):
        assert abs(abs(np.linalg.det(w)) - 1.0) < 1e-14
        assert int(round(np.linalg.det(w))) == s
        assert np.abs(w @ w.T - np.eye(2)).max() < 1e-14
        mapped = full @ w.T
        for v in mapped:
            assert min(np.linalg.norm(full - v, axis=1)) < 1e-12


def test_enumerate_dominant(a1, a2):
    assert [w.dynkin for w in enumerate_dominant(a1, 2)] == [(0,), (1,), (2,)]
    assert [w.dynkin for w in enumerate_dominant(a1, 0)] == [(0,)]
    assert [w.dynkin for w in enumerate_dominant(a2, 1)] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_every_torus_weight_is_dominant(a1):
    # a torus's Weyl group is trivial: (-2,) on T1 is the mirror of (2,)
    t1 = build_root_system("T1")
    neg, pos = weight(t1, (-2,)), weight(t1, (2,))
    assert is_dominant(t1, neg) and not is_dominant(a1, weight(a1, (-2,)))
    assert dimension(t1, neg) == dimension(t1, pos) == 1
    assert hilbert.c_constant(t1, neg, 0.7) == hilbert.c_constant(t1, pos, 0.7)
    assert hilbert.d_constant(t1, neg, 0.7) == hilbert.d_constant(t1, pos, 0.7)
    assert heat.energy_eigenvalue(t1, neg) == heat.energy_eigenvalue(t1, pos) == 4.0
    norms = [plancherel_norm(FourierSeries("T1", "HL2", 0.7, {dn: np.ones((1, 1))}))
             for dn in ((-2,), (2,))]
    assert norms[0] == norms[1] == hilbert.c_constant(t1, pos, 0.7)


def test_dimension_examples(a1, a2):
    assert dimension(a1, weight(a1, (3,))) == 4
    assert dimension(a2, weight(a2, (1, 0))) == 3
    assert dimension(a2, weight(a2, (1, 1))) == 8


def test_dimension_matches_character_limit(a1, a2):
    # extrapolated value of the continued character at Y = 0
    for rs in (a1, a2):
        origin = np.zeros(rs.rank)
        for lam in enumerate_dominant(rs, 4):
            d = dimension(rs, lam)
            val = chars.weyl_char_holo(rs, lam, origin)
            assert abs(val - d) < 1e-6


def test_weight_inner_examples(a1, t2):
    lam1 = weight(a1, (1,))
    lr = lam1.coords + a1.rho
    assert abs(weight_inner(a1, lr, lr) - 2.0) < 1e-13
    assert weight_inner(t2, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_weight_coords_consistency(a2):
    for lam in enumerate_dominant(a2, 3):
        rebuilt = np.asarray(lam.dynkin, float) @ a2.fundamental_weights
        assert np.abs(rebuilt - lam.coords).max() < 1e-14


def test_weyl_invariance_of_shifted_norm(a2):
    for lam in enumerate_dominant(a2, 3):
        lr = lam.coords + a2.rho
        n0 = lr @ lr
        for w in a2.weyl_elements:
            v = w @ lr
            assert abs(v @ v - n0) < 1e-12


def test_rho_coroot_pairing(a1, a2):
    for rs in (a1, a2):
        for alpha in rs.positive_roots[: rs.rank]:
            coroot = 2.0 * alpha / (alpha @ alpha)
            assert abs(rs.rho @ coroot - 1.0) < 1e-12


def test_errors():
    with pytest.raises(ValueError):
        build_root_system("B2")
    # a torus rank is 1 to 99 in ASCII digits, with nothing after it
    for kind in ("T0", "T01", "T100", "T\u00b2", "T\u0661", "T1\n"):
        with pytest.raises(ValueError):
            build_root_system(kind)
    assert build_root_system("T99").rank == 99
    a1 = build_root_system("A1")
    with pytest.raises(ValueError):
        dimension(a1, weight(a1, (-1,)))
    with pytest.raises(ValueError):
        weight(a1, (1, 2))
    with pytest.raises(ValueError):
        weight_inner(a1, np.array([1.0, 0.0]), np.array([1.0, 0.0]))


def test_rootdata_imports_no_other_liecheck_module():
    # the package's __init__ imports every module, so the fresh interpreter
    # registers a bare package object and imports rootdata alone through it
    code = (
        "import sys, types\n"
        "pkg = types.ModuleType('liecheck')\n"
        "pkg.__path__ = [sys.argv[1]]\n"
        "sys.modules['liecheck'] = pkg\n"
        "import liecheck.rootdata\n"
        "print(sorted(m for m in sys.modules if m.startswith('liecheck')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(Path(rootdata.__file__).parent)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "['liecheck', 'liecheck.rootdata']"
