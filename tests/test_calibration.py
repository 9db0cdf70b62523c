import importlib.util
import math
from pathlib import Path
from statistics import NormalDist

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "calibration", Path(__file__).resolve().parents[1] / "tools" / "calibration.py")
calibration = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(calibration)


def half_normal_quantile(q):
    return NormalDist().inv_cdf((1.0 + q) / 2.0)


def complex_modulus_quantile(q):
    return math.sqrt(-math.log1p(-q))


@pytest.mark.parametrize("ks, quantile", [
    (calibration.ks_half_normal, half_normal_quantile),
    (calibration.ks_complex_modulus, complex_modulus_quantile),
])
def test_ks_distances_of_samples_at_known_quantiles(ks, quantile):
    n = 40
    # the midpoints (i + 1/2)/n of the empirical steps: distance 1/(2n)
    assert ks([quantile((i + 0.5) / n) for i in range(n)]) == pytest.approx(0.5 / n, abs=1e-12)
    # every point at the top of its step: distance 1/n
    assert ks([quantile(i / n) for i in range(n)]) == pytest.approx(1.0 / n, abs=1e-12)
    # every point at the lower quartile: distance 3/4
    assert ks([quantile(0.25)] * n) == pytest.approx(0.75, abs=1e-12)


def test_each_law_sees_the_other_at_a_known_distance():
    # the half-normal median read against 1 - e^{-z^2}, and back
    z = half_normal_quantile(0.5)
    assert calibration.ks_complex_modulus([z]) == pytest.approx(
        max(calibration.complex_modulus_cdf(z), 1.0 - calibration.complex_modulus_cdf(z)))
    z = complex_modulus_quantile(0.5)
    assert calibration.ks_half_normal([z]) == pytest.approx(
        max(calibration.half_normal_cdf(z), 1.0 - calibration.half_normal_cdf(z)))


def test_complex_rows_take_the_complex_modulus_law():
    assert calibration.COMPLEX_ROWS == {
        "bks/spectral-vs-integral-random", "convolution/mc-crosscheck", "fourier/coeff-diagonal"}
    for cid in calibration.COMPLEX_ROWS:
        assert calibration.reference_cdf(cid) is calibration.complex_modulus_cdf
    assert calibration.reference_cdf("plancherel/l2k-chi-norm") is calibration.half_normal_cdf
