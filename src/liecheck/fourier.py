"""Matrix-valued Fourier analysis of representative functions.

A FourierSeries is a finite map from dominant weights (Dynkin tuples) to
square coefficient matrices, tagged with the Hilbert space it lives in:
"L2K" for the compact picture with normalized Haar measure, "HL2" for the
holomorphic picture with the Gaussian half-form measure at parameter t.
The represented function is f(x) = sum_lam d_lam tr(coeff_lam T_lam(x)),
and the same coefficients represent the holomorphic extension.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .hilbert import c_constant
from .models import (
    GroupModel,
    _condon_shortley_ratio,
    _rep_planes,
    exp_i,
    haar_mean,
    haar_nodes,
    mul2x2,
)
from .rootdata import build_root_system, dimension, weight

__all__ = [
    "FourierSeries",
    "character_series",
    "convolve",
    "fourier_coeff",
    "load_series",
    "plancherel_norm",
    "save_series",
    "series_from_json",
    "series_to_json",
    "synthesize",
    "synthesize_many",
]


@dataclass(eq=False)
class FourierSeries:
    """Band-limited function as its matrix Fourier coefficients.

    terms maps Dynkin tuples to complex (d_lam, d_lam) arrays; space is
    "L2K" or "HL2"; t parameterizes the holomorphic measure and is carried
    (but not meaningful) on L2K series.
    """

    rs_kind: str
    space: str
    t: float
    terms: dict[tuple[int, ...], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.space not in ("L2K", "HL2"):
            raise ValueError(f"unknown space tag {self.space!r}")
        if self.t <= 0:
            raise ValueError("t must be positive")
        rs = build_root_system(self.rs_kind)
        clean = {}
        for dynkin, mat in self.terms.items():
            lam = weight(rs, dynkin)
            d = dimension(rs, lam)
            arr = np.asarray(mat, dtype=complex)
            if arr.shape != (d, d):
                raise ValueError(
                    f"coefficient for {dynkin} must be {d}x{d}, got {arr.shape}"
                )
            clean[lam.dynkin] = arr
        self.terms = clean


def character_series(rs_kind: str, dynkin, space: str, t: float) -> FourierSeries:
    """Series of the (holomorphic) character: single coefficient Id/d."""
    rs = build_root_system(rs_kind)
    lam = weight(rs, dynkin)
    d = dimension(rs, lam)
    return FourierSeries(rs_kind, space, t, {lam.dynkin: np.eye(d, dtype=complex) / d})


def fourier_coeff(model: GroupModel, f, dynkin, scheme):
    """Fourier coefficient: the Haar mean of f(x) T_lam(x^{-1}).

    f receives a batch (n, 2, 2) of SU(2) elements, a block of the
    scheme's points at a time, and returns (n,) complex values, each
    depending on its own element alone.  scheme is MonteCarlo or the
    HaarSU2 rule, which is exact when its degree is at least f's degree
    plus lam's Dynkin label.  Returns the coefficient matrix together with
    an entrywise standard-error matrix (zero for the rule).
    """
    if model.kind != "SU2":
        raise ValueError("fourier_coeff needs irreducible matrices (SU2 only)")
    rs = build_root_system(model.rs_kind)
    n = weight(rs, dynkin).dynkin[0]
    return haar_mean(lambda xs: _times_rep_adjoint(np.asarray(f(xs), dtype=complex), n, xs),
                     *haar_nodes(model, scheme))


def _times_rep_adjoint(values: np.ndarray, n: int, xs) -> np.ndarray:
    """values[k] T_n(xs[k])^dagger, (N, n+1, n+1) and C-contiguous.

    T(x)^dagger = T(conj x)^T, since the recurrence has real coefficients:
    the planes of conj x are scaled in place and written, times the
    values, in one pass.  Point k depends on values[k] and xs[k] alone.
    """
    planes = _rep_planes(n, np.conj(xs))
    planes *= _condon_shortley_ratio(n)[:, :, None]
    out = np.empty((len(values), n + 1, n + 1), complex)
    return np.multiply(values[:, None, None], planes.T, out=out)


def synthesize_many(series: FourierSeries, model: GroupModel, xs, Y=None) -> np.ndarray:
    """Evaluate the represented function at a batch of group elements.

    With Y given (Cartan or full algebra coordinates), evaluates the
    holomorphic extension at the polar points x * exp(iY) instead.

    f(x) = sum_lam d_lam tr(C_lam T_lam(x)) = sum_lam sum_{l,k} c[l, k] p[l, k],
    with p the planes of models._rep_planes and c = d_lam C_lam^T times the
    Condon-Shortley ratio: each label adds its d^2 planes elementwise into
    the result, in a fixed order, after scaling them in place, and label 0
    adds its constant.  No (N, d, d) array, transpose or product over the
    batch axis is formed, so a point has the same bits alone and in a batch.
    """
    if model.kind != "SU2":
        raise ValueError("pointwise synthesis needs irreducible matrices (SU2 only)")
    xs = np.asarray(xs, complex)
    batch = xs.ndim == 3
    pts = xs if batch else xs[None]
    if Y is not None:
        pts = mul2x2(pts, exp_i(Y))
    rs = build_root_system(series.rs_kind)
    out = np.zeros(len(pts), dtype=complex)
    for dynkin, coeff in series.terms.items():
        n = dynkin[0]
        c = dimension(rs, weight(rs, dynkin)) * coeff.T * _condon_shortley_ratio(n)
        if n == 0:
            out += c[0, 0]
            continue
        planes = _rep_planes(n, pts)
        planes *= c[:, :, None]
        for plane in planes.reshape(-1, len(pts)):
            out += plane
    return out if batch else out[0]


def synthesize(series: FourierSeries, model: GroupModel, x, Y=None) -> complex:
    """Evaluate the represented function at one group element."""
    return complex(synthesize_many(series, model, x, Y))


def convolve(a: FourierSeries, b: FourierSeries) -> FourierSeries:
    """Convolution against normalized Haar measure, termwise on coefficients.

    Substituting the coefficient integral into the convolution integral
    reverses the factors: the lam coefficient of a * b is b_lam @ a_lam.
    The order is locked by an integral oracle in the test suite.
    """
    if a.rs_kind != b.rs_kind or a.space != b.space:
        raise ValueError("convolution requires matching group and space")
    if a.space == "HL2" and a.t != b.t:
        raise ValueError("convolution of holomorphic series requires equal t")
    terms = {
        dynkin: b.terms[dynkin] @ a.terms[dynkin]
        for dynkin in a.terms
        if dynkin in b.terms
    }
    return FourierSeries(a.rs_kind, a.space, a.t, terms)


def plancherel_norm(series: FourierSeries) -> float:
    """Squared norm of the represented function from its coefficients.

    L2K: sum d_lam ||coeff||_HS^2, equal to the normalized Haar integral of
    |f|^2.  HL2: sum d_lam C_{t,lam} ||coeff||_HS^2, equal to the normalized
    integral of |f|^2 against the Gaussian half-form measure.
    """
    rs = build_root_system(series.rs_kind)
    total = 0.0
    for dynkin, coeff in series.terms.items():
        lam = weight(rs, dynkin)
        d = dimension(rs, lam)
        hs2 = float(np.sum(np.abs(coeff) ** 2))
        w = d * c_constant(rs, lam, series.t) if series.space == "HL2" else d
        total += w * hs2
    return total


def series_to_json(series: FourierSeries) -> dict:
    """JSON-ready dict; terms sorted by Dynkin labels for determinism."""
    return {
        "group": series.rs_kind,
        "space": series.space,
        "t": series.t,
        "terms": [
            {
                "dynkin": list(dynkin),
                "re": series.terms[dynkin].real.tolist(),
                "im": series.terms[dynkin].imag.tolist(),
            }
            for dynkin in sorted(series.terms)
        ],
    }


def series_from_json(data: dict) -> FourierSeries:
    terms = {}
    for entry in data["terms"]:
        re = np.asarray(entry["re"], dtype=float)
        im = np.asarray(entry["im"], dtype=float)
        terms[tuple(int(k) for k in entry["dynkin"])] = re + 1j * im
    return FourierSeries(data["group"], data["space"], float(data["t"]), terms)


def save_series(path, series: FourierSeries) -> None:
    text = json.dumps(series_to_json(series), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_series(path) -> FourierSeries:
    with open(path, encoding="utf-8") as fh:
        return series_from_json(json.load(fh))
