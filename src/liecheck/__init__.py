"""Numerical verification of harmonic-analysis identities on compact groups.

Desk-scale (SU(2), SU(3), tori) evaluation of half-form densities, Weyl
characters, orbital averages, chamber quadrature, matrix Fourier analysis,
the norm constants tying the compact and holomorphic Hilbert spaces
together, the pairing transforms, and the heat multiplier, with every
identity backed by an independent oracle.
"""

from .chars import ClosedFormA1, GelfandTsetlinSU3
from .fourier import FourierSeries
from .hilbert import ConstantsRow
from .models import Estimate, GroupModel, HaarSU2, IrrepMatrices, MonteCarlo, build_group_model
from .quadrature import ChamberQuadrature
from .rootdata import RootSystem, Weight, build_root_system, enumerate_dominant, weight

__version__ = "0.1.0"

__all__ = [
    "ChamberQuadrature",
    "ClosedFormA1",
    "ConstantsRow",
    "Estimate",
    "FourierSeries",
    "GelfandTsetlinSU3",
    "GroupModel",
    "HaarSU2",
    "IrrepMatrices",
    "MonteCarlo",
    "RootSystem",
    "Weight",
    "__version__",
    "build_group_model",
    "build_root_system",
    "enumerate_dominant",
    "weight",
]
