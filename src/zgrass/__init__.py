"""Exact-arithmetic workbench for truncated Laurent-series subspaces."""

__version__ = "0.1.0"

from .errors import ZgrassError
from .series import LaurentSeries, pair_std, residue
from .symfun import Partition, TimePolynomial, schur, schur_p, tvar
from .grassmann import FramePoint
from .pfaffian import pfaffian, section_square_check
from .tau import tau_function, taubar, baker, bilinear_residues
from .hierarchy import constraint_suite, suite_verdict
from .krichever import CurveData, span_closure, orbit_profile, quotient_ring

__all__ = [
    "CurveData",
    "FramePoint",
    "LaurentSeries",
    "Partition",
    "TimePolynomial",
    "ZgrassError",
    "__version__",
    "baker",
    "bilinear_residues",
    "constraint_suite",
    "orbit_profile",
    "pair_std",
    "pfaffian",
    "quotient_ring",
    "residue",
    "schur",
    "schur_p",
    "section_square_check",
    "span_closure",
    "suite_verdict",
    "tau_function",
    "taubar",
    "tvar",
]
