"""Exact computation of topological-vertex partition functions, free energies
and Gopakumar-Vafa integers for integer data (r, gamma).

Everything is exact: coefficients are arbitrary-precision rationals, the
base variable is x = q^(1/2), and integrality is a verdict, never a rounding.
"""

from gvexact.partitions import Partition, RSet, enumerate_partitions, kappa
from gvexact.qalgebra import QLaurent, QRatio, RPoly, mobius, qnum, qnum_product, t_k_in_t
from gvexact.gv import GvReport, PRESETS, integrality_report
from gvexact.series import DegreeSeries, build_z_series, z_coefficient_def

__all__ = [
    "Partition",
    "RSet",
    "enumerate_partitions",
    "kappa",
    "QLaurent",
    "QRatio",
    "RPoly",
    "qnum",
    "qnum_product",
    "t_k_in_t",
    "GvReport",
    "PRESETS",
    "integrality_report",
    "mobius",
    "DegreeSeries",
    "build_z_series",
    "z_coefficient_def",
]
