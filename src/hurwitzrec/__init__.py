"""Exact simple Hurwitz numbers, two independent ways.

The package computes H_{g,mu} by the topological recursion on
the Lambert spectral curve and, independently, by the symmetric-group
character (Burnside) count, and verifies that the two routes agree exactly.
All arithmetic is exact rational; nothing is floating point.
"""

from fractions import Fraction as Rational

from .partitions import HurwitzOracle, partitions_of
from .poleform import PoleForm
from .series import Series, TruncationError
from .toprec import LambertEngine, required_order

__version__ = "0.1.0"

__all__ = [
    "HurwitzOracle",
    "LambertEngine",
    "PoleForm",
    "Rational",
    "Series",
    "TruncationError",
    "__version__",
    "partitions_of",
    "required_order",
]
