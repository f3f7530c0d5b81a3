"""Exact simple Hurwitz numbers, two independent ways.

The package computes H_{g,mu} by the topological recursion on
the Lambert spectral curve and, independently, by the symmetric-group
character (Burnside) count, and verifies that the two routes agree exactly.
All arithmetic is exact rational; nothing is floating point.

Importing the package loads none of its modules; import each from its own
module (``hurwitzrec.toprec``, ``hurwitzrec.partitions``, ...), so that a
request loads only the layers it runs.
"""

__version__ = "0.1.0"
