"""The helpers both routes share: the text form "num/den" of a rational,
which every route prints and the cache stores, the stable range, and the
partitions with their checks and automorphism counts.

It imports nothing from the package, so a recursion request loads no oracle
code and an oracle request no curve code.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial

Partition = tuple[int, ...]


def format_rational(q: Fraction) -> str:
    """q as "num/den", the form of every printed and cached rational."""
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s: str) -> Fraction:
    """The rational written "num/den" or "num"; a non-string is refused."""
    if not isinstance(s, str):
        raise ValueError(f"a rational is written as a string, not {s!r}")
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def is_stable(g: int, k: int) -> bool:
    """Whether (g, k) is in the stable range 2g - 2 + k > 0, the range of the
    recursion's forms and of the Hurwitz numbers it gives."""
    return g >= 0 and k >= 1 and 2 * g - 2 + k > 0


def check_partition(mu) -> Partition:
    """mu as a tuple, refused unless its parts are positive ints in weakly
    decreasing order.  A part that is not an int (a bool, a float or a
    string) is refused rather than coerced."""
    mu = tuple(mu)
    for x in mu:
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"partition parts must be ints, not {x!r}: {mu}")
    if any(x <= 0 for x in mu):
        raise ValueError(f"partition parts must be positive: {mu}")
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {mu}")
    return mu


def aut_size(mu: Partition) -> int:
    """|Aut mu|, the order of the stabilizer of mu under permutations of its
    entries: the product of m! over the runs of m equal entries.  mu is any
    weakly decreasing tuple of ints, not only a partition: a rest of basis
    indices, which never holds a residual one.  The package's one multiset
    count: the Hurwitz numbers divide by it, and the class sizes and the
    sweeps' merge counts are quotients of it.  It is not cached: the sweeps
    ask for tens of thousands of distinct rests."""
    out, i = 1, 0
    while i < len(mu):
        run = mu.count(mu[i])  # the equal entries are adjacent
        out *= factorial(run)
        i += run
    return out


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in lexicographically descending order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(_partitions_bounded(n, n))


def _partitions_bounded(n, max_part):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_bounded(n - first, first):
            yield (first,) + rest
