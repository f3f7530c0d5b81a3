"""Truncated power series over exact rationals, as coefficient lists.

A list ``a`` stands for ``sum a[n] * z**n`` known below ``z**len(a)``; the
coefficients are `fractions.Fraction`s (or ``int``s).  Products and
reciprocals run on integers: `conv` and `unit_inverse` clear the
denominators of their inputs once, work on plain ``int``s and divide once at
the end, so no intermediate result is a `Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class TruncationError(ArithmeticError):
    """A coefficient beyond the known truncation order was requested.

    Every truncation order is chosen by the code that builds the series, not
    by the user, so an order too low is an internal fault: an
    ``ArithmeticError``, as the CLI reports it (exit 70)."""


def clear_denominators(values):
    """``(den, nums)`` with ``values[i] == nums[i] / den``; ``den`` is the
    least common denominator (1 for an empty input)."""
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def conv(a, b, nout):
    """First ``nout`` coefficients of the Cauchy product of coefficient lists."""
    if nout <= 0:
        return []
    da, anum = clear_denominators(a[:nout])
    db, bnum = clear_denominators(b[:nout])
    den = da * db
    return [Fraction(c, den) for c in conv_ints(anum, bnum, nout)]


def conv_ints(a, b, nout):
    """First ``nout`` coefficients of the Cauchy product of two lists of
    ``int``s, as ``int``s."""
    acc = [0] * nout
    for i, ai in enumerate(a[:nout]):
        if not ai:
            continue
        for j, bj in enumerate(b[: nout - i], i):
            if bj:
                acc[j] += ai * bj
    return acc


def unit_inverse(a, n):
    """First ``n`` coefficients of the reciprocal of a unit power series.

    With ``a = anum / da`` the k-th coefficient is ``da * s_k / a0**(k+1)``
    for the integers ``s_k = -sum_i anum[i] * a0**(i-1) * s_(k-i)``.  These
    grow like ``a0**n``; the series inverted here keep ``a0.bit_length() * n``
    to a few thousand bits.
    """
    da, anum = clear_denominators(a[:n])
    a0 = anum[0]
    powers = [1]
    for _ in range(n):
        powers.append(powers[-1] * a0)
    scaled = [1]
    for k in range(1, n):
        acc = 0
        for i in range(1, min(k, len(anum) - 1) + 1):
            ai = anum[i]
            if ai:
                acc += ai * powers[i - 1] * scaled[k - i]
        scaled.append(-acc)
    return [Fraction(da * s, powers[k + 1]) for k, s in enumerate(scaled)]
