"""Truncated power series as lists of integer numerators.

A list ``a`` of ``int``s stands for ``sum a[n] * z**n`` known below
``z**len(a)``; a series with rational coefficients is a pair ``(den, nums)``
of one positive denominator and such a list, `lowest_terms` its reduced
form.  `conv_ints` is the product and `unit_inverse` the reciprocal; none
of them makes a `fractions.Fraction`.
"""

from __future__ import annotations

from math import gcd


class TruncationError(ArithmeticError):
    """A coefficient beyond the known truncation order was requested.

    Every truncation order is chosen by the code that builds the series, not
    by the user, so an order too low is an internal fault: an
    ``ArithmeticError``, as the CLI reports it (exit 70)."""


def lowest_terms(den, nums):
    """``(den, nums)`` with the gcd of the denominator and every numerator
    divided out."""
    common = gcd(den, *nums)
    return den // common, [v // common for v in nums]


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
    """``(den, nums)``: the first ``n`` coefficients of the reciprocal of the
    series of ``int``s ``a``, ``a[0] != 0``, as ``nums[k] / den`` in lowest
    terms.

    b_k = -(sum_{i>=1} a_i b_(k-i)) / a_0, each b_k brought over the common
    denominator as it is made: that grows only by the part of b_k's own
    denominator it lacks, so it stays the lcm of the reduced denominators
    and the numerators near the size of the result, not of a_0^n.
    """
    a0 = a[0]
    den, nums = abs(a0), [1 if a0 > 0 else -1]
    for k in range(1, n):
        total = -sum(a[i] * nums[k - i] for i in range(1, min(k, len(a) - 1) + 1))
        d = a0 * den
        common = gcd(total, d) if a0 > 0 else -gcd(total, d)
        num, d = total // common, d // common
        grow = d // gcd(d, den)
        if grow > 1:
            den *= grow
            nums = [v * grow for v in nums]
        nums.append(num * (den // d))
    return den, nums[:n]
