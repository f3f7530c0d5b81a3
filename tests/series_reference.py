"""Series helpers that only the tests use: composition, agreement on a
common known range, and the zero series.

The package never composes series: the curve set-up solves for the deck
involution and the residue table directly.  The tests compose to hold those
results to their definitions.
"""

from hurwitzrec.series import Series


def zero(trunc_order):
    """The zero series known below ``trunc_order``."""
    return Series(trunc_order, [], trunc_order)


def agrees_with(a, b):
    """Equality of all coefficients of ``a`` and ``b`` on their common known
    range."""
    lo = min(a.min_exponent, b.min_exponent)
    hi = min(a.trunc_order, b.trunc_order)
    return all(a.coefficient(n) == b.coefficient(n) for n in range(lo, hi))


def compose(outer, inner):
    """Substitute ``inner`` (a power series with no constant term) for z in
    the power series ``outer``; a Laurent outer raises ValueError."""
    if outer.min_exponent < 0:
        raise ValueError("compose requires a power-series outer")
    if not inner.is_zero and inner.min_exponent < 1:
        raise ValueError("compose requires an inner series without constant term")
    # a zero inner has min_exponent == trunc_order
    mi = max(1, inner.min_exponent)
    # the inner's unknown tail enters through the outer's lowest nonzero
    # non-constant exponent j, at order (j-1)*mi + inner.trunc_order
    j = next(
        (j for j, c in zip(outer.known_exponents(), outer.coefficients) if j and c),
        max(1, outer.trunc_order),
    )
    t = min(outer.trunc_order * mi, inner.trunc_order + (j - 1) * mi)
    if inner.is_zero:
        return Series(0, [outer.coefficient(0)], t)
    out = zero(t)
    power = Series.constant(1, t)
    prev_j = 0
    for j, c in zip(outer.known_exponents(), outer.coefficients):
        if c:
            for _ in range(j - prev_j):
                power = (power * inner).truncate(t)
            prev_j = j
            out = out + power.scale(c)
    return out.truncate(t)
