"""Exact-rational inner loops, run on integers under shared denominators.

Each kernel clears the denominators of its inputs once and works on plain
``int``s, so no intermediate result is ever a `Fraction`: `conv` and
`unit_inverse` divide once at the end, and the residue sweeps add into one
running sum ``[den, {(p, rest): num}]`` per form, both through `contract`
and `accumulate` on decompositions grouped by rest.  Results are exact.
"""

from fractions import Fraction
from itertools import product
from math import comb, lcm


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
    acc = [0] * nout
    for i, ai in enumerate(anum):
        if not ai:
            continue
        for j, bj in enumerate(bnum[: nout - i], i):
            if bj:
                acc[j] += ai * bj
    den = da * db
    return [Fraction(c, den) for c in acc]


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


def count_ways(u, sub):
    """Product over values v of C(mult_u(v), mult_sub(v)) for sorted tuples."""
    ways = 1
    i = j = 0
    nu, ns = len(u), len(sub)
    while j < ns:
        v = sub[j]
        rs = 0
        while j < ns and sub[j] == v:
            rs += 1
            j += 1
        while i < nu and u[i] > v:
            i += 1
        ru = 0
        while i < nu and u[i] == v:
            ru += 1
            i += 1
        if rs > ru:
            return 0
        ways *= comb(ru, rs)
    return ways


def row_table(rows, pairs):
    """The nonempty residue rows for ``pairs`` of pole data, over one
    denominator: ``(den, {(a, b): (p0, nums)})``.

    ``rows(a, b)`` returns ``()`` or ``(den, p0, nums)``, the residue for
    the first-slot pole order p being ``nums[p - p0] / den``.
    """
    found = {key: row for key in pairs if (row := rows(*key))}
    den = lcm(*(row[0] for row in found.values()))
    table = {
        key: (p0, [v * (den // d) for v in nums]) for key, (d, p0, nums) in found.items()
    }
    return den, table


def contract(group, b, table):
    """``sum_a group[a] * row(a, b)`` as ``{p: num}`` over a `row_table`;
    ``group`` is one ``{a: num}`` of a decomposition."""
    sums = {}
    for a, num in group.items():
        row = table.get((a, b))
        if row is not None:
            p0, nums = row
            for p, v in enumerate(nums, p0):
                sums[p] = sums.get(p, 0) + num * v
    return sums


def accumulate(acc, u, sums, c):
    """Add ``c * sums`` into ``acc[u]``, made only for a nonempty ``sums``."""
    if sums:
        bucket = acc.get(u)
        if bucket is None:
            bucket = acc[u] = {}
        for p, v in sums.items():
            bucket[p] = bucket.get(p, 0) + c * v


def add_sweep(out, acc, den):
    """Add the integer sums ``acc`` ({rest: {p: num}}), taken over ``den``,
    into ``out``, one form's running sum ``[den, {(p, rest): num}]``; the
    numerators held are rescaled when the common denominator grows."""
    held, sums = out
    out[0] = common = lcm(held, den)
    if common != held:
        scale = common // held
        for key in sums:
            sums[key] *= scale
    scale = common // den
    for u, bucket in acc.items():
        for p, v in bucket.items():
            if v:
                sums[p, u] = sums.get((p, u), 0) + v * scale


def pair_sweep(out, terms_a, terms_b, rows, weight=1):
    """Accumulate ``weight`` times the residue-table contributions of all
    (A-term, B-term) pairs.

    ``terms_a``/``terms_b`` are decompositions ``(den, {rest: {a: num}})``,
    integer weights over one denominator, with ``a`` the pole order evaluated
    at the branch (negative ``a`` encodes a Bergman power ``z**(-a)``) and
    ``rest`` the weakly-decreasing tuple of pole orders left on symbolic
    variables.  ``rows`` is as in `row_table`.  The A side is contracted once
    per ``(ra, b)``, and rests are merged and counted once per ``(ra, rb)``.
    ``out`` is a running sum as in `add_sweep`, keyed by the first-slot order
    p and the merged rest-tuple.  ``weight`` is 2 when this one sweep stands
    for both orientations of a split: with symmetric rows, ``rows(a, b) ==
    rows(b, a)``, swapping the A and B sides adds identical integers.
    """
    (den_a, groups_a), (den_b, groups_b) = terms_a, terms_b
    orders_b = {b for group in groups_b.values() for b in group}
    pairs = product({a for group in groups_a.values() for a in group}, orders_b)
    den_r, table = row_table(rows, pairs)
    acc = {}
    for ra, group_a in groups_a.items():
        contracted = {b: contract(group_a, b, table) for b in orders_b}
        for rb, group_b in groups_b.items():
            u = tuple(sorted(ra + rb, reverse=True))
            n = weight * count_ways(u, ra)
            for b, bn in group_b.items():
                accumulate(acc, u, contracted[b], n * bn)
    add_sweep(out, acc, den_a * den_b * den_r)
