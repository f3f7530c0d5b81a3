"""Exact-rational inner loops, run on integers under shared denominators.

Each kernel clears the denominators of its inputs once and works on plain
``int``s, so no intermediate result is ever a `Fraction`: `conv` and
`unit_inverse` divide once at the end, and the residue sweeps read each
pulled pair of slots from one lazily filled integer table (`PairTable`,
itself filled from the engine's residue table, one row per pulled slot) and
add into one running sum per form, ``{rest: {p: num}}`` keyed by the merged
rest and the first-slot pole order p.  The sum's denominator is fixed by the
engine before the first sweep, as the lcm of every sweep's own denominator;
each sweep folds ``den // own`` into its integer multiplier, so nothing held
is ever rescaled.  Results are exact.

A split term of the recursion sums over the subsets J of the remaining
variables.  On forms stored by weakly decreasing index tuples, the subsets
that turn rests ``ra`` and ``rb`` into one merged rest are the choices of
which of the merged slots came from ``ra``: for each value v held m times in
the merged rest, C(m, m_a) of them, m_a the count of v in ``ra``.  Since
m = m_a + m_b, the product over v is ``aut(merged) / (aut(ra) * aut(rb))``,
with ``aut`` = `partitions.aut_size`, the product of m! over repeated
entries.
"""

from fractions import Fraction
from math import lcm

from .partitions import aut_size
from .poleform import basis_poles


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


class PairTable(dict):
    """``T[x, y] = {p: num}``, over ``den``: the residues of the recursion
    kernel at pole order p against a pulled pair of slots, each ``x`` and
    ``y`` a basis index (>= 1) or a Bergman power (<= 0).  Filled on first
    use from an engine's residue table ``(den, {s: U_s})`` at ``order``;
    symmetric; zero entries are dropped.

    With P_s the pole orders of slot s (`basis_poles` for a basis index, the
    power itself for a Bergman power) and top(s) the largest of them, the
    row is T[x, y][p] = sum_a P_x[a] U_y[a + top(y) + 2 - p] + sum_b P_y[b]
    U_x[b + top(x) + 2 - p] for p = 2 .. order - 5, each U a power series.
    The table knows U_s[n] for n < order - 2, so top(x) + top(y) > order - 3
    raises TruncationError."""

    def __init__(self, u_table, order):
        super().__init__()
        self.den, self.u = u_table
        self.order = order

    def __missing__(self, key):
        x, y = key
        poles_x, poles_y = (basis_poles(s) if s > 0 else {s: 1} for s in key)
        top_x, top_y = max(poles_x), max(poles_y)
        if top_x + top_y > self.order - 3:
            from .series import TruncationError

            raise TruncationError(
                f"engine order {self.order} cannot resolve the residue "
                f"for the pulled slots (x={x}, y={y})"
            )
        sums = [0] * (self.order - 4)  # by p; p = 0, 1 stay 0
        for poles, u, top in ((poles_x, self.u[y], top_y), (poles_y, self.u[x], top_x)):
            for a, c in poles.items():
                n = a + top + 2
                for p in range(2, min(n, self.order - 5) + 1):
                    sums[p] += c * u[n - p]
        row = {p: v for p, v in enumerate(sums) if v}
        self[x, y] = self[y, x] = row
        return row


def contract_pairs(group, y, table):
    """``sum_x group[x] * T[x, y]`` as ``{p: num}`` over ``table.den``, for
    one ``{x: num}`` of a decomposition; zero sums are dropped."""
    sums = {}
    for x, num in group.items():
        for p, v in table[x, y].items():
            sums[p] = sums.get(p, 0) + num * v
    return {p: v for p, v in sums.items() if v}


def accumulate(acc, u, sums, c):
    """Add ``c * sums`` into ``acc[u]``, made only for a nonempty ``sums``."""
    if sums:
        bucket = acc.get(u)
        if bucket is None:
            bucket = acc[u] = {}
        for p, v in sums.items():
            bucket[p] = bucket.get(p, 0) + c * v


def pair_sweep(acc, den, terms_a, terms_b, table, weight):
    """Add ``weight`` times the residues of all (A-term, B-term) pairs into
    ``acc``.

    ``terms_a``/``terms_b`` are decompositions ``(den, {rest: {x: num}})``,
    integer weights over one denominator, with ``x`` the pulled slot (a
    basis index, or a Bergman power ``-m`` for ``zeta**m``) and ``rest`` the
    weakly decreasing tuple of indices left on symbolic variables.  Each
    pulled pair ``(x, y)`` is read from the `PairTable` ``table``.  The A
    side is contracted once per ``(ra, y)``, and rests are merged and
    counted once per ``(ra, rb)``: the count, the number of ways to choose
    which merged slots came from ``ra``, is ``aut_size(merged) // (aut_a *
    aut_b)``, each side's ``aut`` taken once per rest.  ``acc`` is the
    form's running sum ``{rest: {p: num}}``, keyed by the merged rest and
    the first-slot pole order p, over ``den``: a multiple, fixed before the
    first sweep, of this sweep's own denominator ``den_a * den_b *
    table.den``.  ``weight`` is 2 when this one sweep stands for both
    orientations of a split: the table is symmetric, so swapping the A and
    B sides adds identical integers.
    """
    (den_a, groups_a), (den_b, groups_b) = terms_a, terms_b
    scale = weight * (den // (den_a * den_b * table.den))
    pulled_b = {y for group in groups_b.values() for y in group}
    side_b = [(rb, aut_size(rb), group_b) for rb, group_b in groups_b.items()]
    for ra, group_a in groups_a.items():
        aut_a = aut_size(ra)
        contracted = {y: contract_pairs(group_a, y, table) for y in pulled_b}
        for rb, aut_b, group_b in side_b:
            merged = tuple(sorted(ra + rb, reverse=True))
            n = scale * (aut_size(merged) // (aut_a * aut_b))
            for y, yn in group_b.items():
                accumulate(acc, merged, contracted[y], n * yn)
