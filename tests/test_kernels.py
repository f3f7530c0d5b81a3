"""The integer kernels against a naive Fraction reference defined here."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm

import pytest

from hurwitzrec import series, sweeps
from hurwitzrec.partitions import aut_size
from hurwitzrec.poleform import pole_basis, splits
from hurwitzrec.series import TruncationError
from hurwitzrec.sweeps import Recursion
from hurwitzrec.toprec import LambertEngine, required_order
from test_toprec import (
    other_sheet,
    reference_basis_poles,
    reference_kernel,
    reference_u_table,
    row_poles,
    slot_table,
)

F = Fraction
_ZERO = F(0)


# -- reference kernels: one Fraction operation at a time ------------------------


def ref_conv(a, b, nout):
    out = [_ZERO] * max(0, nout)
    for i, ai in enumerate(a[:nout]):
        for j, bj in enumerate(b[: nout - i]):
            out[i + j] += ai * bj
    return out


def ref_unit_inverse(a, n):
    inv0 = 1 / F(a[0])
    out = [inv0]
    for k in range(1, n):
        acc = sum((a[i] * out[k - i] for i in range(1, min(k, len(a) - 1) + 1)), _ZERO)
        out.append(-inv0 * acc)
    return out


def ref_conv_ints(a, b, nout):
    """`ref_conv` of two lists of ints, as ints."""
    return [v.numerator for v in ref_conv(a, b, nout)]


def ref_unit_inverse_ints(a, n):
    """`ref_unit_inverse` of a list of ints, as ``(den, nums)`` over the
    least common denominator."""
    values = ref_unit_inverse(a, n)
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def ref_count_ways(u, sub):
    cu, cs = Counter(u), Counter(sub)
    ways = 1
    for v, m in cs.items():
        ways *= comb(cu[v], m)
    return ways


def ref_row(table, order, a, b):
    """{p: residue} of pole data (a, b) read from a residue table ``(den,
    u)`` one entry at a time: u[a][n] + u[b][n] at n = a + b + 2 - p."""
    den, u = table
    if a + b > order - 3:
        raise TruncationError(f"pole data (a={a}, b={b}) beyond order {order}")
    top = a + b + 2
    return {p: F(u[a][top - p] + u[b][top - p], den) for p in range(2, min(top, order - 5) + 1)}


def ref_slot(x):
    """A pulled slot as pole orders: a basis index through its definition,
    a Bergman power as itself."""
    return reference_basis_poles(x) if x > 0 else {x: 1}


def ref_pair_sweep(acc, den, terms_a, terms_b, pole_table, order, weight):
    """The sweep one pole pair at a time, reading the pole-order residue
    table ``pole_table`` at ``order``, not a pair table or its slot rows,
    and adding into the running sum ``acc``, ``{rest: {p: num}}`` over
    ``den``; every term must be an integer over ``den``."""
    (den_a, groups_a), (den_b, groups_b) = terms_a, terms_b
    for (ra, group_a), (rb, group_b) in product(groups_a.items(), groups_b.items()):
        for (x, xn), (y, yn) in product(group_a.items(), group_b.items()):
            u = tuple(sorted(ra + rb, reverse=True))
            c = F(xn, den_a) * F(yn, den_b) * ref_count_ways(u, ra) * weight
            bucket = acc.setdefault(u, {})
            for (a, ca), (b, cb) in product(ref_slot(x).items(), ref_slot(y).items()):
                for p, v in ref_row(pole_table, order, a, b).items():
                    num = ca * cb * c * v * den
                    assert num.denominator == 1, (den, p, u)
                    bucket[p] = bucket.get(p, 0) + int(num)


def ref_basis_sweep(acc, den, terms_a, terms_b, pole_table, order, weight):
    """`ref_pair_sweep` into a running sum by pole order over ``den`` divided
    by `pole_basis`'s denominator, each of its buckets then written in the
    basis through `pole_basis` and added into ``acc``, ``{rest: {index:
    num}}`` over ``den``: the running sum the engine's assembly reads."""
    den_basis, to_basis = pole_basis(order - 5)
    assert den % den_basis == 0
    poles = {}
    ref_pair_sweep(poles, den // den_basis, terms_a, terms_b, pole_table, order, weight)
    for rest, bucket in poles.items():
        into = acc.setdefault(rest, {})
        for p, num in bucket.items():
            for index, c in to_basis[p].items():
                into[index] = into.get(index, 0) + c * num


def nonzero(den, acc):
    """A running sum ``{rest: {key: num}}`` over ``den`` as {(key, rest):
    Fraction} without zero entries, which assembly ignores."""
    return {
        (key, rest): F(num, den)
        for rest, bucket in acc.items()
        for key, num in bucket.items()
        if num
    }


def nonzero_poles(den, acc):
    """A running sum ``{rest: {index: num}}`` over ``den`` read back into
    pole orders by `row_poles`, as `nonzero` gives a sum by pole order."""
    return {(p, rest): v for rest, bucket in acc.items() for p, v in row_poles(den, bucket).items()}


def own_den(terms_a, terms_b, pairs):
    """The denominator of one sweep's residues: ``den_a * den_b`` times the
    pair table's."""
    return terms_a[0] * terms_b[0] * pairs.den


# -- random inputs ---------------------------------------------------------------


# pulled slots drawn from -3 .. 3 reach pole orders -3 .. 6, which keeps
# a + b <= order - 3 at this order
SWEEP_ORDER = 15


def random_sweep(rng, n_terms, den_max):
    """Two random decompositions and a random pole-order residue table
    ``(den, {b: u(b)})`` at `SWEEP_ORDER`, some of its entries zero."""

    def mk_terms():
        groups = {}
        for _ in range(n_terms):
            x = rng.randint(-3, 3)
            rest = tuple(
                sorted((rng.randint(1, 4) for _ in range(rng.randint(0, 3))), reverse=True)
            )
            groups.setdefault(rest, {})[x] = rng.randint(-5 * den_max, 5 * den_max) or 1
        return rng.randint(1, den_max), groups

    def entry():
        return 0 if rng.random() < 0.3 else rng.randint(-7 * den_max, 7 * den_max)

    u = {b: [entry() for _ in range(SWEEP_ORDER - 2)] for b in range(-3, 7)}
    return mk_terms(), mk_terms(), (rng.randint(1, den_max), u)


def pair_table(table, order=SWEEP_ORDER, cls=sweeps.PairTable):
    """A pair table on the slot rows -3 .. 3 of the pole-order table."""
    return cls(slot_table(table, range(-3, 4), SWEEP_ORDER - 2), order)


class Lopsided(sweeps.PairTable):
    """A pair table that weighs each row toward the side that asked for it
    first, by doubling that slot's row."""

    def __missing__(self, key):
        x, _ = key
        u = {**self.u, x: [2 * v for v in self.u[x]]}
        row = sweeps.PairTable((self.den, u), self.order)[key]
        self[key] = self[key[::-1]] = row
        return row


class TestAgainstReference:
    def test_conv(self):
        rng = random.Random(1)
        for trial in range(25):
            top = 10**30 if trial % 2 else 9
            a = [rng.randint(-top, top) for _ in range(rng.randint(0, 25))]
            b = [rng.randint(-top, top) for _ in range(rng.randint(0, 25))]
            nout = rng.randint(0, 40)
            assert series.conv_ints(a, b, nout) == ref_conv(a, b, nout)

    def test_unit_inverse(self):
        """The reciprocal of a series of ints, as one denominator over
        numerators in lowest terms, a leading coefficient of either sign
        included."""
        rng = random.Random(2)
        for trial in range(20):
            top = 10**30 if trial % 2 else 9
            a = [rng.randint(-top, top) for _ in range(20)]
            if not a[0]:
                a[0] = -7
            den, nums = series.unit_inverse(a, 18)
            assert den > 0 and gcd(den, *nums) == 1 and len(nums) == 18
            assert [F(v, den) for v in nums] == ref_unit_inverse(a, 18)

    def test_merge_and_count(self):
        """The sweep's merge count, a quotient of automorphism counts, is
        the number of ways to choose the slots of one rest among the merged
        ones, residual indices (negative entries) included."""
        rng = random.Random(3)
        for _ in range(200):
            u, v = (
                tuple(sorted((rng.randint(-3, 6) for _ in range(rng.randint(0, 6))), reverse=True))
                for _ in range(2)
            )
            merged = tuple(sorted(u + v, reverse=True))
            assert aut_size(merged) // (aut_size(u) * aut_size(v)) == ref_count_ways(merged, u)

    def test_pair_sweep(self):
        """A sweep over a multiple of its own denominator folds the quotient
        into its multiplier; its running sum, read back into pole orders, is
        the reference's."""
        rng = random.Random(5)
        ta, tb, table = random_sweep(rng, 30, 7)
        den = 3 * own_den(ta, tb, pair_table(table))
        fast, ref = {}, {}
        sweeps.pair_sweep(fast, den, ta, tb, pair_table(table), 1)
        ref_pair_sweep(ref, den, ta, tb, table, SWEEP_ORDER, 1)
        assert nonzero_poles(den, fast) == nonzero(den, ref)
        fast2, ref2 = {}, {}
        sweeps.pair_sweep(fast2, den, ta, tb, pair_table(table), 2)
        ref_pair_sweep(ref2, den, ta, tb, table, SWEEP_ORDER, 2)
        assert nonzero_poles(den, fast2) == nonzero(den, ref2)
        assert nonzero(den, fast2) == {key: 2 * v for key, v in nonzero(den, fast).items()}

    def test_pair_sweep_swap_symmetric_rows(self):
        """Rows read from the residue table are symmetric in the two pulled
        slots, so the pair table is symmetric and sweeping (A, B) and (B, A) adds the same
        integers: the identity that lets the engine sweep each unordered
        split once with weight 2."""
        rng = random.Random(6)
        ta, tb, table = random_sweep(rng, 30, 7)
        den = own_den(ta, tb, pair_table(table))
        ab, ba = {}, {}
        sweeps.pair_sweep(ab, den, ta, tb, pair_table(table), 1)
        sweeps.pair_sweep(ba, den, tb, ta, pair_table(table), 1)
        assert ab and nonzero(den, ab) == nonzero(den, ba)

        # a pair table weighing the two reads unequally breaks the identity,
        # so the test can fail; each sweep fills its own pair table, so each
        # row is weighed toward the side that asked for it first
        ab, ba = {}, {}
        sweeps.pair_sweep(ab, den, ta, tb, pair_table(table, cls=Lopsided), 1)
        sweeps.pair_sweep(ba, den, tb, ta, pair_table(table, cls=Lopsided), 1)
        assert nonzero(den, ab) != nonzero(den, ba)

    def test_pair_sweep_wide_denominators(self):
        """Two sweeps whose own denominators differ add into one sum over
        their lcm, as the engine's sweeps of one form do."""
        rng = random.Random(4)
        ta, tb, table = random_sweep(rng, 30, 10**30)
        sides = [(ta, tb), (ta, ta)]
        dens = [own_den(a, b, pair_table(table)) for a, b in sides]
        assert dens[0] != dens[1]
        den = lcm(*dens)
        fast, ref = {}, {}
        for a, b in sides:
            sweeps.pair_sweep(fast, den, a, b, pair_table(table), 1)
            ref_pair_sweep(ref, den, a, b, table, SWEEP_ORDER, 1)
        assert nonzero_poles(den, fast) == nonzero(den, ref)

    def test_pair_table_drops_zeros_and_raises_beyond_the_order(self):
        """A pair-table row read from the slot rows, read back into pole
        orders, is the sum of its pole rows, weighed by the slot map; it
        holds no zero entry, and raises where a pole row does."""
        rng = random.Random(8)
        _, _, table = random_sweep(rng, 1, 7)
        table[1][-3] = [0] * (SWEEP_ORDER - 2)  # u(-3) zero: some rows cancel
        pairs = pair_table(table)
        for x, y in product(range(-3, 4), repeat=2):
            want = {}
            for (a, ca), (b, cb) in product(ref_slot(x).items(), ref_slot(y).items()):
                for p, v in ref_row(table, SWEEP_ORDER, a, b).items():
                    want[p] = want.get(p, 0) + ca * cb * v
            assert row_poles(pairs.den, pairs[x, y]) == {p: v for p, v in want.items() if v}
            assert all(pairs[x, y].values()) and pairs[x, y] is pairs[y, x], (x, y)
        assert {} in pairs.values()
        with pytest.raises(TruncationError):
            pair_table(table, order=12)[3, 3]


def test_rows_match_series_residues():
    """Each pair-table row, read back into pole orders, equals the sum over
    its pole pairs (a, b) of the residues of the kernel built piece by piece
    against zeta^(-a) sigma' sigma^(-b), and raises exactly where they do;
    slots below 1 cover the Bergman powers that W(0,3) sweeps."""
    engine = LambertEngine(order=14)
    table = engine.recursion.pair_table
    kernel = reference_kernel(engine)
    for x, y in product(range(-4, 5), repeat=2):
        expected = {}
        try:
            for (a, ca), (b, cb) in product(ref_slot(x).items(), ref_slot(y).items()):
                s = other_sheet(engine, b).shift(-a)
                if s.min_exponent <= 0:
                    for p, piece in kernel.items():
                        val = (piece * s).coefficient(-1)
                        expected[p] = expected.get(p, 0) + ca * cb * val
        except TruncationError:
            with pytest.raises(TruncationError):
                table[x, y]
            continue
        got = row_poles(table.den, table[x, y])
        assert got == {p: v for p, v in expected.items() if v}, (x, y)


def test_engine_agrees_with_reference_kernels(monkeypatch):
    """The engine on the integer kernels equals the engine on the reference
    kernels, coefficient for coefficient and byte for byte.  Every residue
    the reference engine sums is read from the pole-order reference table
    one pole pair at a time: its pair sweeps, its Bergman rows and its
    W(g-1, k+1) term all go through `ref_pair_sweep`, written in the basis
    by `ref_basis_sweep`, so its own pair table is never filled.  Its curve
    set-up runs on `ref_conv` and `ref_unit_inverse`, read as ints."""
    order = required_order(2, 2)
    real = LambertEngine(order=order).w(2, 2)
    swept = Counter()

    def counted(name, kernel):
        def run(*args):
            swept[name] += 1
            return kernel(*args)

        monkeypatch.setattr(sweeps, name, run)

    counted("conv_ints", ref_conv_ints)
    counted("unit_inverse", ref_unit_inverse_ints)
    ref_engine = LambertEngine(order=order)
    pole_table = reference_u_table(ref_engine)

    def sweep(acc, den, terms_a, terms_b, table, weight):
        swept["pairs"] += 1
        ref_basis_sweep(acc, den, terms_a, terms_b, pole_table, table.order, weight)

    class BergmanRows(sweeps.BergmanRows):
        def __missing__(self, y):
            # each Bergman group (i,) swept against the one slot y
            swept["bergman"] += 1
            acc = {}
            one = (1, {(): {y: 1}})
            ref_basis_sweep(acc, self.table.den, (1, self.groups), one, pole_table, order, 1)
            rows = {i: {j: v for j, v in row.items() if v} for (i,), row in acc.items()}
            self[y] = {i: row for i, row in rows.items() if row}
            return self[y]

    def sweep_term1(self, acc, den, prev):
        # each pulled pair of one rest, the second slot y splitting off as a
        # one-slot side
        swept["term1"] += 1
        den_c, groups = prev
        for rest, group in groups.items():
            for y, left in splits(rest):
                one = (1, {left: {y: 1}})
                ref_basis_sweep(acc, den, (den_c, {(): group}), one, pole_table, order, 1)

    monkeypatch.setattr(sweeps, "pair_sweep", sweep)
    monkeypatch.setattr(sweeps, "BergmanRows", BergmanRows)
    monkeypatch.setattr(Recursion, "_sweep_term1", sweep_term1)
    ref = ref_engine.w(2, 2)
    assert real == ref
    assert real.canonical_json() == ref.canonical_json()
    assert min(swept["pairs"], swept["bergman"], swept["term1"]) > 0
    assert min(swept["conv_ints"], swept["unit_inverse"]) > 0
    assert not ref_engine.recursion.pair_table
