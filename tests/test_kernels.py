"""The integer kernels against a naive Fraction reference defined here."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from hurwitzrec import _kernels
from hurwitzrec.series import TruncationError, residue_of_product
from hurwitzrec.toprec import LambertEngine, required_order

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


def ref_count_ways(u, sub):
    cu, cs = Counter(u), Counter(sub)
    ways = 1
    for v, m in cs.items():
        ways *= comb(cu[v], m)
    return ways


def ref_pair_sweep(out, terms_a, terms_b, rows, weight=1):
    (den_a, groups_a), (den_b, groups_b) = terms_a, terms_b
    for (ra, group_a), (rb, group_b) in product(groups_a.items(), groups_b.items()):
        for (a, an), (b, bn) in product(group_a.items(), group_b.items()):
            row = rows(a, b)
            if not row:
                continue
            rden, p0, nums = row
            u = tuple(sorted(ra + rb, reverse=True))
            c = F(an, den_a) * F(bn, den_b) * ref_count_ways(u, ra) * weight
            sums = out[1]
            for p, v in enumerate(nums, p0):
                # the running sum holds numerators over out[0]
                sums[p, u] = sums.get((p, u), 0) + c * F(v, rden) * out[0]


def nonzero(out):
    """Sweep output as {(p, rest): Fraction} without zero entries, which
    assembly ignores."""
    den, sums = out
    return {key: F(num, den) for key, num in sums.items() if num}


# -- random inputs ---------------------------------------------------------------


def random_fractions(rng, n, top=9, den_max=12):
    return [F(rng.randint(-top, top), rng.randint(1, den_max)) for _ in range(n)]


def random_sweep(rng, n_terms, den_max):
    def mk_terms():
        groups = {}
        for _ in range(n_terms):
            a = rng.randint(-3, 6)
            rest = tuple(
                sorted((rng.randint(2, 6) for _ in range(rng.randint(0, 3))), reverse=True)
            )
            groups.setdefault(rest, {})[a] = rng.randint(-5 * den_max, 5 * den_max)
        return rng.randint(1, den_max), groups

    table = {}

    def rows(a, b):
        key = (a, b)
        if key not in table:
            if rng.random() < 0.3:
                table[key] = ()
            else:
                nums = tuple(rng.randint(-7 * den_max, 7 * den_max) for _ in range(rng.randint(1, 5)))
                table[key] = (rng.randint(1, den_max), rng.randint(2, 4), nums)
        return table[key]

    return mk_terms(), mk_terms(), rows


class TestAgainstReference:
    def test_conv(self):
        rng = random.Random(1)
        for _ in range(25):
            a = random_fractions(rng, rng.randint(0, 25))
            b = random_fractions(rng, rng.randint(0, 25))
            nout = rng.randint(0, 40)
            assert _kernels.conv(a, b, nout) == ref_conv(a, b, nout)

    def test_unit_inverse(self):
        rng = random.Random(2)
        for trial in range(20):
            top = 10**30 if trial % 2 else 9
            a = random_fractions(rng, 20, top=top, den_max=top)
            if not a[0]:
                a[0] = F(3, 7)
            assert _kernels.unit_inverse(a, 18) == ref_unit_inverse(a, 18)

    def test_merge_and_count(self):
        rng = random.Random(3)
        for _ in range(200):
            u = tuple(sorted((rng.randint(1, 6) for _ in range(rng.randint(0, 6))), reverse=True))
            v = tuple(sorted((rng.randint(1, 6) for _ in range(rng.randint(0, 6))), reverse=True))
            merged = tuple(sorted(u + v, reverse=True))
            assert _kernels.count_ways(merged, u) == ref_count_ways(merged, u)
            assert _kernels.count_ways(u, v) == ref_count_ways(u, v)

    def test_pair_sweep(self):
        rng = random.Random(5)
        ta, tb, rows = random_sweep(rng, 30, 7)
        fast, ref = [1, {}], [1, {}]
        _kernels.pair_sweep(fast, ta, tb, rows)
        ref_pair_sweep(ref, ta, tb, rows)
        assert nonzero(fast) == nonzero(ref)
        fast2, ref2 = [1, {}], [1, {}]
        _kernels.pair_sweep(fast2, ta, tb, rows, weight=2)
        ref_pair_sweep(ref2, ta, tb, rows, weight=2)
        assert nonzero(fast2) == nonzero(ref2)
        assert nonzero(fast2) == {key: 2 * v for key, v in nonzero(fast).items()}

    def test_pair_sweep_swap_symmetric_rows(self):
        """With rows(a, b) == rows(b, a), sweeping (A, B) and (B, A) adds the
        same integers: the identity that lets the engine sweep each unordered
        split once with weight 2."""
        rng = random.Random(6)
        ta, tb, rows = random_sweep(rng, 30, 7)

        def sym_rows(a, b):
            return rows(*sorted((a, b)))

        ab, ba = [1, {}], [1, {}]
        _kernels.pair_sweep(ab, ta, tb, sym_rows)
        _kernels.pair_sweep(ba, tb, ta, sym_rows)
        assert ab[1] and nonzero(ab) == nonzero(ba)
        # the unsymmetrised table breaks the identity, so the test can fail
        ab, ba = [1, {}], [1, {}]
        _kernels.pair_sweep(ab, ta, tb, rows)
        _kernels.pair_sweep(ba, tb, ta, rows)
        assert nonzero(ab) != nonzero(ba)

    def test_pair_sweep_wide_denominators(self):
        rng = random.Random(4)
        ta, tb, rows = random_sweep(rng, 30, 10**30)
        fast, ref = [1, {}], [1, {}]
        _kernels.pair_sweep(fast, ta, tb, rows)
        ref_pair_sweep(ref, ta, tb, rows)
        # a second sweep into the same output rescales the numerators there
        _kernels.pair_sweep(fast, tb, ta, rows)
        ref_pair_sweep(ref, tb, ta, rows)
        assert nonzero(fast) == nonzero(ref)


def test_rows_match_series_residues():
    engine = LambertEngine(order=14)
    for a in range(-4, 9):
        for b in range(2, 9):
            s = engine.ebar(b).shift(-a)
            try:
                expected = {}
                if s.min_exponent <= 0:
                    for p, piece in engine.kernel.items():
                        val = residue_of_product(piece, s)
                        if val:
                            expected[p] = val
            except TruncationError:
                with pytest.raises(TruncationError):
                    engine.rows(a, b)
                continue
            got = {}
            row = engine.rows(a, b)
            if row:
                den, p0, nums = row
                got = {p: F(v, den) for p, v in enumerate(nums, p0) if v}
            assert got == expected, (a, b)


def test_engine_agrees_across_backends(monkeypatch):
    """The engine on the integer kernels equals the engine on the reference
    kernels, coefficient for coefficient and byte for byte."""
    real = LambertEngine(order=required_order(2, 2)).w(2, 2)
    monkeypatch.setattr(_kernels, "conv", ref_conv)
    monkeypatch.setattr(_kernels, "unit_inverse", ref_unit_inverse)
    monkeypatch.setattr(_kernels, "pair_sweep", ref_pair_sweep)
    ref = LambertEngine(order=required_order(2, 2)).w(2, 2)
    assert real == ref
    assert real.canonical_json() == ref.canonical_json()
