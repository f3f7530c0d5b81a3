import json
import math
from fractions import Fraction
from functools import lru_cache

import pytest

from hurwitzrec.extract import (
    HSeries,
    extract_hurwitz,
    h_series,
    hurwitz_by_recursion,
    lambert_series,
    pole_factor_int,
    pole_factor_series,
    verify_bm,
)
from hurwitzrec.partitions import HurwitzOracle, partitions_of
from hurwitzrec.series import Series
from hurwitzrec.toprec import LambertEngine, is_stable, required_order

F = Fraction


# -- naive reference: factors by series reversion, orderings one by one -------


class ReversionFactors:
    """(-1)^a z/(1-z)^(a+1) at z = L(v) for a = 0, 1, ..., each built from
    the previous one by a series product, with L(v) from reversion."""

    def __init__(self, order):
        self.order = order
        self._u = lambert_series(order + 1)
        self._inv1mu = (Series.constant(1) - self._u).invert_unit(order + 1)
        self._factors = [(self._u * self._inv1mu).truncate(order + 1)]

    def coefficient(self, a, m):
        while len(self._factors) <= a:
            prev = self._factors[-1]
            self._factors.append((-prev * self._inv1mu).truncate(self.order + 1))
        return self._factors[a].coefficient(m)


def reference_h_coeffs(form, n_max):
    """The v^mu coefficients of a form: for each term, the sum over the
    distinct orderings of its pole multiset of the product of factors."""
    table = ReversionFactors(n_max)
    coeffs = {}
    for n in range(form.k, n_max + 1):
        for mu in partitions_of(n):
            if len(mu) != form.k:
                continue
            total = F(0)
            for key, c in form.terms.items():
                values = tuple(sorted(set(key), reverse=True))
                counts = tuple(key.count(v) for v in values)

                @lru_cache(maxsize=None)
                def rec(pos, counts):
                    if pos == len(mu):
                        return F(1)
                    out = F(0)
                    for i, left in enumerate(counts):
                        if left:
                            rest = counts[:i] + (left - 1,) + counts[i + 1 :]
                            out += table.coefficient(values[i], mu[pos]) * rec(pos + 1, rest)
                    return out

                total += c * rec(0, counts)
            if total:
                coeffs[mu] = total
    return coeffs


@pytest.fixture(scope="module")
def engine():
    return LambertEngine(order=required_order(1, 4))


@pytest.fixture(scope="module")
def oracle():
    return HurwitzOracle(4, 1)


class TestLambertSeries:
    def test_tree_coefficients(self):
        ls = lambert_series(13)
        for m in range(1, 13):
            assert ls.coefficient(m) == F(m ** (m - 1), math.factorial(m))

    def test_first_three(self):
        ls = lambert_series(4)
        assert ls.coefficient(1) == 1
        assert ls.coefficient(2) == 1
        assert ls.coefficient(3) == F(3, 2)

    def test_back_substitution(self):
        order = 10
        ls = lambert_series(order)
        z = Series.identity(order)
        w = z * (-z).exp()
        assert w.compose(ls).agrees_with(Series.identity(order))


class TestPoleFactors:
    def test_a1_leading(self):
        pf = pole_factor_series(1, 5)
        assert pf.coefficient(1) == -1

    def test_zero_constant_term(self):
        for a in range(1, 7):
            assert pole_factor_series(a, 6).coefficient(0) == 0

    def test_against_direct_composition(self):
        # independent route: build (-1)^a * z/(1-z)^(a+1) with series ops
        # and compose with L(v) in one shot
        order = 8
        lv = lambert_series(order + 1)
        z = Series.identity(order + 2)
        for a in (1, 2, 3):
            direct = (
                (z * ((Series.constant(1) - z) ** (a + 1)).invert_unit())
                .scale((-1) ** a)
                .compose(lv)
            )
            assert pole_factor_series(a, order).agrees_with(direct.truncate(order))

    def test_closed_form_against_reversion(self):
        table = ReversionFactors(9)
        for a in range(12):
            for m in range(10):
                assert F(pole_factor_int(a, m), math.factorial(m)) == table.coefficient(a, m)


class TestHSeries:
    def test_h11_linear_coefficient_vanishes(self, engine):
        hs = h_series(engine.w(1, 1), 4)
        assert hs.coefficient((1,)) == 0

    def test_symmetry(self, engine):
        hs = h_series(engine.w(1, 2), 4)
        assert hs.coefficient((3, 1)) == hs.coefficient((1, 3))
        assert hs.coefficient((2, 1)) == hs.coefficient((1, 2))

    def test_zero_exponent_vanishes(self, engine):
        hs = h_series(engine.w(1, 2), 4)
        assert hs.coefficient((0, 2)) == 0
        assert hs.coefficient((3, 0)) == 0

    def test_wrong_arity_rejected(self, engine):
        hs = h_series(engine.w(1, 1), 4)
        with pytest.raises(ValueError):
            hs.coefficient((1, 1))


class TestAgainstReference:
    @pytest.fixture(scope="class")
    def wide_engine(self):
        return LambertEngine(order=required_order(3, 1))

    @pytest.mark.parametrize(
        "g,k",
        [(g, k) for g in (0, 1) for k in range(1, 7) if is_stable(g, k)]
        + [(2, 1), (2, 2), (3, 1)],
    )
    def test_whole_series(self, wide_engine, g, k):
        form = wide_engine.w(g, k)
        assert h_series(form, 7).coeffs == reference_h_coeffs(form, 7)


class TestExtraction:
    def test_anchors(self, engine, oracle):
        hs1 = h_series(engine.w(1, 1), 4)
        assert extract_hurwitz(hs1, 1, (1,)) == 0
        assert extract_hurwitz(hs1, 1, (2,)) == F(1, 2)
        assert extract_hurwitz(hs1, 1, (3,)) == 9
        hs03 = h_series(engine.w(0, 3), 4)
        assert extract_hurwitz(hs03, 0, (1, 1, 1)) == oracle.hurwitz(0, (1, 1, 1))
        assert extract_hurwitz(hs03, 0, (2, 1, 1)) == oracle.hurwitz(0, (2, 1, 1))

    def test_repeated_parts_normalization(self, engine, oracle):
        # stabilizer factor: mu with repeated parts must still match
        hs = h_series(engine.w(1, 2), 4)
        assert extract_hurwitz(hs, 1, (1, 1)) == oracle.hurwitz(1, (1, 1))
        assert extract_hurwitz(hs, 1, (2, 2)) == oracle.hurwitz(1, (2, 2))

    def test_convenience(self, engine, oracle):
        assert hurwitz_by_recursion(engine, 1, (2, 1)) == oracle.hurwitz(1, (2, 1))

    def test_range_checks(self, engine):
        hs = h_series(engine.w(1, 1), 4)
        with pytest.raises(ValueError):
            extract_hurwitz(hs, 1, (5,))
        with pytest.raises(ValueError):
            extract_hurwitz(hs, 0, (2,))


class TestVerifyBM:
    def test_small_range_all_equal(self, engine, oracle):
        report = verify_bm(1, 3, engine=engine, oracle=HurwitzOracle(3, 1))
        assert report.ok and report.complete
        assert len(report.records) == 7
        assert report.first_mismatch is None

    def test_vacuous_range(self):
        report = verify_bm(0, 2)
        assert report.ok
        assert report.records == []

    def test_json_shape(self, engine):
        report = verify_bm(1, 2, engine=engine)
        rows = json.loads(report.to_json())
        assert all(set(r) == {"g", "mu", "recursion", "oracle", "equal"} for r in rows)
        assert all(isinstance(r["recursion"], str) for r in rows)

    def test_text_has_verdict(self, engine):
        report = verify_bm(1, 2, engine=engine)
        assert "all equal" in report.to_text()

    def test_corrupted_sign_fails_at_smallest_stable_case(self):
        # the opposite kernel sign, set before the engine first uses it
        bad = LambertEngine(order=required_order(1, 3))
        bad.kernel = {p: -piece for p, piece in bad.kernel.items()}
        report = verify_bm(1, 3, engine=bad)
        assert not report.ok
        assert not report.complete
        first = report.records[0]
        assert first["g"] == 0 and first["mu"] == [1, 1, 1]
        assert not first["equal"]
        assert report.records[-1] == report.first_mismatch
