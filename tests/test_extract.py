import math
from fractions import Fraction
from functools import lru_cache

import pytest

from hurwitzrec.extract import h_series, hurwitz_by_recursion, verify_bm
from hurwitzrec.partitions import HurwitzOracle, aut_size, partitions_of
from hurwitzrec.poleform import basis_poles
from hurwitzrec.toprec import LambertEngine, is_stable, required_order
from curve_reference import lambert_series
from pole_reference import pole_factor_int, pole_factor_series, pole_h_coeffs
from series_reference import Series, agrees_with, compose

F = Fraction


# -- naive reference: factors by series reversion, orderings one by one -------


class ReversionFactors:
    """(-1)^a z/(1-z)^(a+1) at z = L(v) for a = 0, 1, ..., each built from
    the previous one by a series product, with L(v) from reversion."""

    def __init__(self, order):
        self.order = order
        self._u = lambert_series(order + 1)
        self._inv1mu = (1 - self._u).invert_unit()
        self._factors = [(self._u * self._inv1mu).truncate(order + 1)]

    def coefficient(self, a, m):
        while len(self._factors) <= a:
            prev = self._factors[-1]
            self._factors.append((-prev * self._inv1mu).truncate(self.order + 1))
        return self._factors[a].coefficient(m)


def reference_h_coeffs(form, n_max):
    """The v^mu coefficients of a form: for each term of its pole view, the
    sum over the distinct orderings of its pole multiset of the product of
    factors."""
    table = ReversionFactors(n_max)
    coeffs = {}
    for n in range(form.k, n_max + 1):
        for mu in partitions_of(n):
            if len(mu) != form.k:
                continue
            total = F(0)
            for key, c in form.pole_terms().items():
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


def hurwitz_from_coeffs(g, coeffs):
    """H_{g,mu} from the v^mu coefficients of W(g, k): each times
    b!/(|Aut mu| prod mu_i), with b = 2g - 2 + |mu| + len(mu)."""
    return {
        mu: c * F(math.factorial(2 * g - 2 + sum(mu) + len(mu)), aut_size(mu) * math.prod(mu))
        for mu, c in coeffs.items()
    }


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
        assert agrees_with(compose(w, ls), Series.identity(order))


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
        inv = (1 - z).invert_unit()
        factor = z * inv
        for a in (1, 2, 3):
            factor = factor * inv  # z/(1-z)^(a+1)
            direct = compose(factor.scale((-1) ** a), lv)
            assert agrees_with(pole_factor_series(a, order), direct.truncate(order))

    def test_closed_form_against_reversion(self):
        table = ReversionFactors(9)
        for a in range(12):
            for m in range(10):
                assert F(pole_factor_int(a, m), math.factorial(m)) == table.coefficient(a, m)


class TestBasisFactors:
    def test_slot_maps_carry_pole_factors_to_basis_factors(self):
        """m^(m+e) = sum_a M[e][a] F(a, m): xihat_e written in poles by
        `basis_poles` has the closed-form coefficients, each pole factor
        taken by series reversion."""
        table = ReversionFactors(9)
        for e in range(8):
            for m in range(1, 10):
                by_poles = sum(c * table.coefficient(a, m) for a, c in basis_poles(e).items())
                assert by_poles == F(m ** (m + e), math.factorial(m)), (e, m)

    def test_basis_equals_pole_reference_on_every_order_28_form(self):
        """h_series on the stored basis terms equals the pole-basis extraction
        of tests/pole_reference.py on the pole view, taken to Hurwitz
        numbers, for all 33 stable forms an order-28 engine computes."""
        engine = LambertEngine(order=28)
        cases = [
            (g, k)
            for g in range(5)
            for k in range(1, 14)
            if is_stable(g, k) and required_order(g, k) <= 28
        ]
        assert len(cases) == 33
        for g, k in cases:
            form = engine.w(g, k)
            n_max = k + 3
            expected = hurwitz_from_coeffs(g, pole_h_coeffs(form, n_max))
            assert h_series(form, n_max) == expected, (g, k)


class TestHSeries:
    def test_h11_linear_coefficient_vanishes(self, engine):
        # H_{1,(1)} = 0, and a zero value is left out
        assert (1,) not in h_series(engine.w(1, 1), 4)

    def test_fewer_degrees_than_parts_give_nothing(self, engine, oracle):
        # no mu of k parts has |mu| < k, not even the all-ones one that the
        # walk's one-pass tail would otherwise make
        assert h_series(engine.w(0, 4), 3) == {}
        assert h_series(engine.w(0, 4), 4) == {(1, 1, 1, 1): oracle.hurwitz(0, (1, 1, 1, 1))}


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
        assert h_series(form, 7) == hurwitz_from_coeffs(g, reference_h_coeffs(form, 7))


class TestExtraction:
    def test_anchors(self, engine, oracle):
        h1 = h_series(engine.w(1, 1), 4)
        assert h1.get((1,), 0) == 0
        assert h1[(2,)] == F(1, 2)
        assert h1[(3,)] == 9
        h03 = h_series(engine.w(0, 3), 4)
        assert h03[(1, 1, 1)] == oracle.hurwitz(0, (1, 1, 1))
        assert h03[(2, 1, 1)] == oracle.hurwitz(0, (2, 1, 1))

    def test_repeated_parts_normalization(self, engine, oracle):
        # stabilizer factor: mu with repeated parts must still match
        h12 = h_series(engine.w(1, 2), 4)
        assert h12[(1, 1)] == oracle.hurwitz(1, (1, 1))
        assert h12[(2, 2)] == oracle.hurwitz(1, (2, 2))

    def test_convenience(self, engine, oracle):
        assert hurwitz_by_recursion(engine, 1, (2, 1)) == oracle.hurwitz(1, (2, 1))


class TestVerifyBM:
    def test_small_range_all_equal(self, engine, oracle):
        rows = verify_bm(1, 3, engine=engine, oracle=HurwitzOracle(3, 1))
        assert all(r["equal"] for r in rows)
        assert len(rows) == 7
        # no row is a mismatch, so none ends the list early
        assert rows[-1]["equal"]

    def test_vacuous_range(self):
        rows = verify_bm(0, 2)
        assert all(r["equal"] for r in rows)
        assert rows == []

    def test_json_shape(self, engine):
        rows = verify_bm(1, 2, engine=engine)
        assert all(set(r) == {"g", "mu", "recursion", "oracle", "equal"} for r in rows)
        assert all(isinstance(r["recursion"], str) for r in rows)

    def test_corrupted_sign_fails_at_smallest_stable_case(self):
        # the opposite kernel sign, set before the residue table is built:
        # negating what = zeta / (2 (zeta - sigma)) negates every slot row,
        # pair-table row and the two-sided term 4 rhat what^3 zeta^(-4)
        bad = LambertEngine(order=required_order(1, 3))
        rhat, (den_w, what) = bad.recursion.halves
        bad.recursion.halves = rhat, (den_w, [-c for c in what])
        assert "u_table" not in bad.recursion.__dict__
        rows = verify_bm(1, 3, engine=bad)
        assert not all(r["equal"] for r in rows)
        first = rows[0]
        assert first["g"] == 0 and first["mu"] == [1, 1, 1]
        assert not first["equal"]
        # it stops at the first mismatch, which is then the last row
        assert rows[-1] is first
