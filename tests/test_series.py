import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzrec.series import TruncationError
from series_reference import Series, agrees_with, compose, zero


def S(min_exp, coeffs, trunc):
    return Series(min_exp, [Fraction(c) for c in coeffs], trunc)


def geometric(trunc):
    """1 + z + z^2 + ... up to the given order."""
    return S(0, [1] * trunc, trunc)


class TestBasics:
    def test_add_coefficientwise(self):
        a = S(0, [1, 1], 4)  # 1 + z
        b = S(0, [-1, 1], 4)  # -1 + z
        assert a + b == S(1, [2], 4)

    def test_add_identity(self):
        a = S(-1, [2, 0, 3], trunc=4)
        assert a + zero(6) == a
        assert a + 0 == a and 0 + a == a

    def test_scalar_is_constant_at_operand_order(self):
        a = S(-1, [1], trunc=3)
        assert a + 2 == S(-1, [1, 2], trunc=3)
        assert 2 - a == S(-1, [-1, 2], trunc=3)
        assert (a * 2).trunc_order == 3

    def test_order_required(self):
        with pytest.raises(TypeError, match="trunc_order"):
            Series(0, [1, 1], None)

    def test_add_laurent_merge(self):
        a = S(-1, [1], 3)
        b = S(1, [1], 3)
        c = a + b
        assert c.min_exponent == -1
        assert c.coefficient(-1) == 1 and c.coefficient(0) == 0 and c.coefficient(1) == 1

    def test_mul_polynomials(self):
        assert S(0, [1, 1], 5) * S(0, [1, -1], 5) == S(0, [1, 0, -1], 5)

    def test_mul_exponent_cancellation(self):
        # z^-1 known below 3 times z known below 5 is 1 known below 4
        assert S(-1, [1], 3) * S(1, [1], 5) == S(0, [1], 4)

    def test_mul_geometric_inverse(self):
        prod = geometric(8) * S(0, [1, -1], 8)
        assert prod == S(0, [1], trunc=8)

    def test_trunc_propagation_mul(self):
        a = S(0, [1, 1], trunc=2)
        b = S(1, [1], trunc=5)
        # unknown tail of a starts at z^2, so the product is known below z^3
        assert (a * b).trunc_order == 3

    def test_coeff_and_errors(self):
        a = S(0, [1, 2], trunc=2)
        assert a.coefficient(1) == 2
        assert a.coefficient(-5) == 0
        with pytest.raises(TruncationError):
            a.coefficient(2)

    def test_derivative(self):
        assert S(2, [1], 5).derivative() == S(1, [2], 4)
        assert S(-1, [1], 3).derivative() == S(-2, [-1], 2)
        assert S(0, [7], 3).derivative().is_zero

    def test_residue(self):
        assert S(-1, [1], 2).coefficient(-1) == 1
        assert S(-2, [1, 3, 5], 3).coefficient(-1) == 3
        assert S(0, [4, 4], trunc=9).coefficient(-1) == 0
        with pytest.raises(TruncationError):
            S(1, [1], trunc=-1).coefficient(-1)


class TestInversion:
    def test_invert_geometric(self):
        inv = S(0, [1, -1], trunc=6).invert_unit()
        assert inv == geometric(6)

    def test_invert_constant(self):
        assert S(0, [2], trunc=5).invert_unit() == S(0, [Fraction(1, 2)], trunc=5)

    def test_invert_laurent(self):
        inv = S(1, [1, 1], trunc=5).invert_unit()
        # 1/(z(1+z)) = z^-1 (1 - z + z^2 - ...)
        assert inv == S(-1, [1, -1, 1, -1], trunc=3)

    def test_invert_zero_rejected(self):
        with pytest.raises(ValueError):
            zero(5).invert_unit()

    def test_round_trip(self):
        a = S(-2, [3, 1, 0, 5], trunc=4)
        prod = a * a.invert_unit()
        assert prod.coefficient(0) == 1
        assert all(prod.coefficient(n) == 0 for n in range(prod.min_exponent, prod.trunc_order) if n != 0)


class TestCompose:
    def test_geometric_of_z(self):
        outer = S(0, [1, -1], trunc=7).invert_unit()  # 1/(1-w)
        inner = Series.identity(7)
        assert compose(outer, inner) == geometric(7)

    def test_identity_inner(self):
        outer = S(0, [1, 2, 3], trunc=4)
        assert agrees_with(compose(outer, Series.identity(10)), outer)

    def test_exp_log_pair(self):
        z = Series.identity(9)
        a = z.log1p()  # log(1+z)
        e = a.exp()
        assert agrees_with(e, S(0, [1, 1], 9))

    def test_rejects_constant_term(self):
        with pytest.raises(ValueError):
            compose(S(0, [1, 1], 4), S(0, [1, 1], 4))


class TestContract:
    """Inputs outside an operation's domain raise ValueError saying why."""

    @pytest.mark.parametrize(
        "reason, call",
        [
            ("compose", lambda: compose(S(-1, [1], trunc=4), S(1, [1, 1], trunc=5))),
            ("not a rational square", lambda: S(0, [-1, 0, 1], 8).sqrt_unit()),
        ],
        ids=["compose-laurent-outer", "sqrt-negative-lead"],
    )
    def test_rejected(self, reason, call):
        with pytest.raises(ValueError, match=reason):
            call()


class TestReversion:
    def test_catalan(self):
        a = S(1, [1, -1], trunc=6)  # w - w^2
        b = a.reversion()
        assert b == S(1, [1, 1, 2, 5, 14], trunc=6)

    def test_back_substitution(self):
        a = S(1, [1, -1], trunc=8)
        b = a.reversion()
        assert agrees_with(compose(a, b), Series.identity(8))

    def test_tree_function(self):
        # the inverse of w = z e^{-z} has coefficients m^(m-1)/m!
        order = 9
        z = Series.identity(order + 1)
        w = z * (-z).exp()
        t = w.reversion()
        import math

        for m in range(1, order):
            assert t.coefficient(m) == Fraction(m ** (m - 1), math.factorial(m))

    def test_identity(self):
        assert Series.identity(5).reversion() == Series.identity(5)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            S(0, [1, 1], trunc=4).reversion()
        with pytest.raises(ValueError):
            S(2, [1], trunc=4).reversion()


class TestExpLog:
    def test_exp_zero(self):
        assert zero(5).exp() == S(0, [1], trunc=5)

    def test_exp_z(self):
        e = Series.identity(5).exp()
        assert e == S(0, [1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)], trunc=5)

    def test_log1p_zero(self):
        assert zero(4).log1p().is_zero

    def test_log1p_defining_series(self):
        lg = Series.identity(5).log1p()
        assert lg == S(1, [1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4)], trunc=5)

    def test_rejects_constant_term(self):
        with pytest.raises(ValueError):
            S(0, [1, 1], trunc=3).exp()
        with pytest.raises(ValueError):
            S(0, [1, 1], trunc=3).log1p()

    def test_sqrt_unit(self):
        a = S(0, [1, 2, 3], trunc=8)
        r = a.sqrt_unit()
        assert agrees_with(r * r, a)


def random_series(rng, laurent=True, trunc=8):
    lo = rng.randint(-2, 1) if laurent else 0
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(trunc - lo)]
    return Series(lo, coeffs, trunc)


class TestRingAxioms:
    def test_randomized_ring_axioms(self):
        rng = random.Random(7)
        for _ in range(40):
            a = random_series(rng)
            b = random_series(rng)
            c = random_series(rng)
            assert agrees_with(a * b, b * a)
            assert agrees_with((a + b) + c, a + (b + c))
            assert agrees_with((a * b) * c, a * (b * c))
            assert agrees_with(a * (b + c), a * b + a * c)

    def test_residue_of_derivative_vanishes(self):
        rng = random.Random(11)
        for _ in range(25):
            a = random_series(rng)
            d = a.derivative()
            if d.trunc_order > -1:
                assert d.coefficient(-1) == 0

    def test_determinism(self):
        rng1, rng2 = random.Random(3), random.Random(3)
        a1, b1 = random_series(rng1), random_series(rng1)
        a2, b2 = random_series(rng2), random_series(rng2)
        assert (a1 * b1) == (a2 * b2)
        assert a1.invert_unit() == a2.invert_unit()


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_fracs, min_size=1, max_size=6))
def test_reversion_round_trips(coeffs):
    if not coeffs[0]:
        coeffs[0] = Fraction(1)
    a = Series(1, coeffs, 8)
    b = a.reversion()
    assert agrees_with(compose(a, b), Series.identity(8))
    assert agrees_with(b.reversion(), a)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_fracs, min_size=0, max_size=6))
def test_exp_log_round_trip(coeffs):
    a = Series(1, coeffs, 8)
    assert a.exp().coefficient(0) == 1
    assert agrees_with((a.exp() - 1).log1p(), a)
    assert agrees_with(a.log1p().exp(), 1 + a)

