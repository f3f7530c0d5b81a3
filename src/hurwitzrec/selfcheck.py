"""Deterministic self-checks of the series layer.

Seeded randomized checks of the ring axioms and the inverse-pair
identities, and the closed-form Lambert basis factors m^(m+e) that the
extraction relies on against series reversion, runnable from the command line
(`hurwitzrec check series`).  Every check is an exact equality; any failure
is reported with context.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

from .extract import basis_factors, lambert_series
from .series import Series, residue_of_product


def _random_series(rng):
    lo = rng.randint(-2, 1)
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(9 - lo)]
    return Series(lo, coeffs, 9)


SEED = 20090515
ROUNDS = 30


def run_series_checks():
    """Run the battery; returns a list of (name, ok, detail) triples."""
    rng = random.Random(SEED)
    results = []

    def check(name, fn):
        try:
            fn()
            results.append((name, True, ""))
        except AssertionError as exc:
            results.append((name, False, str(exc) or "assertion failed"))

    def ring_axioms():
        for _ in range(ROUNDS):
            a, b, c = (_random_series(rng) for _ in range(3))
            assert (a * b).agrees_with(b * a), f"commutativity: {a}, {b}"
            assert ((a + b) + c).agrees_with(a + (b + c)), "associativity of +"
            assert ((a * b) * c).agrees_with(a * (b * c)), "associativity of *"
            assert (a * (b + c)).agrees_with(a * b + a * c), "distributivity"

    def inverse_pairs():
        for _ in range(ROUNDS):
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(7)]
            if not coeffs[0]:
                coeffs[0] = Fraction(1)
            a = Series(1, coeffs, 8)
            assert a.compose(a.reversion()).agrees_with(Series.identity(8)), f"reversion: {a}"
            assert a.reversion().reversion().agrees_with(a), f"double reversion: {a}"
            assert (a.exp() - 1).log1p().agrees_with(a), f"log(exp): {a}"
            assert a.log1p().exp().agrees_with(1 + a), f"exp(log): {a}"

    def unit_inverse():
        for _ in range(ROUNDS):
            a = _random_series(rng)
            if a.is_zero:
                continue
            prod = a * a.invert_unit()
            assert prod.coefficient(0) == 1, f"inverse: {a}"
            assert all(
                prod.coefficient(n) == 0
                for n in range(prod.min_exponent, prod.trunc_order)
                if n != 0
            ), f"inverse off-diagonal: {a}"

    def residues():
        for _ in range(ROUNDS):
            a = _random_series(rng)
            d = a.derivative()
            if d.trunc_order > -1:
                assert d.residue() == 0, f"residue of derivative: {a}"
            b = _random_series(rng)
            full = a * b
            if full.trunc_order > -1:
                assert residue_of_product(a, b) == full.residue(), "paired residue"

    def basis_factors_check():
        order = 9
        lv = lambert_series(order + 1)
        z = Series.identity(order + 2)
        t_minus_1 = z * (1 - z).invert_unit()  # xihat_0 = t - 1 = z/(1-z)
        xihat = t_minus_1
        for e in range(7):
            direct = xihat.compose(lv)
            for m in range(order + 1):
                want = Fraction(basis_factors(m, e)[e], factorial(m)) if m else 0
                assert direct.coefficient(m) == want, f"basis factor e={e}, m={m}"
            # (t-1) t^2 d/dt is z/(1-z) d/dz, as dt = t^2 dz
            xihat = (t_minus_1 * xihat.derivative()).truncate(order + 2)

    check("ring axioms", ring_axioms)
    check("compose/reversion round trips", inverse_pairs)
    check("Laurent unit inversion", unit_inverse)
    check("residue identities", residues)
    check("Lambert basis factors (closed form vs reversion)", basis_factors_check)
    return results
