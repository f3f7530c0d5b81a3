import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from hurwitzrec.poleform import PoleForm, splits
from hurwitzrec.series import Series, TruncationError, residue_of_product
from hurwitzrec.toprec import (
    LambertEngine,
    bergman_expansion,
    deck_involution,
    is_stable,
    lambert_x,
    make_lambert_curve,
    odd_coordinate,
    recursion_kernel,
    required_order,
)

F = Fraction


@pytest.fixture(scope="module")
def engine():
    return LambertEngine(order=required_order(2, 2))


class TestCurve:
    def test_x_local_expansion(self):
        c = make_lambert_curve(10)
        assert c.x_local.coefficient(0) == -1
        assert c.x_local.coefficient(1) == 0
        assert c.x_local.coefficient(2) == F(-1, 2)
        assert c.x_local.coefficient(3) == F(1, 3)
        assert c.x_local.coefficient(4) == F(-1, 4)

    def test_y_local_exact(self):
        c = make_lambert_curve(10)
        assert c.y_local == Series(0, [1, 1], None)

    def test_minimum_order(self):
        with pytest.raises(ValueError):
            make_lambert_curve(7)

    def test_omega_leading_order(self):
        # (y - y o sigma) * x' = (zeta - sigma) * x' = -2 zeta^2 + ...
        c = make_lambert_curve(10)
        assert c.omega_local.min_exponent == 2
        assert c.omega_local.coefficient(2) == -2


def newton_deck_involution(x_local, order):
    """Naive reference for sigma: Newton iteration on x(sigma) = x, doubling
    the known order each step from sigma = -zeta + O(zeta^2)."""
    p = x_local - Series.constant(x_local.coefficient(0))
    dp = p.derivative()
    sigma = Series(1, [-1], 2)
    while sigma.trunc_order < order:
        t_new = min(2 * sigma.trunc_order - 1, order)
        guess = Series(1, sigma.coefficients, t_new)
        resid = p.compose(guess) - p
        sigma = (guess - resid * dp.compose(guess).invert_unit()).truncate(t_new)
    return sigma


class TestDeckInvolution:
    def test_lambert_leading_terms(self):
        c = make_lambert_curve(10)
        assert c.sigma.coefficient(1) == -1
        assert c.sigma.coefficient(2) == F(2, 3)
        assert c.sigma.coefficient(3) == F(-4, 9)
        assert c.sigma.coefficient(4) == F(44, 135)

    def test_pure_quadratic(self):
        x = Series(0, [-1, 0, F(-1, 2)], None)
        sigma = deck_involution(x, 10)
        assert sigma.agrees_with(Series.monomial(-1, 1))

    def test_involution_property(self):
        c = make_lambert_curve(12)
        assert c.sigma.compose(c.sigma).agrees_with(Series.identity(12))

    def test_fixes_x(self):
        c = make_lambert_curve(12)
        assert c.x_local.compose(c.sigma).agrees_with(c.x_local)

    def test_rejects_non_simple(self):
        x = Series(0, [-1, 0, 0, 1], None)  # cubic branch point
        with pytest.raises(ValueError):
            deck_involution(x, 10)

    @pytest.mark.parametrize("order", range(8, 41))
    def test_matches_newton_reference(self, order):
        # x known to exactly order + 1, the least deck_involution accepts
        x = lambert_x(order + 1)
        assert deck_involution(x, order) == newton_deck_involution(x, order)

    def test_matches_newton_reference_off_lambert(self):
        x = Series(0, [-1, 0, -3, 5, 7], None)
        assert deck_involution(x, 16) == newton_deck_involution(x, 16)

    def test_odd_coordinate_squares_to_x(self):
        # x = x0 + c2*xi^2, checked from the definition for the Lambert x
        x = lambert_x(21)
        xi = odd_coordinate(x, 20)
        assert (-1 + (xi * xi).scale(F(-1, 2))).agrees_with(x.truncate(21))


class TestBergman:
    def test_expansion_entries(self):
        got = bergman_expansion(3)
        assert got == [(2, F(1)), (3, F(2)), (4, F(3))]


class TestKernel:
    def test_k2_closed_form(self, engine):
        # with the oracle-validated sign, K_2 = -(1+zeta)/(2 zeta)
        k2 = engine.kernel[2]
        assert k2.coefficient(-1) == F(-1, 2)
        assert k2.coefficient(0) == F(-1, 2)
        assert all(k2.coefficient(n) == 0 for n in range(1, k2.trunc_order))

    def test_min_exponent(self, engine):
        # the kernel as a whole has a simple pole (attained at p = 2)
        assert min(s.min_exponent for s in engine.kernel.values()) == -1

    def test_denominator_order_guard(self):
        c = make_lambert_curve(10)

        class Stub:
            omega_local = c.omega_local.shift(1)
            order = 10
            sigma = c.sigma

        with pytest.raises(ValueError):
            recursion_kernel(Stub)


class TestStability:
    def test_domain(self):
        assert is_stable(0, 3) and is_stable(1, 1)
        assert not is_stable(0, 1) and not is_stable(0, 2)

    def test_rejections(self, engine):
        with pytest.raises(ValueError, match="Bergman"):
            engine.w(0, 2)
        with pytest.raises(ValueError, match="-y dx"):
            engine.w(0, 1)
        with pytest.raises(ValueError):
            engine.w(-1, 3)

    def test_insufficient_order(self):
        eng = LambertEngine(order=8)
        with pytest.raises(ValueError, match="order"):
            eng.w(2, 1)


class TestSmallForms:
    def test_w03(self, engine):
        assert engine.w(0, 3).terms == {(2, 2, 2): F(1)}

    def test_w11(self, engine):
        w11 = engine.w(1, 1)
        assert w11.terms == {(2,): F(-1, 24), (3,): F(1, 12), (4,): F(1, 8)}
        assert w11.max_pole_order == 4
        assert w11.coefficient((1,)) == 0

    def test_symmetric_queries(self, engine):
        w = engine.w(0, 4)
        for key in w.terms:
            for perm in itertools.permutations(key):
                assert w.coefficient(perm) == w.terms[key]

    def test_no_simple_poles(self, engine):
        for g, k in [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1)]:
            form = engine.w(g, k)
            assert all(key[-1] >= 2 for key in form.terms)


def ordered_terms(form):
    out = {}
    for key, c in form.terms.items():
        for perm in set(itertools.permutations(key)):
            out[perm] = c
    return out


def ordered_decomps(engine, h, m):
    if (h, m) == (0, 2):
        return [(-j, F(j + 1), (j + 2,)) for j in range(max(engine.kernel) - 1)]
    return [
        (key[0], c, key[1:]) for key, c in ordered_terms(engine.w(h, m)).items()
    ]


def row_values(engine, a, b):
    """(p, residue) pairs of one row of the engine's residue table."""
    row = engine.rows(a, b)
    if not row:
        return []
    den, p0, nums = row
    return [(p, F(v, den)) for p, v in enumerate(nums, p0)]


def w_by_ordered_assembly(engine, g, k):
    """Direct transcription of the residue recursion over ordered tuples and
    position subsets; independent of the multiset bookkeeping in the engine."""
    out = {}

    def acc(p, rest, val):
        key = (p, rest)
        out[key] = out.get(key, F(0)) + val

    if g >= 1:
        if (g - 1, k + 1) == (0, 2):
            ts = engine.two_sided_bergman()
            for p, piece in engine.kernel.items():
                v = residue_of_product(piece, ts)
                if v:
                    acc(p, (), v)
        else:
            for key, c in ordered_terms(engine.w(g - 1, k + 1)).items():
                for p, v in row_values(engine, key[0], key[1]):
                    acc(p, key[2:], c * v)

    positions = range(k - 1)
    for h in range(g + 1):
        for j_size in range(k):
            for jset in itertools.combinations(positions, j_size):
                if j_size == 0 and h == 0:
                    continue
                if j_size == k - 1 and h == g:
                    continue
                comp = [i for i in positions if i not in jset]
                for a, ca, qa in ordered_decomps(engine, h, j_size + 1):
                    for b, cb, qb in ordered_decomps(engine, g - h, k - j_size):
                        row = row_values(engine, a, b)
                        if not row:
                            continue
                        rest = [0] * (k - 1)
                        for pos, val in zip(jset, qa):
                            rest[pos] = val
                        for pos, val in zip(comp, qb):
                            rest[pos] = val
                        rest = tuple(rest)
                        for p, v in row:
                            acc(p, rest, ca * cb * v)

    terms = {}
    for (p, rest), val in out.items():
        if val:
            terms[(p,) + rest] = val
    return terms


class TestOrderedReference:
    @pytest.mark.parametrize(
        "g,k", [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (4, 1)]
    )
    def test_matches_multiset_assembly(self, g, k):
        """The reference sweeps every ordered split, so it checks the
        engine's one sweep per unordered split; (2, 3) and (4, 1) have
        splits equal to their swap."""
        engine = LambertEngine(order=required_order(g, k))
        reference = w_by_ordered_assembly(engine, g, k)
        form = engine.w(g, k)
        # reference carries ordered tuples; they must be permutation-invariant
        # and agree with the canonical storage
        for key, val in reference.items():
            assert val == form.coefficient(key), (key, val)
        expanded = ordered_terms(form)
        assert set(reference) == set(expanded)


class TestStructuralInvariants:
    @pytest.mark.parametrize("g,k", [(0, 3), (0, 4), (1, 1), (1, 2), (2, 2)])
    def test_sheet_antisymmetry(self, engine, g, k):
        """Adding one variable's expansion on the two sheets (with the
        differential pulled back) cancels every pole and the constant term:
        in the odd coordinate s the forms carry only odd negative powers, so
        their symmetrization is regular and vanishes at the branch point."""
        form = engine.w(g, k)
        rests = {key[1:] for key in ordered_terms(form)}
        for rest in rests:
            total = Series.zero()
            for a in range(1, form.max_pole_order + 1):
                c = form.coefficient((a,) + rest)
                if c:
                    direct = Series.monomial(c, -a)
                    other_sheet = engine.ebar(a).scale(c)
                    total = total + direct + other_sheet
            assert total.is_zero or total.min_exponent >= 1, (g, k, rest)

    def test_residue_rows_sheet_symmetric(self):
        """rows(a, b) == rows(b, a): the kernel is invariant under the deck
        involution and a residue under zeta -> sigma(zeta).  The engine
        sweeps each unordered split once on the strength of this identity.
        Checked on a fixed grid of pole data at order 34, independent of
        which rows the recursion asks for: a pair is resolvable exactly when
        its swap is, and then the two rows are equal."""
        eng = LambertEngine(order=34)

        def row(a, b):
            try:
                return eng.rows(a, b)
            except TruncationError:
                return None

        resolved = 0
        for a in range(-10, 30):
            for b in range(-10, 30):
                here = row(a, b)
                assert here == row(b, a), (a, b)
                resolved += here is not None
        assert resolved == 1222

    def test_order_robustness(self):
        lo = LambertEngine(order=required_order(2, 1))
        hi = LambertEngine(order=required_order(2, 1) + 4)
        for g, k in [(0, 3), (1, 1), (1, 2), (2, 1)]:
            assert lo.w(g, k) == hi.w(g, k)

    def test_determinism_fresh_engine(self, engine):
        other = LambertEngine(order=engine.order)
        for g, k in [(0, 3), (1, 2), (2, 1)]:
            a, b = engine.w(g, k), other.w(g, k)
            assert a == b
            assert a.canonical_json() == b.canonical_json()


class TestFg:
    def test_rejects_low_genus(self, engine):
        with pytest.raises(ValueError):
            engine.f_g(1)

    def test_phi_constant_independence(self):
        # the constant of the primitive Phi pairs only with an order-1 pole
        eng = LambertEngine(order=required_order(3, 1))
        assert eng.w(2, 1).coefficient((1,)) == 0
        assert eng.w(3, 1).coefficient((1,)) == 0

    def test_snapshots(self):
        # self-snapshots: no external ground truth exists for these
        eng = LambertEngine(order=required_order(3, 1))
        assert eng.f_g(2) == 0
        assert eng.f_g(3) == 0
        assert eng.w(2, 1).terms == {
            (4,): F(7, 960),
            (5,): F(-37, 1440),
            (6,): F(-19, 128),
            (7,): F(35, 96),
            (8,): F(133, 72),
            (9,): F(35, 16),
            (10,): F(105, 128),
        }


class TestPoleFormSerialization:
    def test_round_trip(self, engine):
        form = engine.w(1, 2)
        again = PoleForm.from_json(form.canonical_json())
        assert again == form

    def test_canonical_ordering(self):
        form = PoleForm(0, 3, {(2, 3, 2): F(5), (2, 2, 2): F(1)})
        obj = json.loads(form.canonical_json())
        assert obj["terms"][0]["a"] == [2, 2, 2]
        assert obj["terms"][1]["a"] == [3, 2, 2]
        assert obj["terms"][0]["c"] == "1/1"


class TestRepresentation:
    def test_lowest_terms_over_one_denominator(self):
        a = PoleForm(0, 3, {(2, 2, 2): F(3, 6)})
        b = PoleForm(0, 3, {(2, 2, 2): 3}, den=6)
        assert a == b
        assert b.den == 2 and b.nums == {(2, 2, 2): 1}
        assert b.terms == {(2, 2, 2): F(1, 2)}

    def test_engine_forms_in_lowest_terms(self):
        eng = LambertEngine(order=required_order(3, 1))
        eng.w(2, 2)
        eng.w(3, 1)
        assert {(0, 4), (1, 3), (2, 2), (3, 1)} <= eng._memo.keys()
        for form in eng._memo.values():
            assert form.den > 0
            assert gcd(form.den, *form.nums.values()) == 1
            assert form.decompositions()[0] == form.den

    def test_decompositions_group_by_rest(self):
        """Putting each (rest, a) back together gives exactly the stored
        numerators, and each key appears once per distinct value of its
        parts."""
        eng = LambertEngine(order=required_order(3, 1))
        eng.w(2, 2)
        eng.w(3, 1)
        for form in eng._memo.values():
            den, groups = form.decompositions()
            assert den == form.den
            seen = Counter()
            for rest, group in groups.items():
                assert group
                for a, num in group.items():
                    key = tuple(sorted(rest + (a,), reverse=True))
                    assert form.nums[key] == num, (form, rest, a)
                    seen[key] += 1
            assert seen == {key: len(set(key)) for key in form.nums}

    def test_splits_against_counter(self):
        rng = random.Random(7)
        for _ in range(300):
            key = tuple(sorted((rng.randint(1, 6) for _ in range(rng.randint(0, 7))), reverse=True))
            expected = []
            for a in Counter(key):
                rest = list(key)
                rest.remove(a)
                expected.append((a, tuple(rest)))
            assert list(splits(key)) == expected


class TestFingerprint:
    def test_covers_sign_convention(self):
        # the recipe hashes the fixed sign as "sign=1", and not the order
        a = LambertEngine(order=10)
        assert a.fingerprint() == LambertEngine(order=14).fingerprint()

    def test_pinned_literals(self):
        # caches written by earlier versions of this engine carry these
        # strings; a change of the fingerprint recipe would orphan them
        for order in (8, 20):
            assert LambertEngine(order=order).fingerprint() == "daf91dc4013b9690"
