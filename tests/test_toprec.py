import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzrec import sweeps
from hurwitzrec.poleform import PoleForm, basis_poles, contract_slots, pole_basis, splits
from hurwitzrec.series import TruncationError
from hurwitzrec.sweeps import bergman_sweep, check_deck_involution, pair_sweep
from hurwitzrec.toprec import FINGERPRINT, LambertEngine, is_stable, required_order
from curve_reference import lambert_x, odd_coordinate, sigma_series, x_series
from pole_reference import (
    _orderings,
    ordered_pole_expansion,
    reference_pole_terms,
    slot_by_slot_contract,
)
from series_reference import Series, agrees_with, clear_denominators, compose, zero

F = Fraction


@pytest.fixture(scope="module")
def engine():
    return LambertEngine(order=required_order(2, 2))


class TestCurve:
    def test_x_local_expansion(self):
        x = lambert_x(10)
        assert len(x) == 10
        assert x[:5] == [-1, 0, F(-1, 2), F(1, 3), F(-1, 4)]

    def test_minimum_order(self):
        with pytest.raises(ValueError, match="at least 8"):
            LambertEngine(order=7).recursion.sigma

    def test_omega_leading_order(self):
        # (y - y o sigma) * x' = (zeta - sigma) * x' = -2 zeta^2 + ...
        sigma = sigma_series(LambertEngine(order=10))
        omega = (Series.identity(10) - sigma) * x_series(10).derivative()
        assert omega.min_exponent == 2
        assert omega.coefficient(2) == -2


def deck_involution(x_local, order):
    """Generic reference for sigma, for any x with a simple branch point:
    in the odd coordinate xi of `odd_coordinate` the involution is xi -> -xi,
    so sigma(zeta) = zeta(-xi(zeta)), by series reversion and composition.
    Needs x_local known strictly beyond ``order``."""
    xi = odd_coordinate(x_local, order)
    sigma = compose(xi.reversion(), -xi)
    # the identity fixes x too; the deck involution is -zeta + O(zeta^2)
    fixes_x = agrees_with(compose(x_local, sigma), x_local.truncate(order))
    if sigma.coefficient(1) != -1 or not fixes_x:
        raise ValueError("no deck involution exists at this order")
    return sigma


def newton_deck_involution(x_local, order):
    """Naive reference for sigma: Newton iteration on x(sigma) = x, doubling
    the known order each step from sigma = -zeta + O(zeta^2)."""
    p = x_local - x_local.coefficient(0)
    dp = p.derivative()
    sigma = Series(1, [-1], 2)
    while sigma.trunc_order < order:
        t_new = min(2 * sigma.trunc_order - 1, order)
        guess = Series(1, sigma.coefficients, t_new)
        resid = compose(p, guess) - p
        sigma = (guess - resid * compose(dp, guess).invert_unit()).truncate(t_new)
    return sigma


class TestDeckInvolution:
    def test_lambert_leading_terms(self):
        den, nums = LambertEngine(order=10).recursion.sigma
        assert len(nums) == 9 and gcd(den, *nums) == 1
        assert [F(v, den) for v in nums[:4]] == [-1, F(2, 3), F(-4, 9), F(44, 135)]

    def test_pure_quadratic(self):
        x = Series(0, [-1, 0, F(-1, 2)], 11)
        sigma = deck_involution(x, 10)
        assert sigma == Series.monomial(-1, 1, 10)

    def test_involution_property(self):
        sigma = sigma_series(LambertEngine(order=12))
        assert agrees_with(compose(sigma, sigma), Series.identity(12))

    def test_fixes_x(self):
        sigma = sigma_series(LambertEngine(order=12))
        x = x_series(12)
        assert agrees_with(compose(x, sigma), x)

    def test_rejects_non_simple(self):
        x = Series(0, [-1, 0, 0, 1], 11)  # cubic branch point
        with pytest.raises(ValueError):
            deck_involution(x, 10)

    @pytest.mark.parametrize("order", range(8, 41))
    def test_matches_newton_reference(self, order):
        # x known to exactly order + 1, the least deck_involution accepts
        x = x_series(order + 1)
        sigma = sigma_series(LambertEngine(order=order))
        assert sigma == deck_involution(x, order)
        assert sigma == newton_deck_involution(x, order)

    def test_matches_newton_reference_off_lambert(self):
        x = Series(0, [-1, 0, -3, 5, 7], 17)
        assert deck_involution(x, 16) == newton_deck_involution(x, 16)

    @pytest.mark.parametrize("n", [2, 13, 27])
    def test_residual_check_rejects_a_perturbed_coefficient(self, n):
        # the top coefficient included: it enters the residual at zeta^27 but
        # x(sigma) - x(zeta) only at zeta^28, so a check of x(sigma) = x(zeta)
        # below the truncation order would miss it
        sigma = LambertEngine(order=28).recursion.sigma
        assert check_deck_involution(sigma) is sigma
        den, perturbed = sigma[0], list(sigma[1])
        perturbed[n - 1] += den
        with pytest.raises(ValueError, match="no deck involution"):
            check_deck_involution((den, perturbed))

    def test_residual_check_rejects_the_identity(self):
        # the identity fixes x and solves the equation too
        with pytest.raises(ValueError, match="no deck involution"):
            check_deck_involution((1, [1] + [0] * 26))

    def test_odd_coordinate_squares_to_x(self):
        # x = x0 + c2*xi^2, checked from the definition for the Lambert x
        x = x_series(21)
        xi = odd_coordinate(x, 20)
        assert agrees_with(-1 + (xi * xi).scale(F(-1, 2)), x.truncate(21))


def reference_kernel(engine):
    """The recursion kernel built piece by piece, the reference for the
    engine's rows: ``{p: Series}`` with K_p = (zeta^(p-1) - sigma^(p-1)) /
    (2 omega), omega = (zeta - sigma) x', for p = 2 .. order - 5."""
    order, sigma = engine.order, sigma_series(engine)
    omega = (Series.identity(order) - sigma) * x_series(order).derivative()
    invden = omega.invert_unit()
    pieces, sigma_pow = {}, Series.constant(1, order)
    for p in range(2, order - 4):
        sigma_pow = (sigma_pow * sigma).truncate(order)
        pieces[p] = ((Series.monomial(1, p - 1, order) - sigma_pow) * invden).scale(F(1, 2))
    return pieces


def other_sheet(engine, b):
    """sigma' sigma^(-b): pole data b placed on the other sheet, as a Laurent
    series in zeta, one factor of sigma^(-1) or sigma at a time."""
    sigma = sigma_series(engine)
    factor = sigma.invert_unit() if b > 0 else sigma
    out = sigma.derivative()
    for _ in range(abs(b)):
        out = (out * factor).truncate(engine.order)
    return out


def two_sided_bergman(engine):
    """B(z(zeta), z(sigma(zeta))) = sigma' / (zeta - sigma)^2 pulled back to
    zeta, double pole kept."""
    sigma = sigma_series(engine)
    d = Series.identity(engine.order) - sigma
    return (sigma.derivative() * (d * d).invert_unit()).truncate(engine.order)


def index_poles(index):
    """A basis index as pole orders: xihat_e for e >= 1, and the residual
    t^(2j-1) (t-1) = -p_(2j-1) for -j."""
    return basis_poles(index) if index > 0 else {-2 * index - 1: -1}


def row_poles(den, row):
    """A basis row ``{index: num}`` over ``den`` read back into pole orders
    through `index_poles`: ``{p: Fraction}`` without zero entries."""
    out = {}
    for index, num in row.items():
        for p, c in index_poles(index).items():
            out[p] = out.get(p, 0) + F(num * c, den)
    return {p: v for p, v in out.items() if v}


class TestBergman:
    def test_expansion_entries(self, engine):
        # B(z0, z* + zeta) = sum_m (m + 1) zeta^m dz0 / (z0 - z*)^(m + 2), the
        # pole written in the basis: converted back, zeta^m carries (m+1) p_(m+2)
        den, groups = engine.recursion._bergman_terms
        assert all(len(rest) == 1 for rest in groups)
        assert groups[(1,)] == {0: den}  # p_2 = xihat_1
        poles = {}
        for (index,), group in groups.items():
            for power, num in group.items():
                for a, c in index_poles(index).items():
                    poles[power, a] = poles.get((power, a), 0) + F(num * c, den)
        # one entry per pole order of the kernel, p = 2 .. order - 5
        want = {(2 - p, p): p - 1 for p in reference_kernel(engine)}
        assert {key: c for key, c in poles.items() if c} == want


def bergman_closure(monkeypatch):
    """An engine at W(3, 4)'s order that has computed it, and every
    ``(decomposition, weight)`` its closure swept against W(0, 2)."""
    swept = []

    def recording(acc, den, rows, terms_b, weight):
        swept.append((terms_b, weight))
        bergman_sweep(acc, den, rows, terms_b, weight)

    monkeypatch.setattr(sweeps, "bergman_sweep", recording)
    engine = LambertEngine(order=required_order(3, 4))
    engine.w(3, 4)
    return engine, swept


class TestBergmanSweep:
    def test_equals_pair_sweep(self, monkeypatch):
        """For every decomposition W(3, 4)'s closure sweeps against W(0, 2),
        the Bergman loop over the engine's table of Bergman rows adds the
        same integers as `pair_sweep` with the Bergman decomposition as side
        A, at weights 1 and 2, into a running sum over a multiple of the
        sweep's own denominator."""
        engine, swept = bergman_closure(monkeypatch)
        recursion = engine.recursion
        bergman, table = recursion._bergman_terms, recursion.pair_table
        rows = recursion.bergman_rows
        # each of the 17 forms with k >= 2 sweeps it once: W(0, 3) with
        # weight 1 against the Bergman decomposition itself, the rest with 2
        assert len(swept) == 17
        assert [w for terms_b, w in swept if terms_b is bergman] == [1]
        repeated = 0
        for terms_b, _ in swept:
            den = 3 * bergman[0] * terms_b[0] * table.den
            for weight in (1, 2):
                fast, slow = {}, {}
                bergman_sweep(fast, den, rows, terms_b, weight)
                pair_sweep(slow, den, bergman, terms_b, table, weight)
                assert fast and fast == slow
            repeated += any(
                i in rb for rb, group in terms_b[1].items() for y in group for i in rows[y]
            )
        # most of them merge a row into a rest that holds its index already,
        # so a count above 1 is checked
        assert repeated == 14

    def test_rows_are_the_nonzero_contractions(self, monkeypatch):
        """Each row the Bergman table holds after W(3, 4)'s closure is the
        contraction of one Bergman group with one pulled slot, and a
        contraction that is zero is left out."""
        engine, _ = bergman_closure(monkeypatch)
        rows = engine.recursion.bergman_rows
        groups = engine.recursion._bergman_terms[1]
        assert len(groups) == 22 and len(rows) > 10
        for y, row_y in rows.items():
            for (i,), group in groups.items():
                row = sweeps.contract_pairs(group, y, engine.recursion.pair_table)
                assert row_y.get(i, {}) == row and all(row.values())

    def test_counts(self, monkeypatch):
        """Over W(3, 4)'s closure at order 28 (its 20 forms), the calls of
        the sweeps' inner steps, the entries `accumulate` adds and the rows
        written in the basis are pinned.  The Bergman term fills the row of
        each group for each pulled slot once for all forms, straight from
        the residue formula, so `contract_pairs` runs for the other sweeps
        only (1,524 calls when the Bergman rows were contracted through the
        pair table); it merges only the nonzero rows and takes no
        automorphism count; swept as a pair of forms it would take about
        four times the accumulations and six times the automorphism counts.
        The rows hold basis indices, about half as many entries as the
        residues by pole order they are made of, which would add 18,395
        entries.  `poles_to_basis` runs once per pair-table row and once per
        Bergman group and pulled slot that the residues reach."""
        calls = Counter()
        for name in ("contract_pairs", "accumulate", "aut_size", "poles_to_basis"):

            def counted(*args, _name=name, _real=getattr(sweeps, name)):
                calls[_name] += 1
                if _name == "accumulate":
                    calls["entries"] += len(args[2])
                return _real(*args)

            monkeypatch.setattr(sweeps, name, counted)
        engine = LambertEngine(order=required_order(3, 4))
        engine.w(3, 4)
        assert len(engine._memo) == 20
        assert calls == {
            "contract_pairs": 820,
            "accumulate": 2716,
            "aut_size": 777,
            "entries": 9034,
            "poles_to_basis": 147,
        }
        assert len(engine.recursion.pair_table) == 45 and len(engine.recursion.bergman_rows) == 32


def contracted_through_the_pair_table(engine, y):
    """The reference for a Bergman row ``R[y]``: each Bergman group
    ``(i,): {-m: num}`` contracted with the pulled slot y one read of a fresh
    pair table at a time, sum_m num * T[-m, y], every power m read whether
    its row is empty or not, and the groups whose sum is zero left out."""
    table = sweeps.PairTable(engine.recursion.u_table, engine.order)
    rows = {}
    for (i,), group in engine.recursion._bergman_terms[1].items():
        sums = {}
        for x, num in group.items():
            for index, v in table[x, y].items():
                sums[index] = sums.get(index, 0) + num * v
        row = {index: v for index, v in sums.items() if v}
        if row:
            rows[i] = row
    return rows


class TestBergmanFill:
    """The Bergman rows are filled in one pass from the residue formula.  A
    one-slot form W(g, 1) has no slot symmetry for `_assemble` to check, so
    a wrong row there could pass every check of the recursion; these tests
    hold every row to the contraction through the pair table."""

    @pytest.mark.parametrize("order", [8, 12, 20, 28, 40])
    def test_rows_equal_the_pair_table_contraction(self, order):
        engine = LambertEngine(order=order)
        top = sweeps.kernel_top(order)
        nonzero = 0
        for y in range(-(top - 2), top // 2 + 1):
            want = contracted_through_the_pair_table(engine, y)
            assert engine.recursion.bergman_rows[y] == want, y
            nonzero += len(want)
        # no pair-table row was filled for them
        assert nonzero > 0 and not engine.recursion.pair_table

    @pytest.mark.parametrize("order", [8, 12, 20, 28, 40])
    def test_truncation_boundary(self, order):
        """From the first slot y with top(y) = 2y > order - 3 on, both raise
        the same TruncationError, naming the pulled pair (0, y).  So does the
        basis index kernel_top // 2 + 1 just before it, which passes that
        bound but has no row in the residue table."""
        engine = LambertEngine(order=order)
        first = (order - 3) // 2 + 1
        for y in (sweeps.kernel_top(order) // 2 + 1, first, first + 1):
            with pytest.raises(TruncationError) as reference:
                contracted_through_the_pair_table(engine, y)
            with pytest.raises(TruncationError) as filled:
                engine.recursion.bergman_rows[y]
            assert str(filled.value) == str(reference.value)
            assert str(filled.value) == (
                f"engine order {order} cannot resolve the residue for the pulled slots "
                f"(x=0, y={y})"
            )
            assert y not in engine.recursion.bergman_rows


class TestKernel:
    def test_k2_closed_form(self, engine):
        # with the oracle-validated sign, K_2 = -(1+zeta)/(2 zeta)
        k2 = reference_kernel(engine)[2]
        assert k2.coefficient(-1) == F(-1, 2)
        assert k2.coefficient(0) == F(-1, 2)
        assert all(k2.coefficient(n) == 0 for n in range(1, k2.trunc_order))

    def test_min_exponent(self, engine):
        # the kernel as a whole has a simple pole (attained at p = 2)
        assert min(s.min_exponent for s in reference_kernel(engine).values()) == -1

    def test_denominator_order_guard(self):
        # sigma = zeta + zeta^2 makes (zeta - sigma) x' vanish to third order:
        # s = sigma / zeta = 1 + zeta has constant term 1, not -1
        eng = LambertEngine(order=10)
        eng.recursion.sigma = 1, [1, 1] + [0] * 7
        with pytest.raises(ValueError, match="second order"):
            eng.recursion.halves


def reference_u_table(engine):
    """The pole-order residue table built from `Series` products, the
    reference for the slot rows: u(b) = zeta^(b+2) e(b), e(b) = sigma'
    sigma^(-b) / (2 omega), omega = (zeta - sigma) x', for -(order - 7) <=
    b <= order - 5.  u(0) is sigma' / (2 omega) shifted, and u(b) = s^(-b)
    u(0), s = sigma / zeta, one factor at a time; cleared of denominators
    at the end over all entries at once."""
    order, sigma = engine.order, sigma_series(engine)
    omega = (Series.identity(order) - sigma) * x_series(order).derivative()
    s = sigma.shift(-1)
    s_inv = s.invert_unit()
    u = {0: (sigma.derivative() * omega.invert_unit()).scale(F(1, 2)).shift(2)}
    for b in range(1, order - 4):
        u[b] = u[b - 1] * s_inv
    for b in range(-1, 6 - order, -1):
        u[b] = u[b + 1] * s
    known = order - 2
    den, nums = clear_denominators(
        [f.coefficient(n) for f in u.values() for n in range(known)]
    )
    return den, {b: nums[i * known : (i + 1) * known] for i, b in enumerate(u)}


def slot_poles(s):
    """A pulled slot as pole orders: a basis index through the slot map, a
    Bergman power as itself."""
    return basis_poles(s) if s > 0 else {s: 1}


def slot_range(order):
    """The pulled slots the residue table has a row for."""
    return range(-(order - 7), (order - 5) // 2 + 1)


def slot_table(pole_table, slots, known):
    """``(den, {s: U_s})`` from a pole-order table ``(den, {b: u(b)})``:
    U_s = zeta^(top(s)+2) sum_b P_s[b] e(b) = sum_b P_s[b] zeta^(top(s)-b)
    u(b), top(s) the largest pole order of slot s."""
    den, u = pole_table
    rows = {}
    for s in slots:
        poles = slot_poles(s)
        top = max(poles)
        rows[s] = [
            sum(c * u[b][n - top + b] for b, c in poles.items() if n - top + b >= 0)
            for n in range(known)
        ]
    return den, rows


def pole_pair_row(pole_table, order, x, y):
    """The pair-table row of slots x and y as the sum over their pole pairs
    (a, b) of the pole rows u(a)[n] + u(b)[n], n = a + b + 2 - p, for p = 2
    .. min(a + b + 2, order - 5): ``{p: num}`` over the table's denominator,
    zeros dropped, or None when some a + b > order - 3, beyond the table."""
    _, u = pole_table
    sums = {}
    for a, ca in slot_poles(x).items():
        for b, cb in slot_poles(y).items():
            if a + b > order - 3:
                return None
            for p in range(2, min(a + b + 2, order - 5) + 1):
                n = a + b + 2 - p
                sums[p] = sums.get(p, 0) + ca * cb * (u[a][n] + u[b][n])
    return {p: v for p, v in sums.items() if v}


def row_length(order, s):
    """The coefficients the residue table stores for slot s: order - 2 for
    a basis index, order - 2 - m for the Bergman power -m."""
    return order - 2 - max(0, -s)


def table_series(engine, s):
    """U_s read back from the residue table as a Series known as far as the
    table stores it."""
    den, u = engine.recursion.u_table
    return Series(0, [F(v, den) for v in u[s]], len(u[s]))


def slot_tops(key):
    """The top pole orders of a pair of pulled slots."""
    return [max(slot_poles(s)) for s in key]


class TestResidueTable:
    @pytest.mark.parametrize("order", [8, 12, 20])
    def test_u_is_a_power_of_s_times_u0(self, order):
        """Each slot row is its definition U_s = zeta^(top(s)+2) R_s / (2
        (zeta - sigma)), with R_s = sum_b P_s[b] sigma' sigma^(-b) / x' the
        slot on the other sheet over dx, taken pole by pole: a power series
        with a nonzero constant term.  Each Bergman row is U_(-m) = s^m U_0,
        s = sigma / zeta.  Every stored coefficient is checked, and each row
        holds exactly `row_length` of them."""
        engine = LambertEngine(order=order)
        assert sorted(engine.recursion.u_table[1]) == list(slot_range(order))
        sigma = sigma_series(engine)
        omega = (Series.identity(order) - sigma) * x_series(order).derivative()
        half_over_omega = omega.invert_unit().scale(F(1, 2))
        s = sigma.shift(-1)
        u0 = table_series(engine, 0)
        s_power = Series.constant(1, order - 2)
        for slot in slot_range(order):
            u = table_series(engine, slot)
            poles = slot_poles(slot)
            other = zero(order)
            for b, c in poles.items():
                other = other + other_sheet(engine, b).scale(c)
            defined = (other * half_over_omega).shift(max(poles) + 2)
            assert u.trunc_order == row_length(order, slot) <= defined.trunc_order, slot
            assert u.coefficient(0) != 0, slot
            assert defined.min_exponent == 0, slot
            assert agrees_with(defined, u), slot
        for m in range(1, order - 6):
            s_power = s_power * s
            assert agrees_with(u0 * s_power, table_series(engine, -m)), m

    @pytest.mark.parametrize("order", range(8, 41))
    def test_matches_series_product_reference(self, order):
        """Every slot row equals the sum over its pole orders of the rows of
        the pole-order reference, and every pair-table row, read back into
        pole orders, the sum over its pole pairs of the reference's rows
        u(a)[n] + u(b)[n]; exactly the slot pairs with a pole pair beyond the
        table raise.  A slot row holds exactly `row_length` coefficients,
        every one of them checked."""
        engine = LambertEngine(order=order)
        den, u = engine.recursion.u_table
        reference = reference_u_table(engine)
        ref_den, ref_u = slot_table(reference, slot_range(order), order - 2)
        assert sorted(u) == list(slot_range(order))
        for s, nums in u.items():
            assert len(nums) == row_length(order, s), s
            assert [v * ref_den for v in nums] == [v * den for v in ref_u[s][: len(nums)]], s
        table = engine.recursion.pair_table
        for x, y in itertools.product(slot_range(order), repeat=2):
            want = pole_pair_row(reference, order, x, y)
            if want is None:
                with pytest.raises(TruncationError):
                    table[x, y]
                continue
            got = row_poles(table.den, table[x, y])
            assert got == {p: F(v, ref_den) for p, v in want.items()}, (x, y)

    @pytest.mark.parametrize(
        "order, resolved, raised",
        [(8, 6, 2), (9, 15, 3), (12, 54, 6), (20, 294, 14), (28, 726, 22), (40, 1734, 34)],
    )
    def test_bergman_rows_read_as_full_length_rows(self, order, resolved, raised):
        """The residue table stops each Bergman row U_(-m) at `row_length`,
        short of the order - 2 coefficients of the series reference's rows.
        Every residue of a Bergman power -m (m = 0 .. top - 2) with a pulled
        slot y, and every Bergman row of y, is the one read from the full
        rows, or raises the same TruncationError, for y from -(top - 2) to
        the basis index past the table's last row."""
        engine = LambertEngine(order=order)
        recursion = engine.recursion
        top = sweeps.kernel_top(order)
        full_u = slot_table(reference_u_table(engine), slot_range(order), order - 2)
        full = sweeps.PairTable(full_u, order)
        full_rows = sweeps.BergmanRows(recursion._bergman_terms, full)

        def read(fill, *args):
            # the residues over the pair table's denominator, or the error
            try:
                return fill(*args)
            except TruncationError as exc:
                return str(exc)

        def residues(table, m, y):
            return [F(v, table.den) for v in table.residues(-m, y)]

        def bergman_row(table, rows, y):
            return {i: {j: F(v, table.den) for j, v in row.items()} for i, row in rows[y].items()}

        counts = Counter()
        for y in range(-(top - 2), top // 2 + 2):
            for m in range(top - 1):
                want = read(residues, full, m, y)
                assert read(residues, recursion.pair_table, m, y) == want, (m, y)
                counts["raised" if isinstance(want, str) else "resolved"] += 1
            want = read(bergman_row, full, full_rows, y)
            assert read(bergman_row, recursion.pair_table, recursion.bergman_rows, y) == want, y
        assert counts == {"resolved": resolved, "raised": raised}

    @pytest.mark.parametrize("order", [8, 12, 20, 28])
    def test_rows_equal_reference_residues(self, order):
        """Every pair-table row, read back into pole orders, equals the sum
        over its pole pairs of the residues of the kernel built piece by
        piece, for all slot pairs in the table's range that it resolves."""
        engine = LambertEngine(order=order)
        table = engine.recursion.pair_table
        reference = reference_rows(engine)
        for key in itertools.product(slot_range(order), repeat=2):
            if sum(slot_tops(key)) > order - 3:
                continue
            want = {}
            for a, ca in slot_poles(key[0]).items():
                for b, cb in slot_poles(key[1]).items():
                    for p, v in reference(a, b):
                        want[p] = want.get(p, 0) + ca * cb * v
            assert row_poles(table.den, table[key]) == {p: v for p, v in want.items() if v}, key

    @pytest.mark.parametrize("order", [8, 12, 20])
    def test_truncation_boundary(self, order):
        """A slot pair raises exactly from top(x) + top(y) = order - 2 on,
        where the series reference cannot determine the residue of the top
        pole pair either."""
        engine = LambertEngine(order=order)
        table = engine.recursion.pair_table
        reference = reference_rows(engine)
        for x, y in itertools.product(slot_range(order), repeat=2):
            top_x, top_y = slot_tops((x, y))
            if top_x + top_y <= order - 3:
                table[x, y]
                continue
            with pytest.raises(TruncationError, match=f"x={x}, y={y}"):
                table[x, y]
            if top_x + top_y == order - 2:
                with pytest.raises(TruncationError):
                    reference(top_x, top_y)
        # the basis index past the table's rows passes the bound, has no row
        y = sweeps.kernel_top(order) // 2 + 1
        with pytest.raises(TruncationError, match=f"x=0, y={y}"):
            table[0, y]

    def test_sweeps_stay_inside_the_bound(self, monkeypatch):
        """For every stable (g, k) with required order at most 30, the
        largest top(x) + top(y) its sweeps read is required_order(g, k) - 8,
        below the bound required_order(g, k) - 3 of the table at that order,
        so the CLI, which runs at the largest order a request needs, never
        reaches the bound.  The reads are those of the one residue formula,
        by the pair table and by the Bergman fill alike.  The pair table
        reads basis indices only.  The Bergman fill reads a power -m with a
        pulled slot y only for m <= top(y), so its powers reach need - 8 and
        no further: every slot lies in the table at the form's own order."""
        engine = LambertEngine(order=30)
        residues, reads = sweeps.PairTable.residues, []

        def recording(table, x, y):
            # (top(x) + top(y), the larger top, x, y) of this pair
            tops = slot_tops((x, y))
            reads.append((sum(tops), max(tops), x, y))
            return residues(table, x, y)

        monkeypatch.setattr(sweeps.PairTable, "residues", recording)
        cases = sorted(
            (required_order(g, k), g, k)
            for g in range(5)
            for k in range(1, 15)
            if is_stable(g, k) and required_order(g, k) <= 30
        )
        assert len(cases) == 38
        for need, g, k in cases:
            # every form a sweep of W(g, k) reads needs a lower order, so it is
            # in the memo already and, with the pair table and the Bergman
            # rows emptied, the reads recorded are W(g, k)'s own
            reads.clear()
            engine.recursion.pair_table.clear()
            engine.recursion.bergman_rows.clear()
            engine.w(g, k)
            if (g, k) == (1, 1):
                # its one sweep is the two-sided Bergman term, read from the halves
                assert not reads
                continue
            tops, highs, xs, ys = zip(*reads)
            assert max(tops) == need - 8 and max(highs) <= need - 5, (g, k)
            pairs = [(x, y) for x, y in zip(xs, ys) if x > 0]
            powers = [(-x, y) for x, y in zip(xs, ys) if x <= 0]
            assert all(y > 0 for _, y in pairs), (g, k)
            assert all(m <= slot_tops((y, y))[0] for m, y in powers), (g, k)
            # the Bergman term is one of every form with k >= 2
            assert max((m for m, _ in powers), default=None) == (need - 8 if k >= 2 else None)


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

    def test_key_outside_the_window_refused(self):
        # one pair-table entry raised by 1 gives W(2,1) a nonzero key (2,),
        # below its window; a one-slot form has no slot symmetry to break
        eng = LambertEngine(order=required_order(2, 1))
        eng.w(1, 2)
        row = dict(eng.recursion.pair_table[1, 1])
        row[2] += 1
        eng.recursion.pair_table[1, 1] = row
        with pytest.raises(ArithmeticError, match=r"outside the Hodge window .* at \(2,\)"):
            eng.w(2, 1)


class TestSmallForms:
    def test_w03(self, engine):
        assert engine.w(0, 3).terms == {(1, 1, 1): F(1)}
        assert engine.w(0, 3).pole_terms() == {(2, 2, 2): F(1)}

    def test_w11(self, engine):
        w11 = engine.w(1, 1)
        assert w11.pole_terms() == {(2,): F(-1, 24), (3,): F(1, 12), (4,): F(1, 8)}
        assert max(key[0] for key in w11.pole_terms()) == 4
        assert (1,) not in w11.pole_terms()

    def test_w11_alone_builds_no_tables(self):
        """W(1,1)'s only term is the two-sided Bergman row, taken from the
        two halves: no residue table, pair table, Bergman decomposition or
        Bergman rows."""
        engine = LambertEngine(10)
        assert engine.w(1, 1).pole_terms() == {(2,): F(-1, 24), (3,): F(1, 12), (4,): F(1, 8)}
        tables = {"u_table", "pair_table", "_bergman_terms", "bergman_rows"}
        built = tables & engine.recursion.__dict__.keys()
        assert not built
        assert {"sigma", "halves"} <= engine.recursion.__dict__.keys()

    def test_symmetric_queries(self, engine):
        """Every ordering of a pole multi-index reads the pole view's value:
        expanding each ordering of each key slot by slot, with no symmetry
        assumed, gives `pole_terms` on every permutation of its keys."""
        for g, k in [(0, 4), (1, 2), (2, 2)]:
            w = engine.w(g, k)
            assert ordered_pole_expansion(w) == ordered_terms(w), (g, k)

    def test_no_simple_poles(self, engine):
        for g, k in [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1)]:
            form = engine.w(g, k)
            assert all(key[-1] >= 2 for key in form.pole_terms())


def ordered_terms(form):
    """The pole view of a form on ordered tuples."""
    out = {}
    for key, c in form.pole_terms().items():
        for perm in set(itertools.permutations(key)):
            out[perm] = c
    return out


def ordered_decomps(engine, h, m):
    if (h, m) == (0, 2):
        return [(-j, F(j + 1), (j + 2,)) for j in range(engine.order - 6)]
    return [
        (key[0], c, key[1:]) for key, c in ordered_terms(engine.w(h, m)).items()
    ]


def reference_rows(engine):
    """``row(a, b)``: the nonzero (p, Res[K_p zeta^(-a) sigma' sigma^(-b)])
    pairs, each residue taken against the kernel built piece by piece;
    memoized per pole data."""
    kernel = reference_kernel(engine)
    sheets, rows = {}, {}

    def row(a, b):
        if (a, b) not in rows:
            if b not in sheets:
                sheets[b] = other_sheet(engine, b)
            s = sheets[b].shift(-a)
            rows[a, b] = [
                (p, v) for p, piece in kernel.items() if (v := (piece * s).coefficient(-1))
            ]
        return rows[a, b]

    return row


def w_by_ordered_assembly(engine, g, k):
    """Direct transcription of the residue recursion over ordered tuples and
    position subsets; independent of the multiset bookkeeping and of the
    residue table in the engine.  Every residue, the two-sided Bergman term
    included, is taken against the kernel built piece by piece."""
    out = {}
    row_values = reference_rows(engine)

    def acc(p, rest, val):
        key = (p, rest)
        out[key] = out.get(key, F(0)) + val

    if g >= 1:
        if (g - 1, k + 1) == (0, 2):
            ts = two_sided_bergman(engine)
            for p, piece in reference_kernel(engine).items():
                v = (piece * ts).coefficient(-1)
                if v:
                    acc(p, (), v)
        else:
            for key, c in ordered_terms(engine.w(g - 1, k + 1)).items():
                for p, v in row_values(key[0], key[1]):
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
                        row = row_values(a, b)
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
        # and agree with the canonical storage read in the pole basis
        poles = form.pole_terms()
        for key, val in reference.items():
            assert val == poles.get(tuple(sorted(key, reverse=True))), (key, val)
        expanded = ordered_terms(form)
        assert set(reference) == set(expanded)


class TestStructuralInvariants:
    @pytest.mark.parametrize("g,k", [(0, 3), (0, 4), (1, 1), (1, 2), (2, 2)])
    def test_sheet_antisymmetry(self, engine, g, k):
        """Adding one variable's expansion on the two sheets (with the
        differential pulled back) cancels every pole and the constant term:
        in the odd coordinate s the forms carry only odd negative powers, so
        their symmetrization is regular and vanishes at the branch point."""
        ordered = ordered_terms(engine.w(g, k))
        top = max(key[0] for key in ordered)
        rests = {key[1:] for key in ordered}
        for rest in rests:
            total = zero(engine.order)
            for a in range(1, top + 1):
                c = ordered.get((a,) + rest)
                if c:
                    direct = Series.monomial(c, -a, engine.order)
                    total = total + direct + other_sheet(engine, a).scale(c)
            assert total.is_zero or total.min_exponent >= 1, (g, k, rest)

    def test_residue_rows_sheet_symmetric(self):
        """T[x, y] == T[y, x]: the kernel is invariant under the deck
        involution and a residue under zeta -> sigma(zeta), and a pair-table
        row is the sum of one read of U_y and one of U_x.  The engine sweeps
        each unordered split once on the strength of this identity.
        Checked on a fixed grid of slots at order 34, each row in a fresh
        table so that neither orientation is the other read back, and
        independent of which rows the recursion asks for: a pair is
        resolvable exactly when its swap is, and then the two rows are
        equal."""
        eng = LambertEngine(order=34)

        def row(x, y):
            try:
                return sweeps.PairTable(eng.recursion.u_table, eng.order)[x, y]
            except TruncationError:
                return None

        resolved = 0
        for x in range(-10, 15):
            for y in range(-10, 15):
                here = row(x, y)
                assert here == row(y, x), (x, y)
                resolved += here is not None
        assert resolved == 534

    def test_order_robustness(self):
        lo = LambertEngine(order=required_order(2, 1))
        hi = LambertEngine(order=required_order(2, 1) + 4)
        for g, k in [(0, 3), (1, 1), (1, 2), (2, 1)]:
            assert lo.w(g, k) == hi.w(g, k)

    def test_forms_at_own_order(self):
        """Every stable form whose required order is at most 22, each from an
        engine at exactly that order, equals the form from one order-24
        engine: the lowest order a form is computed at determines it."""
        high = LambertEngine(order=24)
        cases = [
            (g, k)
            for g in range(5)
            for k in range(1, 12)
            if is_stable(g, k) and required_order(g, k) <= 22
        ]
        assert len(cases) == 20
        for g, k in cases:
            own = LambertEngine(order=required_order(g, k)).w(g, k)
            assert own.canonical_json() == high.w(g, k).canonical_json(), (g, k)

    def test_determinism_fresh_engine(self, engine):
        other = LambertEngine(order=engine.order)
        for g, k in [(0, 3), (1, 2), (2, 1)]:
            a, b = engine.w(g, k), other.w(g, k)
            assert a == b
            assert a.canonical_json() == b.canonical_json()


class TestFg:
    def test_phi_constant_independence(self):
        # the constant of the primitive Phi pairs only with an order-1 pole
        eng = LambertEngine(order=required_order(3, 1))
        assert (1,) not in eng.w(2, 1).pole_terms()
        assert (1,) not in eng.w(3, 1).pole_terms()

    def test_snapshots(self):
        # self-snapshots: no external ground truth exists for these
        eng = LambertEngine(order=required_order(3, 1))
        assert eng.w(2, 1).pole_terms() == {
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
        again = PoleForm.from_obj(json.loads(json.dumps(form.to_obj())))
        assert again == form

    def test_canonical_ordering(self):
        # xihat_1 = p_2 and xihat_2 = 2 p_3 + 3 p_4, one slot at a time
        form = PoleForm(0, 3, {(1, 2, 1): F(5), (1, 1, 1): F(1)})
        obj = json.loads(form.canonical_json())
        assert [t["a"] for t in obj["terms"]] == [[2, 2, 2], [3, 2, 2], [4, 2, 2]]
        assert [t["c"] for t in obj["terms"]] == ["1/1", "10/1", "15/1"]
        assert form.to_obj()["terms"] == [
            {"e": [1, 1, 1], "c": "1/1"},
            {"e": [2, 1, 1], "c": "5/1"},
        ]


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

    def test_orderings_against_permutations(self):
        # drawn from a decreasing pool, each key is weakly decreasing
        for n in range(7):
            for key in itertools.combinations_with_replacement((4, 3, 2, 1, -1), n):
                assert _orderings(key) == len(set(itertools.permutations(key))), key


def brute_contract(nums, k, factors, budget):
    """`contract_slots` by definition: every weakly decreasing label tuple
    and every distinct ordering of every key."""
    out = {}
    for labels in itertools.combinations_with_replacement(range(budget, 0, -1), k):
        if sum(labels) > budget:
            continue
        total = 0
        for key, num in nums.items():
            for ordered in set(itertools.permutations(key)):
                term = num
                for m, e in zip(labels, ordered):
                    term *= factors[m][e]
                total += term
        if total:
            out[labels] = total
    return out


@st.composite
def slot_walk_inputs(draw):
    """``(nums, k, factors, budget)`` for `contract_slots`: a random symmetric
    integer k-form, k <= 9, on indices 1 .. top, and a factor table for the
    labels 1 .. budget <= 12 whose label-1 row is all zeros, all ones or
    mixed, the other rows holding zeros anywhere."""
    k = draw(st.integers(1, 9))
    budget = draw(st.integers(k, 12))
    top = draw(st.integers(1, 5))
    indices = st.lists(st.integers(1, top), min_size=k, max_size=k)
    keys = st.lists(indices.map(lambda e: tuple(sorted(e, reverse=True))), min_size=1, max_size=8)
    nums = {key: draw(st.integers(-9, 9).filter(bool)) for key in draw(keys)}
    row = st.lists(st.sampled_from((0, 0, 1, -2, 3)), min_size=top + 1, max_size=top + 1)
    ones = draw(st.sampled_from(([0] * (top + 1), [1] * (top + 1), None)))
    if ones is None:
        ones = draw(row)
    rows = draw(st.lists(row, min_size=budget - 1, max_size=budget - 1))
    return nums, k, [None, ones] + rows, budget


class TestSlotWalk:
    @settings(max_examples=300, deadline=None)
    @given(slot_walk_inputs())
    def test_one_pass_tail_equals_the_slot_by_slot_walk(self, inputs):
        """Ending a run of 1-labels in one pass, each rest counted in all of
        its orderings, gives what the walk gives one slot at a time."""
        assert contract_slots(*inputs) == slot_by_slot_contract(*inputs)

    def test_contract_slots_by_definition(self):
        """Random forms and factor tables with zeros anywhere in a row: a
        zero above a row's lowest nonzero factor must not end a key's scan."""
        rng = random.Random(29)
        for _ in range(60):
            k = rng.randint(1, 4)
            top = rng.randint(1, 4)
            nums = {}
            for _ in range(rng.randint(1, 5)):
                key = tuple(sorted((rng.randint(1, top) for _ in range(k)), reverse=True))
                nums[key] = rng.randint(-9, 9) or 1
            budget = rng.randint(k, 9)
            factors = [None] + [
                [rng.choice((0, 0, 1, -2, 3)) for _ in range(top + 1)] for _ in range(budget)
            ]
            assert contract_slots(nums, k, factors, budget) == brute_contract(
                nums, k, factors, budget
            ), (nums, factors, budget)

    def test_pole_view_equals_polynomial_reference(self):
        """The slot walk gives the commuting-polynomial expansion's pole view
        on every form of W(3,4)'s closure, and on W(4,5) and W(3,8)."""
        closure = LambertEngine(order=required_order(3, 4))
        closure.w(3, 4)
        assert len(closure._memo) == 20
        forms = list(closure._memo.values())
        forms += [LambertEngine(order=required_order(g, k)).w(g, k) for g, k in [(4, 5), (3, 8)]]
        for form in forms:
            assert form.pole_terms() == reference_pole_terms(form), form


class TestFingerprint:
    def test_pinned_literals(self):
        # caches written by earlier versions of this engine carry this
        # string; a change of the fingerprint recipe would orphan them
        assert FINGERPRINT == "daf91dc4013b9690"

    def test_recipe_gives_the_literal(self):
        # the fingerprint is a module constant; a new one is put in together
        # with the engine number of its recipe here
        import hashlib

        coeffs = ",".join(str(c) for c in lambert_x(8))
        raw = f"lambert-t1|engine=2|sign=1|x={coeffs}"
        assert hashlib.sha256(raw.encode()).hexdigest()[:16] == "daf91dc4013b9690"


def test_form_bytes_pinned():
    """sha256 of canonical_json() for five forms from one order-28 engine:
    a change to the series, kernel or sweep code that moves one coefficient
    of the recursion's output, or the JSON layout, fails here."""
    import hashlib

    engine = LambertEngine(order=28)
    pinned = {
        (0, 6): "b820a4c8da357b2c202f7975336389d9f635910d5a2aabaf5c2055c9b1d8c87c",
        (1, 5): "327ce0c6161750c66a9089f960f0a533a63119b47b4665b853a52ab6d035c864",
        (2, 3): "56900d52722ceccbb8a70c877cb43aa0620bb86ad523de8068eebafd71bf0677",
        (3, 2): "2b50b7b58b6562f228ee152a6c3bba3621a4ccedaa10cb1b17752379e25c80b9",
        (4, 1): "0420959c271cb007d9caa8a5bf53e93c27d42b460f219d87923e5cb7b8499643",
    }
    for (g, k), digest in pinned.items():
        form = engine.w(g, k).canonical_json().encode()
        assert hashlib.sha256(form).hexdigest() == digest, (g, k)


def reference_basis_poles(e):
    """xihat_e in the pole basis from its definition: Fraction polynomials in
    t, xihat_0 = t - 1 and xihat_(e+1) = (t-1) t^2 d/dt xihat_e, then p_a =
    (-1)^a t^a (t-1) peeled off from the top degree down."""
    poly = {0: F(-1), 1: F(1)}
    for _ in range(e):
        deriv = {i - 1: i * c for i, c in poly.items() if i}
        t2_deriv = {i + 2: c for i, c in deriv.items()}
        poly = {}
        for i, c in t2_deriv.items():  # (t - 1) * t^2 xihat'
            poly[i + 1] = poly.get(i + 1, 0) + c
            poly[i] = poly.get(i, 0) - c
        poly = {i: c for i, c in poly.items() if c}
    out = {}
    while poly:
        top = max(poly)
        c = poly[top] * (-1) ** (top - 1)  # p_(top-1) has leading (-1)^(top-1) t^top
        out[top - 1] = c
        for i, v in {top - 1: -1, top: 1}.items():
            poly[i] = poly.get(i, 0) - c * (-1) ** (top - 1) * v
        poly = {i: v for i, v in poly.items() if v}
    return out


class TestElsvBasis:
    def test_slot_map_from_definition(self):
        for e in range(12):
            assert basis_poles(e) == reference_basis_poles(e), e
            if e:
                assert min(basis_poles(e)) == e + 1 and max(basis_poles(e)) == 2 * e

    def test_pole_map_inverts_the_slot_map(self):
        """Every pole order written in the basis, the residuals included, and
        read back through the slot map is that pole order."""
        den, rows = pole_basis(35)
        assert sorted(rows) == list(range(1, 36))
        for p, row in rows.items():
            back = {}
            for index, num in row.items():
                for a, c in index_poles(index).items():
                    back[a] = back.get(a, 0) + F(num * c, den)
            assert {a: c for a, c in back.items() if c} == {p: 1}, p

    def test_linear_hodge_integrals(self):
        """The coefficient of the key (e,) of W(g,1) is (-1)^j <tau_(e-1)
        lambda_j>_g with e - 1 + j = 3g - 2: <tau_1>_1 = <lambda_1>_1 = 1/24,
        <tau_4>_2 = 1/1152, <tau_7>_3 = 1/82944, and the bottom term of W(3,1)
        is -b_3 = -31/967680 from the lambda_g formula."""
        eng = LambertEngine(order=required_order(3, 1))
        assert eng.w(1, 1).terms == {(2,): F(1, 24), (1,): F(-1, 24)}
        assert eng.w(2, 1).terms == {(5,): F(1, 1152), (4,): F(-1, 480), (3,): F(7, 5760)}
        assert eng.w(3, 1).terms == {
            (8,): F(1, 82944),
            (7,): F(-7, 138240),
            (6,): F(41, 580608),
            (5,): F(-31, 967680),
        }
        for g in (1, 2, 3):
            # <tau_(3g-3) lambda_1>_g = g (g + 4) / 5 * <tau_(3g-2)>_g
            w = eng.w(g, 1)
            assert w.terms[(3 * g - 2,)] == -F(g * (g + 4), 5) * w.terms[(3 * g - 1,)]

    def test_keys_fill_the_window(self):
        """Every key of every form of an order-28 engine has sum(e_i - 1) in
        [2g - 3 + k, 3g - 3 + k], both ends reached."""
        engine = LambertEngine(order=28)
        for g in range(5):
            for k in range(1, 14):
                if is_stable(g, k) and required_order(g, k) <= 28:
                    degrees = {sum(key) - k for key in engine.w(g, k).nums}
                    assert min(degrees) == 2 * g - 3 + k, (g, k)
                    assert max(degrees) == 3 * g - 3 + k, (g, k)


def perturbed_pole_map(real):
    """`pole_basis` with p_2 = xihat_1 + r_2 in place of xihat_1: the
    Bergman rests and the residue rows both read it, so every form stays
    symmetric but gains terms with the residual index -2."""

    def pole_map(top):
        den, rows = real(top)
        return den, {**rows, 2: {1: den, -2: den}}

    return pole_map


class TestResidualCheck:
    def test_perturbed_conversion_raises_naming_the_key(self, monkeypatch):
        monkeypatch.setattr(sweeps, "pole_basis", perturbed_pole_map(pole_basis))
        with pytest.raises(ArithmeticError, match=r"residual index nonzero .* W\(0,3\) at \(-2, -2, -2\)"):
            LambertEngine(order=12).w(0, 3)

    def test_perturbed_conversion_exits_70(self, monkeypatch, capsys):
        from hurwitzrec import cli

        monkeypatch.delenv("HURWITZREC_CACHE", raising=False)
        monkeypatch.setattr(sweeps, "pole_basis", perturbed_pole_map(pole_basis))
        code = cli.main(["wkg", "1", "1"])
        out, err = capsys.readouterr()
        assert code == 70
        assert out == ""
        assert err == (
            "internal error: residual index nonzero assembling W(1,1) at (-2,); "
            "truncation order 10 is insufficient\n"
        )


class TestZeroEntries:
    def test_pair_table_and_buckets_hold_no_zero(self, monkeypatch):
        """No entry of the pair table is 0, and the sweeps never add a zero
        into a bucket, over every form of W(3, 4)'s recursion."""
        added = []
        accumulate = sweeps.accumulate

        def checked(acc, u, sums, c):
            added.append(c != 0 and all(sums.values()))
            accumulate(acc, u, sums, c)

        monkeypatch.setattr(sweeps, "accumulate", checked)
        engine = LambertEngine(order=required_order(3, 4))
        engine.w(3, 4)
        assert added and all(added)
        assert len(engine.recursion.pair_table) == 45
        assert all(all(row.values()) for row in engine.recursion.pair_table.values())
        by_slot = engine.recursion.bergman_rows.values()
        rows = [row for by_index in by_slot for row in by_index.values()]
        assert len(rows) == 66 and all(row and all(row.values()) for row in rows)
