import random
import re
from collections import Counter
from fractions import Fraction
from functools import cache
from math import factorial, gcd, prod

import pytest

from hurwitzrec import partitions
from hurwitzrec.extract import h_series, hurwitz_by_recursion
from hurwitzrec.partitions import (
    HurwitzOracle,
    PSeriesZ,
    aut_size,
    build_z,
    check_partition,
    class_size,
    f_c2,
    h_encoding,
    partitions_of,
)
from hurwitzrec.toprec import LambertEngine, required_order
from oracle_reference import (
    character,
    cov_disconnected,
    dim_irrep,
    f_central,
    fractions,
    nonzero,
    reference_exp,
    reference_log,
    strips_by_walk,
    unpack,
)


def genus_zero_formula(mu):
    """H_{0,mu} by Hurwitz's formula: (n+l-2)! n^(l-3) prod mu_i^mu_i/mu_i!
    / |Aut mu|, with n = |mu| and l = len(mu)."""
    n, l = sum(mu), len(mu)
    value = factorial(n + l - 2) * Fraction(n) ** (l - 3) / aut_size(mu)
    for m in mu:
        value *= Fraction(m**m, factorial(m))
    return value


def by_recursion(g, ks, n_max):
    """``(mu, H_{g,mu})`` for every mu with |mu| <= n_max and len(mu) in
    ``ks``, from one engine and one `h_series` per (g, k), as a table's
    recursion route reads them."""
    engine = LambertEngine(order=required_order(g, max(ks)))
    for k in ks:
        numbers = h_series(engine.w(g, k), n_max)
        for n in range(k, n_max + 1):
            for mu in partitions_of(n):
                if len(mu) == k:
                    yield mu, numbers.get(mu, 0)


def genus_one_formula(mu):
    """H_{1,mu} by the Goulden-Jackson formula proved by Vakil:
    r!/(24 |Aut mu|) prod mu_i^mu_i/mu_i! * (d^n - d^(n-1) - sum_{k=2..n}
    (k-2)! e_k(mu) d^(n-k)), with d = |mu|, n = len(mu), r = d + n."""
    d, n = sum(mu), len(mu)
    e = [1] + [0] * n  # elementary symmetric polynomials of the parts
    for m in mu:
        for k in range(n, 0, -1):
            e[k] += m * e[k - 1]
    bracket = d**n - d ** (n - 1)
    bracket -= sum(factorial(k - 2) * e[k] * d ** (n - k) for k in range(2, n + 1))
    value = Fraction(factorial(d + n) * bracket, 24 * aut_size(mu))
    for m in mu:
        value *= Fraction(m**m, factorial(m))
    return value


def one_part_formula(g, d):
    """H_{g,(d)} by the Goulden-Jackson-Vainshtein one-part formula:
    b!/d! d^(d-2) [t^(2g)] (sinh(dt/2)/(dt/2))^(d-1), with b = 2g - 1 + d."""
    # sinh(x)/x = sum_j x^(2j)/(2j+1)!, held by powers of t^2, with x = dt/2
    s = [Fraction(d * d, 4) ** j / factorial(2 * j + 1) for j in range(g + 1)]
    power = [Fraction(1)] + [Fraction(0)] * g
    for _ in range(d - 1):
        power = [sum(power[i] * s[j - i] for i in range(j + 1)) for j in range(g + 1)]
    return Fraction(factorial(2 * g - 1 + d), factorial(d)) * Fraction(d) ** (d - 2) * power[g]


def hook_length_dim(lam):
    """Independent dimension oracle: the hook length formula."""
    if not lam:
        return 1
    conj = [sum(1 for p in lam if p > i) for i in range(lam[0])]
    prod = 1
    for i, row in enumerate(lam):
        for j in range(row):
            prod *= (row - j) + (conj[j] - i) - 1
    return factorial(sum(lam)) // prod


def conj(lam):
    """The conjugate partition: the column lengths of lam's diagram."""
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0] if lam else 0))


def reference_b_bounded_log(n_max, b_max):
    """log Z with no weight cut: Z holds every b <= b_max for every mu of
    degree at most n_max, and the graded log multiplies every pair of terms."""
    z = {0: {((), 0): Fraction(1)}}
    for n in range(1, n_max + 1):
        z[n] = {}
        for mu in partitions_of(n):
            for b in range(b_max + 1):
                c = cov_disconnected(mu, b)
                if c:
                    z[n][(mu, b - n - len(mu))] = c / factorial(b)
    f = {}
    for n in range(1, n_max + 1):
        out = dict(z[n])
        for k in range(1, n):
            for (mua, ea), ca in f[k].items():
                for (mub, eb), cb in z[n - k].items():
                    key = (tuple(sorted(mua + mub, reverse=True)), ea + eb)
                    out[key] = out.get(key, 0) - Fraction(k, n) * ca * cb
        f[n] = out
    return f


class TestCheckPartition:
    @pytest.mark.parametrize("part", [1.9, True, "2"], ids=["float", "bool", "str"])
    def test_refuses_a_part_that_is_not_an_int(self, part):
        # coerced with int(), (1.9,) would read as (1,), and H_{0,(1)} is 1
        engine = LambertEngine(order=required_order(0, 3))
        calls = [
            lambda: check_partition((part,)),
            lambda: HurwitzOracle(3, 1).hurwitz(0, (part,)),
            lambda: hurwitz_by_recursion(engine, 0, (part, 1, 1)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(repr(part))):
                call()

    def test_accepts_any_sequence_of_ints(self):
        assert check_partition([3, 1, 1]) == (3, 1, 1)
        assert check_partition(iter((2, 2))) == (2, 2)


class TestPartitions:
    def test_counts(self):
        assert partitions_of(0) == ((),)
        assert len(partitions_of(4)) == 5
        assert len(partitions_of(5)) == 7

    def test_lex_descending_order(self):
        got = partitions_of(4)
        assert got == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
        for n in range(8):
            ps = partitions_of(n)
            assert ps == tuple(sorted(ps, reverse=True))

    def test_aut_size_against_counter(self):
        """The product of m! over repeated entries, for partitions and for
        weakly decreasing tuples holding residual indices -j."""
        assert aut_size((3, 2, 2, 1)) == 2 and aut_size(()) == 1
        rng = random.Random(11)
        tuples = [mu for n in range(9) for mu in partitions_of(n)] + [
            tuple(sorted((rng.randint(-3, 4) for _ in range(rng.randint(0, 8))), reverse=True))
            for _ in range(200)
        ]
        for mu in tuples:
            assert aut_size(mu) == prod(factorial(c) for c in Counter(mu).values()), mu


class TestHEncoding:
    def test_examples(self):
        assert h_encoding((2, 1), 2) == (3, 1)
        assert h_encoding((), 3) == (2, 1, 0)
        assert h_encoding((2,), 2) == (3, 0)

    def test_strictly_decreasing(self):
        for n in range(7):
            for lam in partitions_of(n):
                h = h_encoding(lam, len(lam) + 2)
                assert all(h[i] > h[i + 1] for i in range(len(h) - 1))
                assert not h or h[-1] >= 0

    def test_rejects_short_n(self):
        with pytest.raises(ValueError):
            h_encoding((2, 1, 1), 2)


class TestStrips:
    def test_bit_flips_match_the_beta_set_walk(self):
        # each strip, its sign and their order, against the sorted-tuple walk
        for n in range(1, 13):
            for r in range(1, n + 1):
                assert partitions._strips(n, r) == strips_by_walk(n, r), (n, r)


class TestClassSize:
    def test_examples(self):
        assert class_size((2,)) == 1
        assert class_size((1, 1)) == 1
        assert class_size((2, 1)) == 3

    def test_classes_partition_group(self):
        for n in range(1, 8):
            assert sum(class_size(mu) for mu in partitions_of(n)) == factorial(n)


class TestDimension:
    def test_examples(self):
        assert dim_irrep((2,)) == 1
        assert dim_irrep((1, 1)) == 1
        assert dim_irrep((2, 1)) == 2

    def test_matches_hook_length_formula(self):
        for n in range(1, 9):
            for lam in partitions_of(n):
                assert dim_irrep(lam) == hook_length_dim(lam)

    def test_sum_of_squares(self):
        for n in range(1, 8):
            assert sum(dim_irrep(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


@cache
def naive_character(lam, mu):
    """chi_lam(mu) by the Murnaghan-Nakayama rule, one (lam, mu) at a time:
    remove each border strip of size mu[0] from lam's beta-set, rebuilding
    the beta-set and the partition at every step.  The reference the
    package's character rows are held to."""
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    N = len(lam)
    h = [lam[i] - (i + 1) + N for i in range(N)]
    total = 0
    for hi in h:
        lo = hi - r
        if lo < 0 or lo in h:
            continue
        sub = sorted([x for x in h if x != hi] + [lo], reverse=True)
        smaller = tuple(x for x in (sub[i] - (N - 1 - i) for i in range(N)) if x > 0)
        term = naive_character(smaller, rest)
        total += -term if sum(lo < x < hi for x in h) % 2 else term
    return total


class TestCharacters:
    def test_rows_match_the_naive_rule(self):
        for n in range(11):
            for mu in partitions_of(n):
                row = tuple(naive_character(lam, mu) for lam in partitions_of(n))
                assert partitions._chars(mu) == row, mu

    def test_trivial_representation(self):
        for n in range(1, 7):
            for mu in partitions_of(n):
                assert character((n,), mu) == 1

    def test_sign_representation(self):
        assert character((1, 1), (2,)) == -1
        for n in range(1, 7):
            for mu in partitions_of(n):
                assert character((1,) * n, mu) == (-1) ** (n - len(mu))

    def test_standard_rep_value(self):
        assert character((2, 1), (3,)) == -1

    def test_identity_class_gives_dimension(self):
        for n in range(1, 8):
            for lam in partitions_of(n):
                assert character(lam, (1,) * n) == dim_irrep(lam)

    def test_column_orthogonality(self):
        for n in range(1, 7):
            ps = partitions_of(n)
            for mu in ps:
                for nu in ps:
                    s = sum(character(lam, mu) * character(lam, nu) for lam in ps)
                    expected = factorial(n) // class_size(mu) if mu == nu else 0
                    assert s == expected

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            character((2, 1), (2,))


class TestCentralCharacters:
    def test_f_central_examples(self):
        assert f_central((2,), (2,)) == 1
        assert f_central((1, 1), (2,)) == -1
        assert f_central((2, 1), (2, 1)) == 0

    def test_f_c2_examples(self):
        assert f_c2((2,)) == 1
        assert f_c2((1, 1)) == -1
        assert f_c2((1,)) == 0
        assert f_c2(()) == 0

    def test_f_c2_matches_f_central(self):
        for n in range(2, 9):
            transposition = (2,) + (1,) * (n - 2)
            for lam in partitions_of(n):
                assert f_c2(lam) == f_central(lam, transposition)

    def test_f_c2_h_form(self):
        # (1/2) sum h^2 - (N - 1/2) sum h + N(N-1)(2N-1)/6 on any padding
        for n in range(0, 8):
            for lam in partitions_of(n):
                for pad in (0, 1, 3):
                    N = max(len(lam), 1) + pad
                    h = h_encoding(lam, N)
                    got = (
                        Fraction(sum(x * x for x in h), 2)
                        - (N - Fraction(1, 2)) * sum(h)
                        + Fraction(N * (N - 1) * (2 * N - 1), 6)
                    )
                    assert got == f_c2(lam)


class TestBurnside:
    def test_matches_central_character_formula(self):
        # the textbook Burnside sum, in Fractions, against the integer weights
        for n in range(1, 8):
            for mu in partitions_of(n):
                for b in range(9):
                    expected = sum(
                        Fraction(hook_length_dim(lam), factorial(n)) ** 2
                        * f_central(lam, mu)
                        * f_c2(lam) ** b
                        for lam in partitions_of(n)
                    )
                    assert cov_disconnected(mu, b) == expected

    def test_examples(self):
        assert cov_disconnected((1,), 0) == 1
        assert cov_disconnected((2,), 1) == Fraction(1, 2)
        assert cov_disconnected((3,), 2) == 1

    def test_parity_vanishing(self):
        for n in range(1, 7):
            for mu in partitions_of(n):
                for b in range(9):
                    value = cov_disconnected(mu, b)
                    if (b - n - len(mu)) % 2:
                        assert value == 0
                    elif mu == (1,) * n and b == 0:
                        assert value == Fraction(1, factorial(n))

    def test_empty_cover(self):
        assert cov_disconnected((), 0) == 1
        assert cov_disconnected((), 3) == 0


class TestBurnsideFold:
    """build_z reads one weight per |f_c2|, folded by the conjugate identity;
    cov_disconnected keeps the per-lam sum the fold is held to here."""

    def test_conjugation_flips_content_and_character_sign(self):
        for n in range(11):
            for lam in partitions_of(n):
                assert f_c2(conj(lam)) == -f_c2(lam), lam
                for mu in partitions_of(n):
                    expected = (-1) ** (n - len(mu)) * character(lam, mu)
                    assert character(conj(lam), mu) == expected, (lam, mu)

    def test_folded_weights_match_the_per_lam_sum(self):
        for n in range(11):
            for mu in partitions_of(n):
                weights = partitions._burnside_weights(mu)
                assert len({f for _, f in weights}) == len(weights), mu
                assert all(w and f >= 0 for w, f in weights), mu
                for b in range((n + len(mu)) % 2, 13, 2):
                    per_lam = sum(
                        dim_irrep(lam) * character(lam, mu) * f_c2(lam) ** b
                        for lam in partitions_of(n)
                    )
                    assert sum(w * f**b for w, f in weights) == per_lam, (mu, b)


class TestOracle:
    def test_anchored_values(self):
        oracle = HurwitzOracle(n_max=4, g_max=1)
        assert oracle.hurwitz(0, (1,)) == 1
        assert oracle.hurwitz(1, (1,)) == 0
        assert oracle.hurwitz(0, (2,)) == Fraction(1, 2)
        assert oracle.hurwitz(0, (3,)) == 1
        assert oracle.hurwitz(1, (2,)) == Fraction(1, 2)

    def test_hand_checked_values(self):
        # worked out by hand from the Burnside sums and the degree-wise log
        oracle = HurwitzOracle(n_max=3, g_max=1)
        assert oracle.hurwitz(0, (1, 1)) == Fraction(1, 2)
        assert oracle.hurwitz(0, (1, 1, 1)) == 4
        assert oracle.hurwitz(0, (2, 1)) == 4
        assert oracle.hurwitz(1, (1, 1)) == Fraction(1, 2)

    def test_exp_log_round_trip(self):
        # the power-series exp shares no code with the graded log
        z = build_z(4, 8)
        assert nonzero(reference_exp(z.log())) == fractions(z)

    def test_graded_log_and_exp_match_power_series(self):
        z = build_z(7, 14)
        f = z.log()
        assert nonzero(fractions(f)) == nonzero(reference_log(z))
        assert nonzero(reference_exp(f)) == fractions(z)

    def test_log_and_exp_run_in_integers(self, monkeypatch):
        # the package has no exp: the round trip reads the reference one
        def refuse(*args):
            raise AssertionError("Fraction made while building Z or its log")

        monkeypatch.setattr(partitions, "Fraction", refuse)
        z = build_z(9, 18)
        f = z.log()
        assert nonzero(reference_exp(f)) == fractions(z)

    def test_every_degree_in_lowest_terms(self):
        z = build_z(7, 14)
        f = z.log()
        for series in (z, f):
            for n, nums in series.data.items():
                den = series.den[n]
                assert den > 0 and gcd(den, *nums.values()) == 1, n
                assert all(nums.values()), n

    @pytest.mark.parametrize("n_max,g_max", [(7, 0), (8, 1), (9, 1), (6, 3), (5, 5)])
    def test_weight_cut_matches_b_bounded_log(self, n_max, g_max):
        oracle = HurwitzOracle(n_max, g_max)
        f = reference_b_bounded_log(n_max, 2 * g_max - 2 + 2 * n_max)
        count = 0
        for n in range(1, n_max + 1):
            for mu in partitions_of(n):
                for g in range(g_max + 1):
                    b = 2 * g - 2 + n + len(mu)
                    if b < 0:
                        continue
                    expected = factorial(b) * f[n].get((mu, 2 * g - 2), 0)
                    assert oracle.hurwitz(g, mu) == expected, (g, mu)
                    count += 1
        assert count > 0

    def test_build_z_keeps_weight_at_most_w_max(self):
        # weights are even: b has the parity of n + len(mu)
        z = build_z(6, 10)
        weights = {e + 2 * n for n, t in fractions(z).items() for (_mu, e) in t}
        assert weights == {0, 2, 4, 6, 8, 10}
        # a negative bound would cut the constant term 1 itself
        with pytest.raises(ValueError):
            build_z(3, -1)

    def test_coefficient_refuses_terms_beyond_the_cut(self):
        z = build_z(4, 8)
        assert z.coefficient(4, (1, 1, 1, 1), -8) == Fraction(1, 24)
        assert z.coefficient(4, (2, 2), 0) == cov_disconnected((2, 2), 6) / factorial(6)
        with pytest.raises(ValueError):
            z.coefficient(5, (5,), -2)
        with pytest.raises(ValueError):
            z.coefficient(4, (1, 1, 1, 1), 2)

    def test_log_matches_power_series_at_the_packed_key_edge(self):
        # at n_max = 10 one digit of a packed key holds ten copies of the part
        # 1, and Z reaches its lowest exponent e = -2n at (1^10) with b = 0
        z = build_z(10, 20)
        assert z.coefficient(10, (1,) * 10, -20) == Fraction(1, factorial(10))
        assert nonzero(fractions(z.log())) == nonzero(reference_log(z))

    def test_keys_decode_at_their_edges(self):
        # at n_max = 10 the part 10 takes the top digit B^10 just below the
        # exponent's shift, and the keys of Z reach e = -2n at (1^10)
        z = build_z(10, 20)
        f = z.log()
        for series in (z, f):
            for n, terms in series.data.items():
                for key in terms:
                    mu, e = unpack(key, 10)
                    assert sum(mu) == n and e + 2 * n <= 20, (n, mu, e)
                    assert series.key(mu, e) == key
        z_top, f_top = fractions(z)[10], fractions(f)[10]
        assert min(e for _mu, e in z_top) == -20 and ((1,) * 10, -20) in z_top
        assert min(e for _mu, e in f_top) == -2
        assert ((1,) * 10, -2) in f_top and ((10,), -2) in f_top and ((10,), 0) in f_top
        # the term counts HurwitzOracle(9, 1) keeps
        z = build_z(9, 18)
        assert sum(map(len, z.data.values())) == 611
        assert sum(map(len, z.log().data.values())) == 361

    def test_coefficient_refuses_a_partition_of_another_degree(self):
        f = build_z(4, 8).log()
        assert f.coefficient(3, (2, 1), 0) != 0
        for mu in ((1,), (2, 2)):
            with pytest.raises(ValueError, match="not of degree 3"):
                f.coefficient(3, mu, 0)

    def test_coefficient_refuses_a_non_canonical_partition(self):
        z = build_z(4, 8)
        assert z.coefficient(3, (2, 1), -2) != 0
        with pytest.raises(ValueError):
            z.coefficient(3, (1, 2), -2)

    def test_equality_compares_the_cut(self):
        assert PSeriesZ(3, 4) != PSeriesZ(3, 5)
        assert PSeriesZ(3, 4) != PSeriesZ(2, 4)
        assert PSeriesZ(3, 4) == PSeriesZ(3, 4)
        # odd and even bounds keep the same terms, since weights are even
        assert fractions(build_z(4, 6)) == fractions(build_z(4, 7))
        assert build_z(4, 6).log() != build_z(4, 7).log()

    def test_range_checks(self):
        oracle = HurwitzOracle(n_max=3, g_max=1)
        with pytest.raises(ValueError):
            oracle.hurwitz(2, (2,))
        with pytest.raises(ValueError):
            oracle.hurwitz(0, (4,))
        with pytest.raises(ValueError):
            oracle.hurwitz(0, ())


class TestOracleClosedForms:
    @pytest.fixture(scope="class")
    def oracle(self):
        return HurwitzOracle(n_max=8, g_max=1)

    def test_genus_zero_hurwitz_formula(self, oracle):
        count = 0
        for n in range(1, 9):
            for mu in partitions_of(n):
                assert oracle.hurwitz(0, mu) == genus_zero_formula(mu), mu
                count += 1
        assert count == 66

    def test_genus_zero_hurwitz_formula_by_recursion(self):
        """Past the oracle's reach: every mu with 3 to 6 parts and |mu| <=
        20, from W(0, 3), which has the Bergman kernel on both sides of its
        one split, to W(0, 6)."""
        rows = list(by_recursion(0, range(3, 7), 20))
        assert len(rows) == 1392
        for mu, value in rows:
            assert value == genus_zero_formula(mu), mu

    def test_genus_one_formula(self, oracle):
        count = 0
        for n in range(1, 9):
            for mu in partitions_of(n):
                assert oracle.hurwitz(1, mu) == genus_one_formula(mu), mu
                count += 1
        assert count == 66

    def test_genus_one_formula_by_recursion(self):
        """Every mu with at most 4 parts and |mu| <= 16."""
        rows = list(by_recursion(1, range(1, 5), 16))
        assert len(rows) == 358
        for mu, value in rows:
            assert value == genus_one_formula(mu), mu

    def test_one_part_formula(self):
        oracle = HurwitzOracle(n_max=12, g_max=6)
        for g in range(7):
            for d in range(1, 13):
                assert oracle.hurwitz(g, (d,)) == one_part_formula(g, d), (g, d)
        # at genus one it is H_{1,(d)} = (d+1)! d^d/d! * (d-1)/24
        for d in range(1, 13):
            expected = Fraction(factorial(d + 1) * d**d * (d - 1), factorial(d) * 24)
            assert one_part_formula(1, d) == expected, d

    def test_one_part_formula_by_recursion(self):
        # up to W(8,1): top index 23, so rows up to m^(m+22), and b up to 39
        engine = LambertEngine(order=required_order(8, 1))
        for g in range(1, 9):
            for d in range(1, 25):
                assert hurwitz_by_recursion(engine, g, (d,)) == one_part_formula(g, d), (g, d)
