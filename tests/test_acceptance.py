"""Acceptance suite: every criterion is an exact rational equality (zero
tolerance).  Each test prints one pass/fail line; run with ``pytest -v -s``
to see them as they execute.
"""

import itertools
import time
from fractions import Fraction
from math import factorial

import pytest

from hurwitzrec.bridge import elsv_consistency
from hurwitzrec.extract import verify_bm
from hurwitzrec.partitions import HurwitzOracle, build_z, class_size, partitions_of
from hurwitzrec.toprec import LambertEngine, required_order
from curve_reference import (
    g_series, lambert_series, sigma_series, times_by_recursion, times_from_curve, y_of_xi,
)
from oracle_reference import character, cov_disconnected, fractions, nonzero, reference_exp
from pole_reference import ordered_pole_expansion
from series_reference import Series, agrees_with, compose

F = Fraction

G_MAX, N_MAX = 3, 7


@pytest.fixture(scope="module")
def engine():
    return LambertEngine(order=required_order(G_MAX, N_MAX))


@pytest.fixture(scope="module")
def oracle():
    return HurwitzOracle(N_MAX, G_MAX)


def report(number, description, ok):
    print(f"\nACCEPTANCE {number} [{description}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_criterion_1_cross_method_equality(engine, oracle):
    t0 = time.monotonic()
    rows = verify_bm(G_MAX, N_MAX, engine=engine, oracle=oracle)
    elapsed = time.monotonic() - t0
    stable_count = sum(
        1
        for g in range(G_MAX + 1)
        for n in range(1, N_MAX + 1)
        for mu in partitions_of(n)
        if 2 * g - 2 + len(mu) > 0
    )
    ok = all(row["equal"] for row in rows) and len(rows) == stable_count
    print(f"\n  ({len(rows)} cases in {elapsed:.1f}s)")
    report(1, f"recursion == oracle for all stable (g, mu), g<={G_MAX}, |mu|<={N_MAX}", ok)
    assert elapsed < 300


def test_criterion_2_anchored_oracle_values(oracle):
    ok = (
        oracle.hurwitz(0, (1,)) == 1
        and oracle.hurwitz(1, (1,)) == 0
        and oracle.hurwitz(0, (2,)) == F(1, 2)
        and oracle.hurwitz(0, (3,)) == 1
        and oracle.hurwitz(1, (2,)) == F(1, 2)
    )
    report(2, "anchored oracle values", ok)


def test_criterion_3_branch_expansion_values():
    y = y_of_xi(8)
    y_ok = [y.coefficient(i) for i in range(6)] == [
        F(1), F(1), F(1, 3), F(1, 36), F(-1, 270), F(1, 4320),
    ]
    t = times_from_curve(8)
    t_ok = t[3] == 3 and t[4] == F(1, 3)
    g = g_series(9)
    g_ok = (
        g.coefficient(1) == F(-1, 6)
        and g.coefficient(3) == F(1, 45)
        and g.coefficient(5) == F(-8, 315)
        and g.coefficient(7) == F(8, 105)
        and all(g.coefficient(2 * m) == 0 for m in range(1, 5))
    )
    report(3, "branch-point expansion matches the displayed values", y_ok and t_ok and g_ok)


def test_criterion_4_dual_route_times():
    report(4, "times recursion == times from curve, termwise to t_20",
           times_by_recursion(20) == times_from_curve(20))


def test_criterion_5_lambert_series():
    ls = lambert_series(13)
    ok = all(
        ls.coefficient(m) == F(m ** (m - 1), factorial(m)) for m in range(1, 13)
    )
    report(5, "Lambert series coefficients m^(m-1)/m! for m <= 12", ok)


def test_criterion_6_structural_invariants(engine):
    t0 = time.monotonic()
    checks = {}

    # symmetry under all permutations of the variables: each ordering of each
    # key, expanded slot by slot with no symmetry assumed, gives the pole view
    # on every permutation of every pole multi-index
    sym = True
    for g, k in [(0, 3), (0, 4), (1, 2), (1, 3), (2, 2)]:
        form = engine.w(g, k)
        poles = form.pole_terms()
        ordered = ordered_pole_expansion(form)
        sym = sym and ordered == {
            p: c for key, c in poles.items() for p in set(itertools.permutations(key))
        }
    checks["symmetry"] = sym

    # per-variable residue-freeness: the pole-order-1 coefficient vanishes
    # for every setting of the remaining variables
    resfree = True
    for g, k in [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1), (2, 2)]:
        poles = engine.w(g, k).pole_terms()
        rests = {key[1:] for key in poles}
        for rest in rests:
            resfree = resfree and tuple(sorted((1,) + rest, reverse=True)) not in poles
    checks["residue-freeness"] = resfree

    # the deck involution is an involution
    sigma = sigma_series(engine)
    checks["sigma-involution"] = agrees_with(
        compose(sigma, sigma), Series.identity(engine.order)
    )

    # order-robustness: recomputing at a higher order changes nothing
    hi = LambertEngine(order=engine.order + 4)
    checks["order-robustness"] = all(
        engine.w(g, k) == hi.w(g, k) for g, k in [(0, 3), (1, 1), (1, 2), (2, 1)]
    )

    # exp(log Z) == Z on the disconnected generating function, with the
    # power-series exp, which shares no code with the graded log
    z = build_z(4, 8)
    checks["exp-log-round-trip"] = nonzero(reference_exp(z.log())) == fractions(z)

    # parity vanishing of the Burnside counts
    parity = True
    for n in range(1, 7):
        for mu in partitions_of(n):
            for b in range(9):
                if (b - n - len(mu)) % 2:
                    parity = parity and cov_disconnected(mu, b) == 0
    checks["burnside-parity"] = parity

    # column orthogonality of the characters, n <= 6
    ortho = True
    for n in range(1, 7):
        ps = partitions_of(n)
        for mu in ps:
            for nu in ps:
                s = sum(character(lam, mu) * character(lam, nu) for lam in ps)
                want = factorial(n) // class_size(mu) if mu == nu else 0
                ortho = ortho and s == want
    checks["character-orthogonality"] = ortho

    elapsed = time.monotonic() - t0
    print(f"\n  ({', '.join(k for k, v in checks.items() if v)} in {elapsed:.1f}s)")
    report(6, "structural invariant suite", all(checks.values()))
    assert elapsed < 120


def test_criterion_7_elsv_consistency(oracle):
    rep = elsv_consistency(oracle)
    solved_ok = (
        rep.solved["<psi>_{1,1}"] == F(1, 24)
        and rep.solved["<lambda_1>_{1,1}"] == F(1, 24)
    )
    h13 = next(p for p in rep.predictions if p["g"] == 1 and p["mu"] == [3])
    report(7, "ELSV solve (1/24, 1/24) and H_{1,(3)} prediction", solved_ok and h13["equal"] and rep.ok)


def test_criterion_8_snapshots_and_invariance(engine):
    # no external reference values exist for these: they are covered by
    # invariance checks and pinned self-snapshots only
    big = LambertEngine(order=required_order(3, 1))
    # W(g,1) has no order-1 pole, so a primitive's constant pairs with nothing
    invariance_ok = (1,) not in big.w(2, 1).pole_terms() and (1,) not in big.w(3, 1).pole_terms()
    w21_snapshot = {
        (4,): F(7, 960),
        (5,): F(-37, 1440),
        (6,): F(-19, 128),
        (7,): F(35, 96),
        (8,): F(133, 72),
        (9,): F(35, 16),
        (10,): F(105, 128),
    }
    structure_ok = big.w(2, 1).pole_terms() == w21_snapshot
    report(8, "W(2,1) snapshot + no order-1 poles", invariance_ok and structure_ok)
