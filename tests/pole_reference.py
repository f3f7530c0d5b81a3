"""The pole-basis extraction, kept as a reference for the ELSV-basis one.

A pole factor dz/(z-1)^a, divided by dx(z) = (1-z)/z dz and written in v
with z = L(v), is (-1)^a z/(1-z)^(a+1) at z = L(v).  Lagrange inversion
gives its coefficients in closed form,

    F(a, m) = m! [v^m] (-1)^a z/(1-z)^(a+1) |_{z=L(v)}
            = (-1)^a (m-1)! sum_{j<m} (j+1) C(j+a, a) m^(m-1-j) / (m-1-j)!,

an integer.  `pole_h_coeffs` expands a form read in the pole basis
(`PoleForm.pole_terms`) with these factors, one slot at a time, as the
extraction did before forms were stored in the ELSV basis.

`reference_pole_terms` is the pole view as a commuting-polynomial expansion,
the way `PoleForm.pole_terms` computed it before it walked slot by slot, and
`ordered_pole_expansion` the same form on ordered tuples, which assumes no
symmetry at all.  `slot_by_slot_contract` is `poleform.contract_slots` as it
walked before it ended a run of 1-labels in one pass: every slot, label 1
included, takes one index per distinct value of each rest.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from hurwitzrec.partitions import aut_size
from hurwitzrec.poleform import basis_poles
from series_reference import Series


def _orderings(key) -> int:
    """The number of distinct orderings of a weakly decreasing ``key``."""
    return factorial(len(key)) // aut_size(key)


def reference_pole_terms(form):
    """The pole view of a form, {pole multi-index: Fraction}.

    A symmetric form is the polynomial sum_E c(E) N(E) prod_i X_(e_i) in
    commuting variables, N(E) being the number of distinct orderings of E;
    each X_e becomes sum_a M[e][a] Y_a with M = `basis_poles`, and the
    coefficient of the pole multiset A is then [Y^A] / N(A)."""
    total = {}
    for key, num in form.nums.items():
        poly = {(): num * _orderings(key)}
        for e in key:
            nxt = {}
            for mono, c in poly.items():
                for a, m in basis_poles(e).items():
                    grown = tuple(sorted(mono + (a,), reverse=True))
                    nxt[grown] = nxt.get(grown, 0) + c * m
            poly = nxt
        for mono, c in poly.items():
            total[mono] = total.get(mono, 0) + c
    return {key: Fraction(c, form.den * _orderings(key)) for key, c in total.items() if c}


def ordered_pole_expansion(form):
    """{ordered pole tuple: Fraction}: every ordering of every stored key,
    each slot expanded through `basis_poles` on its own."""
    total = {}
    for key, c in form.terms.items():
        for ordered in set(itertools.permutations(key)):
            rows = [basis_poles(e).items() for e in ordered]
            for picks in itertools.product(*rows):
                poles = tuple(a for a, _m in picks)
                weight = c
                for _a, m in picks:
                    weight *= m
                total[poles] = total.get(poles, 0) + weight
    return {poles: c for poles, c in total.items() if c}


@lru_cache(maxsize=None)
def pole_factor_int(a: int, m: int) -> int:
    """F(a, m), an integer, and 0 for m = 0."""
    if m < 1:
        return 0
    f = factorial(m - 1)
    total = sum(
        (j + 1) * comb(j + a, a) * m ** (m - 1 - j) * (f // factorial(m - 1 - j))
        for j in range(m)
    )
    return -total if a % 2 else total


def pole_factor_series(a: int, order: int) -> Series:
    """One variable's factor (-1)^a * z/(1-z)^(a+1) at z = L(v), known
    through v^order."""
    if a < 1:
        raise ValueError("pole order must be >= 1")
    coeffs = [Fraction(pole_factor_int(a, m), factorial(m)) for m in range(order + 1)]
    return Series(0, coeffs, order + 1)


def pole_h_coeffs(form, n_max):
    """The v^mu coefficients, |mu| <= n_max, of a form read in the pole
    basis: depth first over weakly decreasing exponent prefixes, each slot
    taking one pole order per distinct value of the remaining multiset."""
    poles = form.pole_terms()
    den = lcm(*(c.denominator for c in poles.values()))
    nums = {key: c.numerator * (den // c.denominator) for key, c in poles.items()}
    top = max(key[0] for key in nums)
    factors = [None] + [
        [pole_factor_int(a, m) for a in range(top + 1)] for m in range(1, n_max + 1)
    ]
    k = form.k
    coeffs = {}

    def contract(level, prefix, budget, top, scale):
        slots_left = k - len(prefix) - 1
        for m in range(1, min(top, budget - slots_left) + 1):
            f = factors[m]
            scale_m = scale * factorial(m)
            if not slots_left:
                total = sum(f[key[0]] * num for key, num in level.items())
                if total:
                    coeffs[prefix + (m,)] = Fraction(total, scale_m)
                continue
            nxt = {}
            for key, num in level.items():
                prev = None
                for i, a in enumerate(key):
                    if a == prev:
                        continue
                    prev = a
                    rest = key[:i] + key[i + 1 :]
                    nxt[rest] = nxt.get(rest, 0) + f[a] * num
            contract(nxt, prefix + (m,), budget - m, m, scale_m)

    contract(nums, (), n_max, n_max, den)
    return coeffs


def slot_by_slot_contract(nums, k, factors, budget):
    """`poleform.contract_slots` one slot at a time to the last: depth first
    over label prefixes, each slot sending on one rest per distinct index,
    the scan of a key ending at the first index below the label's lowest
    nonzero factor."""
    lows = [None] + [next((e for e, w in enumerate(f) if w), len(f)) for f in factors[1:]]
    out = {}

    def walk(level, prefix, budget, top):
        # slots after this one each need a label >= 1
        slots_left = k - len(prefix) - 1
        for m in range(1, min(top, budget - slots_left) + 1):
            f = factors[m]
            if not slots_left:
                total = sum(f[key[0]] * num for key, num in level.items())
                if total:
                    out[prefix + (m,)] = total
                continue
            low = lows[m]
            nxt = {}
            for key, num in level.items():
                prev = None
                for i, e in enumerate(key):
                    if e == prev:
                        continue
                    prev = e
                    w = f[e]
                    if w:
                        rest = key[:i] + key[i + 1 :]
                        nxt[rest] = nxt.get(rest, 0) + w * num
                    elif e < low:
                        break
            if nxt:
                walk(nxt, prefix + (m,), budget - m, m)

    walk(nums, (), budget, budget)
    return out
