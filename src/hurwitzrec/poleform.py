"""Exact representation of the correlation forms in the ELSV basis.

With t = 1/(1-z), a pole slot dz/(z - z*)^a at the branch point z* = 1,
divided by dx = (1-z)/z dz, is p_a(t) = (-1)^a t^a (t-1).  The forms are
stored in the basis xihat_0 = t - 1, xihat_(e+1) = (t-1) t^2 d/dt xihat_e
instead.  In v, with z = L(v) the inverse of v = z e^(-z), the operator
(t-1) t^2 d/dt is v d/dv, so [v^m] xihat_e = m^(m+e)/m!; by the ELSV formula
(Eynard-Mulase-Safnuk, arXiv:0907.5224) every W(g, k) is a short sum of
products prod_i xihat_(e_i)(t_i), all e_i >= 1, whose coefficients are linear
Hodge integrals: the key e has (-1)^j <prod tau_(e_i - 1) lambda_j>_g with
sum (e_i - 1) + j = 3g - 3 + k, so sum (e_i - 1) lies in the window
[2g - 3 + k, 3g - 3 + k].

Two triangular integer maps convert one slot at a time: `basis_poles` takes a
basis index to pole orders, and `pole_basis` takes a pole order to basis
indices, with the residual index -j standing for t^(2j-1) (t-1) = -p_(2j-1),
which no form holds.  `poles_to_basis` writes a row of residues by pole
order in the basis, once, where the recursion makes it.

A form is symmetric under permuting variables, so it is stored as a map from
the weakly decreasing tuple of indices to the coefficient of any ordered
monomial with that content, held as integer numerators ``nums`` over one
positive denominator ``den`` in lowest terms (``gcd(den, *nums) == 1``).
``PoleForm(g, k, terms, den)`` takes ``terms[key] / den`` for coefficients
given as ints or `Fraction`s; the ``terms`` property returns `Fraction`s, and
`pole_terms` the same form in the pole basis.

Both readings of a form, the pole view here and the Hurwitz numbers of
`extract.h_series` (from the rows m^(m+e-1) of each part m), contract its
numerators slot by slot with a table of one integer factor per label and
index; `contract_slots` is that one walk.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

from .common import aut_size, format_rational, parse_rational


def splits(key):
    """One slot pulled out per distinct value ``a`` of a weakly decreasing
    ``key``: ``(a, rest)``, ``rest`` being ``key`` less one copy of ``a``."""
    prev = None
    for i, a in enumerate(key):
        if a != prev:
            prev = a
            yield a, key[:i] + key[i + 1 :]


def contract_slots(nums, k, factors, budget):
    """Contract a symmetric k-form slot by slot with a per-index factor table.

    ``nums`` maps weakly decreasing index keys of length ``k`` to ints, and
    ``factors[label][index]`` is an int for each label 1 .. ``budget``.
    Returns ``{labels: total}`` over weakly decreasing label tuples with sum at
    most ``budget``, keeping only nonzero totals, where ``total`` sums
    ``nums[key] * prod_i factors[labels_i][e_i]`` over every key and every
    distinct ordering ``(e_1, ..., e_k)`` of it.

    Depth first over label prefixes: the level at depth d maps each rest of a
    key to its weight after slots 1..d took the prefix's labels, each slot
    sending on one rest per distinct index, so every label tuple sharing a
    prefix shares the work and only one level per depth is alive.  A key is
    read in decreasing order, so its scan ends at the first index below the
    label's lowest nonzero factor.  Labels decrease weakly, so once a slot
    takes label 1 with j slots open, every later slot takes it too: the
    tuple ends in one pass over the level, each rest r adding its weight
    times prod_i factors[1][r_i] in each of its j! / aut(r) distinct
    orderings (`aut_size`), the count made only for a nonzero product.
    """
    lows = [None] + [next((e for e, w in enumerate(f) if w), len(f)) for f in factors[1:]]
    out = {}

    def walk(level, prefix, budget, top):
        # the slots open, this one included; each needs a label >= 1
        open_slots = k - len(prefix)
        ones, orderings, total = factors[1], factorial(open_slots), 0
        for key, num in level.items():
            for e in key:
                num *= ones[e]
                if not num:
                    break
            if num:
                total += num * (orderings // aut_size(key))
        if total:
            out[prefix + (1,) * open_slots] = total
        for m in range(2, min(top, budget - open_slots + 1) + 1):
            f = factors[m]
            if open_slots == 1:
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

    if k <= budget:
        walk(nums, (), budget, budget)
    return out


@lru_cache(maxsize=None)
def basis_poles(e: int):
    """``{a: int}`` with xihat_e = sum_a M[a] p_a: M[a] = (-1)^a [t^a] q_e for
    xihat_e = (t-1) q_e.  For e >= 1 the pole orders run from e + 1 to 2e,
    the top one with coefficient (2e-1)!!."""
    q = [1]  # q_0, coefficients by power of t
    for _ in range(e):
        # q_(e+1) = t^2 (q_e + (t-1) q_e')
        s = q + [0]
        for i, c in enumerate(q[1:]):
            s[i + 1] += (i + 1) * c
            s[i] -= (i + 1) * c
        q = [0, 0] + s
    return {a: -c if a % 2 else c for a, c in enumerate(q) if c}


@lru_cache(maxsize=None)
def pole_basis(top: int):
    """``(den, {p: {index: num}})`` for pole orders 1 <= p <= top, with p_p =
    sum num/den times the basis element of each index: xihat_e for e >= 1 and
    the residual t^(2j-1) (t-1) = -p_(2j-1) for -j.  Even orders reduce
    against the top pole of xihat_(p/2), odd ones are residual.

    In integers: the rows are kept over one denominator, which grows by the
    part of each even row's divisor, the top coefficient of xihat_(p/2),
    that the row's numerators do not cancel; one gcd then puts the map in
    lowest terms."""
    den, rows = 1, {}
    for p in range(1, top + 1):
        if p % 2:
            rows[p] = {-((p + 1) // 2): -den}
            continue
        poles = basis_poles(p // 2)
        row = {p // 2: den}
        for a, c in poles.items():
            if a < p:
                for index, v in rows[a].items():
                    row[index] = row.get(index, 0) - c * v
        # the row is over den * poles[p]; bring the others over that too
        common = gcd(poles[p], *row.values())
        grow = poles[p] // common
        den *= grow
        rows = {a: {index: v * grow for index, v in r.items()} for a, r in rows.items()}
        rows[p] = {index: v // common for index, v in row.items() if v}
    common = gcd(den, *(v for row in rows.values() for v in row.values()))
    return den // common, {
        p: {index: v // common for index, v in row.items()} for p, row in rows.items()
    }


def poles_to_basis(row, to_basis):
    """A row of numerators keyed by pole order as ``{index: num}``, through
    the rows ``to_basis`` of a `pole_basis`, over the row's denominator times
    that map's; zero entries dropped."""
    out = {}
    for p, num in row.items():
        for index, c in to_basis[p].items():
            out[index] = out.get(index, 0) + c * num
    return {index: v for index, v in out.items() if v}


class PoleForm:
    """Symmetric k-form at the branch point, stored in the ELSV basis."""

    __slots__ = ("g", "k", "den", "nums", "_decomps")

    def __init__(self, g: int, k: int, terms, den: int = 1):
        if den < 1:
            raise ValueError(f"denominator {den} is not positive")
        if type(g) is not int or type(k) is not int:
            raise ValueError(f"genus {g!r} and arity {k!r} must be ints")
        self.g = g
        self.k = k
        canonical = {}
        for key, c in terms.items():
            if not c:
                continue
            key = tuple(sorted(key, reverse=True))
            if len(key) != k or any(type(e) is not int or e < 1 for e in key):
                raise ValueError(f"bad multi-index {key} for arity {k}")
            if key in canonical and canonical[key] != c:
                raise ValueError(f"conflicting coefficients for {key}")
            canonical[key] = c
        scale = lcm(*(c.denominator for c in canonical.values()))
        nums = {key: c.numerator * (scale // c.denominator) for key, c in canonical.items()}
        den *= scale
        common = gcd(den, *nums.values())
        self.den = den // common
        self.nums = {key: num // common for key, num in nums.items()}
        self._decomps = None

    @property
    def terms(self):
        """The coefficients as {basis multi-index: Fraction}."""
        return {key: Fraction(num, self.den) for key, num in self.nums.items()}

    def pole_terms(self):
        """The form in the pole basis, {pole multi-index: Fraction}: each slot
        converted through `basis_poles` by `contract_slots`, the pole orders
        of a key summing to at most twice its indices."""
        top = max((key[0] for key in self.nums), default=0)
        budget = 2 * max((sum(key) for key in self.nums), default=0)
        factors = [None] + [
            [basis_poles(e).get(a, 0) for e in range(top + 1)] for a in range(1, budget + 1)
        ]
        totals = contract_slots(self.nums, self.k, factors, budget)
        return {key: Fraction(total, self.den) for key, total in totals.items()}

    def __eq__(self, other):
        if not isinstance(other, PoleForm):
            return NotImplemented
        return (self.g, self.k, self.den, self.nums) == (other.g, other.k, other.den, other.nums)

    def __repr__(self):
        return f"<PoleForm g={self.g} k={self.k} with {len(self.nums)} terms>"

    def decompositions(self):
        """The `splits` of all stored keys as ``(den, {rest: {e: num}})``,
        ``num / den`` being the coefficient of the key ``rest`` plus ``e``."""
        if self._decomps is None:
            groups = {}
            for key, num in self.nums.items():
                for e, rest in splits(key):
                    groups.setdefault(rest, {})[e] = num
            self._decomps = (self.den, groups)
        return self._decomps

    # -- serialization ------------------------------------------------------

    def to_obj(self):
        """The basis terms, as a cache file stores them."""
        terms = [{"e": list(key), "c": format_rational(c)} for key, c in sorted(self.terms.items())]
        return {"g": self.g, "k": self.k, "terms": terms}

    @classmethod
    def from_obj(cls, obj) -> "PoleForm":
        pairs = [(tuple(t["e"]), parse_rational(t["c"])) for t in obj["terms"]]
        terms = dict(pairs)
        if len(terms) < len(pairs):
            raise ValueError("a multi-index is repeated")
        return cls(obj["g"], obj["k"], terms)

    def canonical_json(self) -> str:
        """The pole terms as JSON, ``{"g", "k", "terms": [{"a", "c"}]}``
        sorted by pole multi-index: what ``wkg`` prints."""
        import json  # only wkg and the tests print a form

        terms = [
            {"a": list(key), "c": format_rational(c)}
            for key, c in sorted(self.pole_terms().items())
        ]
        return json.dumps({"g": self.g, "k": self.k, "terms": terms}, separators=(", ", ": "))
