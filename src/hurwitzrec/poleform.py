"""Exact pole-basis representation of the correlation forms.

A k-variable correlation form at a single simple branch point z* is a finite
sum of products dz_i/(z_i - z*)^{a_i}.  The forms are symmetric under
permuting variables, so a form is stored as a map from the weakly-decreasing
multi-index (the multiset of pole orders) to the coefficient of any ordered
monomial with that content, held as integer numerators ``nums`` over one
positive denominator ``den`` in lowest terms (``gcd(den, *nums) == 1``).
``PoleForm(g, k, terms, den)`` takes ``terms[key] / den`` for coefficients
given as ints or `Fraction`s; the ``terms`` property returns `Fraction`s.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s: str) -> Fraction:
    if not isinstance(s, str):
        raise ValueError(f"a rational is written as a string, not {s!r}")
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def splits(key):
    """One slot pulled out per distinct value ``a`` of a weakly decreasing
    ``key``: ``(a, rest)``, ``rest`` being ``key`` less one copy of ``a``."""
    prev = None
    for i, a in enumerate(key):
        if a != prev:
            prev = a
            yield a, key[:i] + key[i + 1 :]


class PoleForm:
    """Symmetric k-form in the pole basis at the branch point."""

    __slots__ = ("g", "k", "den", "nums", "_decomps")

    def __init__(self, g: int, k: int, terms, den: int = 1):
        if den < 1:
            raise ValueError(f"denominator {den} is not positive")
        self.g = g
        self.k = k
        canonical = {}
        for key, c in terms.items():
            if not c:
                continue
            key = tuple(sorted(key, reverse=True))
            if len(key) != k or any(type(a) is not int or a < 1 for a in key):
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
        """The coefficients as {multi-index: Fraction}."""
        return {key: Fraction(num, self.den) for key, num in self.nums.items()}

    def coefficient(self, multi_index) -> Fraction:
        """Coefficient of the ordered monomial prod dz_i/(z_i-z*)^(a_i)."""
        return Fraction(self.nums.get(tuple(sorted(multi_index, reverse=True)), 0), self.den)

    @property
    def max_pole_order(self) -> int:
        return max((key[0] for key in self.nums), default=0)

    def __eq__(self, other):
        if not isinstance(other, PoleForm):
            return NotImplemented
        return (self.g, self.k, self.den, self.nums) == (other.g, other.k, other.den, other.nums)

    def __repr__(self):
        return f"<PoleForm g={self.g} k={self.k} with {len(self.nums)} terms>"

    def decompositions(self):
        """The `splits` of all stored keys as ``(den, {rest: {a: num}})``,
        ``num / den`` being the coefficient of the key ``rest`` plus ``a``."""
        if self._decomps is None:
            groups = {}
            for key, num in self.nums.items():
                for a, rest in splits(key):
                    groups.setdefault(rest, {})[a] = num
            self._decomps = (self.den, groups)
        return self._decomps

    # -- serialization ------------------------------------------------------

    def to_obj(self):
        terms = [
            {"a": list(key), "c": format_rational(c)}
            for key, c in sorted(self.terms.items())
        ]
        return {"g": self.g, "k": self.k, "terms": terms}

    def canonical_json(self) -> str:
        return json.dumps(self.to_obj(), separators=(", ", ": "))

    @classmethod
    def from_obj(cls, obj) -> "PoleForm":
        terms = {tuple(t["a"]): parse_rational(t["c"]) for t in obj["terms"]}
        return cls(obj["g"], obj["k"], terms)
