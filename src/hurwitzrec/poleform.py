"""Exact pole-basis representation of the correlation forms.

A k-variable correlation form at a single simple branch point z* is a finite
sum of products dz_i/(z_i - z*)^{a_i}.  The forms are symmetric under
permuting variables, so a form is stored as a map from the weakly-decreasing
multi-index (the multiset of pole orders) to the coefficient of any ordered
monomial with that content.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

_ZERO = Fraction(0)


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s: str) -> Fraction:
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den) if den else 1)


class PoleForm:
    """Symmetric k-form in the pole basis at the branch point."""

    __slots__ = ("g", "k", "terms", "_decomps")

    def __init__(self, g: int, k: int, terms):
        self.g = g
        self.k = k
        canonical = {}
        for key, c in terms.items():
            c = Fraction(c)
            if not c:
                continue
            key = tuple(sorted(key, reverse=True))
            if len(key) != k or any(a < 1 for a in key):
                raise ValueError(f"bad multi-index {key} for arity {k}")
            if key in canonical and canonical[key] != c:
                raise ValueError(f"conflicting coefficients for {key}")
            canonical[key] = c
        self.terms = canonical
        self._decomps = None

    def coefficient(self, multi_index) -> Fraction:
        """Coefficient of the ordered monomial prod dz_i/(z_i-z*)^(a_i)."""
        return self.terms.get(tuple(sorted(multi_index, reverse=True)), _ZERO)

    @property
    def max_pole_order(self) -> int:
        return max((key[0] for key in self.terms), default=0)

    def __eq__(self, other):
        if not isinstance(other, PoleForm):
            return NotImplemented
        return (self.g, self.k, self.terms) == (other.g, other.k, other.terms)

    def __repr__(self):
        return f"<PoleForm g={self.g} k={self.k} with {len(self.terms)} terms>"

    def decompositions(self):
        """All splittings of stored keys, one slot pulled out per distinct
        value, as ``(den, [(a, num, rest), ...])``: the coefficient is the
        integer ``num`` over the form's common denominator ``den``.
        ``rest`` stays weakly decreasing."""
        if self._decomps is None:
            den = lcm(*(c.denominator for c in self.terms.values()))
            out = []
            for key, c in self.terms.items():
                num = c.numerator * (den // c.denominator)
                seen = set()
                for i, a in enumerate(key):
                    if a in seen:
                        continue
                    seen.add(a)
                    out.append((a, num, key[:i] + key[i + 1 :]))
            self._decomps = (den, out)
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

    @classmethod
    def from_json(cls, text: str) -> "PoleForm":
        return cls.from_obj(json.loads(text))
