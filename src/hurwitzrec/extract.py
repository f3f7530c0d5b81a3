"""From correlation forms on the Lambert curve to Hurwitz numbers.

A form is stored in the ELSV basis xihat_e(t), t = 1/(1-z) (see `poleform`).
Written in the variable v with z = L(v) (the inverse of v = z e^(-z)),
xihat_0 = t - 1 = z/(1-z) is v L'(v), and the step xihat_(e+1) = (t-1) t^2
d/dt xihat_e is v d/dv, so

    m! [v^m] xihat_e(t) |_{z=L(v)} = m^(m+e),

an integer.  This is the Laplace transform that carries the forms to Hurwitz
numbers in Eynard-Mulase-Safnuk (arXiv:0907.5224).  A k-variable form,
stored on weakly decreasing index multisets, then expands into a symmetric
series whose v^mu coefficient is the sum over its terms of the coefficient
times, over the distinct orderings (e_1, ..., e_k) of the multiset, prod_i
mu_i^(mu_i + e_i), all divided by prod_i mu_i!.  ``h_series`` computes this
on integers by contracting one slot at a time: slot i takes part mu_i and one
index per distinct value of each remaining multiset, so every mu sharing a
prefix shares the work.  The coefficients encode H_{g,mu}; the character
oracle provides the independent values the expansion must reproduce.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .partitions import HurwitzOracle, aut_size, check_partition, partitions_of
from .poleform import PoleForm, format_rational

_ZERO = Fraction(0)


def lambert_series(order: int):
    """The Series L(v) with L(v) e^(-L(v)) = v, by reversion.

    Coefficients are m^(m-1)/m!.
    """
    from .series import Series

    if order < 1:
        raise ValueError("order must be positive")
    z = Series.identity(order + 1)
    return (z * (-z).exp()).reversion().truncate(order)


def basis_factors(m: int, top: int) -> list[int]:
    """m! [v^m] xihat_e(t) at z = L(v) for e = 0 .. top: the integers
    m^(m+e)."""
    return [m ** (m + e) for e in range(top + 1)]


class HSeries:
    """Truncated expansion of a k-variable Hurwitz generating function.

    Symmetric in its variables; stored on weakly-decreasing exponent tuples.
    Any tuple containing a zero exponent has coefficient zero.
    """

    def __init__(self, g: int, k: int, n_max: int, coeffs):
        self.g = g
        self.k = k
        self.n_max = n_max
        self.coeffs = {key: c for key, c in coeffs.items() if c}

    def coefficient(self, exponents) -> Fraction:
        exponents = tuple(sorted(exponents, reverse=True))
        if len(exponents) != self.k:
            raise ValueError(f"expected {self.k} exponents")
        if any(e < 0 for e in exponents):
            raise ValueError("exponents must be nonnegative")
        if sum(exponents) > self.n_max:
            raise ValueError(f"total degree beyond truncation {self.n_max}")
        return self.coeffs.get(exponents, _ZERO)


def h_series(form: PoleForm, n_max: int) -> HSeries:
    """Expand a PoleForm into the v-variables through z_i = L(v_i).

    Depth first over weakly decreasing exponent prefixes: the level at depth
    d maps each remaining index multiset to its integer weight after slots
    1..d took the prefix's parts, and only one level per depth is alive.
    """
    k = form.k
    top = max((key[0] for key in form.nums), default=0)
    factors = [None] + [basis_factors(m, top) for m in range(1, n_max + 1)]
    coeffs = {}

    def contract_slot(level, prefix, budget, top, scale):
        # slots after this one each need a part >= 1
        slots_left = k - len(prefix) - 1
        for m in range(1, min(top, budget - slots_left) + 1):
            f = factors[m]
            scale_m = scale * factorial(m)
            if not slots_left:
                total = sum(f[key[0]] * num for key, num in level.items())
                coeffs[prefix + (m,)] = Fraction(total, scale_m)
                continue
            nxt = {}
            for key, num in level.items():
                prev = None
                for i, e in enumerate(key):
                    if e == prev:
                        continue
                    prev = e
                    rest = key[:i] + key[i + 1 :]
                    nxt[rest] = nxt.get(rest, 0) + f[e] * num
            contract_slot(nxt, prefix + (m,), budget - m, m, scale_m)

    contract_slot(form.nums, (), n_max, n_max, form.den)
    return HSeries(form.g, k, n_max, coeffs)


def extract_hurwitz(hs: HSeries, g: int, mu) -> Fraction:
    """Read H_{g,mu} off the expansion.

    The coefficient of the sorted monomial carries prod(mu_i) from the
    derivative structure, 1/b! from the branch-point count, and the
    stabilizer |Aut mu| from summing over all orderings; dividing these out
    recovers the Hurwitz number.
    """
    mu = check_partition(mu)
    if g != hs.g:
        raise ValueError(f"series was built for g={hs.g}")
    if len(mu) != hs.k:
        raise ValueError(f"series has arity {hs.k}, mu has length {len(mu)}")
    b = 2 * g - 2 + sum(mu) + len(mu)
    coeff = hs.coefficient(mu)
    denom = aut_size(mu)
    for part in mu:
        denom *= part
    return coeff * Fraction(factorial(b), denom)


def hurwitz_by_recursion(engine, g: int, mu) -> Fraction:
    """H_{g,mu} via the topological recursion route (stable range only), from
    a `toprec.LambertEngine`."""
    mu = check_partition(mu)
    hs = h_series(engine.w(g, len(mu)), sum(mu))
    return extract_hurwitz(hs, g, mu)


class BMReport:
    """Cross-method comparison of the two Hurwitz-number routes."""

    def __init__(self, records):
        self.records = records

    @property
    def ok(self):
        return all(r["equal"] for r in self.records)

    @property
    def first_mismatch(self):
        for r in self.records:
            if not r["equal"]:
                return r
        return None

    def to_text(self) -> str:
        lines = [f"{'g':>2}  {'mu':<16} {'recursion':>14} {'oracle':>14}  equal"]
        for r in self.records:
            mu = ",".join(str(x) for x in r["mu"])
            lines.append(
                f"{r['g']:>2}  ({mu})"
                + " " * max(1, 15 - len(mu) - 2)
                + f"{r['recursion']:>14} {r['oracle']:>14}  {'yes' if r['equal'] else 'NO'}"
            )
        verdict = "all equal" if self.ok else f"MISMATCH at {self.first_mismatch}"
        lines.append(f"-- {len(self.records)} cases: {verdict}")
        return "\n".join(lines)


def table_rows(g_max, n_max, engine, oracle):
    """Yield one row per (g, mu) with g <= g_max and |mu| <= n_max, as
    {"g", "mu", "recursion", "oracle", "equal"}: the value by each route
    given (either may be None), formatted, and with both whether they agree.  With an engine only
    the stable (g, len(mu)) appear; one series serves every mu of a (g, k).
    Without one, nothing here loads the curve code.
    """
    hs_cache = {}
    for g in range(g_max + 1):
        for n in range(1, n_max + 1):
            for mu in partitions_of(n):
                k = len(mu)
                # stable: 2g - 2 + k > 0, as g >= 0 and k >= 1 here
                if engine is not None and 2 * g - 2 + k <= 0:
                    continue
                row = {"g": g, "mu": list(mu)}
                if engine is not None:
                    hs = hs_cache.get((g, k))
                    if hs is None:
                        hs = hs_cache[g, k] = h_series(engine.w(g, k), n_max)
                    row["recursion"] = format_rational(extract_hurwitz(hs, g, mu))
                if oracle is not None:
                    row["oracle"] = format_rational(oracle.hurwitz(g, mu))
                if engine is not None and oracle is not None:
                    row["equal"] = row["recursion"] == row["oracle"]
                yield row


def verify_bm(
    g_max: int,
    n_max: int,
    engine=None,
    oracle: HurwitzOracle | None = None,
) -> BMReport:
    """Compare recursion vs oracle for every stable (g, mu) in range, with
    the given `toprec.LambertEngine` or a new one at the order the range
    needs.

    Stops at the first mismatch; the report then ends with the offending
    record.
    """
    if engine is None:
        from .toprec import LambertEngine, required_order

        engine = LambertEngine(order=required_order(g_max, n_max))
    if oracle is None:
        oracle = HurwitzOracle(n_max, g_max)
    records = []
    for row in table_rows(g_max, n_max, engine, oracle):
        records.append(row)
        if not row["equal"]:
            break
    return BMReport(records)
