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
mu_i^(mu_i + e_i), all divided by prod_i mu_i!.  That coefficient is
H_{g,mu} prod_i mu_i |Aut mu| / b!, with b = 2g - 2 + |mu| + k branch points,
so ``h_series`` contracts with the rows m^(m+e-1), each part's factor m
folded into its row, and returns the Hurwitz numbers themselves, one
`Fraction` per mu.  It computes the integer sums with
`poleform.contract_slots`, the slot walk that also gives the pole view: slot
i takes part mu_i and one index per distinct value of each remaining
multiset, so every mu sharing a prefix shares the work, and a run of parts
1, whose row is all ones, is taken in one pass.  The character
oracle provides the independent values the recursion must reproduce.

A table is one walk over the rows (g, mu) of a request, ``table_rows``, with
each route plain data: a ``(name, value)`` pair from ``routes``.  A row is
kept when every route has a value for it, and two routes add their verdict.
``verify_bm`` is that table for both routes, cut at the first mismatch.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .common import aut_size, check_partition, format_rational, is_stable, partitions_of

_ZERO = Fraction(0)


def h_series(form, n_max: int) -> dict:
    """The Hurwitz numbers of a `poleform.PoleForm` W(g, k): {mu: H_{g,mu}}
    for every mu of k parts with |mu| <= n_max and H_{g,mu} nonzero.

    The `contract_slots` of its numerators with the rows m^(m+e-1) of each
    part m gives the expansion's integer sum over prod_i mu_i, so H_{g,mu} is
    that total times b! / (den |Aut mu| prod_i mu_i!), with
    b = 2g - 2 + |mu| + k.
    """
    from .poleform import contract_slots  # an oracle table loads no form code

    top = max((key[0] for key in form.nums), default=0)
    rows = [None] + [[m ** (m + e - 1) for e in range(top + 1)] for m in range(1, n_max + 1)]
    return {
        mu: Fraction(
            total * factorial(2 * form.g - 2 + sum(mu) + form.k),
            form.den * aut_size(mu) * prod(map(factorial, mu)),
        )
        for mu, total in contract_slots(form.nums, form.k, rows, n_max).items()
    }


def hurwitz_by_recursion(engine, g: int, mu) -> Fraction:
    """H_{g,mu} via the topological recursion route (stable range only), from
    a `toprec.LambertEngine`."""
    mu = check_partition(mu)
    return h_series(engine.w(g, len(mu)), sum(mu)).get(mu, _ZERO)


def routes(engine, oracle, n_max):
    """The ``(name, value)`` pair of each route given, in table order.

    ``value(g, mu)`` is H_{g,mu} as a Fraction, or None for a row outside the
    route's range.  The recursion covers the stable (g, len(mu)) and runs one
    `h_series` per (g, k) for every mu of it; without an engine nothing here
    loads the curve code.
    """
    pairs = []
    if engine is not None:
        numbers = {}

        def recursion(g, mu):
            k = len(mu)
            if not is_stable(g, k):
                return None
            if (g, k) not in numbers:
                numbers[g, k] = h_series(engine.w(g, k), n_max)
            return numbers[g, k].get(mu, _ZERO)

        pairs.append(("recursion", recursion))
    if oracle is not None:
        pairs.append(("oracle", oracle.hurwitz))
    return pairs


def table_rows(g_max, n_max, routes):
    """Yield one row per (g, mu) with g <= g_max and |mu| <= n_max that every
    route covers, as {"g", "mu", <name>: value, ...}: the formatted value of
    each ``(name, value)`` route in order, and, when more than one route is
    given, "equal", whether they all agree.
    """
    for g in range(g_max + 1):
        for n in range(1, n_max + 1):
            for mu in partitions_of(n):
                values = [value(g, mu) for _name, value in routes]
                if None in values:
                    continue
                row = {"g": g, "mu": list(mu)}
                row.update((name, format_rational(q)) for (name, _value), q in zip(routes, values))
                if len(routes) > 1:
                    row["equal"] = len(set(values)) == 1
                yield row


def verify_bm(g_max: int, n_max: int, engine=None, oracle=None) -> list[dict]:
    """Compare recursion vs oracle for every stable (g, mu) in range, with
    the given `toprec.LambertEngine` and `partitions.HurwitzOracle`, or new
    ones for the range.

    Returns the `table_rows` compared, in table order.  It stops at the first
    mismatch, so every row is equal except possibly the last.
    """
    if engine is None:
        from .toprec import LambertEngine, required_order

        engine = LambertEngine(order=required_order(g_max, n_max))
    if oracle is None:
        from .partitions import HurwitzOracle  # a recursion table loads no oracle code

        oracle = HurwitzOracle(n_max, g_max)
    rows = []
    for row in table_rows(g_max, n_max, routes(engine, oracle, n_max)):
        rows.append(row)
        if not row["equal"]:
            break
    return rows
