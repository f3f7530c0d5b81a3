"""The recursion's arithmetic: what computes a form that the engine's memo
lacks.  `toprec.LambertEngine` builds one `Recursion` on its first miss,
the only place it imports this module, so a request whose forms all come
from the cache compiles none of it.

Topological recursion at a single simple branch point, instantiated on the
Lambert curve x(z) = -z + ln z, y(z) = z.

Everything is expanded in the local coordinate zeta = z - 1 at the unique
branch point z* = 1, as truncated power series, coefficient lists known
below the engine order (see `series`); y = 1 + zeta enters only through
zeta - sigma(zeta).  Correlation forms are finite PoleForms in the ELSV
basis (see `poleform`); the residue in the recursion becomes coefficient
extraction on those series.  The recursion kernel is never built: the
residue against a pulled pair of slots is two reads of one integer table
with a row U_s per pulled slot s, the slot on the other sheet over 2 (zeta -
sigma) (see `Recursion.u_table`), by one formula (`PairTable.residues`),
and the sweeps read each pair of basis indices from one table filled from
it (see `PairTable`).  Since sigma fixes x, the basis step xihat_(e+1) =
d/dx xihat_e carries over to the other sheet, so row s + 1 is one exact
integer step from row s.

A pulled slot is a basis index (> 0) or a Bergman power (<= 0, -m standing
for zeta^m); its pole orders are `basis_poles` of the index or the power
itself.  A residue is made by the kernel's pole order p and written in the
basis where it is made (see `poles_to_basis`).  The pair table resolves only
the pairs whose residue the kernel holds whole (see `PairTable`), so every
residue is exact and every row after it holds basis indices >= 1 only: the
residual indices of `pole_basis` cancel in it.  Each form is summed in one
running sum ``{rest: {index: num}}``, keyed by the weakly decreasing tuple of
indices left on the symbolic variables and the first slot's basis index, in
integers over one denominator.  `Recursion.form` fixes that denominator
before the first sweep, as the lcm of every sweep's own, and each sweep
folds the quotient into its integer multiplier, so nothing held is ever
rescaled.  The Bergman split B(z0, z_i) W(g, k-1), a term of every form
with k >= 2, is not swept as a product of two forms: its rows, the Bergman
decomposition contracted with each pulled slot, are kept once per engine
with the zero rows left out (see `BergmanRows`), and `bergman_sweep` adds
each stored row into its merged rest.  Each row is filled in one pass from
the residue formula, summed by pole order and written in the basis once;
the Bergman powers beyond the slot's top pole order give nothing and are
not read.

The deck involution sigma(zeta) = -zeta + O(zeta^2), the other local
solution of x(sigma) = x(zeta), is built from the curve's own differential
equation: x'(zeta) = -zeta / (1 + zeta), so differentiating x(sigma) =
x(zeta) gives (1 + zeta) sigma sigma' = zeta (1 + sigma), which fixes one
coefficient of sigma per order (see `Recursion.sigma`).  It is solved in
integers over one denominator, and the set-up after it, the `halves` and
the residue table, stays in integers.  The global sign of the recursion
kernel, on which sources differ, is fixed to the one the character oracle
confirms on the smallest stable cases.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm

from .common import aut_size
from .poleform import PoleForm, basis_poles, pole_basis, poles_to_basis, splits
from .series import TruncationError, conv_ints, lowest_terms, unit_inverse
from .toprec import outside_window


def kernel_top(order: int) -> int:
    """The top pole order of the recursion kernel at engine order ``order``:
    the residues, the pole basis and the Bergman terms stop there, and a
    pair whose residue would reach past it is not resolved (see
    `PairTable`), so the tables hold what the pairs inside read and no
    more."""
    return order - 5



def check_deck_involution(sigma):
    """Return ``sigma``, ``(den, nums)`` with ``nums[i-1] / den`` the
    coefficient sigma_i of zeta^i for i = 1 .. t - 1, if sigma = -zeta +
    O(zeta^2) solves (1 + zeta) sigma sigma' = zeta (1 + sigma) below
    zeta^t, and raise ValueError otherwise.

    This is the check that x(sigma) = x(zeta) through zeta^t.  With the
    Lambert x'(zeta) = -zeta / (1 + zeta), d/dzeta [x(sigma) - x(zeta)] is
    the residual of that equation over (1 + sigma)(1 + zeta), a unit, and
    both sides vanish at zeta = 0; so the residual vanishes through
    zeta^(t-1) exactly when x(sigma) - x(zeta) does through zeta^t.  The
    identity solves the equation too, hence the leading coefficient.
    """
    # den^2 times the residual over zeta: (1 + zeta) sigma sigma' / zeta -
    # (1 + sigma)
    den, nums = sigma
    product = conv_ints(nums, [i * c for i, c in enumerate(nums, 1)], len(nums))
    one_plus = [den * c for c in [den] + nums]
    residual = [a + b - c for a, b, c in zip(product, [0] + product, one_plus)]
    if nums[:1] != [-den] or any(residual):
        raise ValueError("no deck involution exists at this order")
    return sigma


def slot_poles(s: int) -> dict:
    """The pole orders of a pulled slot: `basis_poles` of a basis index, the
    power itself of a Bergman power."""
    return basis_poles(s) if s > 0 else {s: 1}


class PairTable(dict):
    """``T[x, y] = {index: num}``, over ``den``: the residue of the recursion
    kernel against a pulled pair of slots, in the basis of the first slot.
    Filled on first use from an engine's residue table ``(den_u, {s: U_s})``
    at ``order``; ``den`` is den_u times `pole_basis`'s; symmetric; zero
    entries are dropped.

    With P_s the pole orders of slot s and top(s) the largest of them, the
    residue at the kernel's pole order p is sum_a P_x[a] U_y[a + top(y) + 2 -
    p] + sum_b P_y[b] U_x[b + top(x) + 2 - p], each U a power series (see
    `residues`), nonzero up to p = top(x) + top(y) + 2; the row is these
    residues by p written in the basis once (see `poles_to_basis`).  A pair
    with top(x) + top(y) + 2 > `kernel_top` would reach a pole order the
    kernel does not hold, and its row would be cut there, so it raises
    TruncationError.  Every row inside that bound is the whole residue, in
    which the residual indices of `pole_basis` cancel: it holds basis
    indices >= 1 only.  A slot the table has no row for, such as a Bergman
    power past the table's, raises too."""

    def __init__(self, u_table, order):
        super().__init__()
        den_u, self.u = u_table
        self.order = order
        self.top = kernel_top(order)
        den_basis, self.to_basis = pole_basis(self.top)
        self.den = den_u * den_basis

    def residues(self, x, y) -> list:
        """The residues of the pulled pair (x, y) by the kernel's pole order
        p, a list of numerators over den_u indexed by p = 0 .. `kernel_top`
        (p = 0, 1 and those past top(x) + top(y) + 2 stay 0): the one
        residue formula, which the pair table and the `BergmanRows` both
        read.  It reads U_y and U_x up to zeta^(top(x) + top(y)), at most
        zeta^(kernel_top - 2)."""
        poles_x, poles_y = slot_poles(x), slot_poles(y)
        top_x, top_y = max(poles_x), max(poles_y)
        if top_x + top_y + 2 > self.top or not {x, y} <= self.u.keys():
            raise TruncationError(
                f"engine order {self.order} cannot resolve the residue "
                f"for the pulled slots (x={x}, y={y})"
            )
        sums = [0] * (self.top + 1)
        for poles, u, top_u in ((poles_x, self.u[y], top_y), (poles_y, self.u[x], top_x)):
            for a, c in poles.items():
                n = a + top_u + 2
                for p in range(2, n + 1):
                    sums[p] += c * u[n - p]
        return sums

    def __missing__(self, key):
        sums = self.residues(*key)
        row = poles_to_basis({p: v for p, v in enumerate(sums) if v}, self.to_basis)
        self[key] = self[key[::-1]] = row
        return row


def contract_pairs(group, y, table):
    """``sum_x group[x] * T[x, y]`` as ``{index: num}`` over ``table.den``,
    for one ``{x: num}`` of a decomposition; zero sums are dropped."""
    sums = {}
    for x, num in group.items():
        for index, v in table[x, y].items():
            sums[index] = sums.get(index, 0) + num * v
    return {index: v for index, v in sums.items() if v}


def accumulate(acc, u, sums, c):
    """Add ``c * sums`` into ``acc[u]``, made only for a nonempty ``sums``."""
    if sums:
        bucket = acc.get(u)
        if bucket is None:
            bucket = acc[u] = {}
        for index, v in sums.items():
            bucket[index] = bucket.get(index, 0) + c * v


def pair_sweep(acc, den, terms_a, terms_b, table, weight):
    """Add ``weight`` times the residues of all (A-term, B-term) pairs into
    the running sum ``acc``, ``{rest: {index: num}}`` over ``den``, a
    multiple of this sweep's own denominator ``den_a * den_b * table.den``.

    ``terms_a``/``terms_b`` are decompositions ``(den, {rest: {x: num}})``,
    ``x`` the pulled slot.  A split term of the recursion sums over the
    subsets J of the remaining variables.  On forms stored by weakly
    decreasing index tuples, the subsets that turn rests ``ra`` and ``rb``
    into one merged rest are the choices of which merged slots came from
    ``ra``: for each value v held m times in the merged rest, C(m, m_a) of
    them, m_a its count in ``ra``.  Since m = m_a + m_b, the product over v
    is aut(merged) / (aut(ra) aut(rb)), with aut = `aut_size`.  ``weight``
    is 2 when this one sweep stands for both orientations of a split: the
    table is symmetric, so swapping the A and B sides adds identical
    integers.
    """
    (den_a, groups_a), (den_b, groups_b) = terms_a, terms_b
    scale = weight * (den // (den_a * den_b * table.den))
    pulled_b = {y for group in groups_b.values() for y in group}
    side_b = [(rb, aut_size(rb), group_b) for rb, group_b in groups_b.items()]
    for ra, group_a in groups_a.items():
        aut_a = aut_size(ra)
        contracted = {y: contract_pairs(group_a, y, table) for y in pulled_b}
        for rb, aut_b, group_b in side_b:
            merged = tuple(sorted(ra + rb, reverse=True))
            n = scale * (aut_size(merged) // (aut_a * aut_b))
            for y, yn in group_b.items():
                accumulate(acc, merged, contracted[y], n * yn)


class BergmanRows(dict):
    """``R[y] = {i: row}``: each group ``(i,): {-m: num}`` of the Bergman
    decomposition ``(den, groups)`` contracted with the pulled slot y, the
    sum over m of num times the residue row of the pair (-m, y), as
    ``{index: num}`` over ``table.den``, stored only when nonzero.  Filled on
    first use, so each contraction is made once per engine, not once per
    form that sweeps the Bergman term.

    Each row is filled in one pass from the residue table, not through the
    pair table's rows: the residues of (-m, y) by pole order (see
    `PairTable.residues`) are made once per power m the decomposition holds,
    each group sums them in pole orders, and its sum is written in the
    basis once.  A Bergman power -m has the one pole order -m, so both
    halves of the residue formula are empty for m > top(y); only m = 0 ..
    top(y) is read, none for y < 0.  The pair table's bound keeps top(y) <=
    kernel_top - 2, so every power read has a row."""

    def __init__(self, bergman_terms, table):
        super().__init__()
        self.den, self.groups = bergman_terms
        self.table = table
        self.powers = sorted({-x for group in self.groups.values() for x in group})

    def __missing__(self, y):
        table, top_y = self.table, max(slot_poles(y))
        held = [m for m in self.powers if m <= top_y]
        residues = {m: [(p, v) for p, v in enumerate(table.residues(-m, y)) if v] for m in held}
        rows = {}
        for (i,), group in self.groups.items():
            terms = [(num, residues[-x]) for x, num in group.items() if -x in residues]
            if not terms:
                continue
            sums = [0] * (table.top + 1)
            for num, residue in terms:
                for p, v in residue:
                    sums[p] += num * v
            row = poles_to_basis({p: v for p, v in enumerate(sums) if v}, table.to_basis)
            if row:
                rows[i] = row
        self[y] = rows
        return rows


def bergman_sweep(acc, den, rows, terms_b, weight):
    """`pair_sweep` with the Bergman decomposition as side A, read from its
    table ``rows`` (a `BergmanRows`): the split term B(z0, z_i) W(h, m).

    Side A's rests are the single indices (i,), so a merged rest is rb +
    (i,), and its count aut(merged) / (aut((i,)) aut(rb)) is the
    multiplicity of i in it.  Only the stored nonzero rows are merged.
    """
    den_b, groups_b = terms_b
    scale = weight * (den // (rows.den * den_b * rows.table.den))
    for rb, group_b in groups_b.items():
        for y, yn in group_b.items():
            for i, row in rows[y].items():
                merged = tuple(sorted(rb + (i,), reverse=True))
                accumulate(acc, merged, row, scale * (rb.count(i) + 1) * yn)


class Recursion:
    """One engine's recursion: the tables a sweep reads, each built on first
    use, and the computation of a form that the engine's memo lacks.  Lower
    forms are read through the engine's `w`, so its memo stays the one
    memo, and the truncation order is the engine's."""

    def __init__(self, engine):
        self.engine = engine
        self.order = engine.order

    @cached_property
    def sigma(self):
        """The deck involution at z* = 1, known below zeta^kernel_top, as
        ``(den, nums)`` in lowest terms: ``nums[i-1] / den`` is the
        coefficient sigma_i of zeta^i for i = 1 .. kernel_top - 1, so
        ``nums`` is also s = sigma / zeta from zeta^0, its kernel_top - 1
        coefficients the ones the `halves` read.

        sigma = -zeta + O(zeta^2) solves (1 + zeta) sigma sigma' = zeta (1 +
        sigma), the derivative of x(sigma) = x(zeta).  With Q = sigma^2 this
        is (1 + zeta) Q' = 2 zeta (1 + sigma), which at zeta^(n-1) reads
        n Q_n + (n-1) Q_(n-1) = 2 sigma_(n-2) for n >= 3, from Q_2 = 1.  As
        Q_n = -2 sigma_(n-1) + C_n, C_n = sum_{i=2}^{n-2} sigma_i sigma_(n-i),
        each n gives sigma_(n-1) = (n C_n - 2 sigma_(n-2) + (n-1) Q_(n-1)) /
        (2n) in O(n) products.  The recurrence runs on integers: sigma over
        one denominator, Q and C over its square, and the denominator grows
        by the part of each new coefficient's own one it lacks.
        `check_deck_involution` then checks the equation on the result,
        which is the check that sigma fixes x.
        """
        if self.order < 8:
            raise ValueError("order must be at least 8")
        # sigma[i] / den is sigma_i; q / den^2 is Q_(n-1) on entering step n
        den, sigma, q = 1, [0, -1], 1
        for n in range(3, kernel_top(self.order) + 1):
            cross = sum(sigma[i] * sigma[n - i] for i in range(2, n - 1))
            num, d = n * cross - 2 * den * sigma[n - 2] + (n - 1) * q, 2 * n * den * den
            common = gcd(num, d)
            num, d = num // common, d // common
            grow = d // gcd(d, den)
            if grow > 1:
                den *= grow
                sigma = [v * grow for v in sigma]
                cross *= grow * grow
            sigma.append(num * (den // d))
            q = cross - 2 * den * sigma[n - 1]
        return check_deck_involution(lowest_terms(den, sigma[1:]))

    @cached_property
    def _bergman_terms(self):
        # B(z0, z* + zeta) = sum_m (m + 1) zeta^m dz0 / (z0 - z*)^(m + 2), each
        # zeta^m as the Bergman power -m, up to the kernel's top pole order;
        # the pole dz0 / (z0 - z*)^(m + 2) is written in the basis.  An odd
        # pole is a residual index alone, and the residual indices of an even
        # one only cancel against it: every exact residue holds basis indices
        # only, so they contract to zero rows and are left out
        top = kernel_top(self.order)
        den, to_basis = pole_basis(top)
        groups = {}
        for m in range(0, top - 1, 2):
            for index, num in to_basis[m + 2].items():
                if index >= 1:
                    groups.setdefault((index,), {})[-m] = (m + 1) * num
        return den, groups

    # -- branch-point evaluation data ----------------------------------------

    @cached_property
    def halves(self):
        """The two power series the residue table is made of, ``(rhat,
        what)``, each ``(den, nums)`` in lowest terms, kernel_top - 1
        coefficients as the table reads them: rhat = zeta R_0 = -(1/s +
        zeta) and what = zeta / (2 (zeta - sigma)) = 1 / (2 (1 - s)), s =
        sigma / zeta, the numerators of `sigma`.  A simple branch point
        needs s = -1 + O(zeta), so that zeta - sigma vanishes to first order
        and the kernel denominator (zeta - sigma) x' to second."""
        den_s, s = self.sigma
        if s[0] != -den_s:
            raise ValueError(
                "kernel denominator must vanish to second order at a simple branch point"
            )
        # 1/s = den_s / s and 1/(1 - s) = den_s / (den_s - s), s read as ints
        known = kernel_top(self.order) - 1
        den_r, inverse = unit_inverse(s, known)
        rhat = [-den_s * v for v in inverse]
        rhat[1] -= den_r
        den_w, inverse = unit_inverse([den_s - s[0]] + [-c for c in s[1:]], known)
        return lowest_terms(den_r, rhat), lowest_terms(2 * den_w, [den_s * v for v in inverse])

    @cached_property
    def u_table(self):
        """The residue table ``(den, {s: nums})``: ``nums[n] / den`` is the
        coefficient of zeta^n in U_s = zeta^(top(s)+2) R_s / (2 (zeta -
        sigma)), one row per pulled slot s that a pair inside the bound of
        `PairTable` can pull: the basis indices 0 .. top // 2 - 1, top(s) =
        2s their top pole order, for n < top - 1, and the Bergman powers -m
        = -(top - 2) .. -1, top(s) = -m, for n < top - 1 - m.  A resolvable
        pair reads U_y up to zeta^(top(x) + top(y)) <= zeta^(top - 2), and
        for y = -m up to zeta^(top(x) - m), as top(x) <= top.  A row is kept
        for every power, read or not, so that the residue formula is defined
        on every slot of the table.

        R_s is slot s on the other sheet, divided by dx: R_0 = -(1 + sigma) /
        sigma is xihat_0 = t - 1 at sigma, R_(s+1) = -(1 + zeta)/zeta R_s' is
        d/dx R_s, which is xihat_(s+1) at sigma because sigma fixes x, and
        R_(-m) = sigma^m R_0 is the Bergman power zeta^m dzeta / dx there.
        The kernel at pole order p is K_p = (zeta^(p-1) - sigma^(p-1)) / (2
        omega), omega = (zeta - sigma) x'; pulling its sigma^(p-1) half back
        by sigma, which fixes x and flips the sign of omega dzeta, makes the
        residue of a pulled pair of slots two reads of these rows (see
        `PairTable`).

        The rows are built in integers from the two `halves`: with rhat_x =
        zeta^(2x+1) R_x, U_x = rhat_x what is one integer convolution, and
        rhat_(x+1)[n] = -(q[n] + q[n-1]) with q[n] = (n - 2x - 1) rhat_x[n]
        is the exact step d/dx.
        The Bergman rows are U_(-m) = (sigma / zeta)^m U_0, one convolution
        each, stopped at the row's length; the gcd of every row is divided
        out, and one lcm puts the rows over the table's denominator.
        """
        top = kernel_top(self.order)
        known = top - 1
        rows = {}
        (den_r, rhat), (den_w, what) = self.halves
        for x in range(top // 2):
            rows[x] = lowest_terms(den_r * den_w, conv_ints(rhat, what, known))
            q = [(n - 2 * x - 1) * v for n, v in enumerate(rhat)]
            rhat = [-q[0]] + [-(q[n] + q[n - 1]) for n in range(1, known)]
        den_s, s = self.sigma
        for m in range(1, top - 1):
            den, nums = rows[1 - m]
            rows[-m] = lowest_terms(den * den_s, conv_ints(nums, s, known - m))
        # each row is in lowest terms, so the lcm of their denominators is
        # the least common denominator of the whole table
        den = lcm(*(d for d, _ in rows.values()))
        return den, {slot: [v * (den // d) for v in nums] for slot, (d, nums) in rows.items()}

    @cached_property
    def pair_table(self) -> PairTable:
        """The residues of every pulled pair of slots, read from `u_table`
        and filled as the sweeps ask for them."""
        return PairTable(self.u_table, self.order)

    @cached_property
    def bergman_rows(self) -> BergmanRows:
        """The Bergman decomposition contracted with each pulled slot, filled
        as the Bergman sweeps ask for it."""
        return BergmanRows(self._bergman_terms, self.pair_table)

    # -- a form the memo lacks ------------------------------------------------

    def form(self, g: int, k: int) -> PoleForm:
        """The stable form W(g, k), which the engine's order admits, from the
        lower forms its `w` gives.

        The split products are summed over unordered splits: the term for
        ``(h, J), (g-h, J')`` equals the swapped one, because the residue
        row of a pulled pair of slots is symmetric in them (see
        `PairTable`) and ``C(n, k) == C(n, n-k)`` in the rest
        counts.  So each split with ``(h, |J|) < (g-h, |J'|)`` is swept once
        with weight 2, and a split equal to its swap once with weight 1.
        In that order the Bergman kernel W(0,2) is always side A, and side B
        too only in W(0,3).  Its split is read from `bergman_rows` by
        `bergman_sweep`; the W(g-1, k+1) term and every other split go
        through the pair table, whose slots are then basis indices only.
        """
        # the inputs of every sweep first, so that the form's running sum has
        # one denominator, fixed before the first sweep
        w = self.engine.w
        prev = None if g == 0 or (g, k) == (1, 1) else w(g - 1, k + 1).decompositions()
        sweeps = []
        for h in range(g + 1):
            for j_a in range(k):
                j_b = k - 1 - j_a
                if (j_a == 0 and h == 0) or (j_b == 0 and h == g) or (h, j_a) > (g - h, j_b):
                    continue
                weight = 1 if (h, j_a) == (g - h, j_b) else 2
                sweeps.append((self._decomps(h, j_a + 1), self._decomps(g - h, j_b + 1), weight))
        if (g, k) == (1, 1):
            # the two-sided Bergman row is W(1,1)'s only term: no residue table
            den, acc = self._sweep_two_sided()
        else:
            table = self.pair_table
            dens = [den_a * den_b for (den_a, _), (den_b, _), _ in sweeps]
            den = table.den * lcm(*dens, *([prev[0]] if prev else []))
            acc = {}
            if prev:
                self._sweep_term1(acc, den, prev)
            for terms_a, terms_b, weight in sweeps:
                if terms_a is self._bergman_terms:
                    bergman_sweep(acc, den, self.bergman_rows, terms_b, weight)
                else:
                    pair_sweep(acc, den, terms_a, terms_b, table, weight)

        return self._assemble(g, k, den, acc)

    def _decomps(self, h: int, m: int):
        if (h, m) == (0, 2):
            return self._bergman_terms
        return self.engine.w(h, m).decompositions()

    def _sweep_two_sided(self):
        # The Bergman kernel with one variable on each sheet, sigma' / (zeta -
        # sigma)^2, gives Res[K_p sigma' / (zeta - sigma)^2] = 2 G[-p] with
        # G = R_0 / (2 (zeta - sigma)^3) = 4 rhat what^3 zeta^(-4), its
        # sigma^(p-1) half pulled back by sigma as in `u_table`; only p <= 4
        # is nonzero, and W(1,1)'s order 10 puts the kernel's top at 5.  The
        # row goes into the basis as a pair-table row does, and is W(1,1)'s
        # whole running sum.
        (den_r, rhat), (den_w, what) = self.halves
        g = rhat[:3]
        for _ in range(3):
            g = conv_ints(g, what, 3)
        den, nums = lowest_terms(den_r * den_w**3, [8 * g[4 - p] for p in (2, 3, 4)])
        den_basis, to_basis = pole_basis(kernel_top(self.order))
        return den * den_basis, {(): poles_to_basis(dict(zip((2, 3, 4), nums)), to_basis)}

    def _sweep_term1(self, acc, den, prev):
        # the W(g-1, k+1) term: two slots pulled from the decomposition prev
        den_c, groups = prev
        table = self.pair_table
        scale = den // (den_c * table.den)
        for rest, group in groups.items():
            for y, left in splits(rest):
                accumulate(acc, left, contract_pairs(group, y, table), scale)

    def _assemble(self, g, k, den, acc) -> PoleForm:
        """Collapse the form's running sum ``acc``, ``{rest: {index: num}}``
        over ``den`` (fixed in `form` before the first sweep), into a symmetric
        PoleForm, entries that cancel to 0 ignored, checking that every way
        of singling out the first slot agrees, that no key with a residual
        index is nonzero and that every key lies in the window of
        `outside_window`.  Every residue the pair table resolves is exact,
        so these are fault detectors: a failure means a wrong table, sweep
        or conversion, or an order too low, as the message says."""

        def fail(what, full):
            raise ArithmeticError(
                f"{what} assembling W({g},{k}) at {full}; "
                f"truncation order {self.order} is insufficient"
            )

        fulls = {
            tuple(sorted(rest + (index,), reverse=True))
            for rest, bucket in acc.items()
            for index, v in bucket.items()
            if v
        }
        terms = {}
        for full in sorted(fulls):
            vals = [acc.get(rest, {}).get(index, 0) for index, rest in splits(full)]
            if any(v != vals[0] for v in vals):
                fail("slot-symmetry violated", full)
            terms[full] = vals[0]
        residual = [full for full in fulls if full[-1] < 0]
        if residual:
            fail("residual index nonzero", min(residual))
        outside = outside_window(g, k, terms)
        if outside:
            fail("key outside the Hodge window", min(outside))
        return PoleForm(g, k, terms, den)
