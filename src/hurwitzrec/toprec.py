"""Topological recursion at a single simple branch point,
instantiated on the Lambert curve x(z) = -z + ln z, y(z) = z.

Everything is expanded in the local coordinate zeta = z - 1 at the unique
branch point z* = 1, as truncated Laurent series known below the engine
order; y = 1 + zeta enters only through zeta - sigma(zeta).  Correlation
forms are finite PoleForms; the residue in the recursion becomes
coefficient extraction on those series.  The recursion kernel is never
built: every residue is two coefficients of the one family
e(b) = sigma' sigma^(-b) / (2 omega) (see `LambertEngine.e`).

Near the branch point x = x0 + c2*xi^2 in an odd coordinate xi(zeta) (for
the Lambert curve x = -1 - xi^2/2, the coordinate `bridge` reads the times
in), and the deck involution is xi -> -xi.  The global sign of the recursion
kernel, on which sources differ, is fixed to the one the character oracle
confirms on the smallest stable cases.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from . import _kernels
from .poleform import PoleForm, splits
from .series import Series, TruncationError

_HALF = Fraction(1, 2)


# Part of the cache fingerprint: raise it whenever a change to the engine
# could change a stored form, so that caches written before are ignored.
ENGINE_VERSION = 2


def required_order(g: int, k: int) -> int:
    """Truncation order used for the (g, k) form: 2*(3g-3+k) + 8, floored
    at the minimal curve order 8."""
    return max(8, 2 * (3 * g - 3 + k) + 8)


def is_stable(g: int, k: int) -> bool:
    return g >= 0 and k >= 1 and 2 * g - 2 + k > 0


def check_stable(g: int, k: int) -> None:
    """Raise ValueError, naming what (g, k) is instead, unless it is stable."""
    if is_stable(g, k):
        return
    if (g, k) == (0, 2):
        raise ValueError("(0, 2) is the Bergman kernel base case, not a recursion output")
    if (g, k) == (0, 1):
        raise ValueError("(0, 1) is the curve datum -y dx, not a recursion output")
    raise ValueError(f"(g={g}, k={k}) is outside the stable range 2g-2+k > 0")


def _cleared(s: Series):
    """(den, min_exponent, trunc_order, integer numerators) of a series."""
    den, nums = _kernels.clear_denominators(s.coefficients)
    return den, s.min_exponent, s.trunc_order, nums


def lambert_x(trunc_order: int) -> Series:
    """x = -1 - zeta + log(1 + zeta) = -1 + sum_{n>=2} (-1)^(n+1) zeta^n / n,
    the Lambert x(z) = -z + ln z at z = 1 + zeta, known below ``trunc_order``."""
    tail = [Fraction((-1) ** (n + 1), n) for n in range(2, trunc_order)]
    return Series(0, [-1, 0] + tail, trunc_order)


def odd_coordinate(x_local: Series, order: int) -> Series:
    """The coordinate xi(zeta) = zeta + ... with x = x0 + c2*xi^2, to ``order``.

    Requires a simple branch point (no linear term, nonzero quadratic term).
    The coefficient of zeta^n in xi needs x_local at zeta^(n+1), so x_local
    must be known strictly beyond the requested order.
    """
    if x_local.coefficient(1) != 0 or x_local.coefficient(2) == 0:
        raise ValueError("not a simple branch point: need x = x0 + c2*zeta^2 + ...")
    if x_local.trunc_order <= order:
        raise ValueError(f"xi to order {order} needs x_local known to order {order + 1}")
    xi_squared = (x_local - x_local.coefficient(0)).scale(1 / x_local.coefficient(2))
    return xi_squared.truncate(order + 1).sqrt_unit()


def deck_involution(x_local: Series, order: int) -> Series:
    """The nontrivial local solution of x(sigma(zeta)) = x(zeta).

    In the odd coordinate of `odd_coordinate` the involution is xi -> -xi,
    so sigma(zeta) = zeta(-xi(zeta)).  Needs x_local as `odd_coordinate`
    does: a simple branch point, known strictly beyond ``order``.
    """
    xi = odd_coordinate(x_local, order)
    sigma = xi.reversion().compose(-xi)
    # the identity fixes x too; the deck involution is -zeta + O(zeta^2)
    fixes_x = x_local.compose(sigma).agrees_with(x_local.truncate(order))
    if sigma.coefficient(1) != -1 or not fixes_x:
        raise ValueError("no deck involution exists at this order")
    return sigma


class LambertEngine:
    """Memoized computation of the correlation forms of the Lambert curve.

    The truncation order is used only when a form is computed: a (g, k)
    whose required order exceeds it is rejected unless the memo (or a cache
    preloaded into it) already holds the form.  Recomputing a form at a
    higher order reproduces identical coefficients (tested as
    order-robustness).  Sigma and the series ``e(b)`` are built on first
    use, so a run that finds every form in the memo builds none.
    """

    def __init__(self, order: int = 26):
        self.order = order
        self._e = {}
        self._e_int = {}
        self._rows = {}
        self._memo = {}
        # (g, k) -> the preloaded keys whose forms fed it, directly or not
        self._fed_by_cache = {}
        self._cache_source = None

    @cached_property
    def sigma(self) -> Series:
        """The deck involution at z* = 1, known below the engine order."""
        if self.order < 8:
            raise ValueError("order must be at least 8")
        # x one order beyond the engine's, as deck_involution needs
        return deck_involution(lambert_x(self.order + 1), self.order)

    @cached_property
    def _sigma_inv(self) -> Series:
        return self.sigma.invert_unit()

    @cached_property
    def _bergman_terms(self):
        # B(z0, z* + zeta) = sum_m (m + 1) zeta^m dz0 / (z0 - z*)^(m + 2), each
        # zeta^m as the branch pole order -m, up to the top pole order
        # order - 5 of the kernel
        return 1, {(m + 2,): {-m: m + 1} for m in range(self.order - 6)}

    # -- curve fingerprint (for caches) -------------------------------------

    def fingerprint(self) -> str:
        import hashlib

        x_local = lambert_x(8)
        coeffs = ",".join(str(x_local.coefficient(n)) for n in range(8))
        raw = f"lambert-t1|engine={ENGINE_VERSION}|sign=1|x={coeffs}"
        return hashlib.sha256(raw.encode()).hexdigest()[:16]

    def preload(self, forms, source):
        """Seed the memo with {(g, k): PoleForm} read from ``source`` (a cache
        file); a later self-check failure in a form they feed names it."""
        self._memo.update(forms)
        self._fed_by_cache.update({key: {key} for key in forms})
        self._cache_source = source

    # -- branch-point evaluation data ----------------------------------------

    def e(self, b: int) -> Series:
        """e(b) = sigma' sigma^(-b) / (2 omega), as a Laurent series in zeta
        (b may be negative), with omega = (zeta - sigma) x'.

        The recursion kernel at pole order p = 2 .. order - 5 is
        K_p = (zeta^(p-1) - sigma^(p-1)) / (2 omega): integrating the Bergman
        kernel B = sum_m (m+1) zeta^m dz1/(z1-z*)^(m+2) from sigma to zeta
        gives zeta^(m+1) - sigma^(m+1) against p = m + 2, over 2 omega with
        omega = (y(z) - y(sigma z)) x'(z), here (zeta - sigma) x'(zeta) since
        y = 1 + zeta.  The involution fixes x, so pulling back by sigma
        flips the sign of omega dzeta; pulling the sigma^(p-1) half of a
        residue back turns it into a zeta^(p-1) one, and every residue the
        recursion takes is two coefficients of this family (see `rows` and
        `_sweep_two_sided`).
        """
        out = self._e.get(b)
        if out is None:
            if b == 0:
                order = self.order
                omega = (Series.identity(order) - self.sigma) * lambert_x(order).derivative()
                if omega.min_exponent != 2:
                    raise ValueError(
                        "kernel denominator must vanish to second order at a simple branch point"
                    )
                out = (self.sigma.derivative() * omega.invert_unit()).scale(_HALF)
            elif b > 0:
                out = (self.e(b - 1) * self._sigma_inv).truncate(self.order)
            else:
                out = (self.e(b + 1) * self.sigma).truncate(self.order)
            self._e[b] = out
        return out

    def _e_cleared(self, b: int):
        """e(b) as (den, min_exponent, trunc_order, integer numerators)."""
        out = self._e_int.get(b)
        if out is None:
            out = self._e_int[b] = _cleared(self.e(b))
        return out

    def rows(self, a: int, b: int):
        """Nonzero kernel residues against zeta^(-a) sigma' sigma^(-b), the
        pole data (a, b) of two variables, one placed on the other sheet.

        Returns ``()`` or ``(den, p0, nums)``: Res[K_p zeta^(-a) sigma'
        sigma^(-b)] is ``nums[p - p0] / den`` for p in ``p0 .. p0 + len(nums)
        - 1`` and 0 otherwise.  Raises TruncationError when the engine order
        cannot determine a residue.

        The zeta^(p-1) half of K_p gives e(b)[a - p], where f[n] is the
        coefficient of zeta^n; the sigma^(p-1) half, pulled back by sigma,
        gives e(a)[b - p].  So the row is e(b)[a - p] + e(a)[b - p], and
        rows(a, b) == rows(b, a) is an identity.
        """
        key = (a, b)
        row = self._rows.get(key)
        if row is None:
            den_a, min_a, trunc_a, nums_a = self._e_cleared(a)
            den_b, min_b, trunc_b, nums_b = self._e_cleared(b)
            # p = 2 reads the highest coefficient of each
            if a - 2 >= trunc_b or b - 2 >= trunc_a:
                raise TruncationError(
                    f"engine order {self.order} cannot resolve the residue "
                    f"for pole data (a={a}, b={b})"
                )
            den = lcm(den_a, den_b)
            scale_a, scale_b = den // den_a, den // den_b
            vals = [
                (nums_b[a - p - min_b] * scale_b if a - p >= min_b else 0)
                + (nums_a[b - p - min_a] * scale_a if b - p >= min_a else 0)
                for p in range(2, self.order - 4)
            ]
            nonzero = [i for i, v in enumerate(vals) if v]
            if nonzero:
                i0, i1 = nonzero[0], nonzero[-1]
                g = gcd(den, *vals)
                row = (den // g, i0 + 2, tuple(v // g for v in vals[i0 : i1 + 1]))
            else:
                row = ()
            self._rows[key] = row
        return row

    # -- the recursion ---------------------------------------------------------

    def w(self, g: int, k: int) -> PoleForm:
        """The stable correlation form as a PoleForm.

        Unstable (g, k) are curve data, not recursion output, and are
        rejected: (0,1) is -y dx and (0,2) is the Bergman kernel.

        The split products are summed over unordered splits: the term for
        ``(h, J), (g-h, J')`` equals the swapped one, because
        ``rows(a, b) == rows(b, a)`` (a row is ``e(b)[a-p] + e(a)[b-p]``)
        and ``C(n, k) == C(n, n-k)`` in the rest counts.  So each split with
        ``(h, |J|) < (g-h, |J'|)`` is swept once with weight 2, and a split
        equal to its swap once with weight 1.
        """
        check_stable(g, k)
        memo = self._memo.get((g, k))
        if memo is not None:
            return memo
        need = required_order(g, k)
        if need > self.order:
            raise ValueError(
                f"(g={g}, k={k}) needs truncation order {need}, engine has {self.order}"
            )

        out = [1, {}]
        inputs = []
        if g >= 1:
            if (g - 1, k + 1) == (0, 2):
                self._sweep_two_sided(out)
            else:
                inputs.append((g - 1, k + 1))
                self._sweep_term1(out, self.w(g - 1, k + 1))
        for h in range(g + 1):
            for j_a in range(k):
                j_b = k - 1 - j_a
                if (j_a == 0 and h == 0) or (j_b == 0 and h == g) or (h, j_a) > (g - h, j_b):
                    continue
                inputs += [(h, j_a + 1), (g - h, j_b + 1)]
                terms_a = self._decomps(h, j_a + 1)
                terms_b = self._decomps(g - h, j_b + 1)
                weight = 1 if (h, j_a) == (g - h, j_b) else 2
                _kernels.pair_sweep(out, terms_a, terms_b, self.rows, weight)

        fed = set().union(*(self._fed_by_cache.get(key, ()) for key in inputs))
        form = self._assemble(g, k, out, fed)
        if fed:
            self._fed_by_cache[(g, k)] = fed
        self._memo[(g, k)] = form
        return form

    def _decomps(self, h: int, m: int):
        if (h, m) == (0, 2):
            return self._bergman_terms
        return self.w(h, m).decompositions()

    def _sweep_two_sided(self, out):
        # The Bergman kernel with one variable on each sheet, sigma' / (zeta -
        # sigma)^2, gives Res[K_p sigma' / (zeta - sigma)^2] = 2 G[-p] with
        # G = e(0) / (zeta - sigma)^2, its sigma^(p-1) half pulled back by
        # sigma as in `rows`.
        d = Series.identity(self.order) - self.sigma
        den, m, _, nums = _cleared(self.e(0) * (d * d).invert_unit())
        sums = {p: 2 * nums[-p - m] for p in range(2, self.order - 4) if -p >= m}
        _kernels.add_sweep(out, {(): sums}, den)

    def _sweep_term1(self, out, prev: PoleForm):
        den_c, groups = prev.decompositions()
        pairs = {(a, b) for rest, group in groups.items() for a in group for b in rest}
        den_r, table = _kernels.row_table(self.rows, pairs)
        acc = {}
        for rest, group in groups.items():
            for b, left in splits(rest):
                _kernels.accumulate(acc, left, _kernels.contract(group, b, table), 1)
        _kernels.add_sweep(out, acc, den_c * den_r)

    def _assemble(self, g, k, out, fed) -> PoleForm:
        """Collapse (first-slot pole, rest-multiset) data into a symmetric
        PoleForm, checking that every way of singling out the first slot
        agrees (this is the symmetry of the recursion output; a failure
        means the truncation order was insufficient or, when the preloaded
        forms ``fed`` went into it, that the cache file is wrong)."""
        den, values = out
        fulls = {tuple(sorted(u + (p,), reverse=True)) for (p, u), v in values.items() if v}
        terms = {}
        for full in fulls:
            vals = [values.get(split, 0) for split in splits(full)]
            if any(v != vals[0] for v in vals):
                if fed:
                    cause = (
                        f"the forms {sorted(fed)} read from the cache file "
                        f"{self._cache_source} are the likely cause"
                    )
                else:
                    cause = f"truncation order {self.order} is insufficient"
                raise ArithmeticError(
                    f"slot-symmetry violated assembling W({g},{k}) at {full}; {cause}"
                )
            terms[full] = vals[0]
        return PoleForm(g, k, terms, den)
