"""Topological recursion at a single simple branch point,
instantiated on the Lambert curve x(z) = -z + ln z, y(z) = z.

Everything is expanded in the local coordinate zeta = z - 1 at the unique
branch point z* = 1, as truncated Laurent series known below the engine
order; y = 1 + zeta enters only through zeta - sigma(zeta).  Correlation
forms are finite PoleForms; the residue in the recursion becomes
coefficient extraction on those series.

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


def _residue_num(f, g):
    """Res(f*g) for f and g given as (min_exponent, trunc_order, integer
    coefficients): an integer over the product of their denominators.

    Raises TruncationError when the truncation orders do not determine it.
    """
    (fm, ft, fc), (gm, gt, gc) = f, g
    if -1 - ft >= gm or -1 - gt >= fm:
        raise TruncationError("truncation orders do not determine the residue")
    s = -1 - fm - gm
    return sum(fc[i] * gc[s - i] for i in range(max(0, s + 1 - len(gc)), min(len(fc), s + 1)))


def lambert_x(trunc_order: int) -> Series:
    """x = -1 - zeta + log(1 + zeta), the Lambert x(z) = -z + ln z at z = 1 +
    zeta, known below ``trunc_order``."""
    zeta = Series.identity(trunc_order)
    return zeta.log1p() - 1 - zeta


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


def recursion_kernel(x_local: Series, sigma: Series) -> dict:
    """The recursion kernel as ``{p: Series}``: the Laurent series in zeta
    multiplying dz1/(z1-z*)^p, for p = 2 .. max(2, order - 5), where
    ``order`` is the one the deck involution ``sigma`` is known to and
    ``x_local`` is known at least that far.

    The kernel is the integral of the Bergman kernel B(z1, .) from sigma to
    zeta over 2 omega, with omega = (y(z) - y(sigma(z))) x'(z), here
    (zeta - sigma) x'(zeta) since y = 1 + zeta; omega is inverted once.
    Integrating B = sum_m (m+1) zeta^m dz1/(z1-z*)^(m+2) between sigma and
    zeta gives zeta^(m+1) - sigma^(m+1) against the pole order p = m + 2, so
    piece p is (zeta^(p-1) - sigma^(p-1)) / (2 omega).
    """
    order = sigma.trunc_order
    omega = (Series.identity(order) - sigma) * x_local.truncate(order).derivative()
    if omega.min_exponent != 2:
        raise ValueError(
            "kernel denominator must vanish to second order at a simple branch point"
        )
    invden = omega.invert_unit()
    pieces = {}
    sigma_pow = Series.constant(1, order)
    for p in range(2, max(2, order - 5) + 1):
        sigma_pow = (sigma_pow * sigma).truncate(order)
        pieces[p] = ((Series.monomial(1, p - 1, order) - sigma_pow) * invden).scale(_HALF)
    return pieces


class LambertEngine:
    """Memoized computation of the correlation forms of the Lambert curve.

    The truncation order is used only when a form is computed: a (g, k)
    whose required order exceeds it is rejected unless the memo (or a cache
    preloaded into it) already holds the form.  Recomputing a form at a
    higher order reproduces identical coefficients (tested as
    order-robustness).  Sigma, the kernel and their integer pieces are built
    on first use, so a run that finds every form in the memo builds none.
    """

    def __init__(self, order: int = 26):
        self.order = order
        self._ebar = {}
        self._ebar_int = {}
        self._rows = {}
        self._memo = {}
        # (g, k) -> the preloaded keys whose forms fed it, directly or not
        self._fed_by_cache = {}
        self._cache_source = None

    @cached_property
    def _x(self) -> Series:
        # one order beyond the engine's, as deck_involution needs
        return lambert_x(self.order + 1)

    @cached_property
    def sigma(self) -> Series:
        """The deck involution at z* = 1, known below the engine order."""
        if self.order < 8:
            raise ValueError("order must be at least 8")
        return deck_involution(self._x, self.order)

    @cached_property
    def kernel(self) -> dict:
        return recursion_kernel(self._x, self.sigma)

    @cached_property
    def _sigma_prime(self) -> Series:
        return self.sigma.derivative()

    @cached_property
    def _sigma_inv(self) -> Series:
        return self.sigma.invert_unit()

    @cached_property
    def _pieces_int(self):
        """(den, {p: (min_exponent, trunc_order, nums)}): the kernel pieces
        as integer coefficients over one shared denominator."""
        cleared = {p: _cleared(piece) for p, piece in self.kernel.items()}
        den = lcm(*(c[0] for c in cleared.values()))
        return den, {
            p: (m, t, [v * (den // d) for v in nums]) for p, (d, m, t, nums) in cleared.items()
        }

    @cached_property
    def _bergman_terms(self):
        # B(z0, z* + zeta) = sum_m (m + 1) zeta^m dz0 / (z0 - z*)^(m + 2), each
        # zeta^m as the branch pole order -m, for m below max(kernel) - 1
        return 1, {(m + 2,): {-m: m + 1} for m in range(max(self.kernel) - 1)}

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

    def ebar(self, b: int) -> Series:
        """sigma'(zeta) * sigma(zeta)**(-b): one variable of a form placed on
        the other sheet, as a Laurent series in zeta (b may be negative)."""
        out = self._ebar.get(b)
        if out is None:
            if b == 0:
                out = self._sigma_prime
            elif b > 0:
                out = (self.ebar(b - 1) * self._sigma_inv).truncate(self.order)
            else:
                out = (self.ebar(b + 1) * self.sigma).truncate(self.order)
            self._ebar[b] = out
        return out

    def two_sided_bergman(self) -> Series:
        """B(z(zeta), z(sigma(zeta))) pulled back to zeta, double pole kept."""
        d = Series.identity(self.order) - self.sigma
        return (self._sigma_prime * (d * d).invert_unit()).truncate(self.order)

    def _ebar_cleared(self, b: int):
        """ebar(b) as (den, min_exponent, trunc_order, integer numerators)."""
        out = self._ebar_int.get(b)
        if out is None:
            out = self._ebar_int[b] = _cleared(self.ebar(b))
        return out

    def rows(self, a: int, b: int):
        """Nonzero kernel residues against zeta**(-a) * ebar(b).

        Returns ``()`` or ``(den, p0, nums)``: Res[K_p * zeta^(-a) * ebar(b)]
        is ``nums[p - p0] / den`` for p in ``p0 .. p0 + len(nums) - 1`` and 0
        otherwise.  Raises TruncationError when the engine order cannot
        determine a residue.
        """
        key = (a, b)
        row = self._rows.get(key)
        if row is None:
            e_den, e_min, e_trunc, e_nums = self._ebar_cleared(b)
            if e_min - a > 0:
                row = ()
            else:
                s = (e_min - a, e_trunc - a, e_nums)
                pieces_den, pieces = self._pieces_int
                vals = {}
                for p, piece in pieces.items():
                    try:
                        vals[p] = _residue_num(piece, s)
                    except TruncationError as exc:
                        raise TruncationError(
                            f"engine order {self.order} cannot resolve the residue "
                            f"for pole data (a={a}, b={b}, p={p}); raise the order"
                        ) from exc
                nonzero = [p for p, v in vals.items() if v]
                if nonzero:
                    p0, p1 = min(nonzero), max(nonzero)
                    den = pieces_den * e_den
                    g = gcd(den, *vals.values())
                    row = (den // g, p0, tuple(vals[p] // g for p in range(p0, p1 + 1)))
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
        ``(h, J), (g-h, J')`` equals the swapped one, because the kernel is
        invariant under the deck involution (``rows(a, b) == rows(b, a)``)
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
        t_den, *ts = _cleared(self.two_sided_bergman())
        pieces_den, pieces = self._pieces_int
        sums = {p: _residue_num(piece, ts) for p, piece in pieces.items()}
        _kernels.add_sweep(out, {(): sums}, pieces_den * t_den)

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
