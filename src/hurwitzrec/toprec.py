"""The memoized correlation forms of the Lambert curve: what a request runs
when its forms are in the memo.

`LambertEngine.w` returns a stable form W(g, k) from the memo, which
`cache.attach_cache` may have seeded from a file.  Only a form the memo
lacks is computed, by the topological recursion at the curve's branch
point, which the engine builds on its first miss (`LambertEngine.recursion`,
see `sweeps`).  That is the only place this module imports the recursion's
arithmetic, so a request whose forms all come from the cache compiles none
of it: it runs the checks here and the extraction.
"""

from __future__ import annotations

from functools import cached_property

from .common import is_stable


# The cache fingerprint, a constant so that a cached run hashes nothing.  One
# rule: change it whenever a stored form could change, so that caches written
# before are ignored, and the tests recompute it from its recipe, the first 16
# hex digits of the sha256 of "lambert-t1|engine=2|sign=1|x={c_0},...,{c_7}"
# with c_n the coefficients of the Lambert x(zeta); a new value raises the
# engine number.
FINGERPRINT = "daf91dc4013b9690"


def required_order(g: int, k: int) -> int:
    """Truncation order used for the (g, k) form: 2*(3g-3+k) + 8, floored
    at the minimal curve order 8.  The sweeps of W(g, k) read pulled pairs
    up to top(x) + top(y) = 2(3g-3+k), and a residue is exact when
    top(x) + top(y) + 2 <= `sweeps.kernel_top` = order - 5 (see
    `sweeps.PairTable`), so the reads end one order inside that bound."""
    return max(8, 2 * (3 * g - 3 + k) + 8)


def check_stable(g: int, k: int) -> None:
    """Raise ValueError, naming what (g, k) is instead, unless it is stable."""
    if is_stable(g, k):
        return
    if (g, k) == (0, 2):
        raise ValueError("(0, 2) is the Bergman kernel base case, not a recursion output")
    if (g, k) == (0, 1):
        raise ValueError("(0, 1) is the curve datum -y dx, not a recursion output")
    raise ValueError(f"(g={g}, k={k}) is outside the stable range 2g-2+k > 0")


def outside_window(g: int, k: int, keys) -> list:
    """The keys whose degree sum(e_i - 1) lies outside 2g - 3 + k .. 3g - 3 +
    k, where every key of a stable W(g, k) lies."""
    return [key for key in keys if not 2 * g - 3 + k <= sum(key) - k <= 3 * g - 3 + k]


class LambertEngine:
    """Memoized computation of the correlation forms of the Lambert curve.

    The truncation order is used only when a form is computed: a (g, k)
    whose required order exceeds it is rejected unless the memo already
    holds the form.  Recomputing a form at a higher order reproduces
    identical coefficients (tested as order-robustness).  The recursion and
    its tables are built on the first miss, so a run that finds every form
    in the memo loads and builds none of them.  The engine keeps no cache
    state: `cache.attach_cache` seeds the memo from a file that its loader
    has already checked, and a form from the memo is never checked again.
    """

    def __init__(self, order: int = 26):
        self.order = order
        self._memo = {}

    @cached_property
    def recursion(self):
        """The engine's `sweeps.Recursion`: its tables and the computation of
        a form the memo lacks, made on the first miss."""
        from .sweeps import Recursion  # a warm request compiles no recursion arithmetic

        return Recursion(self)

    def w(self, g: int, k: int):
        """The stable correlation form as a `poleform.PoleForm`, from the memo
        or else computed by the `recursion`.

        Unstable (g, k) are curve data, not recursion output, and are
        rejected: (0,1) is -y dx and (0,2) is the Bergman kernel.
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
        form = self._memo[(g, k)] = self.recursion.form(g, k)
        return form
