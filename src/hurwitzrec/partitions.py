"""Partition combinatorics, symmetric-group characters, and the Burnside
count of branched covers.

Partitions are weakly-decreasing tuples of positive integers.  Characters are
evaluated by the Murnaghan-Nakayama rule on beta-sets (first-column hook
lengths), which makes border-strip removal a single subtraction.

The connected-cover oracle builds the generating function Z of
disconnected cover counts, graded by the degree n, the monomial p_mu and the
Euler-characteristic exponent e of the string coupling, then takes its formal
logarithm F = log Z degree by degree from the graded identity
n Z_n = sum_{k=1..n} k F_k Z_{n-k}, which also gives the exponential back.
Simple Hurwitz numbers are read off the logarithm; this route never touches
the spectral-curve machinery and serves as the independent ground truth for
it.

Both Z and F are cut at one additive weight, w = e + 2n.  A term of Z with b
simple branch points has e = b - n - len(mu), so w = b + n - len(mu) >= 0,
since a partition of n has at most n parts.  A term of F counts connected
covers of some genus g >= 0, so e = 2g - 2 and w = 2g - 2 + 2n >= 0 with
n >= 1.  Both e and n add under products, hence so does w.  Because no term
has negative weight, the terms of weight above a bound w_max span an ideal of
the series with nonnegative weights: any product with one such factor has
weight above w_max as well.  Dropping that ideal is therefore a ring
homomorphism that keeps the degree, so it commutes with the graded identity
above, with log and with exp: the log of the cut Z, with every product above
w_max skipped, is exactly the cut of the log of the uncut Z.  The oracle
takes w_max = 2 g_max - 2 + 2 n_max.  At n = n_max that keeps exactly the
e <= 2 g_max - 2 that its lookups read; at lower degrees it keeps the larger
exponents, up to 2 g_max - 2 + 2 (n_max - n), that products into degree
n_max need.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial

Partition = tuple[int, ...]

_ZERO = Fraction(0)


def check_partition(mu) -> Partition:
    """Coerce to a canonical partition tuple, validating shape."""
    mu = tuple(int(x) for x in mu)
    if any(x <= 0 for x in mu):
        raise ValueError(f"partition parts must be positive: {mu}")
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {mu}")
    return mu


def multiplicities(mu: Partition) -> dict[int, int]:
    out: dict[int, int] = {}
    for part in mu:
        out[part] = out.get(part, 0) + 1
    return out


def aut_size(mu: Partition) -> int:
    """Order of the stabilizer of mu under permutations of its parts."""
    out = 1
    for m in multiplicities(mu).values():
        out *= factorial(m)
    return out


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in lexicographically descending order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(_partitions_bounded(n, n))


def _partitions_bounded(n, max_part):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_bounded(n - first, first):
            yield (first,) + rest


def h_encoding(lam: Partition, N: int) -> tuple[int, ...]:
    """The strictly decreasing sequence h_i = lam_i - i + N, i = 1..N."""
    if N < len(lam):
        raise ValueError(f"need N >= {len(lam)} for this partition")
    padded = tuple(lam) + (0,) * (N - len(lam))
    return tuple(padded[i] - (i + 1) + N for i in range(N))


def _beta_to_partition(h) -> Partition:
    n = len(h)
    lam = tuple(h[i] - (n - 1 - i) for i in range(n))
    return tuple(x for x in lam if x > 0)


def class_size(mu: Partition) -> int:
    """Cardinality of the conjugacy class of cycle type mu in S_{|mu|}."""
    mu = check_partition(mu)
    denom = 1
    for r, m in multiplicities(mu).items():
        denom *= factorial(m) * r**m
    size, rem = divmod(factorial(sum(mu)), denom)
    assert rem == 0
    return size


def dim_irrep(lam: Partition) -> int:
    """Dimension of the irreducible S_{|lam|} representation indexed by lam.

    Evaluated as |lam|! * Vandermonde(h) / prod h_i! on the h-encoding with
    N = len(lam) entries.
    """
    lam = check_partition(lam)
    h = h_encoding(lam, max(len(lam), 1))
    num = factorial(sum(lam))
    for i in range(len(h)):
        for j in range(i + 1, len(h)):
            num *= h[i] - h[j]
    den = 1
    for hi in h:
        den *= factorial(hi)
    dim, rem = divmod(num, den)
    assert rem == 0 and dim > 0
    return dim


@cache
def character(lam: Partition, mu: Partition) -> int:
    """Irreducible character chi_lam evaluated on the class of cycle type mu.

    Murnaghan-Nakayama recursion, largest part of mu first: removing a
    border strip of size r from lam is subtracting r from one beta-set entry,
    with sign (-1)^(number of beta entries jumped over).
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("character requires |lam| = |mu|")
    return _mn(lam, mu)


@cache
def _mn(lam: Partition, mu: Partition) -> int:
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    N = len(lam)
    h = [lam[i] - (i + 1) + N for i in range(N)]
    hset = set(h)
    total = 0
    for i, hi in enumerate(h):
        lo = hi - r
        if lo < 0 or lo in hset:
            continue
        between = sum(1 for x in h if lo < x < hi)
        sub = sorted((x for x in h if x != hi), reverse=True)
        sub.append(lo)
        sub.sort(reverse=True)
        term = _mn(_beta_to_partition(sub), rest)
        total += -term if between % 2 else term
    return total


def f_central(lam: Partition, mu: Partition) -> Fraction:
    """The central character |C_mu| * chi_lam(C_mu) / dim(lam): the textbook
    definition the tests hold `f_c2` and `cov_disconnected` to; the oracle
    keeps dim(lam) * chi_lam(mu) in integers instead (`_burnside_weights`)."""
    return Fraction(class_size(mu) * character(lam, mu), dim_irrep(lam))


@cache
def f_c2(lam: Partition) -> int:
    """Central character of the transposition class, as the content sum.

    Equals sum_i lam_i*(lam_i - 2i + 1)/2, which is f_central against the
    class (2, 1, ..., 1) whenever |lam| >= 2, and 0 for |lam| < 2.

    An equivalent quadratic form in the h-encoding is
    (1/2)*sum h_i^2 - (N - 1/2)*sum h_i + N(N-1)(2N-1)/6; a variant with
    constant term N(2N^2 - 3N + 4)/6 circulates but fails direct evaluation
    at lam=(2), N=2 and is not used here.
    """
    lam = check_partition(lam)
    # twice the content sum, so even
    return sum(part * (part - 2 * i - 1) for i, part in enumerate(lam)) // 2


def cov_disconnected(mu: Partition, b: int) -> Fraction:
    """Weighted count of possibly-disconnected degree-|mu| covers of the
    sphere with monodromy mu over one point and b transpositions elsewhere.

    Burnside: sum over partitions lam of |mu| of
    (dim lam / n!)^2 * f_central(lam, mu) * f_c2(lam)^b.
    """
    mu = check_partition(mu)
    if b < 0:
        raise ValueError("b must be nonnegative")
    if not mu:
        return Fraction(1) if b == 0 else _ZERO
    n = sum(mu)
    total = sum(w * f**b for w, f in _burnside_weights(mu))
    return Fraction(class_size(mu) * total, factorial(n) ** 2)


@cache
def _burnside_weights(mu: Partition) -> tuple[tuple[int, int], ...]:
    """The integer pairs (dim(lam) * chi_lam(mu), f_c2(lam)) over the
    partitions lam of n = |mu|; they do not depend on b.  Each Burnside
    weight (dim lam / n!)^2 * f_central(lam, mu) is the first entry times
    |C_mu| / (n!)^2, so the sum over lam stays in integers and dim(lam) is
    not divided out and back in."""
    n = sum(mu)
    return tuple(
        (dim * character(lam, mu), f_c2(lam))
        for lam, dim in zip(partitions_of(n), _dims(n))
    )


@cache
def _dims(n: int) -> tuple[int, ...]:
    """dim_irrep over partitions_of(n), in that order."""
    return tuple(dim_irrep(lam) for lam in partitions_of(n))


# ---------------------------------------------------------------------------
# The generating function Z of disconnected counts and its formal logarithm.
# ---------------------------------------------------------------------------


class PSeriesZ:
    """Truncated generating function graded by degree n and weight e + 2n.

    ``data[n]`` maps ``(mu, e)`` to a Fraction, where ``mu`` is the partition
    labelling the monomial p_mu and ``e`` the exponent of the string
    coupling (e = b - |mu| - len(mu) termwise; exponents add under products).
    Only terms with n <= n_max and weight e + 2n <= w_max are kept; the module
    docstring shows why this cut is exact under products, log and exp.
    """

    def __init__(self, n_max: int, w_max: int, data=None):
        self.n_max = n_max
        self.w_max = w_max
        self.data = {n: {} for n in range(n_max + 1)}
        if data:
            for n, terms in data.items():
                self.data[n].update(terms)

    def coefficient(self, n: int, mu: Partition, e: int) -> Fraction:
        if n > self.n_max or e + 2 * n > self.w_max:
            raise ValueError(
                f"term of degree {n} and exponent {e} beyond truncation "
                f"(n_max={self.n_max}, w_max={self.w_max})"
            )
        return self.data[n].get((tuple(mu), e), _ZERO)

    def __eq__(self, other):
        if not isinstance(other, PSeriesZ):
            return NotImplemented
        if (self.n_max, self.w_max) != (other.n_max, other.w_max):
            return False
        for n in range(self.n_max + 1):
            a = {k: v for k, v in self.data[n].items() if v}
            b = {k: v for k, v in other.data[n].items() if v}
            if a != b:
                return False
        return True

    def log(self) -> "PSeriesZ":
        """Formal logarithm F = log Z; requires constant coefficient 1.

        Degree by degree from n Z_n = sum_{k=1..n} k F_k Z_{n-k}:
        F_n = Z_n - (1/n) sum_{k<n} k F_k Z_{n-k}.
        """
        if self.data[0] != {((), 0): Fraction(1)}:
            raise ValueError("log requires a series with constant term 1")
        out = PSeriesZ(self.n_max, self.w_max)
        for n in range(1, self.n_max + 1):
            out.data[n] = _graded_step(self.data[n], out, self, n, Fraction(-1, n))
        return out

    def exp(self) -> "PSeriesZ":
        """Formal exponential Z = exp F; requires zero constant coefficient.

        Degree by degree from the same identity:
        Z_n = F_n + (1/n) sum_{k<n} k F_k Z_{n-k}.
        """
        if self.data[0]:
            raise ValueError("exp requires a series without constant term")
        out = PSeriesZ(self.n_max, self.w_max, {0: {((), 0): Fraction(1)}})
        for n in range(1, self.n_max + 1):
            out.data[n] = _graded_step(self.data[n], self, out, n, Fraction(1, n))
        return out


def _graded_step(base: dict, f: PSeriesZ, z: PSeriesZ, n: int, scale: Fraction) -> dict:
    """base + scale * (the degree-n part of sum_{k=1..n-1} k F_k Z_{n-k}),
    skipping every product of weight above w_max, with zero entries dropped.

    A product of degree n has weight ea + eb + 2n, so it is kept when
    ea + eb <= w_max - 2n."""
    out = dict(base)
    e_cap = f.w_max - 2 * n
    for k in range(1, n):
        terms_z = z.data[n - k]
        for (mua, ea), ca in f.data[k].items():
            eb_cap = e_cap - ea
            ca *= k * scale
            for (mub, eb), cb in terms_z.items():
                if eb > eb_cap:
                    continue
                key = (_merge_partitions(mua, mub), ea + eb)
                out[key] = out.get(key, _ZERO) + ca * cb
    return {key: v for key, v in out.items() if v}


def _merge_partitions(a: Partition, b: Partition) -> Partition:
    return tuple(sorted(a + b, reverse=True))


def build_z(n_max: int, w_max: int) -> PSeriesZ:
    """Assemble Z from the Burnside counts, up to degree n_max and weight
    w_max, that is up to b = w_max - n + len(mu) simple branch points for
    the monomial p_mu of degree n."""
    z = PSeriesZ(n_max, w_max, {0: {((), 0): Fraction(1)}})
    for n in range(1, n_max + 1):
        dest = z.data[n]
        for mu in partitions_of(n):
            lmu = len(mu)
            # b must have the parity of n + len(mu) for a cover to exist
            for b in range((n + lmu) % 2, w_max - n + lmu + 1, 2):
                c = cov_disconnected(mu, b)
                if c:
                    dest[(mu, b - n - lmu)] = c / factorial(b)
    return z


class HurwitzOracle:
    """Connected simple Hurwitz numbers H_{g,mu} via the character route.

    Precomputes the logarithm of Z once for the configured bounds; queries
    are table lookups times b!.
    """

    def __init__(self, n_max: int, g_max: int):
        if n_max < 1 or g_max < 0:
            raise ValueError("need n_max >= 1 and g_max >= 0")
        self.n_max = n_max
        self.g_max = g_max
        self._f = build_z(n_max, 2 * g_max - 2 + 2 * n_max).log()

    def hurwitz(self, g: int, mu) -> Fraction:
        """H_{g,mu}, exactly."""
        mu = check_partition(mu)
        n = sum(mu)
        if n == 0:
            raise ValueError("mu must be a nonempty partition")
        b = 2 * g - 2 + n + len(mu)
        if g < 0 or b < 0:
            raise ValueError(f"no covers with g={g}, mu={mu}")
        if n > self.n_max or g > self.g_max:
            raise ValueError(
                f"(g={g}, mu={mu}) outside configured bounds "
                f"(n_max={self.n_max}, g_max={self.g_max})"
            )
        return factorial(b) * self._f.coefficient(n, mu, 2 * g - 2)

