"""Partition combinatorics, symmetric-group characters, and the Burnside
count of branched covers.

Partitions are weakly-decreasing tuples of positive integers.  Characters are
evaluated by the Murnaghan-Nakayama rule on beta-sets (first-column hook
lengths, Macdonald I.1), each held as a bit mask, which makes border-strip
removal two bit flips and its sign a count of the set bits between them
(Macdonald I.7); one row holds chi_lam(mu) for every lam of |mu| at once,
from the row of mu less its largest part.  This is the module's one
character table: the dimensions are its row of the identity class (1^n).
The Burnside counts sum the terms of the lam that share one |f_c2(lam)|
once, a partition and its conjugate among them (see `_burnside_weights`).

The connected-cover oracle builds the generating function Z of
disconnected cover counts, graded by the degree n, the monomial p_mu and the
Euler-characteristic exponent e of the string coupling, then takes its formal
logarithm F = log Z degree by degree from the graded identity
n Z_n = sum_{k=1..n} k F_k Z_{n-k}.
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
above and with log: the log of the cut Z, with every product above w_max
skipped, is exactly the cut of the log of the uncut Z.  The oracle
takes w_max = 2 g_max - 2 + 2 n_max.  At n = n_max that keeps exactly the
e <= 2 g_max - 2 that its lookups read; at lower degrees it keeps the larger
exponents, up to 2 g_max - 2 + 2 (n_max - n), that products into degree
n_max need.

The series hold no Fraction and no tuple key.  Each degree n of Z and F is
a dict from the packed int key of a term p_mu with exponent e (see
`PSeriesZ`), under which the product of two terms is the sum of their
keys, to an integer numerator over one positive denominator, in lowest
terms: build_z writes degree n over (n!)^2 w_max!, and each step of log
brings its terms to the lcm of their denominators, sums in integers and
divides by n times that lcm once.  No key is decoded: a read packs its
(mu, e), and a Fraction is made only then.

The partitions themselves, their checks and automorphism counts come from
`common`, the one module of the package the oracle imports, which the
recursion shares; so an oracle request loads no curve code and a recursion
request compiles none of this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, gcd, lcm, prod
from operator import mul

from .common import Partition, aut_size, check_partition, partitions_of


def h_encoding(lam: Partition, N: int) -> tuple[int, ...]:
    """The strictly decreasing sequence h_i = lam_i - i + N, i = 1..N."""
    if N < len(lam):
        raise ValueError(f"need N >= {len(lam)} for this partition")
    padded = tuple(lam) + (0,) * (N - len(lam))
    return tuple(padded[i] - (i + 1) + N for i in range(N))


def class_size(mu: Partition) -> int:
    """Cardinality of the conjugacy class of cycle type mu in S_{|mu|}: n!
    over the order |Aut mu| * prod(mu) of a permutation's centralizer."""
    mu = check_partition(mu)
    return factorial(sum(mu)) // (aut_size(mu) * prod(mu))


@cache
def _chars(mu: Partition) -> tuple[int, ...]:
    """chi_lam(mu) for every lam in partitions_of(|mu|), in that order: each
    is the signed sum of chi_(lam less a strip)(mu[1:]) over the border
    strips of size mu[0] in lam."""
    if not mu:
        return (1,)
    below = _chars(mu[1:])
    return tuple(
        sum(sign * below[i] for i, sign in strips) for strips in _strips(sum(mu), mu[0])
    )


@cache
def _strips(n: int, r: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each lam in partitions_of(n), the border strips of size r: one pair
    (index of lam less the strip in partitions_of(n - r), sign) per strip.

    On the beta-set mask of lam, a strip moves a set bit hi down to a clear
    bit lo = hi - r; the sign is (-1) to the number of set bits strictly
    between them.  Trailing set bits of the result are zero parts, shifted
    off before it is looked up."""
    index = {mask: i for i, mask in enumerate(_masks(n - r))}
    gap = (1 << (r - 1)) - 1
    out = []
    for mask in _masks(n):
        strips = []
        for lo in range(mask.bit_length() - r - 1, -1, -1):  # hi from the top down
            if mask >> (lo + r) & 1 and not mask >> lo & 1:
                sub = mask ^ (1 << (lo + r)) ^ (1 << lo)
                sub >>= (~sub & (sub + 1)).bit_length() - 1
                between = (mask >> (lo + 1) & gap).bit_count()
                strips.append((index[sub], -1 if between % 2 else 1))
        out.append(tuple(strips))
    return tuple(out)


@cache
def _masks(n: int) -> tuple[int, ...]:
    """The beta-set of each lam in partitions_of(n), with one entry per part,
    as the bit mask sum 2^h_i; bit 0 is clear, as lam has no zero part."""
    return tuple(sum(1 << h for h in h_encoding(lam, len(lam))) for lam in partitions_of(n))


@cache
def f_c2(lam: Partition) -> int:
    """Central character of the transposition class, as the content sum.

    Equals sum_i lam_i*(lam_i - 2i + 1)/2, which is the central character
    |C| chi_lam(C) / dim(lam) of the class C of cycle type (2, 1, ..., 1)
    whenever |lam| >= 2, and 0 for |lam| < 2.  The conjugate partition has
    the opposite content sum.

    An equivalent quadratic form in the h-encoding is
    (1/2)*sum h_i^2 - (N - 1/2)*sum h_i + N(N-1)(2N-1)/6; a variant with
    constant term N(2N^2 - 3N + 4)/6 circulates but fails direct evaluation
    at lam=(2), N=2 and is not used here.
    """
    lam = check_partition(lam)
    # twice the content sum, so even
    return sum(part * (part - 2 * i - 1) for i, part in enumerate(lam)) // 2


@cache
def _burnside_weights(mu: Partition) -> tuple[tuple[int, int], ...]:
    """The integer pairs (w, f) with
    sum_lam dim(lam) chi_lam(mu) f_c2(lam)^b = sum w f^b, the sum over the
    partitions lam of n = |mu|, at every b of the parity of n + len(mu): the
    only b with covers, and the only b build_z reads.  There is one pair per
    distinct f = |f_c2(lam)|, and none with w = 0.

    At such b, f_c2^b = |f_c2|^b sgn(f_c2)^(n + len(mu)), so w sums
    dim(lam) * chi_lam(mu) * sgn(f_c2(lam))^(n + len(mu)) over the lam of
    one |f_c2|.  Conjugation keeps dim, sends f_c2 to -f_c2 and chi_lam(mu)
    to sgn(mu) chi_lam(mu), sgn(mu) = (-1)^(n - len(mu)) (Macdonald, I.7),
    so at that parity lam and its conjugate add the same term to one w; at
    the other they cancel, which is why no cover exists there.  Dimensions
    and characters are the rows `_chars((1,) * n)` and `_chars(mu)`."""
    n = sum(mu)
    flip = (n + len(mu)) % 2
    weights = {}
    for lam, dim, chi in zip(partitions_of(n), _chars((1,) * n), _chars(mu)):
        f = f_c2(lam)
        sign = -1 if flip and f < 0 else 1
        weights[abs(f)] = weights.get(abs(f), 0) + sign * dim * chi
    return tuple((w, f) for f, w in weights.items() if w)


# ---------------------------------------------------------------------------
# The generating function Z of disconnected counts and its formal logarithm.
# ---------------------------------------------------------------------------


class PSeriesZ:
    """Truncated generating function graded by degree n and weight e + 2n.

    ``data[n]`` maps the key of a term to an integer numerator over the
    degree's one positive denominator ``den[n]``.  A term is the monomial
    p_mu times the string coupling to the exponent e (e = b - |mu| - len(mu)
    termwise), and its key is the one int ``key(mu, e)``,
    e S + sum_i B^mu_i with B = n_max + 1 and S = B^B: digit p in base B is
    the multiplicity of the part p, which stays below B in any degree up to
    n_max, so the key of a product is the sum of its factors' keys.  Floor
    division key // S gives e back, negative or not, since the digits sum to
    less than S.  Every degree is kept in lowest terms,
    gcd(den[n], *numerators) = 1, with no zero numerator, so equal series
    have equal representations.  Only terms with n <= n_max and weight
    e + 2n <= w_max are kept; the module docstring shows why this cut is
    exact under products and log.
    """

    def __init__(self, n_max: int, w_max: int):
        self.n_max = n_max
        self.w_max = w_max
        self.base = n_max + 1
        self.shift = self.base**self.base
        self.data = {n: {} for n in range(n_max + 1)}
        self.den = [1] * (n_max + 1)

    def key(self, mu: Partition, e: int) -> int:
        """The packed key of the term p_mu with exponent e."""
        return e * self.shift + sum(self.base**p for p in mu)

    def coefficient(self, n: int, mu: Partition, e: int) -> Fraction:
        mu = check_partition(mu)
        if sum(mu) != n:
            raise ValueError(f"partition {mu} is not of degree {n}")
        if n > self.n_max or e + 2 * n > self.w_max:
            raise ValueError(
                f"term of degree {n} and exponent {e} beyond truncation "
                f"(n_max={self.n_max}, w_max={self.w_max})"
            )
        return Fraction(self.data[n].get(self.key(mu, e), 0), self.den[n])

    def __eq__(self, other):
        if not isinstance(other, PSeriesZ):
            return NotImplemented
        return (self.n_max, self.w_max, self.data, self.den) == (
            other.n_max, other.w_max, other.data, other.den
        )

    def _set(self, n: int, nums: dict, den: int) -> None:
        """Store degree n as nums / den, in lowest terms and without zeros."""
        g = gcd(den, *nums.values())
        self.data[n] = {key: v // g for key, v in nums.items() if v}
        self.den[n] = den // g

    def log(self) -> "PSeriesZ":
        """Formal logarithm F = log Z; requires constant coefficient 1.

        Degree by degree from n Z_n = sum_{k=1..n} k F_k Z_{n-k}:
        F_n = Z_n - (1/n) sum_{k<n} k F_k Z_{n-k}, skipping every product of
        weight above w_max.

        The product of two terms is the sum of their keys.  Z_n and each
        k F_k Z_{n-k} are brought to the lcm L of their denominators, with k
        and L's cofactor folded into the outer coefficient, so a kept product
        costs one integer multiply and one add; the sum is over n L.  A
        product of degree n has weight ea + eb + 2n, so it is kept when
        ea + eb <= w_max - 2n; each degree of Z is sorted by e, so the first
        eb above the cap ends the row.
        """
        if self.data[0] != {0: self.den[0]}:
            raise ValueError("log requires a series with constant term 1")
        shift = self.shift
        z, f = self, PSeriesZ(self.n_max, self.w_max)
        zk = [sorted((key // shift, key, v) for key, v in terms.items())
              for terms in z.data.values()]
        fk = [None]
        for n in range(1, self.n_max + 1):
            lcd = lcm(z.den[n], *(f.den[k] * z.den[n - k] for k in range(1, n)))
            out = {key: v * n * lcd // z.den[n] for _e, key, v in zk[n]}
            e_cap = self.w_max - 2 * n
            for k in range(1, n):
                scale = -k * lcd // (f.den[k] * z.den[n - k])
                terms_z = zk[n - k]
                for ka, ea, ca in fk[k]:
                    eb_cap = e_cap - ea
                    ca *= scale
                    for eb, kb, cb in terms_z:
                        if eb > eb_cap:
                            break
                        key = ka + kb
                        out[key] = out.get(key, 0) + ca * cb
            f._set(n, out, n * lcd)
            fk.append([(key, key // shift, v) for key, v in f.data[n].items()])
        return f


def build_z(n_max: int, w_max: int) -> PSeriesZ:
    """Assemble Z from the Burnside counts, up to degree n_max and weight
    w_max, that is up to b = w_max - n + len(mu) simple branch points for
    the monomial p_mu of degree n.

    The coefficient, the Burnside count
    |C_mu| / (n!)^2 * sum_lam dim(lam) chi_lam(mu) f_c2(lam)^b over b!, is
    written over the degree's denominator (n!)^2 w_max! as the integer
    |C_mu| * sum w f^b * (w_max! / b!), with the pairs (w, f) of
    `_burnside_weights`, one per distinct |f_c2(lam)|."""
    top = factorial(w_max)
    cofactor = [top // factorial(b) for b in range(w_max + 1)]
    z = PSeriesZ(n_max, w_max)
    z.data[0] = {0: 1}
    for n in range(1, n_max + 1):
        nums = {}
        for mu in partitions_of(n):
            lmu, size = len(mu), class_size(mu)
            weights = _burnside_weights(mu)
            squares = [f * f for _w, f in weights]
            # b must have the parity of n + len(mu) for a cover to exist
            b0 = (n + lmu) % 2
            powers = [w * f**b0 for w, f in weights]  # w f^b, stepped by f^2
            for b in range(b0, w_max - n + lmu + 1, 2):
                nums[z.key(mu, b - n - lmu)] = size * sum(powers) * cofactor[b]
                powers = list(map(mul, powers, squares))
        z._set(n, nums, factorial(n) ** 2 * top)
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

