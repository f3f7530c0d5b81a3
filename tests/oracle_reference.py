"""Textbook references for the character oracle, kept out of the package.

The oracle reads whole rows of its one character table and sums one Burnside
weight per |f_c2|; the tests hold it to the definitions written here one lam
at a time: single characters and dimensions read from those rows, the
central character |C_mu| chi_lam(mu) / dim(lam), and the unfolded Burnside
count of disconnected covers.  `strips_by_walk` finds the border strips on
sorted beta-set tuples, the reference for the package's bit-mask `_strips`.

The series references work on ``{n: {(mu, e): Fraction}}`` dicts, read
from a series by the reference decoder `unpack` of its packed int keys: log
and exp as full power sums of the cut series, with no graded identity, no
common denominator and no weight cut until the end.  They share no code with
`PSeriesZ`.
"""

from fractions import Fraction
from functools import cache
from math import factorial

from hurwitzrec.partitions import (
    _chars,
    check_partition,
    class_size,
    f_c2,
    h_encoding,
    partitions_of,
)


@cache
def _index(n):
    """Each partition of n to its position in partitions_of(n)."""
    return {lam: i for i, lam in enumerate(partitions_of(n))}


def strips_by_walk(n, r):
    """The border strips of size r of each lam in partitions_of(n), as
    `partitions._strips` lists them, found on the sorted beta-set tuple:
    subtract r from one entry hi whose result lo is a free nonnegative slot,
    re-sort, and read the partition back; the sign is (-1) to the number of
    entries strictly between lo and hi."""
    index = _index(n - r)
    out = []
    for lam in partitions_of(n):
        N = len(lam)
        h = h_encoding(lam, N)
        strips = []
        for hi in h:
            lo = hi - r
            if lo < 0 or lo in h:
                continue
            sub = sorted([x for x in h if x != hi] + [lo], reverse=True)
            sub_lam = tuple(x for x in (sub[i] - (N - 1 - i) for i in range(N)) if x > 0)
            sign = -1 if sum(lo < x < hi for x in h) % 2 else 1
            strips.append((index[sub_lam], sign))
        out.append(tuple(strips))
    return tuple(out)


def character(lam, mu):
    """The irreducible character chi_lam on the class of cycle type mu, read
    from the oracle's row `_chars(mu)`."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("character requires |lam| = |mu|")
    return _chars(mu)[_index(sum(lam))[lam]]


def dim_irrep(lam):
    """Dimension of the irreducible S_{|lam|} representation indexed by lam:
    chi_lam on the identity class (1^n)."""
    return character(lam, (1,) * sum(check_partition(lam)))


def f_central(lam, mu):
    """The central character |C_mu| * chi_lam(C_mu) / dim(lam)."""
    return Fraction(class_size(mu) * character(lam, mu), dim_irrep(lam))


def cov_disconnected(mu, b):
    """Weighted count of possibly-disconnected degree-|mu| covers of the
    sphere with monodromy mu over one point and b transpositions elsewhere.

    Burnside: sum over partitions lam of |mu| of
    (dim lam / n!)^2 * f_central(lam, mu) * f_c2(lam)^b, that is |C_mu| / (n!)^2
    times the integer sum of dim(lam) * chi_lam(mu) * f_c2(lam)^b, one term
    per lam at every b.
    """
    mu = check_partition(mu)
    if b < 0:
        raise ValueError("b must be nonnegative")
    n = sum(mu)
    total = sum(
        dim * chi * f_c2(lam) ** b
        for lam, dim, chi in zip(partitions_of(n), _chars((1,) * n), _chars(mu))
    )
    return Fraction(class_size(mu) * total, factorial(n) ** 2)


def unpack(key, n_max):
    """The term (mu, e) of a series cut at degree n_max, packed into ``key =
    e * S + sum(B**part)`` with B = n_max + 1 and S = B**B: digit p in base B
    is the multiplicity of the part p.  Floor divmod keeps a negative e whole.
    The encoding is written out here, not read from the series."""
    base = n_max + 1
    e, parts = divmod(key, base**base)
    mu, p = [], 0
    while parts:
        parts, count = divmod(parts, base)
        mu[:0] = [p] * count
        p += 1
    return tuple(mu), e


def fractions(series):
    """The series' coefficients as {n: {(mu, e): Fraction}}, each key decoded
    by `unpack`."""
    return {n: {unpack(key, series.n_max): Fraction(v, series.den[n]) for key, v in t.items()}
            for n, t in series.data.items()}


def nonzero(data):
    return {n: {k: v for k, v in t.items() if v} for n, t in data.items()}


def reference_mul(a, b, n_max):
    """Naive product of two series {n: {(mu, e): c}} up to degree n_max,
    term by term, with no weight cut."""
    out = {n: {} for n in range(n_max + 1)}
    for na, terms_a in a.items():
        for nb, terms_b in b.items():
            if na + nb > n_max:
                continue
            dest = out[na + nb]
            for (mua, ea), ca in terms_a.items():
                for (mub, eb), cb in terms_b.items():
                    key = (tuple(sorted(mua + mub, reverse=True)), ea + eb)
                    dest[key] = dest.get(key, 0) + ca * cb
    return out


def reference_scaled_add(dest, series, c):
    for n, terms in series.items():
        for key, v in terms.items():
            dest[n][key] = dest[n].get(key, 0) + c * v


def weight_cut(series, w_max):
    """The terms of weight e + 2n <= w_max."""
    return {n: {(mu, e): v for (mu, e), v in t.items() if e + 2 * n <= w_max}
            for n, t in series.items()}


def reference_log(z):
    """log Z = sum_m (-1)^(m+1) (Z-1)^m / m, from full power products of the
    cut Z, then cut to its weight bound."""
    p = {n: t for n, t in fractions(z).items() if n > 0}
    out = {n: {} for n in range(z.n_max + 1)}
    power = p
    for m in range(1, z.n_max + 1):
        reference_scaled_add(out, power, Fraction((-1) ** (m + 1), m))
        if m < z.n_max:
            power = reference_mul(power, p, z.n_max)
    return weight_cut(out, z.w_max)


def reference_exp(f):
    """exp F = sum_m F^m / m!, from full power products of the cut F, then
    cut to its weight bound."""
    out = {n: {} for n in range(f.n_max + 1)}
    out[0][((), 0)] = Fraction(1)
    power = terms = fractions(f)
    for m in range(1, f.n_max + 1):
        reference_scaled_add(out, power, Fraction(1, factorial(m)))
        if m < f.n_max:
            power = reference_mul(power, terms, f.n_max)
    return weight_cut(out, f.w_max)
