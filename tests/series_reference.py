"""The Laurent series the tests hold the package's coefficient lists to,
with composition, agreement on a common known range, and the zero series.

A :class:`Series` stores coefficients for exponents in ``[min_exponent,
trunc_order)``; exponents below ``min_exponent`` are known to be zero and
exponents at or beyond ``trunc_order`` are unknown.  Every series carries an
int ``trunc_order``, and ``Series(...)`` and the constructors `constant`,
`monomial` and `identity` all need it.

Every operation propagates the truncation order conservatively: a
coefficient is reported only when the operands fully determine it.
Arithmetic is exact; coefficients are `fractions.Fraction`.  A scalar added
to or subtracted from a series is the constant known to that series' order;
a scalar factor scales it.  `invert_unit`, `reversion`, `exp`, `log1p` and
`sqrt_unit` return their result to the order their input determines.
Products and reciprocals go through the package's integer kernels
`conv_ints` and `unit_inverse` (see `conv` and `inverse` here).

The package never composes series: the curve set-up solves for the deck
involution and the residue table directly.  The tests compose to hold those
results to their definitions.
"""

from fractions import Fraction
from math import isqrt, lcm

from hurwitzrec.series import TruncationError, conv_ints, unit_inverse

_ZERO = Fraction(0)
_ONE = Fraction(1)


def clear_denominators(values):
    """``(den, nums)`` with ``values[i] == nums[i] / den``; ``den`` is the
    least common denominator (1 for an empty input)."""
    values = [Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def conv(a, b, nout):
    """First ``nout`` coefficients of the Cauchy product of two lists of
    rationals, by `conv_ints` on their cleared numerators."""
    if nout <= 0:
        return []
    da, anum = clear_denominators(a[:nout])
    db, bnum = clear_denominators(b[:nout])
    return [Fraction(c, da * db) for c in conv_ints(anum, bnum, nout)]


def inverse(a, n):
    """First ``n`` coefficients of the reciprocal of a unit power series of
    rationals, by `unit_inverse` on its cleared numerators: 1/(anum / da) is
    da / anum."""
    da, anum = clear_denominators(a[:n])
    den, nums = unit_inverse(anum, n)
    return [Fraction(da * v, den) for v in nums]


class Series:
    """Laurent series ``sum c_e * z**e`` with explicit truncation order."""

    __slots__ = ("min_exponent", "coefficients", "trunc_order")

    def __init__(self, min_exponent, coefficients, trunc_order):
        if not isinstance(trunc_order, int):
            raise TypeError("trunc_order must be an int")
        # zero padding up to trunc_order: len(coefficients) sizes the results
        # of invert_unit and sqrt_unit
        coeffs = [
            c if isinstance(c, Fraction) else Fraction(c)
            for c in coefficients[: max(0, trunc_order - min_exponent)]
        ]
        coeffs.extend([_ZERO] * (trunc_order - min_exponent - len(coeffs)))
        # strip leading zeros: exponents below the first nonzero term are known zero
        lead = 0
        while lead < len(coeffs) and not coeffs[lead]:
            lead += 1
        coeffs = coeffs[lead:]
        min_exponent = min_exponent + lead if coeffs else trunc_order
        object.__setattr__(self, "min_exponent", min_exponent)
        object.__setattr__(self, "coefficients", tuple(coeffs))
        object.__setattr__(self, "trunc_order", trunc_order)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, c, trunc_order):
        return cls(0, [c], trunc_order)

    @classmethod
    def monomial(cls, c, exponent, trunc_order):
        return cls(exponent, [c], trunc_order)

    @classmethod
    def identity(cls, trunc_order):
        """The series ``z``."""
        return cls.monomial(1, 1, trunc_order)

    # -- basic queries ---------------------------------------------------

    @property
    def is_zero(self):
        return not self.coefficients

    def coefficient(self, n):
        """Coefficient at exponent ``n``; raises TruncationError if unknown."""
        if n >= self.trunc_order:
            raise TruncationError(
                f"coefficient at exponent {n} is beyond truncation order {self.trunc_order}"
            )
        i = n - self.min_exponent
        if 0 <= i < len(self.coefficients):
            return self.coefficients[i]
        return _ZERO

    def known_exponents(self):
        return range(self.min_exponent, self.min_exponent + len(self.coefficients))

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self.min_exponent == other.min_exponent
            and self.coefficients == other.coefficients
            and self.trunc_order == other.trunc_order
        )

    def __repr__(self):
        parts = []
        for n, c in zip(self.known_exponents(), self.coefficients):
            if not c:
                continue
            if n == 0:
                parts.append(f"{c}")
            elif n == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{n}")
            if len(parts) > 8:
                parts.append("...")
                break
        body = " + ".join(parts) if parts else "0"
        return f"<Series {body} + O(z^{self.trunc_order})>"

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Series):
            other = Series.constant(other, self.trunc_order)
        t = min(self.trunc_order, other.trunc_order)
        lo = min(self.min_exponent, other.min_exponent)
        out = [_ZERO] * max(0, t - lo)
        for s in (self, other):
            for n, c in zip(s.known_exponents(), s.coefficients):
                if n >= t:
                    break
                out[n - lo] += c
        return Series(lo, out, t)

    __radd__ = __add__

    def __neg__(self):
        return Series(self.min_exponent, [-c for c in self.coefficients], self.trunc_order)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        c = Fraction(c)
        return Series(self.min_exponent, [c * a for a in self.coefficients], self.trunc_order)

    def shift(self, n):
        """Multiply by ``z**n`` (pure exponent shift)."""
        return Series(self.min_exponent + n, self.coefficients, self.trunc_order + n)

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self.scale(other)
        t = min(
            self.trunc_order + other.min_exponent, other.trunc_order + self.min_exponent
        )
        lo = self.min_exponent + other.min_exponent
        return Series(lo, conv(self.coefficients, other.coefficients, t - lo), t)

    __rmul__ = __mul__

    def truncate(self, order):
        """Forget all coefficients at exponents >= ``order``."""
        if self.trunc_order <= order:
            return self
        n = max(0, order - self.min_exponent)
        return Series(self.min_exponent, self.coefficients[:n], order)

    # -- unit inversion ----------------------------------------------------

    def invert_unit(self):
        """Multiplicative inverse of a Laurent unit; ``z**m * u`` known below
        ``t`` gives ``z**(-m) / u`` known below ``t - 2m``."""
        if self.is_zero:
            raise ValueError("cannot invert a series that is zero up to truncation")
        m = self.min_exponent
        b = inverse(self.coefficients, len(self.coefficients))
        return Series(-m, b, self.trunc_order - 2 * m)

    # -- reversion ------------------------------------------------------------

    def reversion(self):
        """Compositional inverse: the unique b with self(b(z)) = z, known to
        the order of self.

        Computed by Lagrange inversion; requires a vanishing constant term
        and a nonzero linear coefficient.
        """
        if self.is_zero or self.min_exponent != 1:
            raise ValueError("reversion requires a(0) = 0 with nonzero linear term")
        t = self.trunc_order
        q = self.shift(-1).invert_unit()  # (z/a)(z), a unit power series known below t - 1
        out = [_ZERO] * max(0, t - 1)
        qn = Series.constant(1, t - 1)
        for n in range(1, t):
            qn = (qn * q).truncate(t - 1)
            out[n - 1] = qn.coefficient(n - 1) / n
        return Series(1, out, t)

    # -- transcendental helpers ----------------------------------------------

    def exp(self):
        """exp of a series with positive valuation."""
        return self._powersum(lambda n, fact: _ONE / fact, start=_ONE)

    def log1p(self):
        """log(1 + a) for a series a with positive valuation."""
        return self._powersum(lambda n, fact: Fraction((-1) ** (n + 1), n), start=_ZERO)

    def _powersum(self, coeff_of_n, start):
        if not self.is_zero and self.min_exponent < 1:
            raise ValueError("requires a series with positive valuation")
        t = self.trunc_order
        out = Series.constant(start, t)
        power = Series.constant(1, t)
        fact = 1
        n = 0
        while (n + 1) * self.min_exponent < t:
            n += 1
            fact *= n
            power = (power * self).truncate(t)
            out = out + power.scale(coeff_of_n(n, fact))
        return out

    def derivative(self):
        """Termwise formal derivative."""
        coeffs = [n * c for n, c in zip(self.known_exponents(), self.coefficients)]
        return Series(self.min_exponent - 1, coeffs, self.trunc_order - 1)

    def sqrt_unit(self):
        """Square root of a series with an exact-square leading coefficient;
        ``z**(2k) * u`` known below ``t`` gives ``z**k * sqrt(u)`` known below
        ``t - k``."""
        if self.is_zero:
            raise ValueError("cannot take sqrt of a zero series")
        if self.min_exponent % 2:
            raise ValueError("sqrt needs an even leading exponent")
        lead = self.coefficients[0]
        rn, rd = isqrt(abs(lead.numerator)), isqrt(lead.denominator)
        if rn * rn != lead.numerator or rd * rd != lead.denominator:
            raise ValueError("leading coefficient is not a rational square")
        m = self.min_exponent
        u = self.shift(-m)  # unit power series
        s0 = Fraction(rn, rd)
        b = [s0]
        half = Fraction(1, 2) / s0
        for k in range(1, len(self.coefficients)):
            acc = u.coefficient(k)
            acc -= sum(b[i] * b[k - i] for i in range(1, k))
            b.append(acc * half)
        return Series(m // 2, b, self.trunc_order - m // 2)


def zero(trunc_order):
    """The zero series known below ``trunc_order``."""
    return Series(trunc_order, [], trunc_order)


def agrees_with(a, b):
    """Equality of all coefficients of ``a`` and ``b`` on their common known
    range."""
    lo = min(a.min_exponent, b.min_exponent)
    hi = min(a.trunc_order, b.trunc_order)
    return all(a.coefficient(n) == b.coefficient(n) for n in range(lo, hi))


def compose(outer, inner):
    """Substitute ``inner`` (a power series with no constant term) for z in
    the power series ``outer``; a Laurent outer raises ValueError."""
    if outer.min_exponent < 0:
        raise ValueError("compose requires a power-series outer")
    if not inner.is_zero and inner.min_exponent < 1:
        raise ValueError("compose requires an inner series without constant term")
    # a zero inner has min_exponent == trunc_order
    mi = max(1, inner.min_exponent)
    # the inner's unknown tail enters through the outer's lowest nonzero
    # non-constant exponent j, at order (j-1)*mi + inner.trunc_order
    j = next(
        (j for j, c in zip(outer.known_exponents(), outer.coefficients) if j and c),
        max(1, outer.trunc_order),
    )
    t = min(outer.trunc_order * mi, inner.trunc_order + (j - 1) * mi)
    if inner.is_zero:
        return Series(0, [outer.coefficient(0)], t)
    out = zero(t)
    power = Series.constant(1, t)
    prev_j = 0
    for j, c in zip(outer.known_exponents(), outer.coefficients):
        if c:
            for _ in range(j - prev_j):
                power = (power * inner).truncate(t)
            prev_j = j
            out = out + power.scale(c)
    return out.truncate(t)
