"""Truncated formal power/Laurent series over exact rationals.

A :class:`Series` stores coefficients for exponents in ``[min_exponent,
trunc_order)``; exponents below ``min_exponent`` are known to be zero and
exponents at or beyond ``trunc_order`` are unknown.  ``trunc_order=None``
marks an exact series (a finite Laurent polynomial, known everywhere).

Every operation propagates the truncation order conservatively: a
coefficient is reported only when the operands fully determine it.
Arithmetic is exact; coefficients are `fractions.Fraction`.

The ring operations (``+``, ``-``, ``*``, `scale`, `shift`, `truncate`,
`derivative`) take exact and truncated operands alike.  The operations whose
result is an infinite series (`invert_unit`, `reversion`, `exp`, `log1p` and
`sqrt_unit`) need a truncated input, raise ValueError on an exact one, and
return the result to the order their input determines.  `compose`
substitutes into a power-series outer only; a Laurent outer raises
ValueError.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from . import _kernels

_ZERO = Fraction(0)
_ONE = Fraction(1)


class TruncationError(ValueError):
    """A coefficient beyond the known truncation order was requested."""


def _tmin(*orders):
    finite = [t for t in orders if t is not None]
    return min(finite) if finite else None


class Series:
    """Laurent series ``sum c_e * z**e`` with explicit truncation order."""

    __slots__ = ("min_exponent", "coefficients", "trunc_order")

    def __init__(self, min_exponent, coefficients, trunc_order):
        coeffs = [Fraction(c) for c in coefficients]
        if trunc_order is not None:
            coeffs = coeffs[: max(0, trunc_order - min_exponent)]
            coeffs.extend([_ZERO] * (trunc_order - min_exponent - len(coeffs)))
        # strip leading zeros: exponents below the first nonzero term are known zero
        lead = 0
        while lead < len(coeffs) and not coeffs[lead]:
            lead += 1
        min_exponent += lead
        coeffs = coeffs[lead:]
        if trunc_order is None:
            while coeffs and not coeffs[-1]:
                coeffs.pop()
            if not coeffs:
                min_exponent = 0
        elif not coeffs:
            min_exponent = trunc_order
        object.__setattr__(self, "min_exponent", min_exponent)
        object.__setattr__(self, "coefficients", tuple(coeffs))
        object.__setattr__(self, "trunc_order", trunc_order)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, trunc_order=None):
        return cls(0 if trunc_order is None else trunc_order, [], trunc_order)

    @classmethod
    def constant(cls, c, trunc_order=None):
        return cls(0, [c], trunc_order)

    @classmethod
    def monomial(cls, c, exponent, trunc_order=None):
        return cls(exponent, [c], trunc_order)

    @classmethod
    def identity(cls, trunc_order=None):
        """The series ``z``."""
        return cls.monomial(1, 1, trunc_order)

    # -- basic queries ---------------------------------------------------

    @property
    def is_zero(self):
        return not self.coefficients

    @property
    def is_exact(self):
        return self.trunc_order is None

    def coefficient(self, n):
        """Coefficient at exponent ``n``; raises TruncationError if unknown."""
        if self.trunc_order is not None and n >= self.trunc_order:
            raise TruncationError(
                f"coefficient at exponent {n} is beyond truncation order {self.trunc_order}"
            )
        i = n - self.min_exponent
        if 0 <= i < len(self.coefficients):
            return self.coefficients[i]
        return _ZERO

    def residue(self):
        """Coefficient at exponent -1 (the residue in the local coordinate)."""
        return self.coefficient(-1)

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

    def agrees_with(self, other):
        """Equality of all coefficients on the common known range."""
        lo = min(self.min_exponent, other.min_exponent)
        hi = _tmin(self.trunc_order, other.trunc_order)
        if hi is None:
            hi = max(
                self.min_exponent + len(self.coefficients),
                other.min_exponent + len(other.coefficients),
            )
        return all(self.coefficient(n) == other.coefficient(n) for n in range(lo, hi))

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
        tail = "" if self.trunc_order is None else f" + O(z^{self.trunc_order})"
        return f"<Series {body}{tail}>"

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Series):
            other = Series.constant(Fraction(other))
        t = _tmin(self.trunc_order, other.trunc_order)
        if self.is_zero and self.is_exact:
            return other if t == other.trunc_order else Series(other.min_exponent, other.coefficients, t)
        if other.is_zero and other.is_exact:
            return self if t == self.trunc_order else Series(self.min_exponent, self.coefficients, t)
        lo = min(self.min_exponent, other.min_exponent)
        hi = max(
            self.min_exponent + len(self.coefficients),
            other.min_exponent + len(other.coefficients),
        )
        if t is not None:
            hi = min(hi, t)
        out = [_ZERO] * (hi - lo)
        for s in (self, other):
            for n, c in zip(s.known_exponents(), s.coefficients):
                if n >= hi:
                    break
                out[n - lo] += c
        return Series(lo, out, t)

    __radd__ = __add__

    def __neg__(self):
        return Series(self.min_exponent, [-c for c in self.coefficients], self.trunc_order)

    def __sub__(self, other):
        if not isinstance(other, Series):
            other = Series.constant(Fraction(other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return Series.zero(self.trunc_order)
        return Series(self.min_exponent, [c * a for a in self.coefficients], self.trunc_order)

    def shift(self, n):
        """Multiply by ``z**n`` (pure exponent shift)."""
        t = None if self.trunc_order is None else self.trunc_order + n
        return Series(self.min_exponent + n, self.coefficients, t)

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self.scale(other)
        if (self.is_zero and self.is_exact) or (other.is_zero and other.is_exact):
            return Series.zero()
        t = _tmin(
            None if self.trunc_order is None else self.trunc_order + other.min_exponent,
            None if other.trunc_order is None else other.trunc_order + self.min_exponent,
        )
        lo = self.min_exponent + other.min_exponent
        if t is None:
            nout = len(self.coefficients) + len(other.coefficients) - 1
            if nout <= 0:
                return Series.zero()
        else:
            nout = t - lo
            if nout <= 0:
                return Series.zero(t)
        out = _kernels.conv(self.coefficients, other.coefficients, nout)
        return Series(lo, out, t)

    __rmul__ = __mul__

    def truncate(self, order):
        """Forget all coefficients at exponents >= ``order``."""
        if self.trunc_order is not None and self.trunc_order <= order:
            return self
        n = max(0, order - self.min_exponent)
        return Series(self.min_exponent, self.coefficients[:n], order)

    def _need_truncated(self, name):
        if self.trunc_order is None:
            raise ValueError(f"{name} needs a truncated input; its result is an infinite series")

    # -- unit inversion ----------------------------------------------------

    def invert_unit(self):
        """Multiplicative inverse of a Laurent unit; ``z**m * u`` known below
        ``t`` gives ``z**(-m) / u`` known below ``t - 2m``."""
        self._need_truncated("invert_unit")
        if self.is_zero:
            raise ValueError("cannot invert a series that is zero up to truncation")
        m = self.min_exponent
        b = _kernels.unit_inverse(self.coefficients, len(self.coefficients))
        return Series(-m, b, self.trunc_order - 2 * m)

    # -- composition and reversion ------------------------------------------

    def compose(self, inner):
        """Substitute ``inner`` (a power series with no constant term) for z
        in this power series."""
        if self.min_exponent < 0:
            raise ValueError("compose requires a power-series outer")
        if not inner.is_zero and inner.min_exponent < 1:
            raise ValueError("compose requires an inner series without constant term")
        mi = inner.min_exponent if not inner.is_zero else max(1, inner.trunc_order or 1)
        # the inner's unknown tail enters through the outer's lowest nonzero
        # non-constant exponent j, at order (j-1)*mi + inner.trunc_order
        t_inner = None
        if inner.trunc_order is not None:
            js = [j for j, c in zip(self.known_exponents(), self.coefficients) if j and c]
            if js:
                t_inner = inner.trunc_order + (js[0] - 1) * mi
            elif self.trunc_order is not None:
                t_inner = inner.trunc_order + (max(1, self.trunc_order) - 1) * mi
        t = _tmin(
            None if self.trunc_order is None else self.trunc_order * mi,
            t_inner,
        )
        if inner.is_zero:
            return Series(0, [self.coefficient(0)], t)
        out = Series.zero(t)
        power = Series.constant(1, t)
        prev_j = 0
        for j, c in zip(self.known_exponents(), self.coefficients):
            if c:
                for _ in range(j - prev_j):
                    power = (power * inner).truncate(t) if t is not None else power * inner
                prev_j = j
                out = out + power.scale(c)
        return out if t is None else out.truncate(t)

    def reversion(self):
        """Compositional inverse: the unique b with self(b(z)) = z, known to
        the order of self.

        Computed by Lagrange inversion; requires a vanishing constant term
        and a nonzero linear coefficient.
        """
        self._need_truncated("reversion")
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
        self._need_truncated("exp")
        return self._powersum(lambda n, fact: _ONE / fact, start=_ONE)

    def log1p(self):
        """log(1 + a) for a series a with positive valuation."""
        self._need_truncated("log1p")
        return self._powersum(lambda n, fact: Fraction((-1) ** (n + 1), n), start=_ZERO)

    def _powersum(self, coeff_of_n, start):
        if not self.is_zero and self.min_exponent < 1:
            raise ValueError("requires a series with positive valuation")
        t = self.trunc_order
        out = Series.constant(start, t)
        if self.is_zero:
            return out
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
        t = None if self.trunc_order is None else self.trunc_order - 1
        return Series(self.min_exponent - 1, coeffs, t)

    def sqrt_unit(self):
        """Square root of a series with an exact-square leading coefficient;
        ``z**(2k) * u`` known below ``t`` gives ``z**k * sqrt(u)`` known below
        ``t - k``."""
        self._need_truncated("sqrt_unit")
        if self.is_zero:
            raise ValueError("cannot take sqrt of a zero series")
        if self.min_exponent % 2:
            raise ValueError("sqrt needs an even leading exponent")
        lead = self.coefficients[0]
        rn, rd = isqrt(lead.numerator), isqrt(lead.denominator)
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


def residue_of_product(f, g):
    """Residue of f*g computed as a dot product, without forming the product.

    Raises TruncationError when the truncation orders of the factors do not
    determine the coefficient at exponent -1.
    """
    for x, y in ((f, g), (g, f)):
        if x.trunc_order is not None and -1 - x.trunc_order >= y.min_exponent:
            raise TruncationError("truncation orders do not determine the residue")
    acc = _ZERO
    for n, c in zip(f.known_exponents(), f.coefficients):
        if not c:
            continue
        m = -1 - n
        if m < g.min_exponent:
            continue
        i = m - g.min_exponent
        if i < len(g.coefficients):
            d = g.coefficients[i]
            if d:
                acc += c * d
    return acc
