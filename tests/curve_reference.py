"""The Lambert curve's expansions that only the tests read: x(zeta) as a
coefficient list, whose first eight coefficients the cache fingerprint's
recipe hashes, the package's coefficient lists as `Series`, the odd
coordinate and the time parameters, the f/g auxiliary series and the Lambert
series L(v).

In the odd local coordinate xi with x = -1 - xi^2/2 (at t = 1), the curve
becomes a Kontsevich-type curve y = 1 - 2 xi + sum t_{m+2} xi^m, as in
Bouchard-Marino (arXiv:0709.1458).  The times t_m are produced two
independent ways: from the curve expansion, and from the quadratic recursion
they satisfy; the two must agree termwise.
"""

from fractions import Fraction
from math import factorial

from series_reference import Series

_ZERO = Fraction(0)


def lambert_x(trunc_order: int) -> list:
    """The coefficients of zeta^0 .. zeta^(trunc_order - 1) in x = -1 - zeta +
    log(1 + zeta) = -1 + sum_{n>=2} (-1)^(n+1) zeta^n / n, the Lambert x(z) =
    -z + ln z at z = 1 + zeta."""
    tail = [Fraction((-1) ** (n + 1), n) for n in range(2, trunc_order)]
    return [Fraction(-1), Fraction(0)] + tail


def x_series(order):
    """The Lambert x(zeta) as a Series known below ``order``."""
    return Series(0, lambert_x(order), order)


def sigma_series(engine):
    """The engine's deck involution as a Series known below its order."""
    den, nums = engine.recursion.sigma
    return Series(1, [Fraction(v, den) for v in nums], engine.order)


def odd_coordinate(x_local, order: int):
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


def xi_of_zeta(order: int):
    """The odd coordinate xi(zeta) with xi^2/2 = zeta - log(1+zeta), known
    below order + 1: the Lambert x = -1 - xi^2/2 in `odd_coordinate`."""
    return odd_coordinate(x_series(order + 2), order + 1)


def y_of_xi(order: int):
    """y = 1 + zeta re-expanded in the odd coordinate xi."""
    if order < 6:
        raise ValueError("order must be at least 6")
    zeta_of_xi = xi_of_zeta(order).reversion()
    return (1 + zeta_of_xi).truncate(order)


def times_from_curve(t_max: int) -> dict[int, Fraction]:
    """Times t_2 .. t_max, in ascending m, read off the curve:
    y = 1 - 2 xi + sum_{m>=1} t_{m+2} xi^m."""
    if t_max < 3:
        raise ValueError("t_max must be at least 3")
    y = y_of_xi(max(6, t_max - 1))
    values = {2: _ZERO, 3: y.coefficient(1) + 2}
    for m in range(2, t_max - 1):
        values[m + 2] = y.coefficient(m)
    return values


def times_by_recursion(t_max: int) -> dict[int, Fraction]:
    """Times t_2 .. t_max, in ascending m, generated from t_2 = 0, t_3 = 3,
    t_4 = 1/3 and t_{m+1} = t_m/m - (1/2) sum_{l=2}^{m-2} t_{l+2} t_{m+2-l}
    for m >= 4."""
    if t_max < 5:
        raise ValueError("t_max must be at least 5")
    t = {2: _ZERO, 3: Fraction(3), 4: Fraction(1, 3)}
    for m in range(4, t_max):
        acc = t[m] / m
        for l in range(2, m - 1):
            acc -= Fraction(1, 2) * t[l + 2] * t[m + 2 - l]
        t[m + 1] = acc
    return t


def f_series(order: int):
    """f(z) = sum_{m>=1} (2m+1)!/m! * t_{2m+3}/(2 - t_3) * z^m."""
    times = times_by_recursion(2 * order + 4)
    norm = 2 - times[3]
    coeffs = [
        Fraction(factorial(2 * m + 1), factorial(m)) * times[2 * m + 3] / norm
        for m in range(1, order)
    ]
    return Series(1, coeffs, order)


def g_series(order: int):
    """g(z) = -log(1 - f(z)); only odd powers survive."""
    if order < 8:
        raise ValueError("order must be at least 8")
    return -(-f_series(order)).log1p()




def lambert_series(order: int):
    """The Series L(v) with L(v) e^(-L(v)) = v, by reversion.

    Coefficients are m^(m-1)/m!.
    """
    if order < 1:
        raise ValueError("order must be positive")
    z = Series.identity(order + 1)
    return (z * (-z).exp()).reversion().truncate(order)
