"""Expansion of the Lambert curve near its branch point: time parameters,
the f/g auxiliary series, and internal consistency checks against the
Hodge-integral expression of the Hurwitz numbers.

In the odd local coordinate xi with x = -1 - xi^2/2 (at t = 1), the curve
becomes a Kontsevich-type curve y = 1 - 2 xi + sum t_{m+2} xi^m.  The times
t_m are produced two independent ways: from the curve expansion, and from
the quadratic recursion they satisfy; the two must agree termwise.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .partitions import HurwitzOracle, aut_size, check_partition
from .poleform import format_rational
from .series import Series
from .toprec import lambert_x, odd_coordinate

_ZERO = Fraction(0)


def xi_of_zeta(order: int) -> Series:
    """The odd coordinate xi(zeta) with xi^2/2 = zeta - log(1+zeta), known
    below order + 1: the Lambert x = -1 - xi^2/2 in `toprec.odd_coordinate`."""
    return odd_coordinate(lambert_x(order + 2), order + 1)


def y_of_xi(order: int) -> Series:
    """y = 1 + zeta re-expanded in the odd coordinate xi."""
    if order < 6:
        raise ValueError("order must be at least 6")
    zeta_of_xi = xi_of_zeta(order).reversion()
    return (1 + zeta_of_xi).truncate(order)


class TimesSequence:
    """The time parameters t_2, t_3, ..., t_max as exact rationals."""

    def __init__(self, values: dict[int, Fraction]):
        self.t_max = max(values)
        self.values = dict(values)

    def __getitem__(self, m: int) -> Fraction:
        return self.values[m]

    def __eq__(self, other):
        if not isinstance(other, TimesSequence):
            return NotImplemented
        return self.values == other.values

    def items(self):
        return sorted(self.values.items())

    def to_table_text(self) -> str:
        width = max(len(str(m)) for m in self.values)
        return "\n".join(
            f"{m:>{width}}  {format_rational(v)}" for m, v in self.items()
        )


def times_from_curve(t_max: int) -> TimesSequence:
    """Times read off the curve: y = 1 - 2 xi + sum_{m>=1} t_{m+2} xi^m."""
    if t_max < 3:
        raise ValueError("t_max must be at least 3")
    y = y_of_xi(max(6, t_max - 1))
    values = {2: _ZERO, 3: y.coefficient(1) + 2}
    for m in range(2, t_max - 1):
        values[m + 2] = y.coefficient(m)
    return TimesSequence(values)


def times_by_recursion(t_max: int) -> TimesSequence:
    """Times generated from t_2 = 0, t_3 = 3, t_4 = 1/3 and
    t_{m+1} = t_m/m - (1/2) sum_{l=2}^{m-2} t_{l+2} t_{m+2-l} for m >= 4."""
    if t_max < 5:
        raise ValueError("t_max must be at least 5")
    t = {2: _ZERO, 3: Fraction(3), 4: Fraction(1, 3)}
    for m in range(4, t_max):
        acc = t[m] / m
        for l in range(2, m - 1):
            acc -= Fraction(1, 2) * t[l + 2] * t[m + 2 - l]
        t[m + 1] = acc
    return TimesSequence(t)


def f_series(order: int, times: TimesSequence | None = None) -> Series:
    """f(z) = sum_{m>=1} (2m+1)!/m! * t_{2m+3}/(2 - t_3) * z^m."""
    from math import factorial

    if times is None:
        times = times_by_recursion(2 * order + 4)
    norm = 2 - times[3]
    coeffs = [
        Fraction(factorial(2 * m + 1), factorial(m)) * times[2 * m + 3] / norm
        for m in range(1, order)
    ]
    return Series(1, coeffs, order)


def g_series(order: int) -> Series:
    """g(z) = -log(1 - f(z)); only odd powers survive."""
    if order < 8:
        raise ValueError("order must be at least 8")
    return -(-f_series(order)).log1p()


# ---------------------------------------------------------------------------
# Consistency with the Hodge-integral form of the Hurwitz numbers.
# ---------------------------------------------------------------------------


def _elsv_prefactor(g: int, mu) -> Fraction:
    from math import factorial

    b = 2 * g - 2 + sum(mu) + len(mu)
    pref = Fraction(factorial(b), aut_size(mu))
    for part in mu:
        pref *= Fraction(part**part, factorial(part))
    return pref


class ElsvReport:
    """Solve the small Hodge integrals from oracle values, then use the
    overdetermination to predict further Hurwitz numbers exactly."""

    def __init__(self, solved, predictions):
        self.solved = solved
        self.predictions = predictions

    @property
    def ok(self):
        return all(p["equal"] for p in self.predictions)

    def to_obj(self):
        return {
            "solved": {k: format_rational(v) for k, v in self.solved.items()},
            "predictions": self.predictions,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), separators=(", ", ": "))

    def to_text(self) -> str:
        lines = ["solved intersection numbers:"]
        for k, v in self.solved.items():
            lines.append(f"  {k} = {format_rational(v)}")
        lines.append("predictions:")
        for p in self.predictions:
            mu = ",".join(str(x) for x in p["mu"])
            lines.append(
                f"  g={p['g']} mu=({mu}): predicted {p['predicted']}, "
                f"oracle {p['oracle']} -> {'ok' if p['equal'] else 'MISMATCH'}"
            )
        return "\n".join(lines)


def elsv_consistency(oracle: HurwitzOracle | None = None) -> ElsvReport:
    """Genus-1, one-part check: H_{1,(d)} = (d+1)! (d^d/d!) (d*A - B) with
    A = <psi> and B = <lambda_1> on the one-pointed genus-1 moduli space.
    A and B are solved from H_{1,(1)} and H_{1,(2)}, and H_{1,(3)} is then
    predicted.  Genus-0 analog on three-part profiles: the moduli space is a
    point, so a single unknown T = <tau_0^3> solved from H_{0,(1,1,1)}
    predicts every other three-part value of total degree <= 4.
    """
    if oracle is None:
        oracle = HurwitzOracle(4, 1)

    # 2x2 exact solve: H_{1,(d)} = prefactor * (d*A - B), d = 1, 2
    h1 = oracle.hurwitz(1, (1,))
    h2 = oracle.hurwitz(1, (2,))
    r1 = h1 / _elsv_prefactor(1, (1,))  # = A - B
    r2 = h2 / _elsv_prefactor(1, (2,))  # = 2A - B
    a = r2 - r1
    b = r2 - 2 * r1
    solved = {"<psi>_{1,1}": a, "<lambda_1>_{1,1}": b}

    predictions = []
    predicted_h13 = _elsv_prefactor(1, (3,)) * (3 * a - b)
    oracle_h13 = oracle.hurwitz(1, (3,))
    predictions.append(
        {
            "g": 1,
            "mu": [3],
            "predicted": format_rational(predicted_h13),
            "oracle": format_rational(oracle_h13),
            "equal": predicted_h13 == oracle_h13,
        }
    )

    # genus 0, three parts: the integral collapses to T = <tau_0^3>
    tau3 = oracle.hurwitz(0, (1, 1, 1)) / _elsv_prefactor(0, (1, 1, 1))
    solved["<tau_0^3>_{0,3}"] = tau3
    for mu in ((2, 1, 1),):
        mu = check_partition(mu)
        predicted = _elsv_prefactor(0, mu) * tau3
        got = oracle.hurwitz(0, mu)
        predictions.append(
            {
                "g": 0,
                "mu": list(mu),
                "predicted": format_rational(predicted),
                "oracle": format_rational(got),
                "equal": predicted == got,
            }
        )
    return ElsvReport(solved, predictions)
