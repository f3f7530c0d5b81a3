"""Internal consistency of the Hurwitz numbers with their Hodge-integral
(ELSV) expression: a few intersection numbers solved from oracle values
predict further Hurwitz numbers exactly.  It reads only the character
oracle, so it loads no curve code.
"""

from __future__ import annotations

from fractions import Fraction

from .common import aut_size, format_rational
from .partitions import HurwitzOracle


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
    r1 = oracle.hurwitz(1, (1,)) / _elsv_prefactor(1, (1,))  # = A - B
    r2 = oracle.hurwitz(1, (2,)) / _elsv_prefactor(1, (2,))  # = 2A - B
    a = r2 - r1
    b = r2 - 2 * r1
    # genus 0, three parts: the integral collapses to T = <tau_0^3>
    tau3 = oracle.hurwitz(0, (1, 1, 1)) / _elsv_prefactor(0, (1, 1, 1))
    solved = {"<psi>_{1,1}": a, "<lambda_1>_{1,1}": b, "<tau_0^3>_{0,3}": tau3}

    predictions = []
    for g, mu, integral in ((1, (3,), 3 * a - b), (0, (2, 1, 1), tau3)):
        predicted = _elsv_prefactor(g, mu) * integral
        got = oracle.hurwitz(g, mu)
        predictions.append(
            {
                "g": g,
                "mu": list(mu),
                "predicted": format_rational(predicted),
                "oracle": format_rational(got),
                "equal": predicted == got,
            }
        )
    return ElsvReport(solved, predictions)
