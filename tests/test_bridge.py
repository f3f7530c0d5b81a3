from fractions import Fraction

import pytest

from hurwitzrec.bridge import (
    elsv_consistency,
    f_series,
    g_series,
    times_by_recursion,
    times_from_curve,
    xi_of_zeta,
    y_of_xi,
)
from hurwitzrec.partitions import HurwitzOracle
from hurwitzrec.series import Series

F = Fraction


class TestYOfXi:
    def test_displayed_coefficients(self):
        y = y_of_xi(8)
        expected = [F(1), F(1), F(1, 3), F(1, 36), F(-1, 270), F(1, 6 * 720)]
        assert [y.coefficient(i) for i in range(6)] == expected

    def test_value_at_zero(self):
        assert y_of_xi(6).coefficient(0) == 1

    def test_xi_squared_recovered(self):
        # xi(zeta)^2/2 = zeta - log(1+zeta); reversion must undo it
        order = 10
        xi = xi_of_zeta(order)
        zeta_of = xi.reversion()
        assert xi.compose(zeta_of).agrees_with(Series.identity(order))

    def test_xi_from_its_defining_square_root(self):
        # xi = sqrt(2 (zeta - log(1+zeta))), taken directly, for every order
        # the times and the curve use
        for order in range(6, 41):
            zeta = Series.identity(order + 2)
            assert xi_of_zeta(order) == (zeta - zeta.log1p()).scale(2).sqrt_unit()


class TestTimes:
    def test_seeds(self):
        t = times_by_recursion(6)
        assert t[2] == 0 and t[3] == 3 and t[4] == F(1, 3)

    def test_hand_evaluated_recursion(self):
        t = times_by_recursion(7)
        assert t[5] == F(1, 12) - F(1, 18) == F(1, 36)
        assert t[6] == F(1, 180) - F(1, 108) == F(-1, 270)

    def test_curve_route_values(self):
        t = times_from_curve(6)
        assert t[3] == 3 and t[4] == F(1, 3) and t[5] == F(1, 36)

    def test_dual_route_agreement_to_t20(self):
        assert times_by_recursion(20) == times_from_curve(20)

    def test_table_text(self):
        txt = times_by_recursion(5).to_table_text()
        assert "3  3/1" in txt


class TestGSeries:
    def test_f_series_leading(self):
        # 3! * t_5 / (2 - t_3) = 6 * (1/36) / (-1)
        f = f_series(4)
        assert f.coefficient(1) == F(-1, 6)

    def test_displayed_coefficients(self):
        g = g_series(9)
        assert g.coefficient(1) == F(-1, 6)
        assert g.coefficient(3) == F(1, 45)
        assert g.coefficient(5) == F(-8, 315)
        assert g.coefficient(7) == F(8, 105)

    def test_even_coefficients_vanish(self):
        g = g_series(12)
        assert all(g.coefficient(2 * m) == 0 for m in range(1, 6))


class TestElsv:
    def test_solved_intersection_numbers(self):
        rep = elsv_consistency()
        assert rep.solved["<psi>_{1,1}"] == F(1, 24)
        assert rep.solved["<lambda_1>_{1,1}"] == F(1, 24)
        assert rep.solved["<tau_0^3>_{0,3}"] == 1

    def test_predictions_match_oracle(self):
        rep = elsv_consistency()
        assert rep.ok
        mus = {tuple(p["mu"]): p for p in rep.predictions}
        assert mus[(3,)]["predicted"] == "9/1"
        assert mus[(2, 1, 1)]["equal"]

    def test_accepts_bigger_oracle(self):
        rep = elsv_consistency(HurwitzOracle(5, 1))
        assert rep.ok

    def test_report_serialization(self):
        rep = elsv_consistency()
        assert "predictions" in rep.to_json()
        assert "solved intersection numbers" in rep.to_text()
