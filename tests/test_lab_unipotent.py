"""Exact rational matrices: quasi-unipotent orders, logs, the scaling check."""

from fractions import Fraction

import pytest

from tameplane.lab.unipotent import (
    LogScalingResult,
    RationalMatrix,
    cyclotomic,
    euler_phi,
    is_unipotent,
    log_scaling_check,
    quasi_unipotent_order,
    unipotent_log,
)

from oracles import matrix_add, matrix_exp, matrix_neg


def mat(*rows):
    return RationalMatrix([list(r) for r in rows])


class TestRationalMatrix:
    def test_inverse(self):
        m = mat((1, 2), (3, 5))
        assert m * m.inverse() == RationalMatrix.identity(2)
        with pytest.raises(ValueError):
            mat((1, 2), (2, 4)).inverse()

    @pytest.mark.parametrize("m", [
        mat((2, 1, 0), (0, 3, 1), (Fraction(1, 2), 0, 1)),
        mat((0, 2, 1, 0), (1, 0, 0, 3), (0, 1, Fraction(-1, 3), 0), (2, 0, 1, 1)),
    ], ids=["3x3", "4x4"])
    def test_inverse_beyond_two_by_two(self, m):
        inv = m.inverse()
        assert m * inv == inv * m == RationalMatrix.identity(m.n)

    def test_singular_rank_two_has_no_inverse(self):
        with pytest.raises(ValueError, match="singular matrix"):
            mat((1, 2, 3), (4, 5, 6), (7, 8, 9)).inverse()

    def test_negative_powers(self):
        m = mat((2, 1), (1, 1))
        assert m ** -2 == (m.inverse()) ** 2
        assert m ** 0 == RationalMatrix.identity(2)

    def test_charpoly_cayley_hamilton(self):
        m = mat((1, 2, 0), (0, 3, 1), (5, 0, 2))
        chi = m.charpoly()
        acc = RationalMatrix.zero(3)
        power = RationalMatrix.identity(3)
        for e in range(chi.degree() + 1):
            acc = matrix_add(acc, power.scale(chi.coeff(e)))
            power = power * m
        assert acc.is_zero()

    def test_det_via_charpoly(self):
        # det m = (-1)^n chi(0)
        for m, det in ((mat((2, 1), (1, 1)), 1), (mat((0, 1), (1, 0)), -1),
                       (mat((2, 0, 0), (0, 1, 0), (0, 0, 3)), 6)):
            assert (-1) ** m.n * m.charpoly().coeff(0) == det


class TestCyclotomic:
    def test_first_few(self):
        # x - 1, x + 1, x^2 + x + 1, x^2 + 1
        assert [cyclotomic(d).items() for d in (1, 2, 4)] == [
            [(0, Fraction(-1)), (1, Fraction(1))],
            [(0, Fraction(1)), (1, Fraction(1))],
            [(0, Fraction(1)), (2, Fraction(1))],
        ]
        assert cyclotomic(3).items() == [(0, Fraction(1)), (1, Fraction(1)),
                                         (2, Fraction(1))]

    def test_degree_is_euler_phi(self):
        for d in range(1, 30):
            assert cyclotomic(d).degree() == euler_phi(d)


class TestQuasiUnipotentOrder:
    def test_known_orders(self):
        assert quasi_unipotent_order(RationalMatrix.identity(2)) == 1
        assert quasi_unipotent_order(mat((1, 1), (0, 1))) == 1
        assert quasi_unipotent_order(mat((-1, 0), (0, -1))) == 2
        assert quasi_unipotent_order(mat((0, -1), (1, 0))) == 4
        assert quasi_unipotent_order(mat((0, -1), (1, 1))) == 6

    def test_non_quasi_unipotent(self):
        assert quasi_unipotent_order(mat((2, 0), (0, 1))) is None

    def test_singular_is_rejected(self):
        with pytest.raises(ValueError):
            quasi_unipotent_order(mat((1, 1), (1, 1)))


class TestLogExp:
    def test_exp_log_round_trip(self):
        u = mat((1, 2, 3), (0, 1, 4), (0, 0, 1))
        assert is_unipotent(u)
        assert matrix_exp(unipotent_log(u)) == u

    def test_log_of_power_scales(self):
        u = mat((1, 1), (0, 1))
        assert unipotent_log(u ** 5) == unipotent_log(u).scale(Fraction(5))

    def test_log_rejects_non_unipotent(self):
        with pytest.raises(ValueError):
            unipotent_log(mat((2, 0), (0, 1)))

    def test_exp_requires_nilpotent(self):
        with pytest.raises(ValueError):
            matrix_exp(RationalMatrix.identity(2))


class TestLogScalingCheck:
    U = mat((1, 1), (0, 1))
    H = mat((2, 0), (0, 1))

    def test_doubling_shear_instance(self):
        result = log_scaling_check(self.H, self.U, 1)
        assert result.precondition_ok and result.conclusion_ok
        assert bool(result) and result.ok

    def test_conjugated_instance(self):
        g = mat((1, 1), (1, 2))
        gi = g.inverse()
        assert log_scaling_check(g * self.H * gi, g * self.U * gi, 1)

    def test_mismatched_exponent_is_false_not_an_error(self):
        result = log_scaling_check(self.H, self.U, 2)
        assert isinstance(result, LogScalingResult)
        assert not result.precondition_ok
        assert not result

    def test_quasi_unipotent_with_torsion_part(self):
        # -u has quasi-order 2, but h(-u)h^-1 = -u^2 differs from (-u)^2 = u^2,
        # so the instance fails its own precondition; the log conclusion on
        # the torsion-free part still holds and the overall result is falsy
        result = log_scaling_check(self.H, matrix_neg(self.U), 1)
        assert result.quasi_order == 2
        assert not result.precondition_ok and result.conclusion_ok
        assert not result

    def test_rejected_inputs(self):
        with pytest.raises(ValueError):
            log_scaling_check(self.H, self.U, -1)
        with pytest.raises(ValueError):
            log_scaling_check(self.H, mat((2, 0), (0, 1)), 1)
        with pytest.raises(ValueError):
            log_scaling_check(self.H, mat((1, 1), (1, 1)), 1)
