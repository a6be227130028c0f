"""The projective line, the square-zero endomorphisms, and polynomial matrices."""

import pytest
from hypothesis import given, settings, strategies as st

from tameplane import (
    Poly1,
    PolyMat2,
    ProjPoint,
    QQ,
    line_matrix,
)
from tameplane.linear import nil_factors

from conftest import F5, F1000003, QZ, nonzero_scalars, poly1, scalars


def polymat(field, max_deg=3):
    return st.builds(lambda a, b, c, d: PolyMat2(field, a, b, c, d),
                     *(poly1(field, max_deg) for _ in range(4)))


def nil_endo(point):
    """e_delta as (a, b, c, d), read off as the t coefficient of line_matrix(delta, t)."""
    return line_matrix(point, Poly1.gen(point.field)).coeff(1)


def proj_points(field):
    finite = scalars(field).map(lambda a: ProjPoint.of(field, a, field.one))
    return st.one_of(finite, st.just(ProjPoint.infinity(field)))


class TestProjPoint:
    def test_construction_is_canonical(self):
        assert ProjPoint.of(QQ, 3, 6) == ProjPoint.of(QQ, 1, 2)
        assert ProjPoint.of(QQ, 7, 0) == ProjPoint.infinity(QQ)
        assert ProjPoint.of(QQ, 2, 1) != ProjPoint.of(QQ, 1, 2)
        with pytest.raises(ValueError):
            ProjPoint.of(QQ, 0, 0)

    @given(proj_points(F5), nonzero_scalars(F5))
    def test_scaling_the_vector_fixes_the_point(self, pt, c):
        a, b = pt.vector()
        assert ProjPoint.of(F5, a * c, b * c) == pt

    @given(proj_points(QQ))
    def test_annihilator_kills_the_vector(self, pt):
        _, (w0, w1) = nil_factors(pt)
        a, b = pt.vector()
        assert not (w0 * a + w1 * b)
        assert ProjPoint.of(QQ, a, b) == pt

    def test_proportional_vectors_span_the_same_point(self):
        pt = ProjPoint.of(QQ, 2, 1)
        assert ProjPoint.of(QQ, QQ.of(4), QQ.of(2)) == pt
        assert ProjPoint.of(QQ, QQ.of(1), QQ.of(1)) != pt


class TestNilEndo:
    def test_frozen_values(self):
        assert nil_endo(ProjPoint.infinity(QQ)) == (0, 1, 0, 0)
        assert nil_endo(ProjPoint.of(QQ, 0, 1)) == (0, 0, 1, 0)
        assert nil_endo(ProjPoint.of(QQ, 2, 1)) == (2, -4, 1, -2)

    def test_frozen_factors(self):
        one, zero, lam = QQ.one, QQ.zero, QQ.of(2)
        assert nil_factors(ProjPoint.infinity(QQ)) == ((one, zero), (zero, one))
        assert nil_factors(ProjPoint.of(QQ, 0, 1)) == ((zero, one), (one, zero))
        assert nil_factors(ProjPoint.of(QQ, 2, 1)) == ((lam, one), (one, -lam))

    @pytest.mark.parametrize("field", (QQ, F5, F1000003, QZ), ids=("q", "fp5", "fp1000003", "qz"))
    def test_is_the_outer_product_of_its_factors(self, field):
        points = [ProjPoint.infinity(field), ProjPoint.of(field, 0, 1),
                  ProjPoint.of(field, 3, 1), ProjPoint.of(field, -7, 2)]
        for pt in points:
            (v0, v1), (w0, w1) = nil_factors(pt)
            assert nil_endo(pt) == (v0 * w0, v0 * w1, v1 * w0, v1 * w1)
            assert ProjPoint.of(field, v0, v1) == pt
            assert not (w0 * v0 + w1 * v1)

    @given(proj_points(QQ))
    def test_square_zero_traceless(self, pt):
        a, b, c, d = nil_endo(pt)
        assert not any((a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d))
        assert not (a + d) and not (a * d - b * c)
        assert any((a, b, c, d))

    @given(proj_points(F5), scalars(F5), scalars(F5))
    def test_image_lies_on_the_line(self, pt, a, b):
        e00, e01, e10, e11 = nil_endo(pt)
        out = (e00 * a + e01 * b, e10 * a + e11 * b)
        if out != (F5.zero, F5.zero):
            assert ProjPoint.of(F5, *out) == pt


class TestPolyMat2:
    def test_worked_product(self):
        tt = Poly1.gen(QQ)
        one, zero = Poly1.one(QQ), Poly1.zero(QQ)
        left = PolyMat2(QQ, one, zero, tt, one)
        right = PolyMat2(QQ, one, tt, zero, one)
        want = PolyMat2(QQ, one, tt, tt, one + tt * tt)
        assert left * right == want

    @given(polymat(QQ, 2), polymat(QQ, 2), polymat(QQ, 2))
    @settings(max_examples=40)
    def test_product_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(polymat(QQ, 2), polymat(QQ, 2))
    @settings(max_examples=60)
    def test_det_is_multiplicative(self, a, b):
        assert (a * b).det() == a.det() * b.det()

    def test_scalar_monomial_and_coeff_matrix(self):
        delta = ProjPoint.of(QQ, 1, 1)
        e = nil_endo(delta)
        m = line_matrix(delta, Poly1.monomial(QQ, 3, 1))  # id + t^3 e
        assert m.coeff(3) == e
        assert not any(m.coeff(2))
        assert m.degree() == 3
        assert m.coeff(0) == (1, 0, 0, 1)
