"""Parsing and canonical printing of scalars, polynomials, maps, matrices."""

import pytest
from hypothesis import given, settings

from tameplane import (
    ParseError,
    Poly1,
    Poly2,
    PolyMat2,
    QQ,
    field_from_spec,
    format_auto,
    format_poly1,
    format_poly2,
    format_polymat,
    format_scalar,
    parse_auto,
    parse_poly1,
    parse_poly2,
    parse_polymat,
    parse_scalar,
)

from conftest import F5, QZ, poly1, poly2


class TestCanonicalText:
    def test_two_variable_ordering(self):
        # ascending total degree, x-heavy terms first inside a degree
        p = parse_poly2(QQ, "y + x*x + x^2 + 7 + x*y")
        assert format_poly2(p) == "7 + y + 2*x^2 + x*y"

    def test_one_variable_ordering_and_signs(self):
        p = parse_poly1(QQ, "t^3 - 2*t - 5")
        assert format_poly1(p) == "-5 - 2*t + t^3"

    def test_fraction_coefficients_print_bare(self):
        assert format_poly1(parse_poly1(QQ, "1/2 + 3/4*t")) == "1/2 + 3/4*t"

    def test_mod5_coefficients_are_residues(self):
        assert format_poly1(parse_poly1(F5, "7*t - 1")) == "4 + 2*t"

    def test_function_field_coefficients_keep_their_ratio_form(self):
        g = parse_poly1(QZ, "(1 + z)/(z^2)*t")
        assert format_poly1(g) == "(1 + z)/(z^2)*t"
        assert parse_poly1(QZ, format_poly1(g)) == g

    def test_zero_prints_as_zero(self):
        assert format_poly1(parse_poly1(QQ, "0")) == "0"
        assert format_poly2(parse_poly2(QQ, "x - x")) == "0"

    def test_auto_and_matrix_shapes(self):
        assert format_auto(parse_auto(QQ, " x , y + x^2 ")) == "x, y + x^2"
        assert format_polymat(parse_polymat(QQ, "1,0;t,1")) == "1, 0 ; t, 1"


class TestRoundTrips:
    @given(poly2(QQ))
    @settings(max_examples=60)
    def test_poly2_round_trip_rationals(self, p):
        assert parse_poly2(QQ, format_poly2(p)) == p

    @given(poly2(F5))
    @settings(max_examples=60)
    def test_poly2_round_trip_mod5(self, p):
        assert parse_poly2(F5, format_poly2(p)) == p

    @given(poly1(QZ, max_deg=3))
    @settings(max_examples=40)
    def test_poly1_round_trip_function_field(self, p):
        assert parse_poly1(QZ, format_poly1(p)) == p

    def test_scalar_round_trip(self, field):
        import random
        rng = random.Random(3)
        for _ in range(25):
            s = field.random_element(rng)
            assert parse_scalar(field, format_scalar(field, s)) == s
        # a constant text parses to the kind each parser promises
        three = parse_scalar(field, "3")
        assert type(three) is type(field.one) and three == field.of(3)
        for parse, kind in ((parse_poly1, Poly1), (parse_poly2, Poly2)):
            c = parse(field, "3")
            assert type(c) is kind and c == kind.constant(field, 3)
        auto = parse_auto(field, "1, 2")
        assert (auto.p, auto.q) == (Poly2.constant(field, 1), Poly2.constant(field, 2))
        m = parse_polymat(field, "1, 0 ; 0, 1")
        assert all(type(e) is Poly1 for e in m.entries()) and m == PolyMat2.identity(field)


class TestGrammar:
    def test_power_requires_integer_literal(self):
        with pytest.raises(ParseError):
            parse_poly2(QQ, "x^y")
        with pytest.raises(ParseError):
            parse_poly2(QQ, "x^(2)")

    def test_negative_exponents_rejected(self):
        with pytest.raises(ParseError):
            parse_poly1(QQ, "t^-1")

    def test_division_requires_constant_divisor(self):
        assert parse_poly1(QQ, "t/2") == parse_poly1(QQ, "1/2*t")
        with pytest.raises(ParseError):
            parse_poly1(QQ, "1/t")

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse_poly1(QQ, "t + w")

    def test_error_positions(self):
        with pytest.raises(ParseError) as info:
            parse_auto(QQ, "x, y +")
        assert info.value.position == 6
        with pytest.raises(ParseError) as info:
            parse_poly1(QQ, "t ^ t")
        assert info.value.position == 4
        # past the interpreter's limit on digits per int(): a literal, an exponent
        for text, position in (("7" * 5000 + "*x, y", 0), ("x^" + "7" * 5000 + ", y", 2)):
            with pytest.raises(ParseError, match="integer literal too long") as info:
                parse_auto(F5, text)
            assert info.value.position == position

    def test_nesting_is_capped_at_the_offending_token(self):
        assert parse_poly1(QQ, "(" * 150 + "t" + ")" * 150) == parse_poly1(QQ, "t")
        assert parse_poly1(QQ, "-" * 150 + "t") == parse_poly1(QQ, "t")
        for text in ("(" * 300 + "t" + ")" * 300, "-" * 1000 + "t", "+" * 151 + "t"):
            with pytest.raises(ParseError) as info:
                parse_poly1(QQ, text)
            assert info.value.position == 151
        with pytest.raises(ParseError) as info:
            parse_auto(QQ, "x, 1 + " + "(" * 200 + "y" + ")" * 200)
        assert info.value.position == 7 + 151

    def test_auto_needs_exactly_two_components(self):
        for bad in ("x", "x, y, x", ""):
            with pytest.raises(ParseError):
                parse_auto(QQ, bad)

    def test_matrix_needs_two_rows_of_two(self):
        for bad in ("1, 0 ; t", "1 ; t", "1, 0, 0 ; t, 1, 0"):
            with pytest.raises(ParseError):
                parse_polymat(QQ, bad)

    def test_trailing_junk_rejected(self):
        with pytest.raises(ParseError):
            parse_poly1(QQ, "t + 1 )")


class TestFieldsOfSpecs:
    @pytest.mark.parametrize("spec,text,back", [
        ("q", "-7/3", "-7/3"),
        ("fp:5", "9", "4"),
        ("fp:5", "3^100000001", "3"),  # a literal's power is a field power
        ("q-of-z", "(1 + z^2)/(2*z)", "(1/2 + 1/2*z^2)/(z)"),
        ("fp:3-of-z", "z + 4", "1 + z"),
    ])
    def test_examples(self, spec, text, back):
        field = field_from_spec(spec)
        assert format_scalar(field, parse_scalar(field, text)) == back
