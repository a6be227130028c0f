"""Parsing and canonical printing of scalars, polynomials, maps, matrices."""

import pytest
from hypothesis import example, given, settings, strategies as st

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
from tameplane import textio
from tameplane.ratfunc import RationalFunction
from tameplane.textio import _tokenize

from conftest import F5, QZ, poly1, poly2
from oracles import reference_parse, tokenize_by_character

F5Z = field_from_spec("fp:5-of-z")


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


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc), exc.position


# digits, letters, the operators, other punctuation, a Unicode digit, and
# blanks that str.isspace accepts but a plain " " test would not
_TOKEN_ALPHABET = list("0123456789xyztAZ_+-*/^(),;.$é٣") + [
    " ", "\t", "\n", "\x0b", "\x1c", "\u2003"]


@given(st.text(alphabet=st.sampled_from(_TOKEN_ALPHABET), max_size=40))
@settings(max_examples=400)
@example("x + 1  ")
@example("\u2003x\x1c*\x0b٣٣ ")
@example("x ^ " + "7" * 5000 + " ")
@example("2 $ x")
def test_tokenizer_matches_the_per_character_loop(text):
    # tokens and positions, or the error message and position, are the loop's
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(tokenize_by_character, text)


@pytest.mark.parametrize("field", (QZ, F5Z), ids=("q-of-z", "fp:5-of-z"))
class TestFunctionFieldScalars:
    """Over K(z), z is one more exponent and each coefficient becomes one
    element at the end; every value equals the one built from RationalFunctions."""

    def test_values_equal_the_rational_function_ones(self, field):
        z, one, x = field.gen, field.one, Poly2.x(field)
        expected = {
            "x/z": x.scale(one / z),
            "z*x": x.scale(z),
            "x*z": x.scale(z),
            "(1/z)*z*x": x,
            "(z^2 + 1)/(2*z)*x^2": (x * x).scale((z * z + one) / (field.of(2) * z)),
            "7*z": Poly2.constant(field, field.of(7) * z),
            "z^3000*x/z^2999": x.scale(z),
        }
        for text, want in expected.items():
            got = parse_poly2(field, text)
            assert got == want, text
            # no K[z] value is left inside a coefficient
            assert all(type(c) is RationalFunction and c.field is field
                       for c in got.terms.values())
        if field is F5Z:  # 7 is reduced mod 5 before it meets z
            assert format_poly2(parse_poly2(field, "7*z")) == "2*z"

    def test_each_parser_returns_its_kind_over_the_function_field(self, field):
        z = field.gen
        got = parse_scalar(field, "(z^2 + 1)/(2*z) - z")
        assert type(got) is RationalFunction and got.field is field
        assert got == (z * z + field.one) / (field.of(2) * z) - z
        three = parse_scalar(field, "3")
        assert type(three) is RationalFunction and three == field.of(3)
        for parse, kind in ((parse_poly1, Poly1), (parse_poly2, Poly2)):
            c = parse(field, "z")
            assert type(c) is kind and c.field is field and c.is_constant()
            assert c == kind.constant(field, z)
        m = parse_polymat(field, "z, 1/z ; 0, t*z")
        assert all(e.field is field for e in m.entries())
        assert m.entries()[3] == Poly1.gen(field).scale(z)

    def test_division_errors_keep_their_messages_and_positions(self, field):
        for text, message, position in (
                ("x/(z - z)", "division by zero", 1),
                ("x/x", "divisor must be constant", 1),
                ("z/(z-z)", "division by zero", 1),
                ("1/0 + x", "division by zero", 1),
                ("x + (z^2 + 1)/(0*z)", "division by zero", 13),
                ("(1/z)/(x - x)", "division by zero", 5)):
            with pytest.raises(ParseError) as info:
                parse_poly2(field, text)
            assert str(info.value) == "%s (at position %d)" % (message, position)

    def test_a_map_literal_builds_one_element_per_coefficient(self, field, monkeypatch):
        built = []
        init, coprime = RationalFunction.__init__, RationalFunction._coprime.__func__
        monkeypatch.setattr(RationalFunction, "__init__",
                            lambda self, *args: built.append(1) or init(self, *args))
        monkeypatch.setattr(RationalFunction, "_coprime",
                            classmethod(lambda cls, *args: built.append(1) or coprime(cls, *args)))
        gcds = []
        gcd = Poly1.gcd
        monkeypatch.setattr(Poly1, "gcd", lambda a, b: gcds.append(1) or gcd(a, b))
        # a cli-mix invert input, and a map with squares and a mixed product:
        # every coefficient a polynomial in z, so no gcd runs
        for text in ("1/2 + 2*z - 5/3*z^2 + (3/2 + 13/2*z + 5*z^2 + z^3)*x + (1 + 28/3*z - z^3)*y, "
                     "-11/6 + 7/6*z + 2/3*z^2 + (1/3 + 9/2*z + 4*z^2 + z^3)*x"
                     " + (7/6 + 19/3*z + z^2 - z^3)*y",
                     "x + (-1 + 2*z^2)*x^2 + (2 - 4*z^2)*x*y + (-1 + 2*z^2)*y^2, "
                     "y + (-1 + 2*z^2)*x^2 + (2 - 4*z^2)*x*y + (-1 + 2*z^2)*y^2"):
            built.clear()
            gcds.clear()
            auto = parse_auto(field, text)
            assert 0 < len(built) <= len(auto.p.terms) + len(auto.q.terms)
            assert gcds == []
        # a true denominator in z: one gcd per coefficient, at the end
        built.clear()
        auto = parse_auto(field, "x/(z + 1) + y/(z^2 - 1) + (z - 1)/(z^2 - 1)*x^2, y")
        assert len(built) == len(gcds) + 1 == 4

    def test_a_denominator_in_z_is_reduced_once_per_coefficient(self, field):
        assert format_poly2(parse_poly2(field, "x/(z+1) + y/(z^2-1)")) == \
            "(1)/(1 + z)*x + (1)/(%s + z^2)*y" % ("-1" if field is QZ else "4")
        assert format_poly2(parse_poly2(field, "(z+1)/(z^2 + 2*z + 1)*x")) == "(1)/(1 + z)*x"

    def test_huge_powers_of_z_and_t_stay_apart(self, field):
        big = 2 ** 64
        assert parse_scalar(field, "z^%d" % big) == field.gen ** big
        assert parse_poly2(field, "z^%d*x + y" % big) == \
            Poly2.x(field).scale(field.gen ** big) + Poly2.y(field)
        assert parse_poly1(field, "t^%d*z^%d" % (big, big)) == \
            Poly1.monomial(field, big, field.gen ** big)


class TestEdgeCases:
    def test_the_poly2_bound_is_raised_before_any_work(self):
        for text in ("x^18446744073709551616", "0*x^18446744073709551616",
                     "x^9223372036854775808*x^9223372036854775808"):
            for field in (QQ, F5, QZ):
                with pytest.raises(ValueError, match="below 2\\^64"):
                    parse_poly2(field, text)
        # a zero base, or a zero factor, makes no term to bound
        assert parse_poly2(QQ, "(x - x)^18446744073709551616") == Poly2.zero(QQ)
        assert parse_poly2(F5, "(5*x^9223372036854775808 + 1)^2") == Poly2.one(F5)

    def test_a_divisor_that_is_zero_mod_p_is_a_division_by_zero(self):
        for text in ("x/(x*5)", "x/(5*x)"):
            with pytest.raises(ParseError) as info:
                parse_poly2(F5, text)
            assert str(info.value) == "division by zero (at position 1)"

    def test_separators_count_only_outside_parentheses(self):
        for parse, text, message in (
                (parse_auto, "x), y", "expected exactly two comma-separated components (at position 5)"),
                (parse_auto, "(x, y), y", "expected ')' (at position 2)"),
                (parse_auto, "x, y +", "expected a value (at position 6)"),
                (parse_auto, "x + , y", "expected a value (at position 7)"),
                (parse_polymat, "1, (t ; 0), 1", "expected two ';'-separated rows (at position 13)"),
                (parse_polymat, "1, t) ; 0, 1", "expected two ';'-separated rows (at position 12)"),
                (parse_polymat, "1, t, 0 ; 0, 1", "expected two ','-separated entries per row (at position 14)"),
                (parse_polymat, "1, 1/0 ; 0", "division by zero (at position 4)")):
            with pytest.raises(ParseError) as info:
                parse(QQ, text)
            assert str(info.value) == message

    def test_zero_to_the_zero_is_one(self, field):
        assert parse_poly2(field, "(x - x)^0") == Poly2.one(field)
        assert parse_scalar(field, "0^0") == field.one


# -- the evaluator against the element-valued one in tests/oracles.py ------

_SPECS = ("q", "fp:5", "fp:1000003", "q-of-z", "fp:5-of-z")
_ENTRIES = ("parse_scalar", "parse_poly1", "parse_poly2", "parse_auto", "parse_polymat")
_HUGE = (2 ** 63, 2 ** 64, 2 ** 64 + 1)
_MANGLE = (",", ";", ")", "(", "^", " w ", "1/0")


def _expressions(names, huge, z_divisors):
    """Non-canonical texts over ``names``: nested parentheses, signs, sums,
    products, quotients and powers of sums, raised to huge exponents only
    where a value cannot grow with them (a variable in ``huge``, or a zero
    difference); without ``z_divisors`` every divisor is a literal."""
    leaves = [st.integers(0, 12).map(str), st.sampled_from(("1/2", "-3/4", "(-2)"))]
    if names:
        leaves.append(st.sampled_from(names))
    if huge:
        leaves.append(st.builds("%s^%d".__mod__, st.tuples(st.sampled_from(huge),
                                                            st.sampled_from(_HUGE))))
    divisor = st.sampled_from(("2", "(1/3)", "(-5)", "0", "(1 - 1)", "7"))

    def extend(inner):
        div = inner if z_divisors else divisor
        return st.one_of(
            inner.map("(%s)".__mod__),
            st.builds("%s%s%s".__mod__, st.tuples(inner, st.sampled_from(" + |-|*| - ".split("|")),
                                                   inner)),
            st.builds("%s/%s".__mod__, st.tuples(inner, div.map("(%s)".__mod__) | div)),
            st.builds("%s%s".__mod__, st.tuples(st.sampled_from(("-", "+", "- ")), inner)),
            st.builds("(%s)^%d".__mod__, st.tuples(inner, st.integers(0, 3))),
            st.builds(lambda a, e: "((%s) - (%s))^%d" % (a, a, e), inner, st.sampled_from(_HUGE)),
        )
    return st.recursive(st.one_of(leaves), extend, max_leaves=6)


@st.composite
def _draws(draw, spec):
    field = field_from_spec(spec)
    of_z = spec.endswith("-of-z")
    entry = draw(st.sampled_from(_ENTRIES))
    names = {"parse_scalar": (), "parse_poly1": ("t",), "parse_polymat": ("t",)}.get(entry, ("x", "y"))
    # over K(z) a draw divides by polynomials in z or raises z to huge powers,
    # not both: the gcd of a huge power of z would take as many steps
    z_divisors = of_z and draw(st.booleans())
    huge = names + (("z",) if of_z and not z_divisors else ())
    names += ("z",) if of_z else ()
    if not of_z and spec != "q":
        huge += tuple(str(n) for n in range(2, 5))  # F_p literal powers are one pow mod p
    expr = _expressions(names, huge, z_divisors)
    parts = draw(st.lists(expr, min_size=4, max_size=4))
    text = {"parse_auto": "%s, %s" % tuple(parts[:2]),
            "parse_polymat": "%s, %s ; %s, %s" % tuple(parts)}.get(entry, parts[0])
    if draw(st.integers(0, 2)):
        return field, entry, text
    # one draw in three gets a stray token, never inside a literal, and no
    # '/' that could put a huge power of z under a division
    at = draw(st.sampled_from([i for i in range(len(text) + 1)
                                  if not (0 < i < len(text) and text[i - 1:i + 1].isdigit())]))
    extra = draw(st.sampled_from(_MANGLE + (("/",) if z_divisors or not of_z else ())))
    return field, entry, text[:at] + extra + text[at:]


def _outcome(parse, *args):
    try:
        value = parse(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return type(value), repr(value), value


@pytest.mark.parametrize("spec", _SPECS)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_the_evaluator_matches_the_element_valued_one(spec, data):
    field, entry, text = data.draw(_draws(spec), label="field, entry, text")
    got = _outcome(getattr(textio, entry), field, text)
    want = _outcome(reference_parse, entry, field, text)
    assert got == want
