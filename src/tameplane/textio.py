"""Text forms for scalars, polynomials, plane maps, and matrices.

One grammar serves every entry point: integer and rational literals
(``3``, ``1/2``), the variables ``x``, ``y``, ``t``, ``z`` (which of them
are legal depends on what is being parsed), ``+ - * ^``, parentheses, and
unary minus.  ``/`` is accepted whenever the divisor is a nonzero
constant, which covers rational literals and function-field scalars such
as ``(z + 1)/(z^2)``.  Over K(z), literals and z are evaluated in K[z], and
a value is lifted to K(z) once, where it meets x, y, t, an element of K(z)
or a division by a polynomial in z.

Canonical printing orders monomials by ascending total degree, then by
ascending power of ``y``, writes every product with an explicit ``*``,
and separates terms with `` + `` / `` - ``.  Every printed form parses
back to an equal value; the round trip is pinned by tests.

>>> from tameplane import QQ
>>> format_poly2(parse_poly2(QQ, "y + x*x + x^2"))
'y + 2*x^2'
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .automorphisms import PlaneAuto
from .linear import PolyMat2
from .poly import Poly1, Poly2
from .ratfunc import RationalFunction, RationalFunctionField
from .scalars import QQ, PrimeField


class ParseError(ValueError):
    """Malformed input text; carries the offending position, or None when
    the fault is in a document's structure rather than at one place."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else "%s (at position %d)" % (message, position))
        self.position = position


# ---------------------------------------------------------------------------
# field names


def field_spec(field) -> str:
    """The flag string that names ``field``; inverse of ``field_from_spec``."""
    if isinstance(field, RationalFunctionField):
        return field_spec(field.base) + "-of-z"
    if isinstance(field, PrimeField):
        return "fp:%d" % field.p
    if field == QQ:
        return "q"
    raise TypeError("unknown field %r" % (field,))


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN = re.compile(r"(\d+)|([A-Za-z_]\w*)|(\S)")

_OPS = set("+-*/^(),;")


def _tokenize(text: str) -> list:
    """Produce (kind, value, position) triples; kinds: int, name, op, end."""
    out = []
    for m in _TOKEN.finditer(text):  # blanks match no group and are skipped
        group, value, pos = m.lastindex, m.group(), m.start()
        if group == 1:
            try:
                out.append(("int", int(value), pos))
            except ValueError:  # past the interpreter's limit on digits per int()
                raise ParseError("integer literal too long", pos) from None
        elif group == 2:
            out.append(("name", value, pos))
        elif value in _OPS:
            out.append(("op", value, pos))
        else:
            raise ParseError("unexpected character %r" % value, pos)
    out.append(("end", None, len(text)))
    return out


# ---------------------------------------------------------------------------
# evaluator helpers: values are field elements | Poly1 | Poly2 | K[z] values

_POLY = (Poly1, Poly2)


def _divide(field, a, b, pos: int):
    if isinstance(b, _POLY):
        if not b.is_constant():
            raise ParseError("divisor must be constant", pos)
        b = b.constant_term()
    if not b:
        raise ParseError("division by zero", pos)
    inv = field.one / b
    return a.scale(inv) if isinstance(a, _POLY) else a * inv


# Parentheses and unary signs nest the parser's recursion, five frames per
# parenthesis; this many levels stay inside the interpreter's default limit.
_MAX_NESTING = 150


class _Parser:
    """Recursive descent over a token slice, evaluating as it goes."""

    def __init__(self, field, tokens: list, variables: dict):
        self.field = field
        self.scalars = getattr(field, "base", field)  # K over K(z), else the field
        self.tokens = tokens
        self.variables = variables
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_end(self):
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError("unexpected %r" % (value,), pos)

    def expression(self):
        value = self.term()
        while True:
            kind, op, pos = self.peek()
            if kind == "op" and op in "+-":
                self.next()
                value = self.binary(op, value, self.term(), pos)
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, op, pos = self.peek()
            if kind == "op" and op in "*/":
                self.next()
                value = self.binary(op, value, self.factor(), pos)
            else:
                return value

    def binary(self, op: str, a, b, pos: int):
        field = self.field
        if self.scalars is not field:  # over K(z), lift where the levels differ
            # level: 0 for a K[z] value, 1 for an element of K(z), 2 for x, y or t
            la = 0 if getattr(a, "field", None) is not field else 2 if isinstance(a, _POLY) else 1
            lb = 0 if getattr(b, "field", None) is not field else 2 if isinstance(b, _POLY) else 1
            if op == "/" and not (la or lb or isinstance(b, Poly1) and b.degree() > 0):
                field = self.scalars  # a K[z] value over a constant stays in K[z]
            elif op == "/":
                a, b = a if la else field.of(a), b if lb else field.of(b)
            elif la < lb:  # the lower operand takes the other's kind, so
                # that no operator falls back to the reflected one
                a = type(b).constant(field, a) if lb == 2 else field.of(a)
            elif lb < la:
                b = type(a).constant(field, b) if la == 2 else field.of(b)
        if op == "/":
            return _divide(field, a, b, pos)
        return a * b if op == "*" else a + b if op == "+" else a - b

    def factor(self):
        # every parenthesis and unary sign passes through here once more
        kind, op, pos = self.peek()
        if self.depth > _MAX_NESTING:
            raise ParseError("nesting deeper than %d levels" % _MAX_NESTING, pos)
        self.depth += 1
        if kind == "op" and op == "-":
            self.next()
            value = -self.factor()
        elif kind == "op" and op == "+":
            self.next()
            value = self.factor()
        else:
            value = self.power()
        self.depth -= 1
        return value

    def power(self):
        base = self.atom()
        kind, op, _pos = self.peek()
        if kind == "op" and op == "^":
            self.next()
            kind, value, pos = self.next()
            negative = False
            if kind == "op" and value == "-":
                negative = True
                kind, value, pos = self.next()
            if kind != "int":
                raise ParseError("exponent must be an integer literal", pos)
            if negative:
                raise ParseError("negative exponents are not supported", pos)
            return base ** value
        return base

    def atom(self):
        kind, value, pos = self.next()
        if kind == "int":
            return self.scalars.of(value)
        if kind == "name":
            try:
                return self.variables[value]
            except KeyError:
                raise ParseError("unknown variable %r" % value, pos) from None
        if kind == "op" and value == "(":
            inner = self.expression()
            kind, value, pos = self.next()
            if not (kind == "op" and value == ")"):
                raise ParseError("expected ')'", pos)
            return inner
        raise ParseError("expected a value", pos)


def _split_top_level(tokens: list, separator: str) -> list:
    """Split a token list (with trailing end marker) at depth-0 separators."""
    groups = []
    current = []
    depth = 0
    for tok in tokens[:-1]:
        kind, value, _pos = tok
        if kind == "op" and value == "(":
            depth += 1
        elif kind == "op" and value == ")":
            depth -= 1
        if kind == "op" and value == separator and depth == 0:
            groups.append(current)
            current = []
        else:
            current.append(tok)
    groups.append(current)
    end = tokens[-1]
    return [g + [end] for g in groups]


def _run(field, tokens: list, names: dict, kind):
    """Evaluate one expression to a scalar, or to a ``kind`` polynomial
    when ``kind`` is Poly1 or Poly2 (a scalar becomes a constant of it).

    ``names`` holds at most one polynomial kind, and z over K(z) is a
    scalar, so no expression can evaluate to the wrong kind.
    """
    variables = dict(names)
    if isinstance(field, RationalFunctionField):
        variables.setdefault("z", Poly1.gen(field.base))
    parser = _Parser(field, tokens, variables)
    value = parser.expression()
    parser.expect_end()
    if kind is None:
        return field.of(value)  # over K(z), the one lift of a K[z] value
    return value if isinstance(value, kind) and value.field is field else kind.constant(field, value)


# ---------------------------------------------------------------------------
# public parsers


def parse_scalar(field, text: str):
    """A field element from text; over K(z) the variable z is available."""
    return _run(field, _tokenize(text), {}, None)


def parse_poly1(field, text: str, var: str = "t") -> Poly1:
    """A one-variable polynomial in ``var`` with coefficients in ``field``."""
    return _run(field, _tokenize(text), {var: Poly1.gen(field)}, Poly1)


def parse_poly2(field, text: str) -> Poly2:
    """A polynomial in x and y with coefficients in ``field``."""
    names = {"x": Poly2.x(field), "y": Poly2.y(field)}
    return _run(field, _tokenize(text), names, Poly2)


def parse_auto(field, text: str):
    """A plane map literal: two comma-separated x,y-polynomials."""
    tokens = _tokenize(text)
    groups = _split_top_level(tokens, ",")
    if len(groups) != 2:
        raise ParseError("expected exactly two comma-separated components",
                         tokens[-1][2])
    names = {"x": Poly2.x(field), "y": Poly2.y(field)}
    return PlaneAuto(*(_run(field, group, names, Poly2) for group in groups))


def parse_polymat(field, text: str) -> PolyMat2:
    """A 2x2 matrix of t-polynomials: rows split by ';', entries by ','."""
    tokens = _tokenize(text)
    rows = _split_top_level(tokens, ";")
    if len(rows) != 2:
        raise ParseError("expected two ';'-separated rows", tokens[-1][2])
    names = {"t": Poly1.gen(field)}
    entries = []
    for row in rows:
        cells = _split_top_level(row, ",")
        if len(cells) != 2:
            raise ParseError("expected two ','-separated entries per row",
                             row[-1][2])
        entries += [_run(field, cell, names, Poly1) for cell in cells]
    return PolyMat2(field, *entries)


# ---------------------------------------------------------------------------
# printers

_PLAIN_LITERAL = re.compile(r"\A\d+(/\d+)?\Z")


def format_scalar(field, value) -> str:
    """Canonical standalone text for a field element."""
    if isinstance(value, RationalFunction):
        num = format_poly1(value.num, "z")
        if value.den.degree() == 0:
            return num
        return "(%s)/(%s)" % (num, format_poly1(value.den, "z"))
    return _decimal(value, "coefficient")


def _decimal(value, what: str) -> str:
    """str(value), with Python's refusal of an integer longer than
    sys.get_int_max_str_digits() reworded as a domain error of this program."""
    try:
        return str(value)
    except ValueError:
        raise ValueError("%s too long to print (over %d digits)"
                         % (what, sys.get_int_max_str_digits())) from None


def _power(var: str, e: int) -> str:
    return var if e == 1 else "%s^%s" % (var, _decimal(e, "exponent"))


def _coeff_factor(field, value) -> str:
    """Scalar text usable as the left factor of a '*' product."""
    s = format_scalar(field, value)
    if _PLAIN_LITERAL.match(s) or (s.startswith("(") and s.endswith(")")):
        return s
    return "(%s)" % s


def _format_terms(field, terms) -> str:
    """Signed sum of (monomial text, coefficient) pairs in print order, "0"
    for none; only plain rationals have a canonical sign."""
    out = []
    for monomial, c in terms:
        negative = isinstance(c, Fraction) and c < 0
        if negative:
            c = -c
        if not monomial:
            body = format_scalar(field, c)
        elif c == field.one:
            body = monomial
        else:
            body = "%s*%s" % (_coeff_factor(field, c), monomial)
        sign = (" - " if negative else " + ") if out else ("-" if negative else "")
        out.append(sign + body)
    return "".join(out) or "0"


def format_poly1(p: Poly1, var: str = "t") -> str:
    """Canonical text, terms in ascending degree."""
    return _format_terms(p.field, [(_power(var, e) if e else "", c) for e, c in p.items()])


def format_poly2(p: Poly2) -> str:
    """Canonical text, ascending total degree, x-powers before y-powers."""
    return _format_terms(p.field, [
        ("*".join(_power(v, e) for v, e in (("x", i), ("y", j)) if e), c)
        for (i, j), c in p.graded_items()])


def format_auto(auto) -> str:
    """Two comma-separated components, e.g. ``x, y + x^2``."""
    return "%s, %s" % (format_poly2(auto.p), format_poly2(auto.q))


def format_polymat(m: PolyMat2) -> str:
    """Rows joined by ' ; ', entries by ', ', e.g. ``1, 0 ; t, 1``."""
    return "%s, %s ; %s, %s" % tuple(map(format_poly1, m.entries()))
