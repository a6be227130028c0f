"""Text forms for scalars, polynomials, plane maps, and matrices.

One grammar serves every entry point: integer and rational literals
(``3``, ``1/2``), the variables ``x``, ``y``, ``t``, ``z`` (which of them
are legal depends on what is being parsed), ``+ - * ^``, parentheses, and
unary minus.  ``/`` is accepted whenever the divisor is a nonzero
constant, which covers rational literals and function-field scalars such
as ``(z + 1)/(z^2)``.

Every value is ``(nums, den)``, raw numerators keyed by monomial over one
denominator as ``_SparsePoly`` stores them, left unnormalized until each
component is built by one ``normalize``.  Over K(z), z is one more exponent,
the low bits of a key wider than any power of z the text can build, so the
numerators stay in K; a division by a polynomial in z turns ``den`` into a
dict of K[z] numerators, and each coefficient becomes one element at the end.

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
from math import gcd

from .automorphisms import PlaneAuto
from .linear import PolyMat2
from .poly import _BOUND, _X, _Y, Poly1, Poly2
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
# evaluator


def _degree_bound(tokens: list, name: str) -> int:
    """A bound on the degree in ``name`` of every numerator and denominator
    the tokens build: each ``name`` counts one, times each exponent on it."""
    outer, total, last = [], 0, 0
    for (kind, value, _pos), after in zip(tokens, tokens[1:]):
        if value == "(":
            outer.append(total)
            total = 0
        elif value == ")" and outer:
            last, total = total, total + outer.pop()
        elif kind != "op":
            last = int(value == name)
            total += last
        elif value == "^" and after[0] == "int":
            total += last * max(after[1] - 1, 0)
    return total + sum(outer)  # a '(' left open holds the sum before it


def _split(tokens: list, separator: str, start: int) -> list:
    """The first token of each group that depth-0 ``separator`` tokens cut
    the tokens from ``start`` to the next end token into.  Each separator
    becomes the end token in place, so a group parses as a text of its own
    and no slice is copied."""
    starts, depth = [start], 0
    for i in range(start, len(tokens) - 1):
        value = tokens[i][1]
        if value is None:  # an end token that an earlier split made
            break
        depth += (value == "(") - (value == ")")
        if value == separator and not depth:
            tokens[i] = tokens[-1]
            starts.append(i + 1)
    return starts


# Parentheses and unary signs nest the parser's recursion, five frames per
# parenthesis; this many levels stay inside the interpreter's default limit.
_MAX_NESTING = 150

_XY = {"x": _X, "y": _Y}


def _as_dict(den) -> dict:
    return {0: den} if type(den) is int else den


class _Parser:
    """Recursive descent over the tokens of one text, evaluating as it goes.
    ``component(i)`` evaluates from token i to an end token and builds a
    ``kind`` (Poly1, Poly2, or None for a scalar); ``names`` maps each
    variable of that kind to its key."""

    def __init__(self, field, tokens: list, kind, names: dict):
        self.field, self.tokens, self.kind = field, tokens, kind
        self.scalars = getattr(field, "base", field)  # K over K(z), else the field
        of_z = self.scalars is not field and "z" not in names  # z is a scalar
        self.shift = shift = _degree_bound(tokens, "z").bit_length() if of_z else 0
        self.variables = {v: k << shift for v, k in names.items()}
        if shift:  # z occurs in the text
            self.variables["z"] = 1
        # the kernel for products of sums: Poly2's packs (i, j), so it takes no z
        self.kernel = Poly2 if kind is Poly2 and not shift else Poly1
        self.limit = Poly2._KEY_LIMIT if kind is Poly2 else 0
        self.depth = 0

    def component(self, start: int = 0):
        self.i = start
        value = self.expression()
        kind, token, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError("unexpected %r" % (token,), pos)
        return self.build(*value)

    def expression(self):
        value = self.term()
        while (op := self.tokens[self.i][1]) in ("+", "-"):
            self.i += 1
            value = self.add(value, self.term(), op == "-")
        return value

    def term(self):
        value = self.factor()
        while (op := self.tokens[self.i][1]) in ("*", "/"):
            pos = self.tokens[self.i][2]
            self.i += 1
            value = self.mul(value, self.factor()) if op == "*" else self.div(value, self.factor(), pos)
        return value

    def factor(self):
        # every parenthesis and unary sign passes through here once more
        _kind, op, pos = self.tokens[self.i]
        if self.depth > _MAX_NESTING:
            raise ParseError("nesting deeper than %d levels" % _MAX_NESTING, pos)
        self.depth += 1
        if op == "-" or op == "+":
            self.i += 1
            nums, den = value = self.factor()
            if op == "-":
                value = {k: -v for k, v in nums.items()}, den
        else:
            value = self.power()
        self.depth -= 1
        return value

    def power(self):
        base = self.atom()
        tokens = self.tokens
        if tokens[self.i][1] != "^":
            return base
        kind, value, pos = tokens[self.i + 1]
        self.i += 2
        negative = value == "-"
        if negative:
            kind, value, pos = tokens[self.i]
            self.i += 1
        if kind != "int":
            raise ParseError("exponent must be an integer literal", pos)
        if negative:
            raise ParseError("negative exponents are not supported", pos)
        return self.pow(base, value)

    def atom(self):
        kind, value, pos = self.tokens[self.i]
        self.i += 1
        if kind == "int":
            return {0: value}, 1
        if kind == "name":
            try:
                return {self.variables[value]: 1}, 1
            except KeyError:
                raise ParseError("unknown variable %r" % value, pos) from None
        if value == "(":
            inner = self.expression()
            _kind, value, pos = self.tokens[self.i]
            self.i += 1
            if value != ")":
                raise ParseError("expected ')'", pos)
            return inner
        raise ParseError("expected a value", pos)

    # -- values: (nums, den), den an int or, over K(z), a dict of K[z] numerators

    def add(self, a, b, sub: bool):
        (na, da), (nb, db) = a, b  # each value owns its dicts, so na is updated in place
        if da != db:
            if type(da) is type(db) is int:  # over the lcm
                g = gcd(da, db)
                na, nb, da = {k: v * (db // g) for k, v in na.items()}, \
                    {k: v * (da // g) for k, v in nb.items()}, da // g * db
            else:  # over the product of two K[z] dens, no gcd
                da, db = _as_dict(da), _as_dict(db)
                na, nb, da = self.product(na, db), self.product(nb, da), self.product(da, db)
        for k, v in nb.items():
            s = na.get(k, 0)
            na[k] = s - v if sub else s + v
        return na, da

    def mul(self, a, b):
        (na, da), (nb, db) = a, b
        return self.product(na, nb), \
            da * db if type(da) is type(db) is int else self.product(_as_dict(da), _as_dict(db))

    def div(self, a, b, pos: int):
        nums, den = b
        nums = self.nonzero(nums)
        if nums and max(nums) >> self.shift:  # a term in x, y or t
            raise ParseError("divisor must be constant", pos)
        if not nums:
            raise ParseError("division by zero", pos)
        if type(den) is int and nums.keys() == {0}:  # c/den in K: times den/c
            c, p = nums[0], self.scalars.characteristic  # F_p values stay over 1
            return self.mul(a, ({0: den * pow(c, -1, p)}, 1) if p else
                            ({0: -den}, -c) if c < 0 else ({0: den}, c))
        return self.mul(a, (_as_dict(den), nums))  # a polynomial in z joins the K[z] den

    def pow(self, base, n: int):
        nums, den = base
        shift, limit = self.shift, self.limit
        if limit and nums and (max(nums) >> shift) * n >= limit:
            nums = self.nonzero(nums)  # a zero numerator makes no term
            if nums and (max(nums) >> shift) * n >= limit:
                raise ValueError(_BOUND)
        if den == 1 and len(nums) == 1 and 1 in nums.values():  # a monomial
            return {k * n: 1 for k in nums}, 1
        kernel, K = self.kernel, self.scalars
        if type(den) is int:  # ** raises one term in closed form, by one field power
            p = kernel._normalized(K, nums, den) ** n
            return p._num, p._den
        return (kernel._normalized(K, nums, 1) ** n)._num, (kernel._normalized(K, den, 1) ** n)._num

    def product(self, a: dict, b: dict) -> dict:
        shift, limit = self.shift, self.limit
        if limit and a and b and (max(a) >> shift) + (max(b) >> shift) >= limit:
            a, b = self.nonzero(a), self.nonzero(b)
            if a and b and (max(a) >> shift) + (max(b) >> shift) >= limit:
                raise ValueError(_BOUND)
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            (kb, cb), = b.items()
            return {k + kb: v * cb for k, v in a.items()}
        kernel, K = self.kernel, self.scalars
        return kernel._make(K, a, 1)._raw_mul(kernel._make(K, b, 1))

    def nonzero(self, nums: dict) -> dict:
        return self.scalars.normalize(nums, 1)[0]

    def build(self, nums: dict, den):
        """nums / den as a ``kind`` over the field, by one normalize."""
        field, K, kind = self.field, self.scalars, self.kind
        if K is field:
            if kind:
                return kind._normalized(field, nums, den)
            nums, den = K.normalize(nums, den)
            return K.ratio(nums[0], den) if nums else K.zero
        # over K(z), each monomial's coefficient, a polynomial in z over den,
        # becomes one element, which runs a gcd only if den is in K[z]
        shift = self.shift
        mask = (1 << shift) - 1
        coeffs: dict = {}
        for k, v in nums.items():
            coeffs.setdefault(k >> shift, {})[k & mask] = v
        d, zden = (den, Poly1.one(K)) if type(den) is int else (1, Poly1._normalized(K, den, 1))
        out = {m: RationalFunction(field, num, zden) for m, c in coeffs.items()
               if (num := Poly1._normalized(K, c, d))}
        return kind._make(field, out) if kind else out.get(0, field.zero)


# ---------------------------------------------------------------------------
# public parsers


def parse_scalar(field, text: str):
    """A field element from text; over K(z) the variable z is available."""
    return _Parser(field, _tokenize(text), None, {}).component()


def parse_poly1(field, text: str, var: str = "t") -> Poly1:
    """A one-variable polynomial in ``var`` with coefficients in ``field``."""
    return _Parser(field, _tokenize(text), Poly1, {var: 1}).component()


def parse_poly2(field, text: str) -> Poly2:
    """A polynomial in x and y with coefficients in ``field``."""
    return _Parser(field, _tokenize(text), Poly2, _XY).component()


def parse_auto(field, text: str):
    """A plane map literal: two comma-separated x,y-polynomials."""
    tokens = _tokenize(text)
    starts = _split(tokens, ",", 0)
    if len(starts) != 2:
        raise ParseError("expected exactly two comma-separated components",
                         tokens[-1][2])
    parser = _Parser(field, tokens, Poly2, _XY)
    return PlaneAuto(*map(parser.component, starts))


def parse_polymat(field, text: str) -> PolyMat2:
    """A 2x2 matrix of t-polynomials: rows split by ';', entries by ','."""
    tokens = _tokenize(text)
    rows = _split(tokens, ";", 0)
    if len(rows) != 2:
        raise ParseError("expected two ';'-separated rows", tokens[-1][2])
    parser = _Parser(field, tokens, Poly1, {"t": 1})
    entries = []
    for row in rows:
        cells = _split(tokens, ",", row)
        if len(cells) != 2:
            raise ParseError("expected two ','-separated entries per row",
                             tokens[-1][2])
        entries += map(parser.component, cells)
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
