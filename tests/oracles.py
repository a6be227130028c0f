"""Independent oracles the tests check the library against.

None of this is called by the package, the CLI or the benchmark: each
function recomputes, by brute force or by a second route, something the
library computes another way, or draws the inputs of an acceptance
criterion.  The p-group enumeration keeps its own group law and shares
only the module arithmetic of ``PGroup`` (``shift``, ``table_add``,
``table_neg``, ``basis_table``) with the structural computation it checks.
"""

import random
import re
from fractions import Fraction
from itertools import product

from tameplane import (AffineAuto, ElemAuto, PlaneAuto, Poly1, Poly2, PolyMat2, PrimeField,
                       RationalFunctionField, compose_all, vdk_factor)
from tameplane.lab.pgroup import DEFAULT_WORK_BOUND, PGroup, _check_bound, _rref
from tameplane.lab.unipotent import RationalMatrix
from tameplane.textio import ParseError

DEFAULT_ALGEBRA_BOUND = 27


# ---------------------------------------------------------------------------
# criterion 7: the p-groups by enumeration


class PGroupLaw(PGroup):
    """PGroup with the group law (u, f) * (v, g) = (u + v, shift(f, v) + g)
    and a listing of every element."""

    @property
    def identity(self):
        return ((0,) * self.r, (0,) * self.q)

    def mul(self, g, h):
        (u, f), (v, g2) = g, h
        return (self.table_add(u, v), self.table_add(self.shift(f, v), g2))

    def inv(self, g):
        u, f = g
        nu = self.table_neg(u)
        return (nu, self.table_neg(self.shift(f, nu)))

    def commutator(self, g, h):
        return self.mul(self.mul(g, h), self.mul(self.inv(g), self.inv(h)))

    def generators(self) -> list:
        zero_u, zero_table = self.identity
        gens = []
        for j in range(self.r):
            e_j = tuple(1 if i == j else 0 for i in range(self.r))
            gens.append((e_j, zero_table))
        gens.append((zero_u, self.basis_table(zero_u)))
        return gens

    def elements(self):
        for u in self.points:
            for table in product(range(self.p), repeat=self.q):
                yield (u, table)

    @property
    def order(self) -> int:
        return self.q * self.p ** self.q


def nilpotency_index_by_enumeration(p: int, r: int, work_bound: int = DEFAULT_WORK_BOUND) -> int:
    """The length of the ascending central series by listing every group
    element."""
    _check_bound(p, r, work_bound)
    group = PGroupLaw(p, r)
    gens = group.generators()
    all_elements = list(group.elements())
    center = {group.identity}
    index = 0
    while len(center) < group.order:
        index += 1
        center = {
            g for g in all_elements
            if all(group.commutator(g, x) in center for x in gens)
        }
    return index


# ---------------------------------------------------------------------------
# criterion 7: power sums in F_p[x_1..x_r] and cyclic modules


def _check_algebra_bound(p: int, r: int, bound: int) -> None:
    """Raise ValueError if q = p**r exceeds bound, before q is formed."""
    size = 1
    for _ in range(r if p >= 2 else 0):
        size *= p
        if size > bound:
            raise ValueError("algebra bound exceeded for (p, r) = (%d, %d)" % (p, r))


def power_sum_identity(p: int, r: int, algebra_bound: int = DEFAULT_ALGEBRA_BOUND) -> bool:
    """Whether the sum of u^(q-1) over all u in span(x_1..x_r) equals the
    product of the nonzero u, in F_p[x_1..x_r] with q = p^r."""
    _check_algebra_bound(p, r, algebra_bound)
    q = p ** r
    field = PrimeField(p)
    # x_i is encoded as t^(q^i) (Kronecker substitution).  Every monomial
    # that arises has total degree at most q - 1, so each of its exponents
    # is below q and the encoding is injective.
    lhs = Poly1.zero(field)
    rhs = Poly1.one(field)
    for u in product(range(p), repeat=r):
        form = Poly1(field, {q ** i: field.of(c) for i, c in enumerate(u)})
        if form:
            lhs = lhs + form ** (q - 1)
            rhs = rhs * form
    return lhs == rhs


def scalar_power_sum(p: int, n: int) -> int:
    """Sum of c^n over all c in F_p, reduced mod p (0^0 counted as 1)."""
    return sum(pow(c, n, p) for c in range(p)) % p


def cyclic_module_is_free(p: int, r: int, table,
                          algebra_bound: int = DEFAULT_ALGEBRA_BOUND) -> bool:
    """Whether the translates of the element with the given coefficient
    table span the whole group algebra freely (trivial annihilator).

    Also evaluates the sufficient criterion "the sum of all translates is
    nonzero" and raises if the two ever disagree in the forbidden
    direction (criterion positive but annihilator nontrivial)."""
    _check_algebra_bound(p, r, algebra_bound)
    group = PGroup(p, r)
    f = tuple(v % p for v in table)
    if len(f) != group.q:
        raise ValueError("coefficient table must have length %d" % group.q)
    total = (0,) * group.q
    for u in group.points:
        total = group.table_add(total, group.shift(f, u))
    criterion = any(total)
    # g -> g f is invertible exactly when the translates of f are independent
    free = len(_rref([group.shift(f, w) for w in group.points], p)) == group.q
    if criterion and not free:
        raise RuntimeError(
            "translate-sum criterion held but the annihilator is nontrivial")
    return free


# ---------------------------------------------------------------------------
# matrix logs: the exponential that undoes unipotent_log


def matrix_add(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """a + b; the lab itself never adds two matrices."""
    return RationalMatrix([[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a.entries, b.entries)])


def matrix_neg(a: RationalMatrix) -> RationalMatrix:
    return RationalMatrix([[-x for x in row] for row in a.entries])


def matrix_exp(a: RationalMatrix) -> RationalMatrix:
    """Finite exponential series; requires nilpotent input."""
    if not (a ** a.n).is_zero():
        raise ValueError("matrix is not nilpotent")
    acc = RationalMatrix.identity(a.n)
    power = a
    factorial = 1
    m = 1
    while not power.is_zero():
        acc = matrix_add(acc, power.scale(Fraction(1, factorial)))
        m += 1
        factorial *= m
        power = power * a
    return acc


# ---------------------------------------------------------------------------
# criterion 8: the steps of the digit scan


def digit_scan_steps(p: int, n_max: int) -> int:
    """The steps ``digit_lemma_scan(p, n_max)`` takes, counted by its own
    loops: N values of a for each n and m prime to p with n m < p^N."""
    steps = 0
    for N in range(1, n_max + 1):
        top = p ** N
        for n in range(1, top):
            if n % p:
                steps += N * sum(1 for m in range(1, (top - 1) // n + 1) if m % p)
    return steps


# ---------------------------------------------------------------------------
# evaluation at points, and the elements of F_p


def evaluate_poly1(p, point):
    """The sum of c * point**e over the terms of a Poly1, at a scalar of its field."""
    total = sum((c * point ** e for e, c in p._num.items()), p.field.zero)
    return total if p._den == 1 else total / p._den


def evaluate_poly2(p, a, b):
    """The sum of c * a**i * b**j over the terms of a Poly2."""
    a, b = p.field.of(a), p.field.of(b)
    return sum((c * a ** i * b ** j for (i, j), c in p.terms.items()), p.field.zero)


def evaluate_auto(auto: PlaneAuto, point) -> tuple:
    return evaluate_poly2(auto.p, *point), evaluate_poly2(auto.q, *point)


def prime_field_elements(field: PrimeField):
    """Every element of F_p, in residue order 0, 1, ..., p - 1."""
    return (field.of(v) for v in range(field.p))


# ---------------------------------------------------------------------------
# amalgam words and line shears


def is_reduced(word) -> bool:
    """Factors alternate in kind, each a genuine representative, and
    neither representative kind is triangular; the tail is an invertible
    triangular map.  Any other factor or tail is not reduced."""
    kinds = [type(g) for g in word.factors]
    for a, b in zip(kinds, kinds[1:]):
        if a is b:
            return False
    f = word.field
    for g in word.factors:
        if isinstance(g, AffineAuto):
            if g != AffineAuto(f, ((f.zero, f.one), (f.one, g.m[1][1]))):
                return False
        elif (not isinstance(g, ElemAuto) or g != ElemAuto.shear(f, g.f)
              or g.f.degree() <= 1 or min(g.f.keys()) < 2):
            return False
    tail = word.tail
    return isinstance(tail, ElemAuto) and tail.is_lower_triangular() and bool(tail.z1 and tail.z2)


def free_reduce(pairs) -> tuple:
    """Merge adjacent line shears along equal directions, dropping
    cancellations: the reduced form of a (direction, parameter) word."""
    out: list = []
    for delta, f in pairs:
        if f.is_zero():
            continue
        if out and out[-1][0] == delta:
            merged = out[-1][1] + f
            out.pop()
            if not merged.is_zero():
                out.append((delta, merged))
        else:
            out.append((delta, f))
    return tuple(out)


def invert_through_normal_form(auto: PlaneAuto) -> PlaneAuto:
    """The inverse by a second route: the atoms of the reduced word, each
    inverted, composed as plane maps in reverse order."""
    word = vdk_factor(auto)
    return compose_all(*(atom.inverse().to_plane() for atom in reversed((*word.factors, word.tail))))


# ---------------------------------------------------------------------------
# criterion 10: triangular maps for the Borel escape


def random_origin_special_borel(field, rng: random.Random,
                                height: int = 6) -> PlaneAuto:
    """A nonidentity map (x, y) -> (z1 x, y/z1 + c x): lower triangular
    linear with determinant one, fixing the origin."""
    while True:
        z1 = field.random_nonzero(rng, height)
        c = field.random_element(rng, height)
        g = ElemAuto(field, z1, field.zero, field.one / z1,
                     Poly1.monomial(field, 1, c))
        if not g.is_identity():
            return g.to_plane()


def random_congruence_borel(funcfield, rng: random.Random, max_deg: int = 2,
                            height: int = 4) -> PlaneAuto:
    """A nonidentity map (x + u, y + v + w x) with u, v, w nonunit
    multiples of the function-field variable, so it is the identity at
    z = 0 and lower triangular."""
    base = funcfield.base
    gen = funcfield.gen

    def small():
        deg = rng.randint(0, max_deg)
        poly = Poly1(base, {e: base.random_element(rng, height) for e in range(deg + 1)})
        return funcfield.of(poly) * gen

    while True:
        w = small()
        m = ((funcfield.one, funcfield.zero), (w, funcfield.one))
        shift = (small(), small())
        g = AffineAuto(funcfield, m, shift).to_plane()
        if not g.is_identity():
            return g


# ---------------------------------------------------------------------------
# text: the tokenizer as a per-character loop

_LOOP_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(.))")


def tokenize_by_character(text: str) -> list:
    """(kind, value, position) triples, as ``textio._tokenize`` gives them:
    blanks skipped one ``str.isspace`` character at a time, one match per token."""
    out = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _LOOP_TOKEN.match(text, pos)
        if m.group(1) is not None:
            try:
                out.append(("int", int(m.group(1)), m.start(1)))
            except ValueError:
                raise ParseError("integer literal too long", m.start(1)) from None
        elif m.group(2) is not None:
            out.append(("name", m.group(2), m.start(2)))
        else:
            ch = m.group(3)
            if ch not in "+-*/^(),;":
                raise ParseError("unexpected character %r" % ch, m.start(3))
            out.append(("op", ch, m.start(3)))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


# ---------------------------------------------------------------------------
# text: the element-valued evaluator


def _reference_divide(field, a, b, pos: int):
    if isinstance(b, (Poly1, Poly2)):
        if not b.is_constant():
            raise ParseError("divisor must be constant", pos)
        b = b.constant_term()
    if not b:
        raise ParseError("division by zero", pos)
    inv = field.one / b
    return a.scale(inv) if isinstance(a, (Poly1, Poly2)) else a * inv


class ReferenceParser:
    """Recursive descent over a token slice whose every value is a field
    element, a Poly1, a Poly2 or, over K(z), a K[z] value: each literal,
    variable and operator builds and normalizes one, and a K[z] value is
    lifted to K(z) where it meets x, y, t, an element of K(z) or a division
    by a polynomial in z."""

    MAX_NESTING = 150

    def __init__(self, field, tokens: list, variables: dict):
        self.field = field
        self.scalars = getattr(field, "base", field)
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
        if self.scalars is not field:
            # level: 0 for a K[z] value, 1 for an element of K(z), 2 for x, y or t
            poly = (Poly1, Poly2)
            la = 0 if getattr(a, "field", None) is not field else 2 if isinstance(a, poly) else 1
            lb = 0 if getattr(b, "field", None) is not field else 2 if isinstance(b, poly) else 1
            if op == "/" and not (la or lb or isinstance(b, Poly1) and b.degree() > 0):
                field = self.scalars
            elif op == "/":
                a, b = a if la else field.of(a), b if lb else field.of(b)
            elif la < lb:
                a = type(b).constant(field, a) if lb == 2 else field.of(a)
            elif lb < la:
                b = type(a).constant(field, b) if la == 2 else field.of(b)
        if op == "/":
            return _reference_divide(field, a, b, pos)
        return a * b if op == "*" else a + b if op == "+" else a - b

    def factor(self):
        kind, op, pos = self.peek()
        if self.depth > self.MAX_NESTING:
            raise ParseError("nesting deeper than %d levels" % self.MAX_NESTING, pos)
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


def split_top_level(tokens: list, separator: str) -> list:
    """Copies of the token groups between depth-0 separators, each closed
    by the end marker."""
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
    return [g + [tokens[-1]] for g in groups]


def _reference_run(field, tokens: list, names: dict, kind):
    variables = dict(names)
    if isinstance(field, RationalFunctionField):
        variables.setdefault("z", Poly1.gen(field.base))
    parser = ReferenceParser(field, tokens, variables)
    value = parser.expression()
    parser.expect_end()
    if kind is None:
        return field.of(value)
    return value if isinstance(value, kind) and value.field is field else kind.constant(field, value)


def reference_parse(entry: str, field, text: str, var: str = "t"):
    """What ``textio.<entry>(field, text)`` returns, by the element-valued
    evaluator over copied token groups; ``var`` is parse_poly1's variable."""
    tokens = tokenize_by_character(text)
    xy = {"x": Poly2.x(field), "y": Poly2.y(field)}
    if entry == "parse_scalar":
        return _reference_run(field, tokens, {}, None)
    if entry == "parse_poly1":
        return _reference_run(field, tokens, {var: Poly1.gen(field)}, Poly1)
    if entry == "parse_poly2":
        return _reference_run(field, tokens, xy, Poly2)
    if entry == "parse_auto":
        groups = split_top_level(tokens, ",")
        if len(groups) != 2:
            raise ParseError("expected exactly two comma-separated components", tokens[-1][2])
        return PlaneAuto(*(_reference_run(field, group, xy, Poly2) for group in groups))
    assert entry == "parse_polymat", entry
    rows = split_top_level(tokens, ";")
    if len(rows) != 2:
        raise ParseError("expected two ';'-separated rows", tokens[-1][2])
    entries = []
    for row in rows:
        cells = split_top_level(row, ",")
        if len(cells) != 2:
            raise ParseError("expected two ','-separated entries per row", row[-1][2])
        entries += [_reference_run(field, cell, {"t": Poly1.gen(field)}, Poly1) for cell in cells]
    return PolyMat2(field, *entries)
