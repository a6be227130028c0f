"""Independent check of sampled outputs with sympy.

The records come from ``worker.oracle_records``: polynomials as coefficient
rows, or, for the CLI, the text a command printed.  Nothing here imports
tameplane, so a bug in its arithmetic cannot hide itself.
"""

from __future__ import annotations

import json

import sympy

X, Y, T = sympy.symbols("x y t")


def _domain(p: int):
    return sympy.GF(p) if p else sympy.QQ


def _poly(rows, p: int, gens):
    expr = sympy.Integer(0)
    for row in rows:
        *exps, num, den = row
        mono = sympy.Integer(1)
        for g, e in zip(gens, exps):
            mono *= g ** e
        expr += sympy.Rational(num, den) * mono
    return sympy.Poly(expr, *gens, domain=_domain(p))


def _compose(f, u, v):
    """f(u, v) for sympy polys in x and y."""
    out = sympy.Poly(0, X, Y, domain=f.domain)
    for (i, j), c in f.terms():
        out += u ** i * v ** j * c
    return out


def _identity_after(pair, inverse, p):
    x = sympy.Poly(X, X, Y, domain=_domain(p))
    y = sympy.Poly(Y, X, Y, domain=_domain(p))
    u, v = inverse
    return _compose(pair[0], u, v) == x and _compose(pair[1], u, v) == y


def _text_auto(text: str, p: int):
    exprs = [sympy.sympify(part.replace("^", "**"), locals={"x": X, "y": Y})
             for part in text.split(",")]
    return [sympy.Poly(e, X, Y, domain=_domain(p)) for e in exprs]


def check(record: dict) -> str | None:
    """None when sympy agrees with the record, else what disagreed."""
    kind = record["check"]
    if kind == "cli_inverse":
        p = int(record["field"][3:]) if record["field"].startswith("fp:") else 0
        out = record["stdout"].strip()
        if record["format"] == "jsonl":
            out = json.loads(out)["result"]
        if not _identity_after(_text_auto(record["map"], p), _text_auto(out, p), p):
            return "cli invert output composed with its input is not (x, y)"
        return None
    p = record["p"]
    if kind == "det_one":
        e00, e01, e10, e11 = (_poly(rows, p, (T,)) for rows in record["matrix"])
        if e00 * e11 - e01 * e10 != sympy.Poly(1, T, domain=_domain(p)):
            return "det(to_matrix(auto)) != 1"
        return None
    f = [_poly(rows, p, (X, Y)) for rows in record["map"]]
    if kind == "jacobian_constant":
        jac = f[0].diff(X) * f[1].diff(Y) - f[0].diff(Y) * f[1].diff(X)
        if not jac.is_ground or jac.is_zero:
            return "jacobian of the recomposed word is not a nonzero constant"
        return None
    if kind == "inverse":
        inverse = [_poly(rows, p, (X, Y)) for rows in record["inverse"]]
        if not _identity_after(f, inverse, p):
            return "map o invert(map) does not expand to (x, y)"
        return None
    return "unknown oracle check %r" % kind
