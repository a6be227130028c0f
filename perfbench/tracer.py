"""Span wrappers around tameplane's public functions, one layer per module.

``Tracer.install()`` replaces each traced function or method with a wrapper
that records calls and self time (span duration minus the time of the spans
it caused).  A function imported with ``from ... import`` is bound in several
modules; the wrapper replaces every binding of the same object in the
package's modules and in the benchmark's own modules.

Size counts are taken from a call's arguments and result after its span
ends.  That bookkeeping is charged to no layer: it is reported on its own as
``trace.bookkeeping_s``.  Scalar arithmetic is too hot to wrap; the scalar
layer is seen through ``term_pairs`` and ``coeff_bits_max`` instead.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter

from tameplane import amalgam, automorphisms, cli, linear, matrixrep, poly, ratfunc, textio
from tameplane.scalars import QQ


def _coeff_bits(p) -> int:
    """Largest numerator or denominator bit length of a Poly over Q."""
    best = 0
    for c in p.terms.values():
        n = c.numerator.bit_length()
        d = c.denominator.bit_length()
        if n > best:
            best = n
        if d > best:
            best = d
    return best


def _measure_mul(tracer, name, args, result):
    if result is NotImplemented:
        return
    a, b = args[0], args[1]
    # a scalar factor is coerced to a one-term polynomial
    tracer.counts[name + ".term_pairs"] += len(a.terms) * (
        len(b.terms) if type(b) is type(a) else 1)
    if a.field is QQ:
        tracer.coeff_bits(_coeff_bits(result))


def _measure_q_result(tracer, name, args, result):
    if result.field is QQ:
        tracer.coeff_bits(_coeff_bits(result))


def _measure_len(suffix):
    def measure(tracer, name, args, result):
        tracer.counts[name + suffix] += len(result)
    return measure


def _measure_parse(tracer, name, args, result):
    tracer.counts[name + ".bytes"] += len(args[1])


def _measure_format(tracer, name, args, result):
    tracer.counts[name + ".bytes"] += len(result)


_RATFUNC_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
                "__rmul__", "__truediv__", "__rtruediv__", "inverse", "__pow__")

# (span name, owner, attribute names, size measure)
TARGETS = (
    ("poly.mul2", poly.Poly2, ("__mul__", "__rmul__"), _measure_mul),
    ("poly.subst2", poly.Poly2, ("substitute",), _measure_q_result),
    ("poly.mul1", poly.Poly1, ("__mul__", "__rmul__"), _measure_mul),
    ("poly.gcd1", poly.Poly1, ("gcd",), None),
    ("ratfunc", ratfunc.RationalFunction, _RATFUNC_OPS, None),
    ("linear.polymat_mul", linear.PolyMat2, ("__mul__",), None),
    ("automorphisms.compose", automorphisms.PlaneAuto, ("compose",), None),
    ("automorphisms.jacobian", automorphisms.PlaneAuto, ("jacobian",), None),
    ("automorphisms.classify", automorphisms, ("classify",), None),
    ("amalgam.vdk_factor", amalgam, ("vdk_factor",), _measure_len(".word_len")),
    ("amalgam.normalize", amalgam, ("normal_form", "word_of_atoms"), None),
    ("amalgam.shear_decompose", amalgam, ("shear_decompose",), None),
    ("amalgam.shear_recompose", amalgam, ("shear_recompose",), None),
    ("amalgam.invert", amalgam, ("invert",), None),
    ("matrixrep.matrix_factor", matrixrep, ("matrix_factor",), _measure_len(".peel_steps")),
    ("matrixrep.to_matrix", matrixrep, ("to_matrix",), None),
    ("matrixrep.from_matrix", matrixrep, ("from_matrix",), None),
    ("matrixrep.pingpong", matrixrep, ("pingpong_check",), None),
    ("textio.parse", textio, ("parse_auto", "parse_polymat", "parse_poly1", "parse_poly2",
                              "parse_scalar"), _measure_parse),
    ("textio.format", textio, ("format_auto", "format_polymat", "format_poly1",
                               "format_poly2", "format_scalar"), _measure_format),
    ("cli.main", cli, ("main",), None),
    ("lab.pingpong", cli, ("_lab_pingpong",), None),
    ("lab.relations", cli, ("_lab_relations",), None),
    ("lab.pgroup", cli, ("_lab_pgroup",), None),
    ("lab.digits", cli, ("_lab_digits",), None),
    ("lab.logscale", cli, ("_lab_logscale",), None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in TARGETS))
COUNT_NAMES = ("poly.mul2.term_pairs", "poly.mul1.term_pairs", "amalgam.vdk_factor.word_len",
               "matrixrep.matrix_factor.peel_steps", "textio.parse.bytes", "textio.format.bytes")


class Tracer:
    def __init__(self):
        self.depth: Counter = Counter()   # open spans per name
        self.stack: list = []             # child time of each open span
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.max_bits = 0
        self.bookkeeping_s = 0.0
        self._saved: list = []

    def coeff_bits(self, bits: int) -> None:
        if bits > self.max_bits:
            self.max_bits = bits

    def wrap(self, name, fn, measure):
        tracer = self
        clock = time.perf_counter
        depth = self.depth
        stack = self.stack

        def span(*args, **kwargs):
            depth[name] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(name, clock() - start, 0.0)
                raise
            end = clock()
            extra = 0.0
            if measure is not None and depth[name] == 1:
                measure(tracer, name, args, result)
                extra = clock() - end
            tracer._close(name, end - start, extra)
            return result

        span.__wrapped__ = fn
        return span

    def _close(self, name, duration, bookkeeping):
        children = self.stack.pop()
        self.self_s[name] += duration - children
        if self.depth[name] == 1:
            self.calls[name] += 1
        self.depth[name] -= 1
        self.bookkeeping_s += bookkeeping
        if self.stack:
            self.stack[-1] += duration + bookkeeping

    def install(self, bench_dir: str) -> None:
        """Wrap every target in the package and rebind it wherever the
        package or the benchmark's own modules hold the original."""
        bench_dir = os.path.abspath(bench_dir)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "tameplane" or n.startswith("tameplane.")
                   or os.path.dirname(getattr(m, "__file__", None) or "") == bench_dir]
        for name, owner, attrs, measure in TARGETS:
            for attr in attrs:
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original, measure)
                if isinstance(owner, type):
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def layer_metrics(self) -> dict:
        """calls and self_s per span name, plus the size counts."""
        out = {}
        for name in SPAN_NAMES:
            calls_key = "ratfunc.ops" if name == "ratfunc" else name + ".calls"
            out[calls_key] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
        out.update((name, self.counts[name]) for name in COUNT_NAMES)
        pairs = self.counts["poly.mul2.term_pairs"]
        out["poly.mul2.ns_per_term_pair"] = (
            self.self_s["poly.mul2"] * 1e9 / pairs if pairs else 0.0)
        out["scalars.coeff_bits_max"] = self.max_bits
        return out
