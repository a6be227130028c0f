"""The four benchmark workloads: seeded input pools and one closed-loop op each.

Every workload is a ``Workload``: ``build_pool(seed, blocks)`` draws the inputs with
``tameplane.sampling`` before any timing starts, and ``op(item, keep)`` runs
one operation on one input and returns ``None`` when every exact check
passes, or a short failure message.  ``keep`` is a list or ``None``; when
it is a list the op appends what the sympy oracle should look at.

Pools are block-stratified.  A reference draw with a fixed seed fixes the
size class (``key``) of each position of a block; every block of a pool
repeats that class sequence with inputs drawn from the run's seed.  Seeds
therefore differ in coefficients, directions and factor order but not in the
mix of sizes, which would otherwise move ops/s by more than 10% from seed to
seed.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections import Counter
from dataclasses import dataclass

from tameplane import (
    ElemAuto,
    Poly1,
    PolyMat2,
    PrimeField,
    QQ,
    compose_all,
    from_matrix,
    invert,
    matrix_factor,
    normal_form,
    pingpong_check,
    shear_recompose,
    to_matrix,
    vdk_factor,
    word_of_atoms,
    word_to_json,
)
from tameplane.ratfunc import field_from_spec
from tameplane.sampling import (
    random_matrix_factors,
    random_proj_point,
    random_shear_pairs,
    random_tame_atoms,
    random_tame_auto,
)
from tameplane.textio import format_auto, format_polymat

REFERENCE_SEED = 20240
# pools are sized for runs of this many seconds and scale with the run length
POOL_SECONDS = 20
# draws allowed per block input before unfilled classes take any input
MAX_DRAWS_PER_SLOT = 50


@dataclass
class Workload:
    name: str
    field_specs: tuple
    block: int          # inputs per stratified block
    blocks: int         # blocks in the pool of a POOL_SECONDS run
    draw: object        # (rng, index) -> item
    key: object         # item -> size class
    op: object          # (item, keep) -> None | str
    label: object       # item -> short text naming the input's class
    trace_items: int     # inputs of the traced run
    warmup: int = 5
    needs_parser: bool = False

    def fields(self):
        return [field_from_spec(s) for s in self.field_specs]

    def pool_blocks(self, seconds: float) -> int:
        """Blocks in the pool of a run of ``seconds``, at least one."""
        return max(1, round(self.blocks * seconds / POOL_SECONDS))

    def build_pool(self, seed: int, blocks: int) -> list:
        """``blocks`` blocks, each repeating the size-class sequence of a
        reference block drawn with a fixed seed, filled with inputs drawn
        with ``seed``.  Any prefix of a block then holds the same classes
        whatever the seed."""
        ref_rng = random.Random(REFERENCE_SEED)
        classes = [self.key(self.draw(ref_rng, i)) for i in range(self.block)]
        quota = Counter(classes)
        rng = random.Random(seed)
        pool: list = []
        index = 0
        for _ in range(blocks):
            found: dict = {k: [] for k in quota}
            spill: list = []
            missing = self.block
            while missing:
                item = self.draw(rng, index)
                index += 1
                k = self.key(item)
                bucket = found.get(k)
                if bucket is not None and len(bucket) < quota[k]:
                    bucket.append(item)
                    missing -= 1
                elif index > MAX_DRAWS_PER_SLOT * self.block * (len(pool) // self.block + 1):
                    # a class too rare to fill: take what comes
                    spill.append(item)
                    if len(spill) >= missing:
                        break
            for k in classes:
                pool.append(found[k].pop() if found[k] else spill.pop())
        return pool


F5 = PrimeField(5)


def _field_for(index: int):
    return QQ if index % 2 == 0 else F5


# ---------------------------------------------------------------------------
# tame-roundtrip: criterion-01 atoms, factor, normal form and inverse


def _tame_draw(rng, index):
    field = _field_for(index)
    atoms = random_tame_atoms(field, rng, max_factors=6, height=8, degree_budget=12)
    return field, tuple(atoms), rng.randint(0, len(atoms))


def _tame_degree(atoms) -> int:
    degree = 1
    for atom in atoms:
        if isinstance(atom, ElemAuto):
            degree *= max(1, atom.f.degree())
    return degree


def _tame_key(item):
    field, atoms, _ = item
    return field.characteristic, _tame_degree(atoms)


def _tame_label(item):
    field, atoms, _ = item
    return "%r degree %d, %d atoms" % (field, _tame_degree(atoms), len(atoms))


def _word_atoms(word):
    return [*word.factors, word.tail]


def _tame_op(item, keep):
    field, atoms, cut = item
    g = compose_all(*(a.to_plane() for a in atoms))
    word = vdk_factor(g)
    recomposed = word.recompose()
    if recomposed != g:
        return "vdk_factor word does not recompose to the map"
    pad = ElemAuto(field, field.of(2), field.one, field.of(2),
                   Poly1.monomial(field, 1, field.one))
    padded = [*atoms[:cut], pad, pad.inverse(), *atoms[cut:]]
    if word_of_atoms(field, padded) != normal_form(word):
        return "padded word and normal form disagree"
    inverse = invert(g)
    inverse_word = vdk_factor(inverse)
    if inverse_word.recompose() != inverse:
        return "vdk_factor word does not recompose to the inverse"
    # g o inverse is the identity iff the concatenated word normalizes to
    # the empty word with identity tail; composing the polynomials instead
    # costs seconds at degree 6 with large coefficients
    product = word_of_atoms(field, _word_atoms(word) + _word_atoms(inverse_word))
    if product.factors or not product.tail.is_identity():
        return "map o invert(map) is not the identity"
    if keep is not None:
        keep.append({"check": "jacobian_constant", "map": recomposed})
        keep.append({"check": "inverse", "map": g, "inverse": inverse})
    return None


# ---------------------------------------------------------------------------
# shear-matrix: criterion-02 shear words through the matrix dictionary


SHEAR_DEGREE_BUDGET = 12


def _shear_draw(rng, index):
    field = _field_for(index)
    pairs = random_shear_pairs(field, rng, max_factors=4, deg_cap=6,
                               degree_budget=SHEAR_DEGREE_BUDGET)
    return field, tuple(pairs), rng.randint(0, len(pairs))


def _shear_shape(pairs):
    degree = 1
    for _, f in pairs:
        degree *= f.degree()
    # shears along the two axes keep the composite sparse; any other
    # direction makes it dense, which is what costs time
    generic = sum(1 for delta, _ in pairs if delta.b and delta.a)
    return degree, generic


def _shear_key(item):
    # the cut matters too: the left part goes through shear_recompose and
    # to_matrix a second time
    field, pairs, cut = item
    degree, generic = _shear_shape(pairs)
    return field.characteristic, degree, generic, (cut > 0) + (cut == len(pairs))


def _shear_label(item):
    field, pairs, _ = item
    degree, generic = _shear_shape(pairs)
    return "%r degree %d, %d pairs, %d off-axis" % (field, degree, len(pairs), generic)


def _shear_op(item, keep):
    field, pairs, cut = item
    auto = shear_recompose(field, pairs)
    m = to_matrix(auto)
    if from_matrix(m) != pairs:
        return "from_matrix(to_matrix(auto)) is not the input word"
    lm = to_matrix(shear_recompose(field, pairs[:cut]))
    rm = to_matrix(pairs[cut:]) if cut < len(pairs) else PolyMat2.identity(field)
    if lm * rm != m:
        return "split homomorphism lm * rm != m"
    if keep is not None:
        keep.append({"check": "det_one", "matrix": m})
    return None


# ---------------------------------------------------------------------------
# matrix-peel: degree peeling on matrix products, no Poly2 work at all


def _peel_draw(rng, index):
    field = _field_for(index)
    factors = random_matrix_factors(field, rng, max_factors=5)
    sample = random_proj_point(field, rng)
    while sample == factors[-1].delta:
        sample = random_proj_point(field, rng)
    return field, tuple(factors), sample


def _peel_key(item):
    field, factors, _ = item
    return field.characteristic, len(factors)


def _peel_label(item):
    field, factors, _ = item
    return "%r %d factors, t-degree %d" % (field, len(factors), sum(f.k for f in factors))


def _peel_op(item, keep):
    field, factors, sample = item
    m = PolyMat2.identity(field)
    for fac in factors:
        m = m * fac.to_matrix()
    rebuilt = PolyMat2.identity(field)
    for fac in matrix_factor(m):
        rebuilt = rebuilt * fac.to_matrix()
    if rebuilt != m:
        return "matrix_factor does not rebuild the matrix"
    if to_matrix(from_matrix(m)) != m:
        return "to_matrix(from_matrix(m)) != m"
    pairs = [(f.delta, Poly1.monomial(field, f.k, f.c)) for f in factors]
    if not pingpong_check(pairs, sample).ok:
        return "ping-pong certificate failed"
    if keep is not None:
        keep.append({"check": "det_one", "matrix": m})
    return None


# ---------------------------------------------------------------------------
# cli-mix: canonical text through tameplane.cli.main, in-process

CLI_FIELDS = ("q", "fp:5", "fp:1000003", "q-of-z")
CLI_COMMANDS = ("compose", "invert", "factor", "classify", "jacobian", "nf",
                "nf-json", "to-matrix", "from-matrix")
LAB_SUITES = ("pingpong", "relations", "pgroup", "digits", "logscale")
# one block = every command on every field, then every lab suite
CLI_SLOTS = tuple((c, s) for s in CLI_FIELDS for c in CLI_COMMANDS) + \
    tuple(("lab", s) for s in LAB_SUITES)

# q-of-z stays small: one degree-4 inverse already takes seconds there
_CLI_SIZES = {
    "small": dict(tame=dict(max_factors=4, degree_budget=6, height=8),
                  shear=dict(max_factors=3, deg_cap=4, degree_budget=8),
                  matrix=dict(max_factors=3, deg_cap=1)),
    "q-of-z": dict(tame=dict(max_factors=2, degree_budget=2, height=3),
                   shear=dict(max_factors=1, deg_cap=2, degree_budget=2),
                   matrix=dict(max_factors=2, deg_cap=1)),
}


def _cli_lab_argv(rng, suite):
    if suite == "pingpong":
        return ["lab", "pingpong", "--trials", str(rng.randint(5, 10)),
                "--words", str(rng.randint(2, 5))], 0
    if suite == "relations":
        return ["lab", "relations", "--trials", str(rng.randint(1, 3))], 0
    if suite == "pgroup":
        p, r = rng.choice(((2, 1), (3, 1), (2, 2), (3, 2)))
        # r >= 2 is the known criterion-7 discrepancy: the suite exits 1
        return ["lab", "pgroup", "--p", str(p), "--r", str(r)], 0 if r == 1 else 1
    if suite == "digits":
        p, n = rng.choice(((2, 4), (2, 5), (3, 3), (5, 2)))
        return ["lab", "digits", "--p", str(p), "--N", str(n)], 0
    return ["lab", "logscale", "--trials", str(rng.randint(1, 3))], 0


def _cli_argv(rng, command, spec):
    field = field_from_spec(spec)
    sizes = _CLI_SIZES["q-of-z" if spec == "q-of-z" else "small"]
    if command == "to-matrix":
        pairs = random_shear_pairs(field, rng, **sizes["shear"])
        return ["to-matrix", "--verify", format_auto(shear_recompose(field, pairs))]
    if command == "from-matrix":
        m = PolyMat2.identity(field)
        for fac in random_matrix_factors(field, rng, **sizes["matrix"]):
            m = m * fac.to_matrix()
        return ["from-matrix", "--verify", format_polymat(m)]
    g = random_tame_auto(field, rng, **sizes["tame"])
    text = format_auto(g)
    if command == "compose":
        return ["compose", text, format_auto(random_tame_auto(field, rng, **sizes["tame"]))]
    if command in ("invert", "factor"):
        return [command, "--verify", text]
    if command == "nf":
        return ["nf", "--verify", text]
    if command == "nf-json":
        return ["nf", "--json", "--verify", word_to_json(vdk_factor(g))]
    return [command, text]


def _cli_draw(rng, index):
    command, target = CLI_SLOTS[index % len(CLI_SLOTS)]
    fmt = rng.choice(("text", "jsonl"))
    seed = rng.randrange(1000)
    if command == "lab":
        argv, code = _cli_lab_argv(rng, target)
        spec = rng.choice(("q", "fp:5")) if target == "pingpong" else "q"
    else:
        argv, code, spec = _cli_argv(rng, command, target), 0, target
    return ("--field", spec, "--format", fmt, "--seed", str(seed), *argv), code, \
        (command, target)


def _cli_key(item):
    return item[2]


def _cli_label(item):
    argv, _, slot = item
    return "%s %s (%s, %d bytes)" % (*slot, argv[3], sum(len(a) for a in argv))


def _cli_op(item, keep):
    """One in-process CLI call, stdout and stderr captured; the exit code
    must be the one pinned for the argv."""
    from tameplane import cli

    argv, expected, slot = item
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if keep is not None:
        keep.append({"check": "cli_stdout", "stdout": out.getvalue()})
        if slot[0] == "invert" and slot[1] != "q-of-z":
            keep.append({"check": "cli_inverse", "field": slot[1], "format": argv[3],
                         "map": argv[-1], "stdout": out.getvalue()})
    if code != expected:
        return "exit %d, expected %d for %s %s" % (code, expected, *slot)
    return None


WORKLOADS = {
    "tame-roundtrip": Workload(
        "tame-roundtrip", ("q", "fp:5"), block=100, blocks=20, trace_items=1000,
        draw=_tame_draw, key=_tame_key, op=_tame_op, label=_tame_label),
    "shear-matrix": Workload(
        "shear-matrix", ("q", "fp:5"), block=100, blocks=4, trace_items=200,
        draw=_shear_draw, key=_shear_key, op=_shear_op, label=_shear_label),
    "matrix-peel": Workload(
        "matrix-peel", ("q", "fp:5"), block=100, blocks=28, trace_items=2000,
        draw=_peel_draw, key=_peel_key, op=_peel_op, label=_peel_label),
    "cli-mix": Workload(
        "cli-mix", CLI_FIELDS, block=len(CLI_SLOTS), blocks=24, trace_items=10 * len(CLI_SLOTS),
        draw=_cli_draw, key=_cli_key, op=_cli_op, label=_cli_label,
        warmup=len(CLI_SLOTS), needs_parser=True),
}
