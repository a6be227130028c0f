"""Finite p-groups of the form E acting on its own group algebra.

E is the elementary abelian group F_p^r; it acts on M = F_p[E] by
translating the basis {e^w : w in E}.  Group elements are pairs (u, f)
with u in E and f in M stored as a length-p^r coefficient table, and the
law is (u, f) * (v, g) = (u + v, shift(f, v) + g).

The central series here is computed structurally: each term is a product
set T x W with T a subgroup of E and W a translation-invariant subspace
of M, found by small linear algebra mod p rather than by enumerating
group elements.  (That every term is such a product follows from the
commutator formulas: commutators with module elements constrain only u,
commutators with E-elements constrain only f, and the W's are
translation invariant by induction.)  W_i is kept as the kernel of an
rref constraint matrix C_i: C_0 is the identity, C_i is the rref of the
rows of C_(i-1)(sigma_e - 1) over the generators e of E, and T_i is the
set of u with C_(i-1)(sigma_u - 1) = 0.  No group law is needed: the
test suite's enumeration oracle (``tests/oracles.py``) multiplies
elements itself and shares only the module arithmetic below.
"""

from __future__ import annotations

from itertools import product

from ..scalars import _is_prime

DEFAULT_WORK_BOUND = 200_000


# ---------------------------------------------------------------------------
# linear algebra mod p on int tuples


def _rref(rows: list, p: int) -> list:
    """Reduced row echelon form; returns the nonzero rows."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    lead = 0
    for col in range(ncols):
        pivot = next((i for i in range(lead, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[lead], rows[pivot] = rows[pivot], rows[lead]
        inv = pow(rows[lead][col], p - 2, p)
        rows[lead] = [(v * inv) % p for v in rows[lead]]
        for i in range(len(rows)):
            if i != lead and rows[i][col] % p:
                c = rows[i][col]
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[lead])]
        lead += 1
        if lead == len(rows):
            break
    return [tuple(row) for row in rows[:lead]]


# ---------------------------------------------------------------------------
# the group


class PGroup:
    """The semidirect product of E = F_p^r with its group algebra, held
    as the points of E and the module arithmetic on coefficient tables."""

    def __init__(self, p: int, r: int):
        if not _is_prime(p):
            raise ValueError("not a prime: %d" % p)
        if r < 1:
            raise ValueError("rank must be at least 1")
        self.p = p
        self.r = r
        self.q = p ** r
        self.points = list(product(range(p), repeat=r))
        self.index = {u: i for i, u in enumerate(self.points)}
        self._shift_perm = {
            u: tuple(self.index[self.table_add(w, u)] for w in self.points)
            for u in self.points
        }

    def shift(self, table, v):
        """The translation action: e^w -> e^(w+v), applied to a table."""
        perm = self._shift_perm[v]
        out = [0] * self.q
        for i, value in enumerate(table):
            out[perm[i]] = value
        return tuple(out)

    def table_add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def table_neg(self, a):
        return tuple((-x) % self.p for x in a)

    def basis_table(self, w):
        out = [0] * self.q
        out[self.index[w]] = 1
        return tuple(out)


def _check_bound(p: int, r: int, bound: int) -> None:
    """Raise ValueError if the group order q * p**q, with q = p**r,
    exceeds bound.

    The order grows one factor of p at a time and the check fails as soon
    as it passes the bound, so a huge p or r costs at most log2(bound) + 1
    multiplications.  p < 2 and r < 1 are left to the callers' own checks.
    """
    if p < 2 or r < 1:
        return

    def times_p(size: int, steps: int) -> int:
        for _ in range(steps):
            size *= p
            if size > bound:
                raise ValueError("work bound exceeded for (p, r) = (%d, %d)" % (p, r))
        return size

    q = times_p(1, r)
    times_p(q, q)


def pgroup_nilpotency_index(p: int, r: int, work_bound: int = DEFAULT_WORK_BOUND) -> int:
    """Length of the ascending central series of the group above,
    computed structurally (each term as a subgroup-of-E times a subspace
    of the module)."""
    _check_bound(p, r, work_bound)
    group = PGroup(p, r)
    q = group.q

    def times_shift_minus_one(rows, u):
        # rows of C (sigma_u - 1), as row . shift(f, u) = shift(row, -u) . f
        neg_u = group.table_neg(u)
        return [group.table_add(group.shift(row, neg_u), group.table_neg(row))
                for row in rows]

    gens_e = [tuple(1 if i == j else 0 for i in range(r)) for j in range(r)]
    constraints = [group.basis_table(w) for w in group.points]  # W = ker C
    t_size = 1
    index = 0
    while True:
        index += 1
        # next module part: f whose generator-shift differences land in ker C
        new_constraints = _rref(
            [row for v in gens_e for row in times_shift_minus_one(constraints, v)], p)
        # next E part: u whose shift differences all land in ker C
        new_t_size = sum(1 for u in group.points
                         if not any(any(row) for row in times_shift_minus_one(constraints, u)))
        if new_t_size == t_size and len(new_constraints) == len(constraints):
            raise RuntimeError("central series stalled; the group is not nilpotent")
        t_size, constraints = new_t_size, new_constraints
        if t_size == q and not constraints:
            return index
