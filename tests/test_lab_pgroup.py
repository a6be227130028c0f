"""Nilpotency of shift-and-add groups on functions over (Z/p)^r."""

from itertools import product

import pytest

from tameplane.lab.pgroup import PGroup, pgroup_nilpotency_index

from oracles import (
    PGroupLaw,
    cyclic_module_is_free,
    nilpotency_index_by_enumeration,
    power_sum_identity,
    scalar_power_sum,
)


class TestPGroup:
    def test_group_axioms_on_small_cases(self):
        for p, r in ((2, 1), (3, 1), (2, 2)):
            G = PGroupLaw(p, r)
            e = G.identity
            gens = G.generators()
            for g in gens:
                assert G.mul(g, e) == g and G.mul(e, g) == g
                assert G.mul(g, G.inv(g)) == e
                for h in gens:
                    ab = G.mul(g, h)
                    for k in gens:
                        assert G.mul(G.mul(g, h), k) == G.mul(g, G.mul(h, k))

    def test_order(self):
        assert PGroupLaw(2, 1).order == 2 * 2 ** 2
        assert PGroupLaw(3, 1).order == 3 * 3 ** 3
        assert sum(1 for _ in PGroupLaw(2, 2).elements()) == PGroupLaw(2, 2).order

    def test_shift_translates_the_table(self):
        G = PGroup(3, 1)
        delta = G.basis_table((0,))
        shifted = G.shift(delta, (1,))
        assert shifted == G.basis_table((1,))

    def test_rejects_bad_parameters(self):
        for p, r in ((4, 1), (1, 1), (2, 0), (-3, 2)):
            with pytest.raises(ValueError):
                PGroup(p, r)


class TestNilpotencyIndex:
    # Structurally computed central series heights for the wreath-like
    # groups (Z/p)^r acting on functions (Z/p)^r -> Z/p.
    KNOWN = {(2, 1): 2, (2, 2): 3, (2, 3): 4, (3, 1): 3, (3, 2): 5,
             (5, 1): 5, (7, 1): 7, (2, 4): 5, (3, 3): 7, (5, 2): 9}

    @pytest.mark.parametrize("p,r", sorted(KNOWN))
    def test_structural_values(self, p, r):
        # the larger cases exceed the default work bound on group order
        assert pgroup_nilpotency_index(p, r, work_bound=10 ** 40) == self.KNOWN[(p, r)]

    @pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (3, 1)])
    def test_enumeration_agrees(self, p, r):
        assert nilpotency_index_by_enumeration(p, r) == self.KNOWN[(p, r)]

    def test_matches_linear_growth_in_r_for_fixed_p(self):
        # index = r(p - 1) + 1 on this family
        for p, r in self.KNOWN:
            assert self.KNOWN[(p, r)] == r * (p - 1) + 1

    def test_work_bound_is_enforced(self):
        with pytest.raises(ValueError):
            pgroup_nilpotency_index(3, 2, work_bound=10)
        with pytest.raises(ValueError):
            nilpotency_index_by_enumeration(2, 3, work_bound=10)
        # checked before any big power is formed
        for p, r in ((2305843009213693951, 1), (3, 10 ** 11)):
            with pytest.raises(ValueError, match="work bound"):
                pgroup_nilpotency_index(p, r)
            with pytest.raises(ValueError, match="work bound"):
                nilpotency_index_by_enumeration(p, r)


class TestPowerSums:
    @pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (2, 3), (2, 4),
                                     (3, 1), (3, 2), (3, 3),
                                     (5, 1), (5, 2), (7, 1), (11, 1),
                                     (13, 1), (17, 1), (19, 1), (23, 1)])
    def test_identity_holds_for_all_small_cases(self, p, r):
        assert power_sum_identity(p, r)

    def test_scalar_power_sums(self):
        # sum over F_p of c^n: -1 when (p-1) | n > 0, else 0
        assert scalar_power_sum(5, 4) == 4
        assert scalar_power_sum(5, 8) == 4
        assert scalar_power_sum(5, 3) == 0
        assert scalar_power_sum(5, 0) == 0  # 0^0 counts as 1, sum = p = 0
        assert scalar_power_sum(3, 2) == 2

    def test_algebra_bound_is_enforced(self):
        with pytest.raises(ValueError):
            power_sum_identity(3, 3, algebra_bound=26)
        # checked before any big power or group is formed
        for p, r in ((2305843009213693951, 1), (3, 10 ** 11)):
            with pytest.raises(ValueError, match="algebra bound"):
                power_sum_identity(p, r)
            with pytest.raises(ValueError, match="algebra bound"):
                cyclic_module_is_free(p, r, (1,))


class TestCyclicModule:
    def test_point_mass_generates_freely(self):
        G = PGroup(2, 2)
        table = G.basis_table((0, 0))
        assert cyclic_module_is_free(2, 2, table)

    def test_constant_function_is_not_free(self):
        # all-ones: every shift fixes it, the annihilator is big
        G = PGroup(2, 2)
        table = tuple(1 for _ in range(len(G.points)))
        assert not cyclic_module_is_free(2, 2, table)

    def test_criterion_equivalence_on_random_tables(self):
        import random
        rng = random.Random(5)
        G = PGroup(3, 1)
        for _ in range(30):
            table = tuple(rng.randrange(3) for _ in range(3))
            free = cyclic_module_is_free(3, 1, table)
            criterion = sum(table) % 3 != 0
            assert free == criterion

    @pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (3, 1)])
    def test_agrees_with_annihilator_search_on_every_table(self, p, r):
        G = PGroup(p, r)

        def times(g, f):
            # g f = sum over w of g[w] shift(f, w)
            out = (0,) * G.q
            for w, c in zip(G.points, g):
                out = G.table_add(out, tuple(c * v for v in G.shift(f, w)))
            return out

        tables = list(product(range(p), repeat=G.q))
        for f in tables:
            annihilated = any(times(g, f) == (0,) * G.q for g in tables if any(g))
            assert cyclic_module_is_free(p, r, f) == (not annihilated), f
