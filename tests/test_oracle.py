import random
from fractions import Fraction

import pytest

from icmech.core import PreconditionError
from icmech.ic import check_ic
from icmech.nalloc import check_ic_n
from icmech.numerics import solve_lp
from icmech.oracle import (generate, random_transport_extreme,
                           sample_ic_combination, sample_ic_vertex,
                           solve_principal, solve_principal_alloc)
from icmech.profit import support_is_acyclic

F = Fraction


class TestSolvePrincipal:
    def test_product_objective(self, inst_fx1, xstar):
        res = solve_principal(inst_fx1)
        assert res.value == F(1, 2)
        assert res.profitable
        assert (res.mechanism.x == xstar.x).all()

    def test_full_rank_collapse(self, inst_fx2):
        res = solve_principal(inst_fx2)
        assert res.value == 0
        assert not res.profitable

    def test_additive_objective(self, inst_fx5):
        res = solve_principal(inst_fx5)
        assert res.value == 0
        assert not res.profitable

    def test_optimizer_always_ic(self):
        for seed in range(10):
            kind = ["independent", "correlated", "full-rank"][seed % 3]
            inst = generate(seed, (2, 3), kind)
            res = solve_principal(inst)
            assert check_ic(res.mechanism, inst.dist).verdict
            assert res.value >= 0  # the zero mechanism is always IC

    def test_alloc_optimizer_always_ic(self):
        for seed in range(6):
            inst = generate(seed, (2, 2, 2), "unbiased-n-alloc",
                            disposal=(seed % 2 == 1))
            res = solve_principal_alloc(inst)
            assert check_ic_n(res.mechanism, inst).verdict

    @pytest.mark.parametrize("shape, kind, k, pivots", [
        ((6, 6), "conditionally-independent", 2, 54),
        ((5, 5), "full-rank", None, 24),
        ((3, 3, 3), "unbiased-n-alloc", None, 34),
    ])
    def test_pivot_counts(self, monkeypatch, shape, kind, k, pivots):
        # The pricing rule is deterministic, so the pivot count is a
        # function of the LP, and an engine change that adds pivots fails
        # here.
        solutions = []

        def recording_solve_lp(lp):
            solutions.append(solve_lp(lp))
            return solutions[-1]

        monkeypatch.setattr("icmech.oracle.solve_lp", recording_solve_lp)
        inst = generate(1001, shape, kind, k=k)
        solve = solve_principal_alloc if len(shape) == 3 else solve_principal
        solve(inst)
        assert [s.pivots for s in solutions] == [pivots]


class TestGenerate:
    def test_deterministic(self):
        a = generate(5, (3, 3), "correlated")
        b = generate(5, (3, 3), "correlated")
        assert (a.dist.p == b.dist.p).all()
        assert (a.v == b.v).all()

    def test_seeds_differ(self):
        a = generate(5, (3, 3), "correlated")
        b = generate(6, (3, 3), "correlated")
        assert not (a.dist.p == b.dist.p).all()

    def test_independent_kind(self):
        inst = generate(3, (2, 4), "independent")
        assert inst.dist.is_independent()

    def test_full_rank_kind(self):
        for seed in range(5):
            inst = generate(seed, (2, 2), "full-rank")
            assert inst.dist.matrix_rank() == 2

    def test_conditionally_independent_rank_bound(self):
        for seed in range(6):
            inst = generate(seed, (3, 3), "conditionally-independent", k=2)
            assert inst.dist.matrix_rank() <= 2

    def test_zero_mean_flag(self):
        inst = generate(7, (3, 3), "independent", zero_mean=True)
        assert inst.objective.expected_value == 0
        assert not inst.objective.swapped

    def test_unbiased_alloc(self):
        inst = generate(11, (2, 3, 2), "unbiased-n-alloc")
        assert inst.unbiased
        assert inst.vbar == 0

    def test_normalization_enforced(self):
        for seed in range(8):
            inst = generate(seed, (2, 2), "correlated")
            assert inst.objective.expected_value <= 0

    def test_unknown_kind(self):
        with pytest.raises(PreconditionError):
            generate(0, (2, 2), "weird")


class TestSampling:
    def test_vertices_are_ic(self):
        rng = random.Random(1)
        for seed in range(5):
            inst = generate(seed, (2, 3), "correlated")
            x = sample_ic_vertex(inst.dist, rng)
            assert check_ic(x, inst.dist).verdict

    def test_extreme_points_acyclic(self):
        rng = random.Random(2)
        for seed in range(10):
            inst = generate(seed, (3, 4), "independent")
            ml, mr = inst.dist.marginals()
            p = random_transport_extreme(rng, list(ml), list(mr))
            assert support_is_acyclic(p)
            assert [sum(p[i, j] for j in range(4)) for i in range(3)] == list(ml)
            assert [sum(p[i, j] for i in range(3)) for j in range(4)] == list(mr)

    def test_combinations_are_ic(self):
        rng = random.Random(3)
        for seed in range(5):
            inst = generate(seed, (3, 3), "independent")
            ml, mr = inst.dist.marginals()
            x = sample_ic_combination(inst.space, ml, mr, rng)
            assert check_ic(x, inst.dist).verdict
