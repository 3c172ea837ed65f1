import random
from fractions import Fraction

import numpy as np
import pytest
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from icmech import oracle
from icmech.core import Mechanism, PreconditionError
from icmech.ic import check_ic
from icmech.nalloc import AllocationInstance, check_ic_n
from icmech.numerics import solve_lp
from icmech.oracle import KINDS, generate, solve_principal, solve_principal_alloc
from icmech.profit import support_is_acyclic, transport_criterion

from . import reference
from .reference import RationalLP, integer_lp, sample_ic_vertex

F = Fraction
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


def reference_optimum(dist, objective):
    """solve_lp over the reference IC rows and 0 <= x <= 1."""
    rows = reference.ic_polytope(dist)
    size = dist.space.n_profiles
    return solve_lp(integer_lp(RationalLP(objective=objective, a_eq=rows,
                                          b_eq=[F(0)] * len(rows), lower=[F(0)] * size,
                                          upper=[F(1)] * size)))


@st.composite
def lp_instances(draw):
    """An instance of every ``generate`` kind: two agents of 2-5 types, or
    an allocation of 2-3 agents with 1-3 types, with and without disposal."""
    kind = draw(st.sampled_from(KINDS))
    seed = draw(st.integers(0, 10**6))
    if kind == "unbiased-n-alloc":
        shape = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
        return generate(seed, shape, kind, disposal=draw(st.booleans()))
    shape = (draw(st.integers(2, 5)), draw(st.integers(2, 5)))
    return generate(seed, shape, kind, k=draw(st.integers(1, 3)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(lp_instances())
def test_lps_equal_the_reference_conversion(inst):
    # The oracle and transport LPs are built from pi's integers; each is
    # the integer form that the rational LP once written in Fractions
    # (value rows, reference.rho, the Fraction marginals, objective and
    # bounds) converts to: row by row the same (s, nonzeros, b), and the
    # same objective, scale, bounds and unit.
    lps = []

    def recording_solve_lp(lp):
        lps.append(lp)
        return solve_lp(lp)

    with mock.patch("icmech.oracle.solve_lp", recording_solve_lp), \
            mock.patch("icmech.profit.solve_lp", recording_solve_lp):
        if isinstance(inst, AllocationInstance):
            solve_principal_alloc(inst)
            base = inst.no_disposal
            last = base.values[-1].reshape(-1)
            expected = [reference.ic_lp(base.dist, [
                p * (v - u) for k in range(base.n - 1)
                for p, v, u in zip(base.dist.p.flat, base.values[k].flat, last)])]
            full_rank = base.n == 2 and \
                base.dist.matrix_rank() == min(base.space.shape)
        else:
            solve_principal(inst)
            transport_criterion(inst)
            expected = [reference.ic_lp(inst.dist, list((inst.v * inst.dist.p).flat)),
                        reference.transport_lp(inst)]
            full_rank = inst.dist.matrix_rank() == min(inst.space.shape)
    expected = [] if full_rank else [integer_lp(lp) for lp in expected]
    assert [(lp.a_eq, lp.a_ub) for lp in lps] == [(lp.a_eq, lp.a_ub) for lp in expected]
    assert lps == expected


FULL_RANK = st.tuples(st.integers(0, 10**6), st.integers(1, 5), st.integers(1, 5))


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
        ((6, 6), "conditionally-independent", 2, 27),
        ((5, 5), "full-rank", None, None),
        ((3, 3, 3), "unbiased-n-alloc", None, 28),
        ((12, 12), "conditionally-independent", 3, 130),
        ((24, 24), "independent", None, 101),
    ])
    def test_pivot_counts(self, monkeypatch, shape, kind, k, pivots):
        # The pricing rule is deterministic, so the pivot count is a
        # function of the LP, and an engine change that adds pivots fails
        # here, also at the sizes that a longer path made slow (12x12 with
        # k = 3 and 24x24 independent took 1,872 and 10,755 primal
        # pivots).  At full rank only the constants are IC and no LP runs
        # (pivots None).
        solutions = []

        def recording_solve_lp(lp):
            solutions.append(solve_lp(lp))
            return solutions[-1]

        monkeypatch.setattr("icmech.oracle.solve_lp", recording_solve_lp)
        inst = generate(1001, shape, kind, k=k)
        solve = solve_principal_alloc if len(shape) == 3 else solve_principal
        solve(inst)
        assert [s.pivots for s in solutions] == ([] if pivots is None else [pivots])


class TestFullRankShortcut:
    @PROPERTY
    @given(FULL_RANK, st.booleans())
    def test_principal_equals_the_reference_lp(self, draw, zero_mean):
        # zero_mean makes the objective sum to 0: a tie, where every
        # constant is optimal.  The shortcut returns 0, and the LP may
        # return another constant; otherwise the optimum is unique.
        seed, m, n = draw
        inst = generate(seed, (m, n), "full-rank", zero_mean=zero_mean)
        sol = reference_optimum(inst.dist, list((inst.v * inst.dist.p).reshape(-1)))
        res = solve_principal(inst)
        assert res.value == sol.value
        if not zero_mean:
            assert list(res.mechanism.x.reshape(-1)) == sol.x
            return
        lp_mech = Mechanism(inst.space, np.array(sol.x, dtype=object).reshape(m, n))
        for mech in (res.mechanism, lp_mech):
            assert len(set(mech.x.reshape(-1))) == 1
            assert check_ic(mech, inst.dist).verdict

    @PROPERTY
    @given(FULL_RANK, st.integers(0, 10**6))
    def test_vertex_equals_the_reference_lp(self, draw, rng_seed):
        seed, m, n = draw
        dist = generate(seed, (m, n), "full-rank").dist
        rng = random.Random(rng_seed)
        objective = [oracle._value(rng) for _ in range(m * n)]
        x = sample_ic_vertex(dist, random.Random(rng_seed))
        assert list(x.x.reshape(-1)) == reference_optimum(dist, objective).x


    def test_two_agent_allocation_equals_the_reference_lp(self):
        # With one type for one agent, pi has rank 1 = min(m, n): only the
        # constants are IC and no LP runs.  Uncentred values make the
        # objective pi (v_1 - v_2) sum to more than 0 in some draws, where
        # the shortcut gives agent 1 everything, and to less in others.
        signs = set()
        for seed in range(12):
            shape = (1, 2 + seed % 3) if seed % 2 else (2 + seed % 3, 1)
            base = generate(seed, shape, "unbiased-n-alloc")
            rng = random.Random(seed)
            draws = [oracle._value(rng) for _ in range(2 * base.space.n_profiles)]
            values = tuple(np.array(draws, dtype=object).reshape(2, *shape))
            inst = AllocationInstance(base.space, base.marginals, values,
                                      disposal=False)
            objective = list((inst.dist.p * (values[0] - values[1])).reshape(-1))
            sol = reference_optimum(inst.dist, objective)
            res = solve_principal_alloc(inst)
            assert res.value == sol.value + inst.expected_values[1]
            signs.add(sum(objective) > 0)
        assert signs == {False, True}


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
            p = reference.random_transport_extreme(rng, list(ml), list(mr))
            assert support_is_acyclic(p)
            assert [sum(p[i, j] for j in range(4)) for i in range(3)] == list(ml)
            assert [sum(p[i, j] for i in range(3)) for j in range(4)] == list(mr)

    def test_combinations_are_ic(self):
        rng = random.Random(3)
        for seed in range(5):
            inst = generate(seed, (3, 3), "independent")
            ml, mr = inst.dist.marginals()
            x = reference.sample_ic_combination(inst.space, ml, mr, rng)
            assert check_ic(x, inst.dist).verdict
