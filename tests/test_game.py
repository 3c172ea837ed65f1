import random
from fractions import Fraction

import numpy as np
import pytest

from icmech import Mechanism, constant_mechanism, expectation, game
from icmech.game import maximin, obedience_check
from icmech.ic import check_ic
from icmech.oracle import generate

from .reference import independent_counterpart, sample_ic_vertex

F = Fraction


def mech(space, rows):
    return Mechanism(space, np.array([[F(v) for v in r] for r in rows],
                                     dtype=object))


class TestMaximin:
    def test_constant_game(self, inst_fx1):
        sol = maximin(constant_mechanism(inst_fx1.space, F(1, 3)))
        assert sol.value == F(1, 3)

    def test_matching_game_value_half(self, xstar):
        sol = maximin(xstar)
        assert sol.value == F(1, 2)
        assert list(sol.sigma_maximizer) == [F(1, 2), F(1, 2)]
        assert list(sol.sigma_minimizer) == [F(1, 2), F(1, 2)]

    def test_corner_game(self, inst_fx1):
        sol = maximin(mech(inst_fx1.space, [[1, 0], [0, 0]]))
        assert sol.value == 0

    def test_strategies_are_distributions(self, inst_fx1):
        rng = random.Random(3)
        for _ in range(15):
            x = Mechanism(inst_fx1.space,
                          np.array([[F(rng.randint(0, 4), 4) for _ in range(2)]
                                    for _ in range(2)], dtype=object))
            sol = maximin(x)
            for sigma in (sol.sigma_maximizer, sol.sigma_minimizer):
                assert sum(sigma) == 1
                assert all(p >= 0 for p in sigma)
            # value equals the bilinear payoff at the returned equilibrium
            payoff = sum(sol.sigma_maximizer[i] * x.x[i, j] * sol.sigma_minimizer[j]
                         for i in range(2) for j in range(2))
            assert payoff == sol.value

    @pytest.mark.parametrize("rows, value", [
        ([[1, 0], [1, 0]], 0), ([[1, 1], [1, 1]], 1), ([[0, 0], [0, 0]], 0)])
    def test_value_at_a_bound(self, inst_fx1, rows, value):
        # The value sits at 0 or 1, the ends of [0, 1], and still well above
        # the lower bound -1 the LP gives it.
        sol = maximin(mech(inst_fx1.space, rows))
        assert sol.value == value
        for sigma in (sol.sigma_maximizer, sol.sigma_minimizer):
            assert sum(sigma) == 1
            assert all(p >= 0 for p in sigma)

    def test_duals_that_do_not_sum_to_one_raise(self, xstar, monkeypatch):
        solve_lp = game.solve_lp

        def halved_duals(lp):
            sol = solve_lp(lp)
            sol.dual_ub = [d / 2 for d in sol.dual_ub]
            return sol

        monkeypatch.setattr(game, "solve_lp", halved_duals)
        with pytest.raises(RuntimeError, match="^maximin check failed: the column "
                                               "player's strategy sums to 1$"):
            maximin(xstar)

    def test_rectangular_game(self):
        inst = generate(9, (2, 3), "correlated")
        rng = random.Random(9)
        x = Mechanism(inst.space,
                      np.array([[F(rng.randint(0, 3), 3) for _ in range(3)]
                                for _ in range(2)], dtype=object))
        sol = maximin(x)
        col_payoffs = [sum(sol.sigma_maximizer[i] * x.x[i, j] for i in range(2))
                       for j in range(3)]
        assert min(col_payoffs) == sol.value


class TestObedience:
    def test_matching_obedient_under_independence(self, xstar, inst_fx1):
        rep = obedience_check(xstar, inst_fx1.dist)
        assert rep.verdict
        assert rep.common_value == F(1, 2)

    def test_matching_disobedient_under_correlation(self, xstar, inst_fx2):
        rep = obedience_check(xstar, inst_fx2.dist)
        assert not rep.verdict
        gains = {(v.true_type, v.deviation): v.gain for v in rep.violations
                 if v.agent == "l"}
        # Joint-scale deviation gain: (1/4 + eps) - (1/4 - eps) = 1/4 at eps = 1/8.
        assert gains[(1, -1)] == F(1, 4)

    def test_constant_always_obedient(self, inst_fx2):
        rep = obedience_check(constant_mechanism(inst_fx2.space, F(2, 3)),
                              inst_fx2.dist)
        assert rep.verdict

    def test_verdict_matches_interim_routes(self):
        # Each obedience violation is a check_ic violation on the joint
        # scale: its gain times pi_i(type), both agents.
        rng = random.Random(17)
        column_violations = 0
        for seed in range(25):
            inst = generate(seed, (rng.randint(2, 3), rng.randint(2, 3)),
                            rng.choice(["independent", "correlated", "full-rank"]))
            x = Mechanism(inst.space,
                          np.array([[F(rng.randint(0, 4), 4)
                                     for _ in range(inst.space.shape[1])]
                                    for _ in range(inst.space.shape[0])],
                                   dtype=object))
            obedience = obedience_check(x, inst.dist)
            rep = check_ic(x, inst.dist)
            assert obedience.verdict == rep.verdict
            space = inst.space
            joint = []
            for v in rep.violations:
                i = space.agents.index(v.agent)
                weight = inst.dist.marginal(i)[space.types[i].index(v.true_type)]
                joint.append((v.agent, v.true_type, v.deviation, v.gain * weight))
            assert [(v.agent, v.true_type, v.deviation, v.gain)
                    for v in obedience.violations] == joint
            column_violations += sum(v.agent == space.agents[1]
                                     for v in obedience.violations)
        assert column_violations > 0


class TestEquilibriumProductEquality:
    def test_obedient_pairs_have_product_expectation(self):
        # Whenever the distribution is a correlated equilibrium of the game,
        # the correlated payoff equals the independent-play payoff.
        rng = random.Random(23)
        found = 0
        for seed in range(12):
            inst = generate(seed, (2, 2),
                            rng.choice(["correlated", "independent"]))
            x = sample_ic_vertex(inst.dist, rng)
            rep = obedience_check(x, inst.dist)
            assert rep.verdict
            indep = independent_counterpart(inst.dist)
            assert expectation(inst.dist, x.x) == expectation(indep, x.x)
            found += 1
        assert found == 12
