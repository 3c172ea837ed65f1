import random
from fractions import Fraction

import numpy as np
import pytest

from icmech import PreconditionError, constant_mechanism
from icmech.core import JointDist, TypeSpace
from icmech.game import maximin
from icmech.ic import check_ic, classify_extremes, ic_polytope, spans
from icmech.numerics import LinearProgram, rank, solve_lp
from icmech.oracle import generate, sample_ic_vertex

from . import reference
from .conftest import two_option

F = Fraction


class TestCheckIC:
    def test_matching_ic_under_independence(self, xstar, inst_fx1):
        rep = check_ic(xstar, inst_fx1.dist)
        assert rep.verdict
        assert rep.common_value == F(1, 2)
        assert all(v == F(1, 2) for v in rep.interim.values())

    def test_matching_not_ic_under_correlation(self, xstar, inst_fx2):
        rep = check_ic(xstar, inst_fx2.dist)
        assert not rep.verdict
        assert rep.ex_ante_indifferent
        assert not rep.uninformative
        assert rep.common_value is None
        # Interim-scale gain: 3/4 - 1/4.
        gains = {(v.agent, v.true_type): v.gain for v in rep.violations}
        assert gains[("l", 1)] == F(1, 2)

    def test_constant_ic_everywhere(self, inst_fx2):
        rep = check_ic(constant_mechanism(inst_fx2.space, F(1, 3)),
                       inst_fx2.dist)
        assert rep.verdict
        assert rep.common_value == F(1, 3)

    def test_ic_value_equals_maximin(self):
        rng = random.Random(31)
        for seed in range(15):
            inst = generate(seed, (rng.randint(2, 3), rng.randint(2, 3)),
                            rng.choice(["independent", "correlated",
                                        "full-rank", "conditionally-independent"]),
                            k=2)
            x = sample_ic_vertex(inst.dist, rng)
            rep = check_ic(x, inst.dist)
            assert rep.verdict
            assert rep.common_value == maximin(x).value


class TestICPolytope:
    def test_fx1_has_four_rows(self, inst_fx1, xstar):
        rows = ic_polytope(inst_fx1.dist)
        assert len(rows) == 4
        flat = [xstar.x[idx] for idx in np.ndindex(2, 2)]
        for row in rows:
            assert sum(c * v for c, v in zip(row, flat)) == 0

    def test_full_rank_leaves_only_constants(self, inst_fx2):
        rows = ic_polytope(inst_fx2.dist)
        # Solution space of the homogeneous block is exactly the constants.
        n = inst_fx2.space.n_profiles
        assert rank(rows) == n - 1
        ones = [F(1)] * n
        for row in rows:
            assert sum(c * v for c, v in zip(row, ones)) == 0

    def test_singleton_space_empty_block(self):
        inst = two_option(TypeSpace(("l", "r"), ((0,), (0,))),
                          pi=[["1"]], vL=[["-1"]])
        assert ic_polytope(inst.dist) == []


def max_spread(dist) -> Fraction:
    """Largest pairwise gap attainable by an IC mechanism, via 2(N-1) LPs."""
    rows = ic_polytope(dist)
    n = dist.space.n_profiles
    spread = F(0)
    for k in range(1, n):
        for sign in (1, -1):
            obj = [F(0)] * n
            obj[k] = F(sign)
            obj[0] = F(-sign)
            sol = solve_lp(LinearProgram(objective=obj, a_eq=rows,
                                         b_eq=[F(0)] * len(rows),
                                         lower=[F(0)] * n, upper=[F(1)] * n))
            assert sol.status == "optimal"
            spread = max(spread, sol.value)
    return spread


class TestSpans:
    def test_everything_spans_its_independent_counterpart(self):
        for seed in range(8):
            inst = generate(seed, (2, 3), "correlated")
            indep = inst.dist.independent_counterpart()
            verdict = spans(inst.dist, indep)
            assert verdict.spans
            # Stored coefficients reproduce each target belief exactly.
            for (agent, t), coeffs in verdict.coefficients.items():
                i = inst.dist.space.agent_index(agent)
                cond = reference.conditional(inst.dist, i)
                target = reference.conditional(indep, i)[inst.dist.space.position(i, t)]
                labels = inst.dist.space.types[i]
                for s in range(len(target)):
                    combo = sum(coeffs[lab] * cond[a, s]
                                for a, lab in enumerate(labels))
                    assert combo == target[s]

    def test_full_rank_spans_everything(self, inst_fx2):
        for seed in range(5):
            other = generate(seed, (2, 2), "correlated")
            relabeled = JointDist(inst_fx2.space, other.dist.p)
            assert spans(inst_fx2.dist, relabeled).spans

    def test_independent_does_not_span_full_rank(self, inst_fx1, inst_fx2):
        verdict = spans(inst_fx1.dist, inst_fx2.dist)
        assert not verdict.spans
        assert verdict.witnesses

    def test_space_mismatch_rejected(self, inst_fx1, inst_fx3):
        with pytest.raises(PreconditionError):
            spans(inst_fx1.dist, inst_fx3.dist)


class TestClassifyExtremes:
    def test_full_rank_maximal(self, inst_fx2):
        cls = classify_extremes(inst_fx2.dist)
        assert cls["maximal"] and not cls["minimal"]

    def test_independent_minimal(self, inst_fx1):
        cls = classify_extremes(inst_fx1.dist)
        assert cls["minimal"] and not cls["maximal"]

    def test_singleton_both(self):
        inst = two_option(TypeSpace(("l", "r"), ((0,), (0,))),
                          pi=[["1"]], vL=[["0"]])
        cls = classify_extremes(inst.dist)
        assert cls["maximal"] and cls["minimal"]

    def test_rectangular_full_rank(self):
        # 3x2 with rank 2: spans everything that spans it.
        inst = two_option(
            TypeSpace(("l", "r"), ((0, 1, 2), (0, 1))),
            pi=[["1/4", "1/12"], ["1/12", "1/4"], ["1/6", "1/6"]],
            vL=[["0", "0"], ["0", "0"], ["0", "0"]])
        assert inst.dist.matrix_rank() == 2
        assert classify_extremes(inst.dist)["maximal"]


class TestMonotonicity:
    def test_spanning_shrinks_ic_set(self):
        # If pi spans pi~, every mechanism IC under pi stays IC under pi~.
        rng = random.Random(47)
        pairs = 0
        for seed in range(10):
            strong = generate(seed, (2, 2), "full-rank")
            weak = generate(seed + 100, (2, 2),
                            rng.choice(["correlated", "independent"]))
            assert spans(strong.dist, weak.dist).spans
            for _ in range(2):
                x = sample_ic_vertex(strong.dist, rng)
                assert check_ic(x, weak.dist).verdict
            pairs += 1
        for seed in range(10):
            strong = generate(seed, (3, 3), "correlated")
            weak_dist = strong.dist.independent_counterpart()
            assert spans(strong.dist, weak_dist).spans
            for _ in range(2):
                x = sample_ic_vertex(strong.dist, rng)
                assert check_ic(x, weak_dist).verdict
            pairs += 1
        assert pairs == 20

    def test_ic_under_correlation_implies_ic_under_independence(self):
        rng = random.Random(53)
        for seed in range(10):
            inst = generate(seed, (2, 3), "correlated")
            x = sample_ic_vertex(inst.dist, rng)
            assert check_ic(x, inst.dist.independent_counterpart()).verdict

    def test_full_rank_collapse_spread_zero(self):
        for seed in range(6):
            inst = generate(seed, (2, 2), "full-rank")
            assert max_spread(inst.dist) == 0

    def test_independent_spread_positive(self, inst_fx1):
        assert max_spread(inst_fx1.dist) > 0
