import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icmech import Mechanism, PreconditionError, belief, constant_mechanism, ic
from icmech.core import JointDist, TypeSpace
from icmech.fixtures import fixture
from icmech.game import maximin
from icmech.ic import check_ic, classify_extremes, spans
from icmech.numerics import solve_lp
from icmech.oracle import generate, solve_principal

from . import reference
from .reference import (RationalLP, independent_counterpart, integer_lp,
                        sample_ic_vertex)
from .conftest import matching_mechanism, two_option
from .test_numerics import run_optimized

F = Fraction
KINDS = ("independent", "correlated", "full-rank", "conditionally-independent")
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


class TestCheckIC:
    def test_matching_ic_under_independence(self, xstar, inst_fx1):
        rep = check_ic(xstar, inst_fx1.dist)
        assert rep.verdict
        assert rep.common_value == F(1, 2)
        assert all(v == F(1, 2) for v in rep.interim.values())

    def test_interim_table_is_built_on_first_read(self, xstar, inst_fx1, monkeypatch):
        # Only check-ic prints the interim table: the check makes its one
        # Fraction, the common value, and the table's are made when it is
        # first read, once.
        made = []
        monkeypatch.setattr(ic, "Fraction", lambda *args: made.append(args) or F(*args))
        rep = check_ic(xstar, inst_fx1.dist)
        assert len(made) == 1
        table = rep.interim
        assert len(made) == 1 + len(table) == 9
        assert rep.interim is table and len(made) == 9

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

    def test_disagreeing_routes_raise(self, inst_fx2):
        # pi's numerators doubled after construction, which checked that
        # they sum to the denominator: E[x] and the prior expectations
        # double, while the interim tables, each row over its own marginal,
        # stay.  The constant mechanism still passes the raw inequalities
        # and fails the other two routes.
        dist = JointDist(inst_fx2.space, inst_fx2.dist.den, inst_fx2.dist.nums)
        dist.nums = dist.nums * 2
        with pytest.raises(RuntimeError,
                           match="IC check failed: the three IC routes agree"):
            check_ic(constant_mechanism(inst_fx2.space, F(1, 3)), dist)

    def test_disagreeing_routes_raise_under_python_o(self):
        script = (
            "from icmech import constant_mechanism\n"
            "from icmech.fixtures import fixture\n"
            "from icmech.ic import check_ic\n"
            "inst = fixture('fx2')\n"
            "inst.dist.nums = inst.dist.nums * 2\n"
            "try:\n"
            "    check_ic(constant_mechanism(inst.space, '1/3'), inst.dist)\n"
            "except RuntimeError as e:\n"
            "    print('debug' if __debug__ else 'optimized', e)\n")
        assert run_optimized(script) == \
            "optimized IC check failed: the three IC routes agree\n"


@st.composite
def instances_with_mechanisms(draw):
    """An instance of one of the four kinds, 1x1 to 5x5, with a mechanism
    on a random grid of sixths, a constant one or the LP-optimal one."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    inst = generate(draw(st.integers(0, 10**6)), (m, n),
                    draw(st.sampled_from(KINDS)), k=draw(st.integers(1, 3)))
    rng = random.Random(draw(st.integers(0, 10**6)))
    mechanism = draw(st.sampled_from(("grid", "constant", "optimal")))
    if mechanism == "optimal":
        return inst, solve_principal(inst).mechanism
    if mechanism == "constant":
        return inst, constant_mechanism(inst.space, F(rng.randint(0, 6), 6))
    return inst, Mechanism(inst.space, np.array(
        [[F(rng.randint(0, 6), 6) for _ in range(n)] for _ in range(m)],
        dtype=object))


@PROPERTY
@given(instances_with_mechanisms())
# Ex-ante indifferent but informative: matching under correlation.
@example((fixture("fx2"), matching_mechanism(fixture("fx2").space)))
def test_integer_check_ic_equals_fraction_reference(case):
    inst, x = case
    got, ref = check_ic(x, inst.dist), reference.check_ic(x, inst.dist)
    assert got.verdict == ref.verdict
    assert got.violations == ref.violations
    assert list(got.interim.items()) == list(ref.interim.items())
    assert got.common_value == ref.common_value
    assert got.ex_ante_indifferent == ref.ex_ante_indifferent
    assert got.uninformative == ref.uninformative
    # Reports print these values, so they stay Fractions.
    values = [v.gain for v in got.violations] + list(got.interim.values())
    values += [got.common_value] if got.verdict else []
    assert all(type(v) is F for v in values)


def value_rows(dist):
    """belief.value_rows over x and the common interim value c, a last
    column, as dense rows."""
    rows = belief.value_rows(dist)
    return reference.dense(rows, dist.space.n_profiles + 1)[0]


class TestICPolytope:
    def test_fx1_xstar_meets_every_row(self, inst_fx1, xstar):
        rows = value_rows(inst_fx1.dist)
        assert len(rows) == 3
        flat = list(xstar.x.reshape(-1)) + [check_ic(xstar, inst_fx1.dist).common_value]
        for row in rows:
            assert sum(c * v for c, v in zip(row, flat)) == 0

    def test_full_rank_leaves_only_constants(self, inst_fx2):
        rows = value_rows(inst_fx2.dist)
        # The solution space of the homogeneous rows is exactly x = c J.
        n = inst_fx2.space.n_profiles
        assert reference.rank(rows) == n
        ones = [F(1)] * (n + 1)
        for row in rows:
            assert sum(c * v for c, v in zip(row, ones)) == 0

    def test_singleton_space_leaves_x_free(self):
        inst = two_option(TypeSpace(("l", "r"), ((0,), (0,))),
                          pi=[["1"]], vL=[["-1"]])
        # x = c, and c is free.
        assert value_rows(inst.dist) == [[F(1), F(-1)]]


def max_spread(dist) -> Fraction:
    """Largest pairwise gap attainable by an IC mechanism, via 2(N-1) LPs
    over x and the common interim value c."""
    rows = value_rows(dist)
    n = dist.space.n_profiles
    spread = F(0)
    for k in range(1, n):
        for sign in (1, -1):
            obj = [F(0)] * (n + 1)
            obj[k] = F(sign)
            obj[0] = F(-sign)
            sol = solve_lp(integer_lp(RationalLP(objective=obj, a_eq=rows,
                                                 b_eq=[F(0)] * len(rows),
                                                 lower=[F(0)] * (n + 1),
                                                 upper=[F(1)] * (n + 1))))
            spread = max(spread, sol.value)
    return spread


class TestSpans:
    def test_everything_spans_its_independent_counterpart(self):
        for seed in range(8):
            inst = generate(seed, (2, 3), "correlated")
            indep = independent_counterpart(inst.dist)
            verdict = spans(inst.dist, indep)
            assert verdict.spans
            # Stored coefficients reproduce each target belief exactly.
            for (agent, t), coeffs in verdict.coefficients.items():
                i = inst.dist.space.agents.index(agent)
                cond = reference.conditional(inst.dist, i)
                target = reference.conditional(indep, i)[inst.dist.space.types[i].index(t)]
                labels = inst.dist.space.types[i]
                for s in range(len(target)):
                    combo = sum(coeffs[lab] * cond[a, s]
                                for a, lab in enumerate(labels))
                    assert combo == target[s]

    def test_full_rank_spans_everything(self, inst_fx2):
        for seed in range(5):
            other = generate(seed, (2, 2), "correlated")
            relabeled = JointDist(inst_fx2.space, other.dist.den, other.dist.nums)
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
            weak_dist = independent_counterpart(strong.dist)
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
            assert check_ic(x, independent_counterpart(inst.dist)).verdict

    def test_full_rank_collapse_spread_zero(self):
        for seed in range(6):
            inst = generate(seed, (2, 2), "full-rank")
            assert max_spread(inst.dist) == 0

    def test_independent_spread_positive(self, inst_fx1):
        assert max_spread(inst_fx1.dist) > 0
