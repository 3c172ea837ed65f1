"""Acceptance criteria, one test per criterion.

Every check is an exact rational equality (no tolerances).  Each test
prints a single PASS line with its runtime; run with ``pytest -s`` to see
them on passing runs.  Budgets are wall-clock upper bounds.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from icmech import NoneCertificate, constant_mechanism, expectation
from icmech.core import constant_array
from icmech.game import maximin
from icmech.ic import check_ic, spans
from icmech.nalloc import (AllocationInstance, add_disposal_agent,
                           check_ic_n, construct_profitable_n,
                           difference_additive, load_allocation)
from icmech.oracle import generate, solve_principal, solve_principal_alloc
from icmech.profit import (ConstructionResult, additivity_test,
                           construct_profitable, decompose,
                           match_your_opponent, support_is_acyclic,
                           transport_criterion)
from tests.conftest import matching_mechanism
from tests.reference import (independent_counterpart, sample_ic_combination,
                             sample_ic_vertex)
from tests.test_ic import max_spread

F = Fraction


@contextmanager
def criterion(number: int, budget_seconds: float, label: str):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    line = f"criterion {number}: PASS ({elapsed:.2f}s / budget {budget_seconds:.0f}s) - {label}"
    print(line)
    assert elapsed < budget_seconds, f"criterion {number} exceeded its runtime budget"


def test_criterion_1_worked_example(inst_fx1, inst_fx2):
    with criterion(1, 1.0, "matching mechanism: IC and optimal under "
                           "independence, dead under full-rank correlation"):
        xstar = matching_mechanism(inst_fx1.space)
        res1 = solve_principal(inst_fx1)
        assert res1.value == F(1, 2)
        assert (res1.mechanism.x == xstar.x).all()
        assert check_ic(xstar, inst_fx1.dist).verdict

        assert not check_ic(xstar, inst_fx2.dist).verdict
        res2 = solve_principal(inst_fx2)
        assert res2.value == 0


def test_criterion_2_interim_values_equal_game_value():
    with criterion(2, 10.0, "100 IC mechanisms x 20 distributions: every "
                            "interim expectation equals the maximin value"):
        rng = random.Random(202)
        kinds = ["independent", "correlated", "full-rank",
                 "conditionally-independent"]
        shapes = [(2, 2), (2, 3), (3, 3), (3, 2)]
        checked = 0
        for i in range(20):
            kind = kinds[i % 4]
            inst = generate(i, shapes[i % 4], kind, k=2)
            dist = inst.dist
            mechanisms = [sample_ic_vertex(dist, rng) for _ in range(3)]
            if dist.is_independent():
                ml, mr = dist.marginals()
                mechanisms += [sample_ic_combination(inst.space, ml, mr, rng)
                               for _ in range(2)]
            else:
                mechanisms += [sample_ic_vertex(dist, rng) for _ in range(2)]
            for x in mechanisms:
                rep = check_ic(x, dist)
                assert rep.verdict
                value = maximin(x).value
                assert all(v == value for v in rep.interim.values())
                checked += 1
        assert checked == 100


def test_criterion_3_spanning_monotonicity_and_collapse():
    with criterion(3, 20.0, "50 spanning pairs shrink the IC set; 20 "
                            "full-rank distributions leave only constants; "
                            "mixture rank bound"):
        rng = random.Random(303)
        pairs = 0
        for seed in range(25):
            strong = generate(seed, (2, 2), "full-rank")
            weak = generate(seed + 1000, (2, 2),
                            ["correlated", "independent"][seed % 2])
            assert spans(strong.dist, weak.dist).spans
            for _ in range(2):
                x = sample_ic_vertex(strong.dist, rng)
                assert check_ic(x, weak.dist).verdict
            pairs += 1
        for seed in range(25):
            shape = [(2, 3), (3, 3)][seed % 2]
            strong = generate(seed + 2000, shape, "correlated")
            weak_dist = independent_counterpart(strong.dist)
            assert spans(strong.dist, weak_dist).spans
            for _ in range(2):
                x = sample_ic_vertex(strong.dist, rng)
                assert check_ic(x, weak_dist).verdict
            pairs += 1
        assert pairs == 50

        for seed in range(20):
            shape = [(2, 2), (3, 3)][seed % 2]
            inst = generate(seed + 3000, shape, "full-rank")
            assert max_spread(inst.dist) == 0

        for seed in range(10):
            k = 2 + seed % 2
            inst = generate(seed + 4000, (3, 3), "conditionally-independent", k=k)
            assert inst.dist.matrix_rank() <= k


def test_criterion_4_three_way_profitability_agreement(inst_fx1, inst_fx2,
                                                        inst_fx3, inst_fx5):
    with criterion(4, 60.0, "ex-ante indifferent instances: construction, "
                            "additivity residual, transport sign and direct "
                            "LP agree; payoffs exact"):
        def run_one(inst):
            res = construct_profitable(inst)
            built = isinstance(res, ConstructionResult)
            add = additivity_test(inst)
            transport = transport_criterion(inst)
            lp = solve_principal(inst)
            non_additive = not add.is_pi_additive
            assert built == non_additive == (transport.value > 0) == lp.profitable
            if built:
                total = sum(v * v for v in add.w_hat.reshape(-1))
                assert res.payoff == res.epsilon * total
                assert res.payoff == expectation(inst.dist,
                                                 inst.v * res.mechanism.x)
            return res

        r1 = run_one(inst_fx1)
        assert r1.payoff == F(1, 2)
        run_one(inst_fx3)
        run_one(inst_fx5)
        # Outside the ex-ante indifferent regime only the sign agreement
        # between the transport value and the direct LP applies.
        assert (transport_criterion(inst_fx2).value > 0) == \
            solve_principal(inst_fx2).profitable

        shapes = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4)]
        for seed in range(200):
            inst = generate(seed, shapes[seed % 6], "independent", zero_mean=True)
            assert inst.objective.expected_value == 0
            run_one(inst)


def test_criterion_5_extreme_point_decomposition(inst_fx1):
    with criterion(5, 10.0, "100 IC mechanisms decompose exactly into "
                            "acyclic extreme points"):
        dec = decompose(constant_mechanism(inst_fx1.space, 1),
                        inst_fx1.dist.marginal(0), inst_fx1.dist.marginal(1))
        assert sorted(dec.gammas) == [F(1, 2), F(1, 2)]
        supports = {tuple(sorted(idx for idx in np.ndindex(2, 2) if p[idx] != 0))
                    for p in dec.extreme_points}
        assert supports == {((0, 0), (1, 1)), ((0, 1), (1, 0))}

        rng = random.Random(505)
        shapes = [(2, 2), (2, 3), (3, 3), (3, 4)]
        for i in range(100):
            inst = generate(i + 5000, shapes[i % 4], "independent")
            ml, mr = inst.dist.marginals()
            x = (sample_ic_vertex(inst.dist, rng) if i % 2
                 else sample_ic_combination(inst.space, ml, mr, rng))
            d = decompose(x, ml, mr)
            outer = np.multiply.outer(ml, mr)
            recon = constant_array(inst.space.shape, 0)
            for g, p in zip(d.gammas, d.extreme_points):
                assert g >= 0
                assert support_is_acyclic(p)
                cells = sum(1 for idx in np.ndindex(*p.shape) if p[idx] != 0)
                assert cells <= sum(inst.space.shape) - 1
                recon = recon + p / outer * g
            assert (recon == x.x).all()


def test_criterion_6_matching_analysis(inst_fx3):
    with criterion(6, 1.0, "3x3 product objective: diagonal matching wins, "
                           "its sign matches the direct LP"):
        rep = match_your_opponent(inst_fx3)
        assert rep.best_matching == [(-1, -1), (0, 0), (1, 1)]
        assert rep.best_value == F(2, 9)
        assert rep.diagonal_sum == 2
        assert rep.diagonal_sum > 0
        oracle = solve_principal(inst_fx3)
        assert rep.profitable == oracle.profitable is True


def test_criterion_7_allocation_suite(inst_fx4):
    with criterion(7, 60.0, "n-agent allocation: construction audit, "
                            "disposal reduction, 100-instance LP agreement"):
        rep = difference_additive(inst_fx4)
        assert not rep.holds

        built = construct_profitable_n(inst_fx4)
        assert built.ic_report.verdict
        for idx in np.ndindex(*inst_fx4.space.shape):
            assert sum(p[idx] for p in built.mechanism.x) == 1
        total = sum(v * v for v in built.residual.reshape(-1))
        assert built.payoff == built.alpha * total
        assert built.payoff > built.vbar == 0
        direct = F(0)
        for idx in np.ndindex(*inst_fx4.space.shape):
            w = inst_fx4.dist.p[idx]
            for i in range(inst_fx4.n):
                direct += w * inst_fx4.values[i][idx] * built.mechanism.x[i][idx]
        assert direct == built.payoff

        disp = AllocationInstance(inst_fx4.space, inst_fx4.marginals,
                                  inst_fx4.values, disposal=True)
        via_disposal = construct_profitable_n(disp)
        via_pipeline = construct_profitable_n(add_disposal_agent(disp))
        assert via_disposal.payoff == via_pipeline.payoff
        assert via_disposal.alpha == via_pipeline.alpha
        assert (via_disposal.residual == via_pipeline.residual).all()
        for a, b in zip(via_disposal.mechanism.x, via_pipeline.mechanism.x):
            assert (a == b).all()

        private = load_allocation({
            "agents": ["1", "2"], "types": {"1": [0, 1], "2": [0, 1]},
            "marginals": {"1": ["1/2", "1/2"], "2": ["1/2", "1/2"]},
            "v": {"1": [["-1", "-1"], ["1", "1"]], "2": [["-1", "1"], ["-1", "1"]]},
            "disposal": False})
        assert isinstance(construct_profitable_n(private), NoneCertificate)

        shapes = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 2, 2), (3, 3, 2),
                  (2, 2), (2, 3), (2, 2, 2), (3, 3, 3)]
        disagreements = 0
        for i in range(100):
            disposal = i % 3 == 0
            inst = generate(i + 7000, shapes[i % 10], "unbiased-n-alloc",
                            disposal=disposal)
            verdict = construct_profitable_n(inst)
            predicted = not isinstance(verdict, NoneCertificate)
            lp = solve_principal_alloc(inst)
            if predicted != lp.profitable:
                disagreements += 1
            if predicted:
                assert lp.value >= verdict.payoff
                assert check_ic_n(verdict.mechanism, inst.no_disposal).verdict
        assert disagreements == 0
