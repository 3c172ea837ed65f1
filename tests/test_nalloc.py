import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from icmech import nalloc
from icmech.core import (NoneCertificate, PreconditionError, TypeSpace,
                         constant_array, dumps_canonical)
from icmech.nalloc import (AllocationInstance, AllocationMechanism,
                           add_disposal_agent, allocation_to_dict,
                           analyze_allocation, check_ic_n,
                           construct_profitable_n, difference_additive,
                           load_allocation, non_constant_witnesses)
from icmech.oracle import generate, solve_principal_alloc
from icmech.profit import additivity_test

from . import reference
from .conftest import two_option

F = Fraction
GOLDEN_INSTANCES = Path(__file__).resolve().parent / "golden" / "instances"


def build(agents, types, marginals, values, disposal=False):
    return load_allocation({"agents": list(agents),
                            "types": {a: list(t) for a, t in zip(agents, types)},
                            "marginals": marginals, "v": values,
                            "disposal": disposal})


@pytest.fixture
def private_values():
    # v_i depends on own type only; recentered to zero mean.
    return build(("1", "2"), ((0, 1), (0, 1)),
                 {"1": ["1/2", "1/2"], "2": ["1/2", "1/2"]},
                 {"1": [["-1", "-1"], ["1", "1"]],
                  "2": [["-1", "1"], ["-1", "1"]]})


@pytest.fixture
def product_embedding():
    # Two-agent split of the product objective: v_1 - v_2 = s * t.
    v1 = [[str(F(s * t, 2)) for t in (-1, 1)] for s in (-1, 1)]
    v2 = [[str(-F(s * t, 2)) for t in (-1, 1)] for s in (-1, 1)]
    return build(("1", "2"), ((-1, 1), (-1, 1)),
                 {"1": ["1/2", "1/2"], "2": ["1/2", "1/2"]},
                 {"1": v1, "2": v2})


class TestCheckICN:
    def test_equal_split_ic(self, inst_fx4):
        n = inst_fx4.n
        parts = [constant_array(inst_fx4.space.shape, F(1, n)) for _ in range(n)]
        mech = AllocationMechanism(inst_fx4.space, parts, disposal=False)
        rep = check_ic_n(mech, inst_fx4)
        assert rep.verdict
        assert all(v == F(1, n) for v in rep.interim.values())

    def test_dictatorship_ic(self, inst_fx4):
        parts = [constant_array(inst_fx4.space.shape, 1 if i == 0 else 0)
                 for i in range(inst_fx4.n)]
        mech = AllocationMechanism(inst_fx4.space, parts, disposal=False)
        assert check_ic_n(mech, inst_fx4).verdict

    def test_report_dependent_not_ic(self, private_values):
        inst = private_values
        # Allocate to agent 1 iff agent 1 reports the high type.
        one = np.array([[F(0), F(0)], [F(1), F(1)]], dtype=object)
        parts = [one, constant_array(inst.space.shape, 1) - one]
        mech = AllocationMechanism(inst.space, parts, disposal=False)
        rep = check_ic_n(mech, inst)
        assert not rep.verdict
        assert rep.violations

    def test_infeasible_rejected(self, inst_fx4):
        parts = [constant_array(inst_fx4.space.shape, F(1, 2))
                 for _ in range(inst_fx4.n)]
        with pytest.raises(Exception):
            AllocationMechanism(inst_fx4.space, parts, disposal=False)

    @pytest.mark.parametrize("disposal", [False, True])
    def test_negative_or_inexact_share_rejected(self, inst_fx4, disposal):
        # The shares are checked on their integers: a negative share is
        # refused although every total is 1, and so is a float share.
        shape = inst_fx4.space.shape
        parts = [constant_array(shape, F(1, 3)) for _ in range(inst_fx4.n)]
        first = (0,) * len(shape)
        parts[0][first], parts[1][first], parts[2][first] = F(-1, 3), F(2, 3), F(2, 3)
        msg = "^allocation probabilities must be nonnegative rationals$"
        with pytest.raises(nalloc.SchemaError, match=msg):
            AllocationMechanism(inst_fx4.space, parts, disposal=disposal)
        parts[0][first], parts[1][first] = 1 / 3, F(1, 3)
        with pytest.raises(nalloc.SchemaError, match=msg):
            AllocationMechanism(inst_fx4.space, parts, disposal=disposal)

    def test_disposal_mechanism_total_below_one(self, inst_fx4):
        disp = AllocationInstance(inst_fx4.space, inst_fx4.marginals,
                                  inst_fx4.values, disposal=True)
        parts = [constant_array(disp.space.shape, F(1, 4))
                 for _ in range(disp.n)]
        mech = AllocationMechanism(disp.space, parts, disposal=True)
        assert check_ic_n(mech, disp).verdict


    def test_integer_check_equals_fraction_reference(self):
        # Generated allocations of 2-3 agents with 1-3 types each, with and
        # without disposal, under the LP optimum or the equal split, each
        # IC, or one of them with part of an agent's share at one profile
        # moved to another agent, which mostly is not.
        rng = random.Random(23)
        seen = set()
        for seed in range(48):
            disposal = seed % 2 == 1
            shape = tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 3)))
            inst = generate(seed, shape, "unbiased-n-alloc", disposal=disposal)
            if seed % 4 < 2:
                parts = [p.copy() for p in solve_principal_alloc(inst).mechanism.x]
            else:
                share = F(1, inst.n + disposal)
                parts = [constant_array(shape, share) for _ in range(inst.n)]
            perturbed = seed % 3 != 0
            if perturbed:
                profile = tuple(rng.randrange(k) for k in shape)
                i, j = rng.sample(range(inst.n), 2)
                moved = parts[j][profile] * F(rng.randint(1, 3), 3)
                parts[i][profile] += moved
                parts[j][profile] -= moved
            mech = AllocationMechanism(inst.space, parts, disposal)
            got, ref = check_ic_n(mech, inst), reference.check_ic_n(mech, inst)
            assert got.verdict == ref.verdict
            assert got.violations == ref.violations
            assert list(got.interim.items()) == list(ref.interim.items())
            # Reports print these values, so they stay Fractions.
            values = [v.gain for v in got.violations] + list(got.interim.values())
            assert all(type(v) is F for v in values)
            seen.add((disposal, perturbed, got.verdict))
        assert {(d, False, True) for d in (False, True)} <= seen
        assert {(d, True, False) for d in (False, True)} <= seen

class TestDifferenceAdditive:
    def test_private_values_hold(self, private_values):
        rep = difference_additive(private_values)
        assert rep.holds
        u = rep.u
        # The recovered split reproduces every pairwise difference.
        inst = private_values
        for idx, profile in zip(np.ndindex(*inst.space.shape),
                                inst.space.profiles()):
            assert inst.values[0][idx] - inst.values[1][idx] == \
                u["1"][profile[0]] - u["2"][profile[1]]

    def test_cyclic_values_violate(self, inst_fx4):
        rep = difference_additive(inst_fx4)
        assert not rep.holds
        assert rep.residual is not None
        assert any(v != 0 for v in rep.residual.reshape(-1))

    def test_common_term_cancels(self):
        # v_i = u_i(own) + h(theta) with a common h still satisfies the split.
        rng = random.Random(3)
        shape = (2, 2)
        h = [[F(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]
        inst = build(("1", "2"), ((0, 1), (0, 1)),
                     {"1": ["1/3", "2/3"], "2": ["1/4", "3/4"]},
                     {"1": [[str(h[a][b] - 1) for b in range(2)] for a in range(2)],
                      "2": [[str(h[a][b] + b) for b in range(2)] for a in range(2)]})
        assert difference_additive(inst).holds

    def test_two_agent_matches_additivity_test(self):
        # For n = 2 under independence, the split of v_1 - v_2 exists iff
        # v_1 - v_2 is additive, which the two-option module also decides.
        rng = random.Random(9)
        for seed in range(10):
            m, n = rng.randint(2, 3), rng.randint(2, 3)
            v1 = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            v2 = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            weights_l = [rng.randint(1, 4) for _ in range(m)]
            weights_r = [rng.randint(1, 4) for _ in range(n)]
            tl, tr = sum(weights_l), sum(weights_r)
            alloc = build(("1", "2"), (tuple(range(m)), tuple(range(n))),
                          {"1": [str(F(w, tl)) for w in weights_l],
                           "2": [str(F(w, tr)) for w in weights_r]},
                          {"1": [[str(x) for x in row] for row in v1],
                           "2": [[str(x) for x in row] for row in v2]})
            diff_holds = difference_additive(alloc).holds
            two_opt = two_option(
                TypeSpace(("l", "r"), (tuple(range(m)), tuple(range(n)))),
                pi=[[str(F(wi, tl) * F(wj, tr)) for wj in weights_r]
                    for wi in weights_l],
                vL=[[str(a - b) for a, b in zip(ra, rb)]
                    for ra, rb in zip(v1, v2)])
            assert diff_holds == additivity_test(two_opt).is_pi_additive


class TestConstruction:
    def test_cyclic_instance_profitable(self, inst_fx4):
        rep = construct_profitable_n(inst_fx4)
        assert rep.profitable
        assert rep.payoff > rep.vbar == 0
        assert rep.ic_report.verdict
        total = sum(v * v for v in rep.residual.reshape(-1))
        assert rep.payoff == rep.alpha * total
        # Feasibility: exact unit total at every profile.
        for idx in np.ndindex(*inst_fx4.space.shape):
            assert sum(p[idx] for p in rep.mechanism.x) == 1

    def test_private_values_certificate(self, private_values):
        res = construct_profitable_n(private_values)
        assert isinstance(res, NoneCertificate)
        assert res.method == "difference-additive"

    def test_biased_refused(self):
        inst = build(("1", "2"), ((0, 1), (0, 1)),
                     {"1": ["1/2", "1/2"], "2": ["1/2", "1/2"]},
                     {"1": [["2", "0"], ["0", "2"]],
                      "2": [["0", "0"], ["0", "0"]]})
        assert not inst.unbiased
        with pytest.raises(PreconditionError, match="unbiased"):
            construct_profitable_n(inst)

    def test_disposal_instance_runs_on_its_extension(self, inst_fx4):
        disp = AllocationInstance(inst_fx4.space, inst_fx4.marginals,
                                  inst_fx4.values, disposal=True)
        got = construct_profitable_n(disp)
        want = construct_profitable_n(disp.no_disposal)
        assert want.witness is None
        assert got.witness == "1"
        for name in ("vbar", "profitable", "payoff", "alpha", "method"):
            assert getattr(got, name) == getattr(want, name)
        assert (got.residual == want.residual).all()
        assert got.mechanism.space == want.mechanism.space
        for a, b in zip(got.mechanism.x, want.mechanism.x, strict=True):
            assert (a == b).all()
        assert got.ic_report == want.ic_report

    def test_two_agent_embedding_matches_two_option(self, product_embedding):
        rep = construct_profitable_n(product_embedding)
        assert rep.payoff == F(1, 2)
        lp = solve_principal_alloc(product_embedding)
        assert lp.value == F(1, 2)


class TestDisposal:
    def test_no_disposal_is_built_once(self, inst_fx4):
        assert inst_fx4.no_disposal is inst_fx4
        disp = AllocationInstance(inst_fx4.space, inst_fx4.marginals,
                                  inst_fx4.values, disposal=True)
        ext = disp.no_disposal
        assert ext is disp.no_disposal
        assert ext.space.agents == disp.space.agents + ("disposal",)
        assert ext.no_disposal is ext

    def test_reduction_is_verbatim(self, inst_fx4):
        disp = AllocationInstance(inst_fx4.space, inst_fx4.marginals,
                                  inst_fx4.values, disposal=True)
        direct = construct_profitable_n(disp)
        pipeline = construct_profitable_n(add_disposal_agent(disp))
        assert direct.payoff == pipeline.payoff
        assert direct.alpha == pipeline.alpha
        assert (direct.residual == pipeline.residual).all()
        for a, b in zip(direct.mechanism.x, pipeline.mechanism.x):
            assert (a == b).all()
        assert direct.witness == "1"

    def test_own_type_values_not_profitable(self, private_values):
        centered = tuple(v - constant_array(private_values.space.shape,
                                            private_values.expected_values[i])
                         for i, v in enumerate(private_values.values))
        disp = AllocationInstance(private_values.space, private_values.marginals,
                                  centered, disposal=True)
        assert non_constant_witnesses(disp) == []
        res = construct_profitable_n(disp)
        assert isinstance(res, NoneCertificate)

    def test_single_agent_trivially_constant(self):
        inst = build(("1",), ((0, 1),), {"1": ["1/2", "1/2"]},
                     {"1": ["1", "-1"]}, disposal=True)
        # One agent: own value varies with own type only.
        assert non_constant_witnesses(inst) == []


class TestOracleAgreement:
    def test_unbiased_sweep(self):
        shapes = [(2, 2), (2, 3), (2, 2, 2), (3, 2, 2)]
        for seed in range(16):
            inst = generate(seed, shapes[seed % 4], "unbiased-n-alloc")
            res = construct_profitable_n(inst)
            lp = solve_principal_alloc(inst)
            if isinstance(res, NoneCertificate):
                assert not lp.profitable
                assert lp.value == inst.vbar
            else:
                assert lp.profitable
                assert lp.value >= res.payoff > inst.vbar

    def test_disposal_sweep(self):
        for seed in range(8):
            inst = generate(seed, (2, 2), "unbiased-n-alloc", disposal=True)
            res = construct_profitable_n(inst)
            lp = solve_principal_alloc(inst)
            assert isinstance(res, NoneCertificate) == (not lp.profitable)

    def test_necessity_without_unbiasedness(self):
        # Biased principals whose values split per-type never beat vbar.
        rng = random.Random(77)
        for _ in range(10):
            n_agents = rng.randint(2, 3)
            shape = tuple(rng.randint(2, 3) for _ in range(n_agents))
            agents = tuple(str(i + 1) for i in range(n_agents))
            types = tuple(tuple(range(k)) for k in shape)
            margs = {}
            for a, k in zip(agents, shape):
                w = [rng.randint(1, 4) for _ in range(k)]
                margs[a] = [str(F(x, sum(w))) for x in w]
            u = {a: [rng.randint(-3, 3) for _ in range(k)]
                 for a, k in zip(agents, shape)}
            common = np.empty(shape, dtype=object)
            for idx in np.ndindex(*shape):
                common[idx] = F(rng.randint(-2, 2))
            values = {}
            for i, a in enumerate(agents):
                arr = np.empty(shape, dtype=object)
                for idx in np.ndindex(*shape):
                    arr[idx] = F(u[a][idx[i]]) + common[idx]
                values[a] = [[str(x) for x in row] for row in
                             arr.reshape(shape[0], -1)]
                values[a] = _reshape_strings(arr)
            inst = build(agents, types, margs, values)
            assert difference_additive(inst).holds
            lp = solve_principal_alloc(inst)
            assert lp.value == inst.vbar
            assert not lp.profitable

    def test_analyze_biased_condition_violated_uses_lp(self):
        inst = build(("1", "2"), ((0, 1), (0, 1)),
                     {"1": ["1/2", "1/2"], "2": ["1/2", "1/2"]},
                     {"1": [["3", "0"], ["0", "3"]],
                      "2": [["0", "0"], ["0", "0"]]})
        assert not inst.unbiased
        assert not difference_additive(inst).holds
        res = analyze_allocation(inst)
        assert not res["exact_iff"]
        assert res["basis"] == "ic-constraints-lp"

    @pytest.mark.parametrize("name", ["fx4-disposal", "alloc-biased-disposal"])
    def test_analyze_builds_the_disposal_extension_once(self, name, monkeypatch):
        # The construction (fx4-disposal), the LP (biased) and the analysis
        # that picks between them all run on the instance's one extension.
        inst = load_allocation(str(GOLDEN_INSTANCES / f"{name}.json"))
        calls = []

        def counting(disp):
            calls.append(disp)
            return add_disposal_agent(disp)

        monkeypatch.setattr(nalloc, "add_disposal_agent", counting)
        res = analyze_allocation(inst)
        assert calls == [inst]
        assert res["basis"] == ("ic-constraints-lp" if "biased" in name
                                else "residual-construction")
        if "biased" in name:
            with pytest.raises(PreconditionError, match="unbiased"):
                construct_profitable_n(inst)
        else:
            construct_profitable_n(inst)
        solve_principal_alloc(inst)
        assert calls == [inst]


def _reshape_strings(arr):
    if arr.ndim == 1:
        return [str(v) for v in arr]
    return [_reshape_strings(arr[i]) for i in range(arr.shape[0])]


class TestSerialization:
    def test_round_trip(self, inst_fx4):
        text = dumps_canonical(allocation_to_dict(inst_fx4))
        again = load_allocation(text)
        assert dumps_canonical(allocation_to_dict(again)) == text

    def test_reserved_agent_name(self, inst_fx4):
        disp = AllocationInstance(inst_fx4.space, inst_fx4.marginals,
                                  inst_fx4.values, disposal=True)
        aug = add_disposal_agent(disp)
        assert aug.space.agents[-1] == "disposal"
        assert not aug.disposal
        assert aug.vbar == 0
