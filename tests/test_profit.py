import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icmech import (Mechanism, NoneCertificate, PreconditionError,
                    constant_mechanism, expectation)
from icmech.core import Instance, JointDist, TypeSpace, constant_array, normalize
from icmech.ic import check_ic
from icmech.numerics import solve_lp
from icmech.oracle import generate, solve_principal
from icmech.profit import (ConstructionResult, _best_matching_lp,
                           additivity_test, construct_profitable, decompose,
                           is_supermodular, match_your_opponent, orthogonal,
                           support_is_acyclic, transport_criterion)

from . import reference
from .reference import (RationalLP, independent_counterpart, integer_lp,
                        sample_ic_vertex)
from .conftest import two_option

F = Fraction
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)
KINDS = ("independent", "correlated", "full-rank", "conditionally-independent")


def reference_transport(inst):
    """solve_lp over the marginal rows and the reference update rows."""
    m, n = inst.space.shape
    ml, mr = inst.dist.marginals()
    v_hat = reference.v_hat(inst)
    ortho = reference.orthogonality_rows(inst.dist)
    return solve_lp(integer_lp(RationalLP(
        objective=list(v_hat.reshape(-1)),
        a_eq=reference.marginal_rows((m, n)) + ortho,
        b_eq=list(ml) + list(mr) + [F(0)] * len(ortho), upper=[F(1)] * (m * n))))


class TestAdditivity:
    def test_additive_objective_detected(self, inst_fx5):
        rep = additivity_test(inst_fx5)
        assert rep.is_pi_additive
        assert all(v == 0 for v in rep.w_hat.reshape(-1))
        v_l, v_r = rep.additive_parts
        for i, s in enumerate(inst_fx5.space.types[0]):
            for j, t in enumerate(inst_fx5.space.types[1]):
                assert v_l[i] + v_r[j] == inst_fx5.v[i, j]

    def test_product_objective_not_additive(self, inst_fx1):
        rep = additivity_test(inst_fx1)
        assert not rep.is_pi_additive
        # Residual is the full weighted objective: s*t/4.
        assert rep.w_hat[0, 0] == F(1, 4)
        assert rep.w_hat[0, 1] == F(-1, 4)
        assert (rep.w_hat == rep.w).all()
        assert all(v == 0 for v in rep.u_hat.reshape(-1))

    def test_full_rank_makes_everything_additive(self, inst_fx2):
        assert additivity_test(inst_fx2).is_pi_additive

    def test_decomposition_orthogonality(self):
        for seed in range(6):
            inst = generate(seed, (3, 2), "correlated")
            rep = additivity_test(inst)
            assert (rep.u_hat + rep.w_hat == rep.w).all()
            flat = list(rep.w_hat.reshape(-1))
            for g in reference.conditional_section_basis(inst.dist):
                assert sum(a * b for a, b in zip(flat, g)) == 0


class TestConstruction:
    def test_product_objective_yields_matching(self, inst_fx1, xstar):
        res = construct_profitable(inst_fx1)
        assert isinstance(res, ConstructionResult)
        assert res.epsilon == 2
        assert res.payoff == F(1, 2)
        assert (res.mechanism.x == xstar.x).all()
        assert res.ic_report.verdict

    def test_additive_objective_certified_impossible(self, inst_fx5):
        res = construct_profitable(inst_fx5)
        assert isinstance(res, NoneCertificate)
        assert res.method == "zero-projection-residual"

    def test_biased_instance_falls_back_to_lp(self, inst_fx2):
        res = construct_profitable(inst_fx2)
        assert isinstance(res, NoneCertificate)
        assert res.method == "ic-polytope-lp"
        assert res.details["lp_value"] == 0

    def test_lp_fallback_checks_ic_once(self, monkeypatch):
        # The fallback reuses the report solve_principal checked its
        # optimum with, instead of checking the same mechanism again.
        checked = []

        def recording_check_ic(x, dist):
            checked.append(x)
            return check_ic(x, dist)

        for module in ("oracle", "profit"):
            monkeypatch.setattr(f"icmech.{module}.check_ic", recording_check_ic)
        inst = generate(0, (3, 3), "independent")
        res = construct_profitable(inst)
        assert res.method == "ic-polytope-lp"
        assert checked == [res.mechanism]
        assert res.ic_report == check_ic(res.mechanism, inst.dist)

    def test_construction_audits(self):
        built = 0
        for seed in range(40):
            inst = generate(seed, (3, 3), "independent", zero_mean=True)
            res = construct_profitable(inst)
            if isinstance(res, NoneCertificate):
                continue
            built += 1
            rep = check_ic(res.mechanism, inst.dist)
            assert rep.verdict
            assert res.payoff == expectation(inst.dist,
                                             inst.v * res.mechanism.x)
            assert res.payoff > 0
        assert built >= 30  # generic objectives are non-additive


class TestTransport:
    def brute_force_value(self, inst):
        """Independent route: enumerate the vertices of the transport LP."""
        m, n = inst.space.shape
        ml, mr = inst.dist.marginals()
        v_hat = reference.v_hat(inst)
        obj = [v_hat[i, j] for i in range(m) for j in range(n)]
        a_eq = []
        b_eq = []
        for i in range(m):
            row = [F(0)] * (m * n)
            for j in range(n):
                row[i * n + j] = F(1)
            a_eq.append(row)
            b_eq.append(ml[i])
        for j in range(n):
            row = [F(0)] * (m * n)
            for i in range(m):
                row[i * n + j] = F(1)
            a_eq.append(row)
            b_eq.append(mr[j])
        if not inst.dist.is_independent():
            extra = reference.orthogonality_rows(inst.dist)
            a_eq.extend(extra)
            b_eq.extend([F(0)] * len(extra))
        lp = RationalLP(objective=obj, a_eq=a_eq, b_eq=b_eq,
                        lower=[F(0)] * (m * n), upper=[F(1)] * (m * n))
        vertices = reference.enumerate_vertices(lp)
        return max(sum(c * x for c, x in zip(obj, v)) for v in vertices)

    def test_product_objective_value(self, inst_fx1):
        res = transport_criterion(inst_fx1)
        assert res.profitable
        assert res.value == self.brute_force_value(inst_fx1)
        # The optimizer concentrates on the matched profiles.
        assert res.optimizer.p[0, 0] == F(1, 2)
        assert res.optimizer.p[1, 1] == F(1, 2)

    def test_additive_objective_value_zero(self, inst_fx5):
        res = transport_criterion(inst_fx5)
        assert res.value == 0
        assert not res.profitable

    def test_correlated_orthogonality_pins_independent(self, inst_fx2):
        res = transport_criterion(inst_fx2)
        assert res.value == F(-1, 2)
        assert not res.profitable
        indep = independent_counterpart(inst_fx2.dist)
        assert (res.optimizer.p == indep.p).all()

    def test_matches_vertex_enumeration(self):
        for seed in range(8):
            kind = ["independent", "correlated"][seed % 2]
            inst = generate(seed, (2, 2), kind)
            assert transport_criterion(inst).value == self.brute_force_value(inst)

    @PROPERTY
    @given(st.integers(0, 10**6), st.integers(1, 5), st.integers(1, 5),
           st.booleans())
    def test_full_rank_equals_the_reference_lp(self, seed, m, n, zero_mean):
        # At full rank q = pi_L (x) pi_R is the only feasible point, and
        # no LP runs.
        inst = generate(seed, (m, n), "full-rank", zero_mean=zero_mean)
        sol = reference_transport(inst)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("icmech.profit.solve_lp", None)
            res = transport_criterion(inst)
        assert res.value == sol.value
        assert list(res.optimizer.p.reshape(-1)) == sol.x

    @PROPERTY
    @given(st.integers(0, 10**6), st.integers(1, 5), st.integers(1, 5),
           st.sampled_from(KINDS), st.integers(1, 3))
    def test_value_equals_the_reference_lp(self, seed, m, n, kind, k):
        # v_hat, formed from pi's integers, is the Fraction quotient.
        inst = generate(seed, (m, n), kind, k=k)
        res = transport_criterion(inst)
        assert res.value == reference_transport(inst).value
        assert res.v_hat.tolist() == reference.v_hat(inst).tolist()

    @pytest.mark.parametrize("shape, kind, k, rows", [
        ((6, 6), "conditionally-independent", 2, 20),
        ((4, 6), "independent", None, 9),
    ])
    def test_lp_rows(self, monkeypatch, shape, kind, k, rows):
        # Below full rank solve_lp gets r(m + n) - r^2 rows, all of them
        # independent.
        lps = []

        def recording_solve_lp(lp):
            lps.append(lp)
            return solve_lp(lp)

        monkeypatch.setattr("icmech.profit.solve_lp", recording_solve_lp)
        transport_criterion(generate(1001, shape, kind, k=k))
        assert [len(lp.a_eq) for lp in lps] == [rows]
        assert reference.rank(reference.dense(lps[0].a_eq, lps[0].n)[0]) == rows


class TestOrthogonal:
    def test_independent_always_orthogonal(self, inst_fx1, inst_fx2):
        assert orthogonal(inst_fx2.dist, inst_fx1.dist)
        assert orthogonal(inst_fx1.dist, inst_fx2.dist)

    def test_self_covariance_positive(self, inst_fx2):
        assert not orthogonal(inst_fx2.dist, inst_fx2.dist)

    def test_opposite_correlation_not_orthogonal(self, inst_fx2):
        flipped = two_option(inst_fx2.space,
                             pi=[["3/8", "1/8"], ["1/8", "3/8"]],
                             vL=[[1, -1], [-1, 1]])
        assert not orthogonal(inst_fx2.dist, flipped.dist)

    def test_covariance_values(self, inst_fx2):
        # Cov of the belief updates about own-type 1, both agents: 4 eps^2.
        dist = inst_fx2.dist
        marg = dist.marginals()
        cond = reference.conditional(dist, 1)
        cov = sum((cond[s, 1] - marg[0][1]) ** 2 * marg[1][s] for s in range(2))
        assert cov == 4 * F(1, 8) ** 2

    @PROPERTY
    @given(st.integers(0, 10**6), st.integers(1, 5), st.integers(1, 5),
           st.sampled_from(KINDS), st.integers(1, 3))
    def test_verdict_equals_the_reference_rows(self, seed, m, n, kind, k):
        # pi itself, the transport optimizer (orthogonal by construction)
        # and their average all have pi's marginals.
        inst = generate(seed, (m, n), kind, k=k)
        pi = inst.dist
        q = transport_criterion(inst).optimizer
        rows = reference.orthogonality_rows(pi)
        for p in (pi.p, q.p, (pi.p + q.p) / 2):
            flat = list(p.reshape(-1))
            expected = not any(sum(c * x for c, x in zip(row, flat))
                               for row in rows)
            assert orthogonal(pi, JointDist.from_fractions(pi.space, p)) == expected
        assert orthogonal(pi, q)

    def test_marginal_mismatch_rejected(self, inst_fx1):
        other = two_option(inst_fx1.space,
                           pi=[["1/3", "1/3"], ["1/6", "1/6"]],
                           vL=[[0, 0], [0, 0]])
        with pytest.raises(PreconditionError):
            orthogonal(inst_fx1.dist, other.dist)


class TestDecompose:
    def test_matching_single_term(self, inst_fx1, xstar):
        dec = decompose(xstar, inst_fx1.dist.marginal(0), inst_fx1.dist.marginal(1))
        assert dec.q == F(1, 2)
        assert dec.gammas == [F(1, 2)]
        p = dec.extreme_points[0]
        assert p[0, 0] == F(1, 2) and p[1, 1] == F(1, 2)
        assert p[0, 1] == 0 and p[1, 0] == 0

    def test_constant_one_splits_into_permutations(self, inst_fx1):
        dec = decompose(constant_mechanism(inst_fx1.space, 1),
                        inst_fx1.dist.marginal(0), inst_fx1.dist.marginal(1))
        assert sorted(dec.gammas) == [F(1, 2), F(1, 2)]
        supports = {tuple(sorted((i, j) for i in range(2) for j in range(2)
                                 if p[i, j] != 0))
                    for p in dec.extreme_points}
        assert supports == {((0, 0), (1, 1)), ((0, 1), (1, 0))}

    def test_zero_mechanism_empty(self, inst_fx1):
        dec = decompose(constant_mechanism(inst_fx1.space, 0),
                        inst_fx1.dist.marginal(0), inst_fx1.dist.marginal(1))
        assert dec.q == 0
        assert dec.gammas == []

    def test_non_ic_rejected_with_witness(self, inst_fx3):
        bad = Mechanism(inst_fx3.space, np.array(
            [[F(1), F(0), F(0)], [F(0), F(0), F(0)], [F(0), F(0), F(0)]],
            dtype=object))
        with pytest.raises(PreconditionError, match="gains"):
            decompose(bad, inst_fx3.dist.marginal(0), inst_fx3.dist.marginal(1))

    def test_reconstruction_and_extreme_audits(self):
        rng = random.Random(71)
        larger = {12: (5, 5), 13: (4, 6)}
        for seed in range(14):
            shape = larger.get(seed) or (rng.randint(2, 3), rng.randint(2, 4))
            inst = generate(seed, shape, "independent")
            ml, mr = inst.dist.marginals()
            if seed % 2:
                x = reference.sample_ic_combination(inst.space, ml, mr, rng)
            else:
                x = sample_ic_vertex(inst.dist, rng)
            dec = decompose(x, ml, mr)
            outer = np.multiply.outer(ml, mr)
            recon = constant_array(inst.space.shape, 0)
            for g, p in zip(dec.gammas, dec.extreme_points):
                assert g >= 0
                assert support_is_acyclic(p)
                cells = sum(1 for idx in np.ndindex(*p.shape) if p[idx] != 0)
                assert cells <= sum(inst.space.shape) - 1
                rows = [sum(p[i, j] for j in range(p.shape[1]))
                        for i in range(p.shape[0])]
                cols = [sum(p[i, j] for i in range(p.shape[0]))
                        for j in range(p.shape[1])]
                assert rows == list(ml) and cols == list(mr)
                recon = recon + p / outer * g
            assert (recon == x.x).all()


class TestMatchYourOpponent:
    def test_cubic_diagonal(self, inst_fx3):
        rep = match_your_opponent(inst_fx3)
        assert rep.best_matching == [(-1, -1), (0, 0), (1, 1)]
        assert rep.best_value == F(2, 9)
        assert rep.profitable
        assert rep.supermodular
        assert rep.diagonal_sum == 2

    def test_square_product(self, inst_fx1):
        rep = match_your_opponent(inst_fx1)
        assert rep.best_value == F(1, 2)
        assert rep.profitable

    def test_negative_objective_not_profitable(self):
        inst = two_option(TypeSpace(("l", "r"), ((0, 1), (0, 1))),
                          pi=[["1/4", "1/4"], ["1/4", "1/4"]],
                          vL=[[-1, -1], [-1, -1]])
        rep = match_your_opponent(inst)
        assert rep.best_value < 0
        assert not rep.profitable

    def test_correlated_rejected(self, inst_fx2):
        with pytest.raises(PreconditionError):
            match_your_opponent(inst_fx2)

    def test_non_square_rejected(self):
        inst = generate(0, (2, 3), "independent")
        with pytest.raises(PreconditionError):
            match_your_opponent(inst)

    def test_assignment_lp_matches_enumeration(self):
        for n in (4, 5, 6):
            for seed in range(2):
                inst = generate(seed, (n, n), "independent")
                ml, mr = inst.dist.marginals()
                perm, value = _best_matching_lp(inst.v, ml, mr)
                assert sorted(perm) == list(range(n))
                assert value == sum(ml[t] * mr[perm[t]] * inst.v[t, perm[t]]
                                    for t in range(n))
                assert value == reference.best_matching_enumerate(inst.v, ml, mr)[1]

    def test_supermodularity_detection(self):
        assert is_supermodular(np.array([[F(0), F(0)], [F(0), F(1)]],
                                        dtype=object))
        assert not is_supermodular(np.array([[F(0), F(1)], [F(1), F(0)]],
                                            dtype=object))

    def test_symmetric_supermodular_diagonal_equals_transport(self):
        # With symmetric marginals and a supermodular objective the
        # comonotone (diagonal) coupling attains the transport optimum, so
        # the weighted diagonal decides profitability exactly.
        rng = random.Random(5)
        checked = 0
        for _ in range(20):
            n = rng.randint(2, 3)
            weights = [rng.randint(1, 5) for _ in range(n)]
            tot = sum(weights)
            base = sorted(rng.randint(-3, 3) for _ in range(n))
            # Recenter so the product objective has zero mean (no swap).
            mean = sum(F(w, tot) * b for w, b in zip(weights, base))
            shifted = [F(b) - mean for b in base]
            v = [[shifted[i] * shifted[j] for j in range(n)] for i in range(n)]
            assert is_supermodular(np.array(v, dtype=object))
            inst = two_option(
                TypeSpace(("l", "r"), (tuple(range(n)), tuple(range(n)))),
                pi=[[str(F(wi, tot) * F(wj, tot)) for wj in weights]
                    for wi in weights],
                vL=[[str(x) for x in row] for row in v])
            assert not inst.objective.swapped
            rep = match_your_opponent(inst)
            assert transport_criterion(inst).value == rep.diagonal_value
            assert rep.profitable == (rep.diagonal_value > 0)
            checked += 1
        assert checked >= 5


class TestProfitEquivalences:
    def test_three_way_agreement_zero_mean(self):
        # construct succeeds <=> residual nonzero <=> transport positive
        # <=> the direct LP finds positive value.
        agree = 0
        for seed in range(30):
            shape = [(2, 2), (2, 3), (3, 3)][seed % 3]
            inst = generate(seed, shape, "independent", zero_mean=True)
            res = construct_profitable(inst)
            built = isinstance(res, ConstructionResult)
            non_additive = not additivity_test(inst).is_pi_additive
            transport_pos = transport_criterion(inst).value > 0
            oracle_pos = solve_principal(inst).profitable
            assert built == non_additive == transport_pos == oracle_pos
            agree += 1
        assert agree == 30

    def test_correlated_sign_agreement(self):
        for seed in range(12):
            inst = generate(seed, (2, 2), "correlated", zero_mean=True)
            transport_pos = transport_criterion(inst).value > 0
            oracle_pos = solve_principal(inst).profitable
            assert transport_pos == oracle_pos

    def test_sign_agreement_without_indifference(self):
        # The transport criterion decides existence for any ex-ante
        # expectation, not just zero; the direct LP must agree in sign.
        for seed in range(40):
            kind = ["independent", "correlated"][seed % 2]
            shape = [(2, 2), (2, 3), (3, 3)][seed % 3]
            inst = generate(seed + 900, shape, kind)
            transport_pos = transport_criterion(inst).value > 0
            oracle_pos = solve_principal(inst).profitable
            assert transport_pos == oracle_pos

    def test_zero_mean_additive_shift_leaves_payoff(self):
        rng = random.Random(13)
        for seed in range(6):
            inst = generate(seed, (2, 3), "independent")
            dist = inst.dist
            ml, mr = dist.marginals()
            u_l = np.array([F(rng.randint(-3, 3)) for _ in range(2)], dtype=object)
            u_r = np.array([F(rng.randint(-3, 3)) for _ in range(3)], dtype=object)
            shift = np.add.outer(u_l, u_r)
            mean = expectation(dist, shift)
            shift = shift - constant_array(inst.space.shape, mean)
            for _ in range(3):
                x = sample_ic_vertex(dist, rng)
                assert expectation(dist, (inst.v + shift) * x.x) == \
                    expectation(dist, inst.v * x.x)

    def test_positive_scaling_preserves_everything(self):
        for seed in range(6):
            inst = generate(seed, (2, 2), "independent", zero_mean=True)
            c = F(3, 7)
            scaled = Instance(inst.space, inst.dist,
                              normalize(inst.v * c,
                                        constant_array(inst.space.shape, 0),
                                        inst.dist))
            assert not scaled.objective.swapped
            assert transport_criterion(scaled).value == \
                c * transport_criterion(inst).value
            assert solve_principal(scaled).value == c * solve_principal(inst).value
            r1 = construct_profitable(inst)
            r2 = construct_profitable(scaled)
            assert isinstance(r1, ConstructionResult) == \
                isinstance(r2, ConstructionResult)
