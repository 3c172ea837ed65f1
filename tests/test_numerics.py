import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icmech import numerics
from icmech.numerics import (LinearProgram, frac, rank, solve_linear_system,
                             solve_lp, span_coefficients)

from . import reference
from .reference import orthogonal_projection

F = Fraction


def fl(values):
    return [F(v) for v in values]


class TestFrac:
    def test_rational_string(self):
        assert frac("1/4") == F(1, 4)

    def test_decimal_string_is_exact(self):
        assert frac("0.1") == F(1, 10)

    def test_int(self):
        assert frac(-3) == F(-3)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            frac(0.25)


class TestLinearAlgebra:
    def test_rank_examples(self):
        assert rank([fl([1, 0]), fl([0, 1])]) == 2
        assert rank([fl([1, 2]), fl([2, 4])]) == 1
        assert rank([fl([0, 0])]) == 0

    def test_solve_unique(self):
        x = solve_linear_system([fl([2, 0]), fl([0, 4])], fl([6, 8]))
        assert x == [F(3), F(2)]

    def test_solve_inconsistent(self):
        assert solve_linear_system([fl([1, 1]), fl([1, 1])], fl([1, 2])) is None

    def test_solve_underdetermined_free_vars_zero(self):
        x = solve_linear_system([fl([1, 1])], fl([5]))
        assert x is not None
        assert x[0] + x[1] == 5

    def test_in_span_unit_vectors(self):
        assert span_coefficients(fl([1, 1]), [fl([1, 0]), fl([0, 1])]) is not None

    def test_in_span_false(self):
        assert span_coefficients(fl([0, 0, 1]), [fl([1, 0, 0]), fl([0, 1, 0])]) is None

    def test_marginal_in_span_of_conditionals(self):
        # Mixing a distribution's conditional beliefs with the other
        # agent's marginal weights recovers the marginal belief.
        pi = [[F(1, 8), F(3, 8)], [F(3, 8), F(1, 8)]]
        row_marg = [sum(r) for r in pi]
        conditionals = [[pi[a][s] / row_marg[a] for s in range(2)]
                        for a in range(2)]
        col_marg = [sum(pi[a][s] for a in range(2)) for s in range(2)]
        assert span_coefficients(col_marg, conditionals) is not None

    def test_flat_conditionals_cannot_reach_correlated_belief(self):
        # An independent distribution's conditionals are all the same
        # vector; a genuinely updated belief lies outside their span.
        flat = [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]
        target = [F(1, 4), F(3, 4)]
        assert span_coefficients(target, flat) is None

    def test_span_coefficients_reproduce(self):
        gens = [fl([1, 2, 0]), fl([0, 1, 1])]
        target = [F(2), F(5), F(1)]
        coeffs = span_coefficients(target, gens)
        assert coeffs is not None
        for i in range(3):
            assert sum(c * g[i] for c, g in zip(coeffs, gens)) == target[i]


class TestProjection:
    def test_target_in_span_residual_zero(self):
        gens = [fl([1, 1, 0]), fl([0, 1, 1])]
        target = [F(1), F(3), F(2)]  # g0 + 2 g1
        proj, resid = orthogonal_projection(target, gens)
        assert all(r == 0 for r in resid)
        assert proj == target

    def test_target_orthogonal_projection_zero(self):
        proj, resid = orthogonal_projection(fl([0, 0, 1]),
                                            [fl([1, 0, 0]), fl([0, 1, 0])])
        assert all(p == 0 for p in proj)
        assert resid == fl([0, 0, 1])

    def test_product_function_orthogonal_to_additive(self):
        # On a 2x2 uniform grid with types {-1, 1}, the product function
        # s*t/4 is orthogonal to every per-coordinate indicator.
        w = [F(1, 4), F(-1, 4), F(-1, 4), F(1, 4)]  # (s,t) row-major
        gens = [
            fl([1, 1, 0, 0]), fl([0, 0, 1, 1]),  # indicators of s
            fl([1, 0, 1, 0]), fl([0, 1, 0, 1]),  # indicators of t
        ]
        proj, resid = orthogonal_projection(w, gens)
        assert all(p == 0 for p in proj)
        assert resid == w

    def test_idempotent_and_residual_orthogonal(self):
        rng = random.Random(5)
        for _ in range(20):
            dim = rng.randint(1, 5)
            k = rng.randint(0, 4)
            gens = [[F(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(k)]
            target = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)]
            proj, resid = orthogonal_projection(target, gens)
            assert [p + r for p, r in zip(proj, resid)] == target
            for g in gens:
                assert sum(r * gi for r, gi in zip(resid, g)) == 0
            proj2, resid2 = orthogonal_projection(proj, gens)
            assert proj2 == proj
            assert all(r == 0 for r in resid2)

    def test_rank_deficient_generators(self):
        gens = [fl([1, 0]), fl([2, 0]), fl([3, 0])]
        proj, resid = orthogonal_projection(fl([5, 7]), gens)
        assert proj == fl([5, 0])
        assert resid == fl([0, 7])


class TestSolveLP:
    def test_simple_box(self):
        lp = LinearProgram(objective=fl([1]), a_ub=[fl([1])], b_ub=fl([3]))
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.value == 3
        assert sol.x == [F(3)]

    def test_equality_and_bounds(self):
        # max x + y st x + y = 1, 0 <= x, y <= 1
        lp = LinearProgram(objective=fl([1, 1]), a_eq=[fl([1, 1])], b_eq=fl([1]),
                           lower=fl([0, 0]), upper=fl([1, 1]))
        sol = solve_lp(lp)
        assert sol.value == 1

    def test_infeasible_with_certificate(self):
        lp = LinearProgram(objective=fl([1]),
                           a_eq=[fl([1]), fl([1])], b_eq=fl([0, 1]))
        sol = solve_lp(lp)
        assert sol.status == "infeasible"
        cert = sol.certificate
        # The certificate is self-verifying: combination of constraints
        # with these multipliers reads 0 <= negative.
        assert cert["gap"] < 0

    def test_unbounded_with_ray(self):
        lp = LinearProgram(objective=fl([1]), lower=[F(0)], upper=[None])
        sol = solve_lp(lp)
        assert sol.status == "unbounded"
        assert sol.ray is not None
        assert sum(c * d for c, d in zip(lp.objective, sol.ray)) > 0

    def test_free_variables(self):
        # max -x st x >= -5 written with a free variable and an inequality
        lp = LinearProgram(objective=fl([-1]), a_ub=[fl([-1])], b_ub=fl([5]),
                           lower=[None], upper=[None])
        sol = solve_lp(lp)
        assert sol.value == 5
        assert sol.x == [F(-5)]

    def test_duals_verified(self):
        lp = LinearProgram(objective=fl([3, 2]),
                           a_ub=[fl([1, 1]), fl([1, 0])], b_ub=fl([4, 2]),
                           lower=fl([0, 0]))
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.value == 10
        # Strong duality, recomputed here from the reported multipliers.
        dual_val = sum(d * b for d, b in zip(sol.dual_ub, lp.b_ub))
        bound_part = sum(max(r, F(0)) * u for r, u in
                         zip(sol.reduced_costs, [None, None]) if u is not None)
        assert dual_val + bound_part == sol.value
        assert all(d >= 0 for d in sol.dual_ub)

    def test_degenerate_does_not_cycle(self):
        # Classic degeneracy: many redundant constraints through the origin.
        lp = LinearProgram(
            objective=fl([1, 1, 1]),
            a_ub=[fl([1, 1, 0]), fl([1, 0, 1]), fl([0, 1, 1]),
                  fl([1, 1, 1]), fl([2, 2, 2])],
            b_ub=fl([1, 1, 1, 1, 2]),
            lower=fl([0, 0, 0]))
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.value == 1

    def test_redundant_equalities(self):
        lp = LinearProgram(objective=fl([1, 0]),
                           a_eq=[fl([1, 1]), fl([2, 2]), fl([1, 1])],
                           b_eq=fl([1, 2, 1]),
                           lower=fl([0, 0]), upper=fl([1, 1]))
        sol = solve_lp(lp)
        assert sol.value == 1


def random_lp(rng: random.Random, max_vars: int = 4) -> LinearProgram:
    n = rng.randint(1, max_vars)
    m = rng.randint(0, 3)
    k = rng.randint(0, 2)
    return LinearProgram(
        objective=[F(rng.randint(-4, 4)) for _ in range(n)],
        a_ub=[[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)],
        b_ub=[F(rng.randint(-2, 4)) for _ in range(m)],
        a_eq=[[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(k)],
        b_eq=[F(rng.randint(-2, 2)) for _ in range(k)],
        lower=[F(rng.randint(-2, 0)) for _ in range(n)],
        upper=[F(rng.randint(1, 3)) for _ in range(n)])


class TestAgainstVertexEnumeration:
    def test_agrees_on_small_boxed_lps(self):
        rng = random.Random(2024)
        checked = 0
        for trial in range(140):
            # Mostly tiny LPs, with a tail of 5- and 6-variable ones.
            lp = random_lp(rng, max_vars=4 if trial < 100 else 6)
            sol = solve_lp(lp)
            vertices = reference.enumerate_vertices(lp)
            if sol.status == "infeasible":
                assert vertices == []
                continue
            assert sol.status == "optimal"  # boxed, so never unbounded
            best = max(sum(c * v for c, v in zip(lp.objective, x))
                       for x in vertices)
            assert best == sol.value
            checked += 1
        assert checked >= 50

    def test_duality_on_random_lps(self):
        # Recompute the dual objective from the reported multipliers and
        # check strong duality and dual feasibility, exactly.
        rng = random.Random(99)
        verified = 0
        for _ in range(60):
            lp = random_lp(rng)
            sol = solve_lp(lp)
            if sol.status != "optimal":
                continue
            n = lp.n
            assert all(d >= 0 for d in sol.dual_ub)
            dual_value = sum(d * b for d, b in zip(sol.dual_eq, lp.b_eq)) + \
                sum(d * b for d, b in zip(sol.dual_ub, lp.b_ub))
            for j in range(n):
                r = sol.reduced_costs[j]
                if r > 0:
                    assert lp.upper[j] is not None
                    dual_value += r * lp.upper[j]
                elif r < 0:
                    assert lp.lower[j] is not None
                    dual_value += r * lp.lower[j]
                g = sum(sol.dual_eq[i] * lp.a_eq[i][j]
                        for i in range(len(lp.a_eq))) + \
                    sum(sol.dual_ub[i] * lp.a_ub[i][j]
                        for i in range(len(lp.a_ub)))
                assert lp.objective[j] - g == r
            assert dual_value == sol.value
            verified += 1
        assert verified >= 30


def dot(row, x):
    return sum(a * v for a, v in zip(row, x))


def assert_dual_certificate(lp: LinearProgram, sol) -> None:
    """Recompute dual feasibility and strong duality from the LP data."""
    assert all(d >= 0 for d in sol.dual_ub)
    dual_value = dot(sol.dual_eq, lp.b_eq) + dot(sol.dual_ub, lp.b_ub)
    for j in range(lp.n):
        r = sol.reduced_costs[j]
        if r > 0:
            assert lp.upper[j] is not None
            dual_value += r * lp.upper[j]
        elif r < 0:
            assert lp.lower[j] is not None
            dual_value += r * lp.lower[j]
        g = dot(sol.dual_eq, [row[j] for row in lp.a_eq]) + \
            dot(sol.dual_ub, [row[j] for row in lp.a_ub])
        assert lp.objective[j] - g == r
    assert dual_value == sol.value


def assert_farkas_certificate(lp: LinearProgram, cert: dict) -> None:
    """A^T y + mu - nu = 0 with y_ub, mu, nu >= 0 on finite bounds, and the
    same combination of the right-hand sides negative: no x is feasible."""
    y_eq, y_ub = cert["dual_eq"], cert["dual_ub"]
    mu, nu = cert["upper_multipliers"], cert["lower_multipliers"]
    assert all(v >= 0 for v in y_ub + mu + nu)
    for j in range(lp.n):
        assert mu[j] == 0 or lp.upper[j] is not None
        assert nu[j] == 0 or lp.lower[j] is not None
        # A^T y + mu - nu = 0: the combination of the rows vanishes.
        assert dot(y_eq, [row[j] for row in lp.a_eq]) + \
            dot(y_ub, [row[j] for row in lp.a_ub]) + mu[j] - nu[j] == 0
    combined = dot(y_eq, lp.b_eq) + dot(y_ub, lp.b_ub) + \
        sum(mu[j] * lp.upper[j] for j in range(lp.n) if mu[j]) - \
        sum(nu[j] * lp.lower[j] for j in range(lp.n) if nu[j])
    assert combined < 0 and combined == cert["gap"]


def assert_certificate(lp: LinearProgram, sol) -> None:
    """Re-verify a solution from the LP data alone, whatever its status."""
    if sol.status == "optimal":
        x = sol.x
        assert all(dot(row, x) == b for row, b in zip(lp.a_eq, lp.b_eq))
        assert all(dot(row, x) <= b for row, b in zip(lp.a_ub, lp.b_ub))
        assert all((lo is None or v >= lo) and (up is None or v <= up)
                   for v, lo, up in zip(x, lp.lower, lp.upper))
        assert dot(lp.objective, x) == sol.value
        assert_dual_certificate(lp, sol)
    elif sol.status == "infeasible":
        assert_farkas_certificate(lp, sol.certificate)
    else:
        d = sol.ray
        assert all(dot(row, d) == 0 for row in lp.a_eq)
        assert all(dot(row, d) <= 0 for row in lp.a_ub)
        assert all((lo is None or v >= 0) and (up is None or v <= 0)
                   for v, lo, up in zip(d, lp.lower, lp.upper))
        assert dot(lp.objective, d) > 0


def homogeneous_boxed_lp(rng: random.Random) -> LinearProgram:
    """Equality rows through the origin (some of them combinations of
    earlier ones), 0 <= x <= u and <= rows with nonnegative rhs: the slack
    crash basis with every artificial at 0 is already phase-1 optimal."""
    n = rng.randint(2, 5)
    a_eq = [[F(rng.randint(-2, 2)) for _ in range(n)]
            for _ in range(rng.randint(1, 2))]
    for _ in range(rng.randint(0, 2)):
        c1, c2 = F(rng.randint(-2, 2)), F(rng.randint(1, 3), 2)
        r1, r2 = rng.choice(a_eq), rng.choice(a_eq)
        a_eq.append([c1 * a + c2 * b for a, b in zip(r1, r2)])
    m = rng.randint(0, 2)
    return LinearProgram(
        objective=[F(rng.randint(-4, 4)) for _ in range(n)],
        a_eq=a_eq, b_eq=[F(0)] * len(a_eq),
        a_ub=[[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)],
        b_ub=[F(rng.randint(0, 4)) for _ in range(m)],
        lower=[F(0)] * n, upper=[F(rng.randint(1, 3)) for _ in range(n)])


class TestPhaseOneSetUp:
    def test_feasible_start_skips_phase_one(self, monkeypatch):
        # Phase 2 is the only simplex run; the answer still agrees with
        # vertex enumeration and its dual certificate.
        runs = []
        run = numerics._Tableau.run

        def counting_run(self, obj, ncols):
            runs.append(ncols)
            return run(self, obj, ncols)

        monkeypatch.setattr(numerics._Tableau, "run", counting_run)
        rng = random.Random(31)
        for _ in range(60):
            lp = homogeneous_boxed_lp(rng)
            runs.clear()
            sol = solve_lp(lp)
            assert sol.status == "optimal"
            assert len(runs) == 1
            best = max(dot(lp.objective, x)
                       for x in reference.enumerate_vertices(lp))
            assert sol.value == best
            assert_dual_certificate(lp, sol)

    def test_infeasible_certificates_verify_from_the_data(self):
        rng = random.Random(47)
        checked = 0
        for trial in range(80):
            lp = random_lp(rng)
            n = lp.n
            if trial % 3 == 0:
                # An inconsistent multiple of an equality row.
                if not lp.a_eq:
                    lp.a_eq.append([F(rng.randint(-2, 2)) for _ in range(n)])
                    lp.b_eq.append(F(rng.randint(-2, 2)))
                i = rng.randrange(len(lp.a_eq))
                lp.a_eq.append([2 * a for a in lp.a_eq[i]])
                lp.b_eq.append(2 * lp.b_eq[i] + rng.choice([-1, 1]))
            elif trial % 3 == 1:
                # A <= row with negative rhs that the box cannot meet.
                lp.a_ub.append([F(-1)] * n)
                lp.b_ub.append(-sum(lp.upper) - rng.randint(1, 3))
            sol = solve_lp(lp)
            if sol.status != "infeasible":
                assert trial % 3 == 2
                continue
            assert reference.enumerate_vertices(lp) == []
            assert_farkas_certificate(lp, sol.certificate)
            checked += 1
        assert checked >= 50

    def test_dependent_equality_rows_get_dual_zero(self):
        rng = random.Random(53)
        verified = 0
        for _ in range(150):
            lp = random_lp(rng)
            if not lp.a_eq:
                continue
            # Append combinations of the existing equality rows.
            k = len(lp.a_eq)
            for _ in range(rng.randint(1, 3)):
                c = [F(rng.randint(-2, 2)) for _ in range(k)]
                lp.a_eq.append([dot(c, col) for col in zip(*lp.a_eq[:k])])
                lp.b_eq.append(dot(c, lp.b_eq[:k]))
            sol = solve_lp(lp)
            if sol.status != "optimal":
                continue
            assert sol.dual_eq[k:] == [F(0)] * (len(lp.a_eq) - k)
            assert_dual_certificate(lp, sol)
            verified += 1
        assert verified >= 30

    def test_redundant_rows_do_not_reach_the_tableau(self, monkeypatch):
        # 60 interim rows of rank 19 in the oracle LP leave 19 equality
        # rows, and the bounds 0 <= x <= 1 add none.
        from icmech.ic import ic_polytope
        from icmech.oracle import generate, solve_principal
        inst = generate(1001, (6, 6), "conditionally-independent", k=2)
        rows = ic_polytope(inst.dist)
        kept = numerics._independent_rows(
            [numerics._integer_row(row + [F(0)])[1] for row in rows])
        assert len(rows) == 60 and len(kept) == rank(rows) == 19
        assert rank([rows[i] for i in kept]) == 19
        sizes = []
        simplex = numerics._simplex

        def recording_simplex(rows, *args):
            sizes.append(len(rows))
            return simplex(rows, *args)

        monkeypatch.setattr(numerics, "_simplex", recording_simplex)
        solve_principal(inst)
        assert sizes == [19]


RATIONALS = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 3, 5, 6]))


@st.composite
def mixed_lps(draw):
    """Up to 4 variables, each boxed, fixed, half-bounded or free; equality
    and <= rows with rational entries over mixed denominators and right-hand
    sides of either sign, so optimal, infeasible and unbounded LPs occur.
    Equality rows are often homogeneous, which leaves artificials basic at
    0 for the drive-out."""
    n = draw(st.integers(1, 4))

    def rows(k):
        return [draw(st.lists(RATIONALS, min_size=n, max_size=n)) for _ in range(k)]

    lower, upper = [], []
    for _ in range(n):
        kind = draw(st.sampled_from(["box", "box", "fixed", "lower", "upper", "free"]))
        lo = draw(RATIONALS) if kind in ("box", "fixed", "lower") else None
        up = draw(RATIONALS) if kind in ("box", "upper") else None
        if kind == "fixed":
            up = lo
        if lo is not None and up is not None and lo > up:
            lo, up = up, lo
        lower.append(lo)
        upper.append(up)
    k, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    b_eq = [draw(st.just(F(0)) | RATIONALS) for _ in range(k)]
    return LinearProgram(objective=rows(1)[0], a_eq=rows(k), b_eq=b_eq,
                         a_ub=rows(m), b_ub=[draw(RATIONALS) for _ in range(m)],
                         lower=lower, upper=upper)


class TestIntegerEngine:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(mixed_lps())
    # The drive-out pivots on the -1 of the homogeneous equality row.
    @example(LinearProgram(objective=fl([1, 1]), a_eq=[fl([-1, 1])], b_eq=fl([0]),
                           lower=fl([0, 0]), upper=fl(["1/2", "1/3"])))
    @example(LinearProgram(objective=fl([1]), a_eq=[fl([2])], b_eq=fl(["-1/3"])))
    # Unbounded along the slack of a row scaled by 2.
    @example(LinearProgram(objective=fl([3]), a_ub=[fl([-2])], b_ub=fl(["-1/2"])))
    def test_matches_the_fraction_reference(self, lp):
        # Dantzig pricing and implicit bounds leave the reference's Bland
        # path, so another optimal vertex may come back: status and value
        # must agree, and every certificate must verify from the LP data.
        sol = solve_lp(lp)
        with mock.patch.object(numerics, "_simplex", reference.simplex):
            ref = solve_lp(lp)
        assert (sol.status, sol.value) == (ref.status, ref.value)
        assert_certificate(lp, sol)

    @pytest.mark.parametrize("a_eq, b_eq, status, value", [
        # x1 is fixed at 1/2; both rows become x0 = 1/2, one of them dependent.
        ([fl([1, 1]), fl([1, 2])], fl([1, "3/2"]), "optimal", F(3, 2)),
        # The row becomes 0 = 0 after the substitution.
        ([fl([0, 1])], fl(["1/2"]), "optimal", F(2)),
        # The first row becomes 0 = 1/2.
        ([fl([0, 1]), fl([1, 1])], fl([1, 1]), "infeasible", None),
    ])
    def test_fixed_variable_in_an_equality_row(self, a_eq, b_eq, status, value):
        lp = LinearProgram(objective=fl([1, 2]), a_eq=a_eq, b_eq=b_eq,
                           lower=fl([0, "1/2"]), upper=fl([1, "1/2"]))
        sol = solve_lp(lp)
        assert (sol.status, sol.value) == (status, value)
        assert_certificate(lp, sol)

    def test_flip_without_a_pivot(self):
        # Each variable reaches its own bound before the row binds.
        lp = LinearProgram(objective=fl([1, 1]), a_ub=[fl([1, 1])], b_ub=fl([3]),
                           lower=fl([0, 0]), upper=fl([1, 1]))
        sol = solve_lp(lp)
        assert (sol.value, sol.x, sol.pivots, sol.flips) == (2, fl([1, 1]), 0, 2)
        assert_certificate(lp, sol)

    def test_basic_variable_leaves_at_its_upper_bound(self, monkeypatch):
        # x0 enters first and becomes basic at 0 (x0 <= 2 x1); as x1
        # enters, x0 rises and leaves the basis at its bound 1.
        leaving = []
        flip = numerics._Tableau.flip

        def recording_flip(self, c, obj):
            leaving.append(c in self.basis)
            return flip(self, c, obj)

        monkeypatch.setattr(numerics._Tableau, "flip", recording_flip)
        lp = LinearProgram(objective=fl([3, 1]), a_ub=[fl([1, -2])], b_ub=fl([0]),
                           lower=fl([0, 0]), upper=fl([1, 1]))
        sol = solve_lp(lp)
        assert (sol.value, sol.x, sol.flips) == (4, fl([1, 1]), 0)
        assert leaving and all(leaving)
        assert_certificate(lp, sol)

    def test_infeasible_proof_needs_an_upper_bound_multiplier(self):
        # x0 + x1 >= 3 cannot hold in the unit box; only the bounds x <= 1
        # refute it, so the certificate carries upper multipliers.
        lp = LinearProgram(objective=fl([1, 1]), a_ub=[fl([-1, -1])], b_ub=fl([-3]),
                           lower=fl([0, 0]), upper=fl([1, 1]))
        sol = solve_lp(lp)
        assert sol.status == "infeasible"
        assert all(m > 0 for m in sol.certificate["upper_multipliers"])
        assert_farkas_certificate(lp, sol.certificate)

    def test_ray_with_boxed_basic_variables(self, monkeypatch):
        # x0 = x2, both boxed, and x1 >= 0 is unbounded above: the ray moves
        # x1 alone while the boxed x0 stays basic.
        ends = []
        run = numerics._Tableau.run

        def recording_run(self, obj, ncols):
            unb = run(self, obj, ncols)
            ends.append((unb, [b for b in self.basis if b in self.boxed]))
            return unb

        monkeypatch.setattr(numerics._Tableau, "run", recording_run)
        lp = LinearProgram(objective=fl([2, 1, 0]), a_eq=[fl([1, 0, -1])],
                           b_eq=fl([0]), lower=fl([0, 0, 0]), upper=[F(1), None, F(1)])
        sol = solve_lp(lp)
        assert sol.status == "unbounded" and sol.ray == fl([0, 1, 0])
        assert ends[-1][0] is not None and ends[-1][1]
        assert_certificate(lp, sol)


def run_optimized(script: str) -> str:
    """Run ``script`` under ``python -O`` (asserts stripped); its stdout."""
    src = Path(numerics.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestChecksSurviveOptimize:
    def test_perturbed_dual_raises_under_python_o(self):
        # A corrupted dual read off the tableau must fail the
        # strong-duality check even when the interpreter strips asserts.
        script = (
            "from fractions import Fraction as F\n"
            "from icmech import numerics\n"
            "good = numerics._simplex\n"
            "def bad(*args):\n"
            "    status, point, y, value, pivots = good(*args)\n"
            "    y[0] += 1\n"
            "    return status, point, y, value, pivots\n"
            "numerics._simplex = bad\n"
            "lp = numerics.LinearProgram(objective=[F(1)], a_ub=[[F(1)]],\n"
            "                            b_ub=[F(3)])\n"
            "try:\n"
            "    numerics.solve_lp(lp)\n"
            "except RuntimeError as e:\n"
            "    print('debug' if __debug__ else 'optimized', e)\n")
        assert run_optimized(script) == \
            "optimized exact LP check failed: strong duality\n"

    def test_corrupted_ic_verdict_raises_under_python_o(self):
        # The principal's optimum is only returned once check_ic confirms
        # it, and that check must survive the stripped asserts.
        script = (
            "from icmech import oracle\n"
            "from icmech.fixtures import fixture\n"
            "good = oracle.check_ic\n"
            "def bad(*args):\n"
            "    report = good(*args)\n"
            "    report.verdict = not report.verdict\n"
            "    return report\n"
            "oracle.check_ic = bad\n"
            "try:\n"
            "    oracle.solve_principal(fixture('fx1'))\n"
            "except RuntimeError as e:\n"
            "    print('debug' if __debug__ else 'optimized', e)\n")
        assert run_optimized(script) == ("optimized oracle check failed: "
                                         "the LP optimum is IC\n")

    def test_corrupted_construction_raises_under_python_o(self):
        # The residual construction returns its mechanism only once
        # check_ic confirms it, and that check must survive the stripped
        # asserts.
        script = (
            "from icmech import profit\n"
            "from icmech.fixtures import fixture\n"
            "good = profit.check_ic\n"
            "def bad(*args):\n"
            "    report = good(*args)\n"
            "    report.verdict = not report.verdict\n"
            "    return report\n"
            "profit.check_ic = bad\n"
            "try:\n"
            "    profit.construct_profitable(fixture('fx1'))\n"
            "except RuntimeError as e:\n"
            "    print('debug' if __debug__ else 'optimized', e)\n")
        assert run_optimized(script) == ("optimized profit check failed: "
                                         "the constructed mechanism is IC\n")

    def test_corrupted_split_raises_under_python_o(self):
        # The closed-form split u of an additive allocation is only as good
        # as its check, which must survive the stripped asserts.
        script = (
            "from icmech import nalloc\n"
            "from icmech.fixtures import fixture\n"
            "good = nalloc._split\n"
            "def bad(inst):\n"
            "    u = good(inst)\n"
            "    label = inst.space.types[0][0]\n"
            "    u['1'][label] += 1\n"
            "    return u\n"
            "nalloc._split = bad\n"
            "inst = fixture('fx4')\n"
            "inst = nalloc.AllocationInstance(inst.space, inst.marginals,\n"
            "                                 (inst.values[0],) * 3, False)\n"
            "try:\n"
            "    nalloc.difference_additive(inst)\n"
            "except RuntimeError as e:\n"
            "    print('debug' if __debug__ else 'optimized', e)\n")
        assert run_optimized(script) == ("optimized allocation check failed: "
                                         "the split reproduces v_i - v_n\n")
