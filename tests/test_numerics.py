import ast
import math
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
from icmech.numerics import (LinearProgram, basis_rows, frac,
                             solve_linear_system, solve_lp)

from . import reference
from .reference import RationalLP, integer_lp, orthogonal_projection

F = Fraction


def fl(values):
    return [F(v) for v in values]


INFEASIBLE = "exact LP check failed: the LP is feasible"


def solve(lp: RationalLP):
    """``solve_lp`` on the integer form of a rational LP."""
    return solve_lp(integer_lp(lp))


def outcome(lp: RationalLP):
    """``solve_lp``'s answer as (status, solution): ("optimal", the
    LPSolution), or ("infeasible", None) where it refuses an LP without a
    feasible point."""
    try:
        return "optimal", solve(lp)
    except RuntimeError as e:
        if str(e) != INFEASIBLE:
            raise
        return "infeasible", None


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
        assert len(basis_rows([fl([1, 0]), fl([0, 1])])) == 2
        assert len(basis_rows([fl([1, 2]), fl([2, 4])])) == 1
        assert len(basis_rows([fl([0, 0])])) == 0

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
        assert reference.span_coefficients(fl([1, 1]),
                                           [fl([1, 0]), fl([0, 1])]) is not None

    def test_in_span_false(self):
        assert reference.span_coefficients(fl([0, 0, 1]),
                                           [fl([1, 0, 0]), fl([0, 1, 0])]) is None

    def test_marginal_in_span_of_conditionals(self):
        # Mixing a distribution's conditional beliefs with the other
        # agent's marginal weights recovers the marginal belief.
        pi = [[F(1, 8), F(3, 8)], [F(3, 8), F(1, 8)]]
        row_marg = [sum(r) for r in pi]
        conditionals = [[pi[a][s] / row_marg[a] for s in range(2)]
                        for a in range(2)]
        col_marg = [sum(pi[a][s] for a in range(2)) for s in range(2)]
        assert reference.span_coefficients(col_marg, conditionals) is not None

    def test_flat_conditionals_cannot_reach_correlated_belief(self):
        # An independent distribution's conditionals are all the same
        # vector; a genuinely updated belief lies outside their span.
        flat = [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]
        target = [F(1, 4), F(3, 4)]
        assert reference.span_coefficients(target, flat) is None

    def test_span_coefficients_reproduce(self):
        gens = [fl([1, 2, 0]), fl([0, 1, 1])]
        target = [F(2), F(5), F(1)]
        coeffs = reference.span_coefficients(target, gens)
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
        lp = RationalLP(objective=fl([1]), a_ub=[fl([1])], b_ub=fl([3]),
                           upper=fl([5]))
        sol = solve(lp)
        assert sol.value == 3
        assert sol.x == [F(3)]

    def test_equality_and_bounds(self):
        # max x + y st x + y = 1, 0 <= x, y <= 1
        lp = RationalLP(objective=fl([1, 1]), a_eq=[fl([1, 1])], b_eq=fl([1]),
                           lower=fl([0, 0]), upper=fl([1, 1]))
        sol = solve(lp)
        assert sol.value == 1

    def test_infeasible_raises(self):
        lp = RationalLP(objective=fl([1]),
                           a_eq=[fl([1]), fl([1])], b_eq=fl([0, 1]), upper=fl([1]))
        with pytest.raises(RuntimeError, match=f"^{INFEASIBLE}$"):
            solve(lp)

    def test_unbounded_raises(self):
        # Every variable is boxed; one unbounded above is refused, and so
        # is an LP that states no upper bounds.
        with pytest.raises(ValueError, match="^every variable needs a finite upper bound$"):
            LinearProgram(objective=[1], lower=[0], upper=[None])
        with pytest.raises(ValueError, match="finite upper bound"):
            LinearProgram(objective=[1])

    def test_missing_lower_bound_refused(self):
        # Every variable has a finite lower bound; a free one is refused.
        with pytest.raises(ValueError, match="finite lower bound"):
            LinearProgram(objective=[-1], lower=[None])

    @pytest.mark.parametrize("args, what", [
        ({"lower": [2], "upper": [1]}, "lower bound exceeds upper bound"),
        ({"lower": [0, 5], "upper": [5, 4], "unit": 2}, "lower bound exceeds upper bound"),
        ({"a_eq": [(1, [(1, 1)], 0)]}, "column index out of range"),
        ({"a_ub": [(1, [(0, 1), (-1, 1)], 0)]}, "column index out of range"),
        ({"a_ub": [(0, [(0, 1)], 0)]}, "scales must be positive"),
    ])
    def test_malformed_lp_refused(self, args, what):
        # The integer form is checked as it is built: bounds in order,
        # every nonzero on a column of the LP and every scale positive.
        n = len(args.get("upper", [1]))
        with pytest.raises(ValueError, match=f"^{what}$"):
            LinearProgram(objective=[1] * n, **{"upper": [1] * n, **args})

    def test_rows_objective_and_bounds_come_in_lowest_terms(self):
        # 2 x0 + 4 x1 = 6 over 4 is x0 / 2 + x1 = 3 / 2: the scale is the
        # lcm of the rational row's denominators, as in the conversion of
        # the rational LP.
        lp = LinearProgram(objective=[2, 6], scale=4, a_eq=[(4, [(0, 2), (1, 4)], 6)],
                           lower=[0, 3], upper=[9, 6], unit=3)
        assert (lp.objective, lp.scale, lp.a_eq, lp.lower, lp.upper, lp.unit) == \
            ([1, 3], 2, [(2, [(0, 1), (1, 2)], 3)], [0, 1], [3, 2], 1)
        assert lp == integer_lp(RationalLP(
            objective=fl(["1/2", "3/2"]), a_eq=[fl(["1/2", 1])], b_eq=fl(["3/2"]),
            lower=fl([0, 1]), upper=fl([3, 2])))

    def test_duals_verified(self):
        lp = RationalLP(objective=fl([3, 2]),
                           a_ub=[fl([1, 1]), fl([1, 0])], b_ub=fl([4, 2]),
                           lower=fl([0, 0]), upper=fl([5, 5]))
        sol = solve(lp)
        assert sol.value == 10
        # Strong duality, recomputed here from the reported multipliers.
        dual_val = sum(d * b for d, b in zip(sol.dual_ub, lp.b_ub))
        bound_part = sum(max(r, F(0)) * u for r, u in
                         zip(sol.reduced_costs, lp.upper))
        assert dual_val + bound_part == sol.value
        assert all(d >= 0 for d in sol.dual_ub)

    def test_degenerate_does_not_cycle(self):
        # Classic degeneracy: many redundant constraints through the origin.
        lp = RationalLP(
            objective=fl([1, 1, 1]),
            a_ub=[fl([1, 1, 0]), fl([1, 0, 1]), fl([0, 1, 1]),
                  fl([1, 1, 1]), fl([2, 2, 2])],
            b_ub=fl([1, 1, 1, 1, 2]),
            lower=fl([0, 0, 0]), upper=fl([2, 2, 2]))
        sol = solve(lp)
        assert sol.value == 1

    def test_redundant_equalities(self):
        lp = RationalLP(objective=fl([1, 0]),
                           a_eq=[fl([1, 1]), fl([2, 2]), fl([1, 1])],
                           b_eq=fl([1, 2, 1]),
                           lower=fl([0, 0]), upper=fl([1, 1]))
        sol = solve(lp)
        assert sol.value == 1


def random_lp(rng: random.Random, max_vars: int = 4) -> RationalLP:
    n = rng.randint(1, max_vars)
    m = rng.randint(0, 3)
    k = rng.randint(0, 2)
    return RationalLP(
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
            status, sol = outcome(lp)
            vertices = reference.enumerate_vertices(lp)
            if status == "infeasible":
                assert vertices == []
                continue
            assert status == "optimal"  # boxed, so never unbounded
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
            _, sol = outcome(lp)
            if sol is None:
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


def assert_dual_certificate(lp: RationalLP, sol) -> None:
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


def assert_certificate(lp: RationalLP, sol) -> None:
    """Re-verify an optimum, its point and its duals, from the LP data alone."""
    x = sol.x
    assert all(dot(row, x) == b for row, b in zip(lp.a_eq, lp.b_eq))
    assert all(dot(row, x) <= b for row, b in zip(lp.a_ub, lp.b_ub))
    assert all((lo is None or v >= lo) and (up is None or v <= up)
               for v, lo, up in zip(x, lp.lower, lp.upper))
    assert dot(lp.objective, x) == sol.value
    assert_dual_certificate(lp, sol)


class TestStartingBasis:
    # Each row's unit column starts basic: an artificial fixed at 0 for an
    # equality row, the slack for a <= row.

    def test_infeasible_lps_raise(self):
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
            status, _ = outcome(lp)
            if status != "infeasible":
                assert trial % 3 == 2
                continue
            assert reference.enumerate_vertices(lp) == []
            checked += 1
        assert checked >= 50

    def test_dependent_equality_rows_solve(self, monkeypatch):
        # No presolve: a row that earlier rows combine to reaches the
        # tableau, and the optimum and its certificate verify.
        rng = random.Random(53)
        sizes = []
        simplex = numerics._simplex

        def recording_simplex(rows, *args):
            sizes.append(len(rows))
            return simplex(rows, *args)

        monkeypatch.setattr(numerics, "_simplex", recording_simplex)
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
            sizes.clear()
            _, sol = outcome(lp)
            assert sizes == [len(lp.a_eq) + len(lp.a_ub)]
            vertices = reference.enumerate_vertices(lp)
            if sol is None:
                assert vertices == []
                continue
            assert sol.value == max(dot(lp.objective, x) for x in vertices)
            assert_certificate(lp, sol)
            verified += 1
        assert verified >= 30


RATIONALS = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 3, 5, 6]))


@st.composite
def linear_systems(draw):
    """(a, b) with up to five rows and columns, then up to two more rows,
    each an integer combination of the rows so far (a repeat, a zero row
    or a dependent one) whose rhs is the same combination, or that plus 1,
    which makes the system inconsistent."""
    n = draw(st.integers(0, 5))
    a = draw(st.lists(st.lists(RATIONALS, min_size=n, max_size=n), max_size=5))
    b = draw(st.lists(RATIONALS, min_size=len(a), max_size=len(a)))
    for _ in range(draw(st.integers(0, 2)) if a else 0):
        c = draw(st.lists(st.integers(-2, 2), min_size=len(a), max_size=len(a)))
        a.append([dot(c, col) for col in zip(*a)] if n else [])
        b.append(dot(c, b) + draw(st.sampled_from([0, 0, 1])))
    return a, b


class TestReductionMatchesGaussJordan:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(linear_systems())
    @example(([], []))
    @example(([[]], [F(1)]))
    @example(([fl([0, 0]), fl([0, 0])], fl([0, 0])))
    @example(([fl([0, 0, 0])], fl([2])))
    @example(([fl([1, 2, 3]), fl([1, 2, 3])], fl([1, 1])))
    @example(([fl([1, 2, 3]), fl([2, 4, 6]), fl([0, 1, 1])], fl([1, 2, 5])))
    def test_rank_and_solution_equal_the_fraction_reference(self, system):
        a, b = system
        assert len(basis_rows(a)) == reference.rank(a)
        # basis_rows keeps exactly the rows that raise the rank of those
        # before them.
        kept = basis_rows(a)
        assert kept == [i for i in range(len(a))
                        if reference.rank(a[:i + 1]) > reference.rank(a[:i])]
        assert solve_linear_system(a, b) == reference.solve_linear_system(a, b)


    def test_integer_rows_with_shared_factors(self):
        # Integer combinations of a few rows whose entries share factors:
        # the leads of the kept rows and the entries they eliminate often
        # have a gcd above 1, which the elimination step cancels first.
        rng = random.Random(11)
        eliminate = numerics._eliminate
        steps = {"all": 0, "h > 1": 0}

        def counting(row, q, f, nz):
            steps["all"] += 1
            steps["h > 1"] += math.gcd(q, f) > 1
            return eliminate(row, q, f, nz)

        with mock.patch.object(numerics, "_eliminate", counting):
            for _ in range(300):
                width = rng.randint(1, 6)
                base = [[rng.choice((0, 0, 1, -2, 3, 4, -6)) * rng.choice((1, 2, 6))
                         for _ in range(width)] for _ in range(rng.randint(1, 4))]
                a = [[sum(c * b[j] for c, b in zip(coeffs, base))
                      for j in range(width)]
                     for coeffs in ([rng.choice((0, 1, -2, 3, 6)) for _ in base]
                                    for _ in range(rng.randint(1, 6)))]
                assert len(basis_rows(a)) == reference.rank(a)
                assert basis_rows(a) == [
                    i for i in range(len(a))
                    if reference.rank(a[:i + 1]) > reference.rank(a[:i])]
        assert steps["h > 1"] >= 100, steps


@st.composite
def mixed_lps(draw):
    """Up to 4 variables, each boxed or fixed; equality and <= rows with
    rational entries over mixed denominators and right-hand sides of either
    sign, so LPs with an optimum and infeasible ones occur.
    Equality rows are often homogeneous, which leaves artificials basic at
    0."""
    n = draw(st.integers(1, 4))

    def rows(k):
        return [draw(st.lists(RATIONALS, min_size=n, max_size=n)) for _ in range(k)]

    lower, upper = [], []
    for _ in range(n):
        lo = draw(RATIONALS)
        up = draw(st.just(lo) | RATIONALS)
        if lo > up:
            lo, up = up, lo
        lower.append(lo)
        upper.append(up)
    k, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    b_eq = [draw(st.just(F(0)) | RATIONALS) for _ in range(k)]
    return RationalLP(objective=rows(1)[0], a_eq=rows(k), b_eq=b_eq,
                         a_ub=rows(m), b_ub=[draw(RATIONALS) for _ in range(m)],
                         lower=lower, upper=upper)


class _NoOptimum(Exception):
    pass


def reference_outcome(lp: RationalLP):
    """(status, value) of ``lp`` by ``reference.simplex``, run on
    ``solve_lp``'s standard form in place of the engine: ("optimal", the
    optimum), or ("infeasible", None)."""
    def simplex(*args):
        status, result = reference.simplex(*args)
        if status != "optimal":
            raise _NoOptimum(status)
        return result

    with mock.patch.object(numerics, "_simplex", simplex):
        try:
            return "optimal", solve(lp).value
        except _NoOptimum as e:
            return e.args[0], None


class TestIntegerEngine:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(mixed_lps())
    # The second equality row is twice the first.  Its artificial, the
    # larger violation at the start, leaves at its bound 0; the first
    # row's artificial stays basic at 0.
    @example(RationalLP(objective=fl([-1, -1]), a_eq=[fl([1, 1]), fl([2, 2])],
                           b_eq=fl([1, 2]), upper=fl(["1/2", "2/3"])))
    @example(RationalLP(objective=fl([1]), a_eq=[fl([2])], b_eq=fl(["-1/3"]),
                           upper=fl([1])))
    # The long step flips x0 and x1 to their bound 1 before x2 enters.
    @example(RationalLP(objective=fl([-1, -1, -1]), a_ub=[fl([-1, -1, -1])],
                           b_ub=fl(["-5/2"]), upper=fl([1, 1, 1])))
    def test_matches_the_fraction_reference(self, lp):
        # The dual simplex leaves the reference's primal Bland path, so
        # another optimal vertex may come back: the status and the value
        # must agree, and every optimum must verify from the LP data.
        # Where the reference finds no feasible point, solve_lp raises.
        status, sol = outcome(lp)
        if sol is not None:
            assert_certificate(lp, sol)
        assert (status, sol.value if sol else None) == reference_outcome(lp)

    @pytest.mark.parametrize("a_eq, b_eq, status, value", [
        # x1 is fixed at 1/2; both rows become x0 = 1/2, one of them dependent.
        ([fl([1, 1]), fl([1, 2])], fl([1, "3/2"]), "optimal", F(3, 2)),
        # The row becomes 0 = 0 after the substitution.
        ([fl([0, 1])], fl(["1/2"]), "optimal", F(2)),
        # The first row becomes 0 = 1/2.
        ([fl([0, 1]), fl([1, 1])], fl([1, 1]), "infeasible", None),
    ])
    def test_fixed_variable_in_an_equality_row(self, a_eq, b_eq, status, value):
        lp = RationalLP(objective=fl([1, 2]), a_eq=a_eq, b_eq=b_eq,
                           lower=fl([0, "1/2"]), upper=fl([1, "1/2"]))
        got, sol = outcome(lp)
        assert (got, sol.value if sol else None) == (status, value)
        if sol is not None:
            assert_certificate(lp, sol)

    def test_flip_without_a_pivot(self):
        # Each variable of positive cost starts at its upper bound, where
        # the row already holds: no pivot and no counted flip is needed.
        lp = RationalLP(objective=fl([1, 1]), a_ub=[fl([1, 1])], b_ub=fl([3]),
                           lower=fl([0, 0]), upper=fl([1, 1]))
        sol = solve(lp)
        assert (sol.value, sol.x, sol.pivots, sol.flips) == (2, fl([1, 1]), 0, 0)
        assert_certificate(lp, sol)

    def test_long_step_flips_before_it_enters(self):
        # x0 + x1 + x2 >= 5/2 at least cost: the ratio test passes x0 and
        # x1, flipping each to its bound 1, and x2 enters at 1/2.
        lp = RationalLP(objective=fl([-1, -1, -1]), a_ub=[fl([-1, -1, -1])],
                           b_ub=fl(["-5/2"]), upper=fl([1, 1, 1]))
        sol = solve(lp)
        assert (sol.value, sol.x, sol.pivots, sol.flips) == \
            (F(-5, 2), fl([1, 1, "1/2"]), 1, 2)
        assert_certificate(lp, sol)

    def test_basic_variable_leaves_at_its_upper_bound(self, monkeypatch):
        # x0 enters on the first row (2 x0 + x1 >= 2) at 1.  The second row
        # (x0 + x1 >= 2) then takes in the first row's slack, which pushes
        # x0 to 2: x0 leaves the basis at its bound 1, and x1 enters.  The
        # one flip is x0's, while it is basic; no nonbasic slot flips.
        flips = []
        flip, flip_basic = numerics._Tableau.flip, numerics._Tableau.flip_basic

        def recording_flip(self, k, obj):
            flips.append(("nonbasic", self.nonbasic[k]))
            return flip(self, k, obj)

        def recording_flip_basic(self, r):
            flips.append(("basic", self.basis[r]))
            return flip_basic(self, r)

        monkeypatch.setattr(numerics._Tableau, "flip", recording_flip)
        monkeypatch.setattr(numerics._Tableau, "flip_basic", recording_flip_basic)
        lp = RationalLP(objective=fl([-1, -3]), a_ub=[fl([-2, -1]), fl([-1, -1])],
                           b_ub=fl([-2, -2]), lower=fl([0, 0]), upper=fl([1, 1]))
        sol = solve(lp)
        assert (sol.value, sol.x, sol.pivots, sol.flips) == (-4, fl([1, 1]), 3, 0)
        assert flips == [("basic", 0)]
        assert_certificate(lp, sol)

    def test_infeasible_only_by_the_bounds_raises(self):
        # x0 + x1 >= 3 cannot hold in the unit box; only the bounds x <= 1,
        # which have no rows of their own, refute it.
        lp = RationalLP(objective=fl([1, 1]), a_ub=[fl([-1, -1])], b_ub=fl([-3]),
                           lower=fl([0, 0]), upper=fl([1, 1]))
        with pytest.raises(RuntimeError, match=f"^{INFEASIBLE}$"):
            solve(lp)


class TestIntegerChecks:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(mixed_lps())
    # One optimal LP over every kind of row and bound, one infeasible,
    # which raises before any fold.
    @example(RationalLP(objective=fl([1, "1/2"]), a_eq=[fl(["1/3", 1])],
                           b_eq=fl(["1/2"]), a_ub=[fl([1, "-2/5"])], b_ub=fl(["1/6"]),
                           lower=fl([0, "-1/2"]), upper=fl(["5/6", 2])))
    @example(RationalLP(objective=fl([1]), a_eq=[fl([2])], b_eq=fl(["-1/3"]),
                           upper=fl([1])))
    def test_fold_matches_the_fraction_reference(self, lp):
        # The integer checks over the LP's scaled rows give the duals, the
        # bound multipliers and the dual value of the Fraction fold of the
        # same tableau duals, and accept the point the Fraction check does.
        folds = []
        with mock.patch.object(numerics, "_fold_duals", reference.recording_fold(
                numerics._fold_duals, folds)):
            _, sol = outcome(lp)
        if sol is None:
            assert folds == []
            return
        [(got, expected)] = folds
        assert got == expected
        assert (sol.dual_eq, sol.dual_ub, sol.reduced_costs, sol.value) == expected
        reference.check_primal(lp, sol.x)


def fractional_lp(rng: random.Random) -> RationalLP:
    """``random_lp`` with rational bounds and row entries over mixed
    denominators: the bounds need a common denominator above 1, and some
    variables are fixed."""
    n = rng.randint(1, 4)

    def q(lo, hi):
        return F(rng.randint(lo, hi), rng.choice((1, 2, 3, 5)))

    lower = [q(-6, 2) for _ in range(n)]
    upper = [lo + q(0, 8) for lo in lower]
    m, k = rng.randint(0, 3), rng.randint(0, 2)
    return RationalLP(
        objective=[q(-4, 4) for _ in range(n)],
        a_ub=[[q(-3, 3) for _ in range(n)] for _ in range(m)],
        b_ub=[q(-2, 4) for _ in range(m)],
        a_eq=[[q(-2, 2) for _ in range(n)] for _ in range(k)],
        b_eq=[q(-2, 2) for _ in range(k)],
        lower=lower, upper=upper)


class TestFractionalBounds:
    def test_example(self):
        # max x0 + x1 with -3/2 <= x0 <= 7/3, 0 <= x1 <= 1/2 and
        # x0 + 2 x1 <= 5/2: x0 sits at its upper bound and x1 = 1/12
        # fills the row.
        lp = RationalLP(objective=fl([1, 1]), a_ub=[fl([1, 2])], b_ub=fl(["5/2"]),
                           lower=fl(["-3/2", 0]), upper=fl(["7/3", "1/2"]))
        sol = solve(lp)
        assert (sol.value, sol.x) == (F(29, 12), fl(["7/3", "1/12"]))
        assert_certificate(lp, sol)

    def test_matches_vertex_enumeration_and_the_fraction_fold(self, monkeypatch):
        # solve_lp scales the bounds to integers over their common
        # denominator and rebuilds x from the tableau's point: the optimum
        # is a vertex of best value, and the integer dual fold equals the
        # Fraction fold of the same duals.
        folds = []
        monkeypatch.setattr(numerics, "_fold_duals", reference.recording_fold(
            numerics._fold_duals, folds))
        rng = random.Random(41)
        checked = inside = 0
        for _ in range(150):
            lp = fractional_lp(rng)
            folds.clear()
            _, sol = outcome(lp)
            vertices = reference.enumerate_vertices(lp)
            if sol is None:
                assert vertices == [] and folds == []
                continue
            assert sol.value == max(dot(lp.objective, x) for x in vertices)
            assert sol.x in vertices
            [(got, expected)] = folds
            assert got == expected
            assert_certificate(lp, sol)
            checked += 1
            inside += any(lo < v < up for v, lo, up in zip(sol.x, lp.lower, lp.upper))
        assert checked >= 50 and inside >= 20


class TestPivot:
    @staticmethod
    def dense(tab, obj):
        """The dense tableau behind a condensed one, in Fractions: row i
        holds rows[i] / dens[i] at its nonbasic variables, 1 at its basic
        variable and 0 at the others, and the objective row holds 0 at
        every basic variable."""
        width = len(tab.nonbasic) + len(tab.basis)
        rows = []
        for i, (row, d) in enumerate(zip(tab.rows, tab.dens)):
            dense = [F(0)] * width + [F(row[-1], d)]
            dense[tab.basis[i]] = F(1)
            for k, j in enumerate(tab.nonbasic):
                dense[j] = F(row[k], d)
            rows.append(dense)
        dense_obj = [F(0)] * width + [F(obj[-1], tab.objden)]
        for k, j in enumerate(tab.nonbasic):
            dense_obj[j] = F(obj[k], tab.objden)
        return rows, dense_obj

    @staticmethod
    def dense_pivot(rows, obj, r, c):
        """The dense pivot on row r, column c: the pivot row over its
        pivot entry, and every other row and ``obj`` minus its column-c
        entry times it, over all of their entries."""
        prow = [a / rows[r][c] for a in rows[r]]
        rows = [prow if i == r else [a - row[c] * b for a, b in zip(row, prow)]
                for i, row in enumerate(rows)]
        return rows, [a - obj[c] * b for a, b in zip(obj, prow)]

    def test_matches_the_dense_update(self):
        # Random condensed tableaus over a random split of the variables
        # into basic and nonbasic ones, a third of their entries 0, each
        # row in lowest terms over a random denominator, as the tableau
        # keeps them; the pivot entry is negative, as in the dual simplex,
        # or positive.  Entries share small factors, so the pivot entry q
        # and a row's entry f often have h = gcd(q, f) > 1, h = q as well,
        # and the objective's pivot-slot entry is often 0.  After the
        # pivot, every nonbasic column of the dense pivot's result is the
        # condensed one's, and every stored row is in lowest terms over a
        # positive denominator, so its integers are the unique ones.
        rng = random.Random(7)
        cases = {"h > 1": 0, "h = q > 1": 0, "objective entry 0": 0}

        def entry():
            return 0 if rng.random() < 0.35 else \
                rng.randint(-9, 9) * rng.choice((1, 2, 6, 12))

        def lowest(row):
            return numerics._lowest_terms(row, rng.randint(1, 8))

        for trial in range(300):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
            rows = [[entry() for _ in range(ncols + 1)] for _ in range(nrows)]
            r, k = rng.randrange(nrows), rng.randrange(ncols)
            rows[r][k] = rng.randint(1, 12) * (1 if trial % 4 == 0 else -1)
            rows, dens = map(list, zip(*map(lowest, rows)))
            obj, objden = lowest([entry() for _ in range(ncols + 1)])
            order = list(range(ncols + nrows))
            rng.shuffle(order)
            tab = numerics._Tableau([list(row) for row in rows], ncols,
                                    [1] * (ncols + nrows))
            tab.nonbasic, tab.basis = order[:ncols], order[ncols:]
            tab.dens, tab.objden = list(dens), objden
            q = abs(rows[r][k])
            for i, row in enumerate(rows):
                h = math.gcd(q, row[k])
                if i != r and row[k] and h > 1:
                    cases["h > 1"] += 1
                    cases["h = q > 1"] += h == q
            cases["objective entry 0"] += obj[k] == 0
            entering, leaving = tab.nonbasic[k], tab.basis[r]
            expected = self.dense_pivot(*self.dense(tab, obj), r, entering)
            tab.pivot(r, k, obj)
            assert (tab.basis[r], tab.nonbasic[k]) == (entering, leaving)
            assert self.dense(tab, obj) == expected
            for row, d in [*zip(tab.rows, tab.dens), (obj, tab.objden)]:
                assert d > 0 and math.gcd(d, *row) == 1
        assert min(cases.values()) >= 20, cases


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
            "from icmech import numerics\n"
            "good = numerics._simplex\n"
            "def bad(*args):\n"
            "    point, y, value, den, counts = good(*args)\n"
            "    y[0] += den\n"
            "    return point, y, value, den, counts\n"
            "numerics._simplex = bad\n"
            "lp = numerics.LinearProgram(objective=[1], a_ub=[(1, [(0, 1)], 3)],\n"
            "                            upper=[5])\n"
            "try:\n"
            "    numerics.solve_lp(lp)\n"
            "except RuntimeError as e:\n"
            "    print('debug' if __debug__ else 'optimized', e)\n")
        assert run_optimized(script) == \
            "optimized exact LP check failed: strong duality\n"

    @pytest.mark.parametrize("rows, what", [
        ("a_eq=[(1, [(0, 1), (1, 1)], 1)]", "primal equality rows"),
        ("a_ub=[(1, [(0, 1), (1, 1)], 1)]", "primal inequality rows"),
    ])
    def test_moved_point_raises_under_python_o(self, rows, what):
        # max x0 with x0 + x1 (=, <=) 1 has its optimum at (1, 0).  Moving
        # x1, which the objective ignores, keeps the value and the duals
        # and breaks only the row.
        script = (
            "from icmech import numerics\n"
            "good = numerics._simplex\n"
            "def bad(*args):\n"
            "    point, y, value, den, counts = good(*args)\n"
            "    t, d = point[1]\n"
            "    point[1] = (t * 10**9 + d, d * 10**9)\n"
            "    return point, y, value, den, counts\n"
            "numerics._simplex = bad\n"
            f"lp = numerics.LinearProgram(objective=[1, 0], {rows},\n"
            "                            upper=[1, 1])\n"
            "try:\n"
            "    numerics.solve_lp(lp)\n"
            "except RuntimeError as e:\n"
            "    print('debug' if __debug__ else 'optimized', e)\n")
        assert run_optimized(script) == f"optimized exact LP check failed: {what}\n"

    @pytest.mark.parametrize("corrupt, lp_args, what", [
        # max x with x <= 3 and 0 <= x <= 5: the value moves off c . x.
        ("value += 1", "a_ub=[(1, [(0, 1)], 3)], upper=[5]",
         "objective value identity"),
        # The same LP: the <= row's dual turns negative.
        ("y[0] = -y[0] or -1", "a_ub=[(1, [(0, 1)], 3)], upper=[5]",
         "inequality duals are nonnegative"),
        # max x with 0 <= x <= 1 and no row: x moves past its bound.
        ("point[0] = (point[0][0] * 10**9 + 1, 10**9 * point[0][1])", "upper=[1]",
         "primal bounds"),
    ])
    def test_corrupted_result_raises_under_python_o(self, corrupt, lp_args, what):
        # Each check of solve_lp reads the engine's result exactly and
        # survives the stripped asserts.
        script = (
            "from icmech import numerics\n"
            "good = numerics._simplex\n"
            "def bad(*args):\n"
            "    point, y, value, den, counts = good(*args)\n"
            f"    {corrupt}\n"
            "    return point, y, value, den, counts\n"
            "numerics._simplex = bad\n"
            f"lp = numerics.LinearProgram(objective=[1], {lp_args})\n"
            "try:\n"
            "    numerics.solve_lp(lp)\n"
            "except RuntimeError as e:\n"
            "    print('debug' if __debug__ else 'optimized', e)\n")
        assert run_optimized(script) == f"optimized exact LP check failed: {what}\n"

    @staticmethod
    def solve_script(lp_args: str) -> str:
        return ("from icmech import numerics\n"
                f"lp = numerics.LinearProgram(objective=[1], {lp_args})\n"
                "try:\n"
                "    numerics.solve_lp(lp)\n"
                "except RuntimeError as e:\n"
                "    print('debug' if __debug__ else 'optimized', e)\n")

    def test_infeasible_lp_raises_under_python_o(self):
        # x = -1 with 0 <= x <= 1 has no feasible point.
        script = self.solve_script("a_eq=[(1, [(0, 1)], -1)], upper=[1]")
        assert run_optimized(script) == f"optimized {INFEASIBLE}\n"

    def test_unbounded_lp_raises_under_python_o(self):
        # max x with x >= 0 and no upper bound is refused when it is built.
        script = ("from icmech import numerics\n"
                  "try:\n"
                  "    numerics.LinearProgram(objective=[1], upper=[None])\n"
                  "except ValueError as e:\n"
                  "    print('debug' if __debug__ else 'optimized', e)\n")
        assert run_optimized(script) == \
            "optimized every variable needs a finite upper bound\n"

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

    def test_failed_ic_check_raises_at_full_rank_under_python_o(self):
        # At full rank no LP runs, and the constant optimum is still only
        # returned once check_ic confirms it.
        script = (
            "from icmech import oracle\n"
            "from icmech.fixtures import fixture\n"
            "good = oracle.check_ic\n"
            "def bad(*args):\n"
            "    report = good(*args)\n"
            "    report.verdict = False\n"
            "    return report\n"
            "oracle.check_ic = bad\n"
            "inst = fixture('fx2')\n"
            "print(inst.dist.matrix_rank() == min(inst.space.shape))\n"
            "try:\n"
            "    oracle.solve_principal(inst)\n"
            "except RuntimeError as e:\n"
            "    print('debug' if __debug__ else 'optimized', e)\n")
        assert run_optimized(script) == ("True\noptimized oracle check failed: "
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

    def test_cyclic_peeled_point_raises_under_python_o(self):
        # An "extreme point" that is the whole remaining mass peels in one
        # step and reconstructs x exactly; only the acyclicity check of the
        # peeling sees that the constant mechanism's full 2x2 support is a
        # cycle, and that check must survive the stripped asserts.
        script = (
            "from fractions import Fraction as F\n"
            "from icmech import profit\n"
            "from icmech.core import Mechanism, TypeSpace, constant_array\n"
            "profit._extreme_point_within_support = "
            "lambda r, ml, mr: r\n"
            "space = TypeSpace(('l', 'r'), ((0, 1), (0, 1)))\n"
            "half = [F(1, 2)] * 2\n"
            "try:\n"
            "    profit.decompose(Mechanism(space, constant_array((2, 2), 1)),\n"
            "                     half, half)\n"
            "except RuntimeError as e:\n"
            "    print('debug' if __debug__ else 'optimized', e)\n")
        assert run_optimized(script) == ("optimized profit check failed: "
                                         "the peeled point's support is acyclic\n")

    def test_no_assert_in_the_package(self):
        # Every check in icmech is a ``require``: an ``assert`` would vanish
        # under python -O.
        package = Path(numerics.__file__).resolve().parent
        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(package.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
        assert found == []

    def test_no_float_arrays_in_the_package(self):
        # icmech starts OpenBLAS with one thread (see icmech/__init__); that
        # is free only while every array holds exact objects and nothing
        # reaches float linear algebra.
        def floating(name):
            return name == "linalg" or name.startswith("float")

        package = Path(numerics.__file__).resolve().parent
        found = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.keyword) and node.arg == "dtype":
                    bad = not (isinstance(node.value, ast.Name)
                               and node.value.id == "object")
                elif isinstance(node, ast.Attribute):
                    bad = (isinstance(node.value, ast.Name)
                           and node.value.id in ("np", "numpy")
                           and floating(node.attr))
                elif isinstance(node, ast.ImportFrom):
                    module = (node.module or "").split(".")
                    bad = module[0] == "numpy" and any(map(floating, [
                        *module[1:], *(alias.name for alias in node.names)]))
                else:
                    continue
                if bad:
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

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
