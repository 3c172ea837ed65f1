"""The auxiliary two-player zero-sum game induced by a mechanism.

A two-option mechanism x defines a matrix game: the first agent picks a
row (their report), the second picks a column, and the row player receives
x(row, col).  Incentive compatibility of x under a distribution pi is the
same thing as pi being a correlated equilibrium of this game, and every
IC mechanism's interim expectations collapse to the game's maximin value.
``maximin`` reads both players' strategies off one LP and its dual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import JointDist, Mechanism, PreconditionError, expectation, two_agent
from .ic import ICReport, Violation
from .numerics import LinearProgram, integer_row, require, solve_lp

ONE = Fraction(1)


@dataclass
class MaximinSolution:
    """Exact value and a Nash equilibrium of the auxiliary matrix game."""

    value: Fraction
    sigma_maximizer: np.ndarray
    sigma_minimizer: np.ndarray


def maximin(x: Mechanism) -> MaximinSolution:
    """Maximin value of the game with payoff matrix x and equilibrium
    strategies from one LP, the row player's: max v over the simplex with
    v <= (s^T x)_j for every column j.  Its duals on those rows are the
    column player's strategy, and by strong duality no row earns more than
    v against them; ``solve_lp`` checks that.

    Every LP variable is boxed: s lies in [0, 1], and v in [-1, 2].  x's
    entries lie in [0, 1], so the value does too, and v sits at neither
    bound.  The upper bound is 2, not 1, because the all-ones mechanism has
    value exactly 1: v would sit at a bound of 1, its multiplier could be
    nonzero, and the duals would no longer sum to 1.  So v has reduced
    cost 0 and the duals sum to 1, checked here."""
    two_agent(x.space)
    m = x.space.shape[0]
    # Column j's row, v - (s^T x)_j <= 0, over the lcm of its denominators.
    columns = [integer_row(column) for column in x.x.T]
    sol = solve_lp(LinearProgram(
        objective=[0] * m + [1], a_eq=[(1, [(i, 1) for i in range(m)], 1)],
        a_ub=[(s, [(i, -a) for i, a in enumerate(ints) if a] + [(m, s)], 0)
              for s, ints in columns],
        lower=[0] * m + [-1], upper=[1] * m + [2]))
    require(sum(sol.dual_ub) == ONE, "maximin",
            "the column player's strategy sums to 1")
    res = MaximinSolution(value=sol.value,
                          sigma_maximizer=np.array(sol.x[:m], dtype=object),
                          sigma_minimizer=np.array(sol.dual_ub, dtype=object))
    _verify_equilibrium(x.x, res)
    return res


def _verify_equilibrium(mat: np.ndarray, sol: MaximinSolution) -> None:
    require(min(sol.sigma_maximizer.dot(mat)) == sol.value ==
            max(mat.dot(sol.sigma_minimizer)), "maximin",
            "no pure deviation improves either player")


def obedience_check(x: Mechanism, pi: JointDist) -> ICReport:
    """Is pi a correlated equilibrium of the game with payoff matrix x?

    Checks every obedience inequality directly under the joint weighting
    sum_other pi(rec, other) * [x(dev, other) - x(rec, other)] <= 0; the
    column player's inequalities are these on (pi^T, 1 - x^T).  The verdict
    equals IC of x under pi; the reported gains are on the joint scale,
    which differs from the interim (conditional) scale by the positive
    factor pi_i(rec).

    In integers, pi as P / D and x as X / d: the gain of reporting dev is
    M[rec, dev] - M[rec, rec] over D d, with M = P X^T for the row player
    and M = -P^T X for the column player, whose payoff is 1 - x.
    """
    two_agent(pi.space)
    if x.space != pi.space:
        raise PreconditionError("mechanism and distribution type spaces differ")
    space = pi.space
    scale, ints = integer_row(x.x.reshape(-1))
    xs = np.array(ints, dtype=object).reshape(space.shape)
    den = pi.den * scale
    violations: list[Violation] = []
    for i, joint in enumerate((pi.nums.dot(xs.T), -pi.nums.T.dot(xs))):
        for a, rec in enumerate(space.types[i]):
            for b, dev in enumerate(space.types[i]):
                gain = joint[a, b] - joint[a, a]
                if gain > 0:
                    violations.append(Violation(space.agents[i], rec, dev,
                                                Fraction(gain, den)))
    verdict = not violations
    return ICReport(verdict=verdict, violations=violations,
                    common_value=expectation(pi, x.x) if verdict else None)
