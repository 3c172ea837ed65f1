"""The auxiliary two-player zero-sum game induced by a mechanism.

A two-option mechanism x defines a matrix game: the first agent picks a
row (his report), the second picks a column, and the row player receives
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
from .numerics import LinearProgram, require, solve_lp

ZERO = Fraction(0)
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
    column player's strategy: the free v has reduced cost 0, so they sum to
    1, and by strong duality no row earns more than v against them;
    ``solve_lp`` checks both."""
    two_agent(x.space)
    m, n = x.space.shape
    sol = solve_lp(LinearProgram(
        objective=[ZERO] * m + [ONE], a_eq=[[ONE] * m + [ZERO]], b_eq=[ONE],
        a_ub=[[-v for v in column] + [ONE] for column in x.x.T],
        b_ub=[ZERO] * n, lower=[ZERO] * m + [None]))
    require(sol.status == "optimal", "maximin", "the row player's LP has an optimum")
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
    """
    two_agent(pi.space)
    if x.space != pi.space:
        raise PreconditionError("mechanism and distribution type spaces differ")
    space = pi.space
    violations: list[Violation] = []
    for i, (joint, payoff) in enumerate(((pi.p, x.x), (pi.p.T, 1 - x.x.T))):
        for a, rec in enumerate(space.types[i]):
            for b, dev in enumerate(space.types[i]):
                gain = joint[a].dot(payoff[b] - payoff[a])
                if gain > 0:
                    violations.append(Violation(space.agents[i], rec, dev, gain))
    verdict = not violations
    return ICReport(verdict=verdict, violations=violations,
                    common_value=expectation(pi, x.x) if verdict else None)
