"""The auxiliary two-player zero-sum game induced by a mechanism.

A two-option mechanism x defines a matrix game: the first agent picks a
row (his report), the second picks a column, and the row player receives
x(row, col).  Incentive compatibility of x under a distribution pi is the
same thing as pi being a correlated equilibrium of this game, and every
IC mechanism's interim expectations collapse to the game's maximin value.
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


def _one_side_lp(matrix: list[list[Fraction]]) -> tuple[Fraction, list[Fraction]]:
    """max_s min_j (s^T M)_j over the simplex; returns (value, strategy)."""
    m = len(matrix)
    n = len(matrix[0])
    # Variables: s_1..s_m, v.  Maximize v subject to v <= (s^T M)_j.
    objective = [ZERO] * m + [ONE]
    a_ub = []
    b_ub = []
    for j in range(n):
        row = [-matrix[i][j] for i in range(m)] + [ONE]
        a_ub.append(row)
        b_ub.append(ZERO)
    a_eq = [[ONE] * m + [ZERO]]
    b_eq = [ONE]
    lower: list = [ZERO] * m + [None]
    sol = solve_lp(LinearProgram(objective=objective, a_eq=a_eq, b_eq=b_eq,
                                 a_ub=a_ub, b_ub=b_ub, lower=lower))
    require(sol.status == "optimal", "maximin", "a side's LP has an optimum")
    return sol.value, sol.x[:m]


def maximin(x: Mechanism) -> MaximinSolution:
    """Maximin value of the game with payoff matrix x, plus equilibrium
    strategies.  Solves both players' LPs and checks that the two values
    coincide exactly (minimax duality)."""
    two_agent(x.space)
    mat = [list(row) for row in x.x]
    value, sigma_row = _one_side_lp(mat)
    # The column player minimizes, so she solves the maximin problem of -x^T.
    neg_t = [[-x.x[i, j] for i in range(x.space.shape[0])]
             for j in range(x.space.shape[1])]
    value_col, sigma_col = _one_side_lp(neg_t)
    require(value == -value_col, "maximin", "both sides' values agree")
    sol = MaximinSolution(value=value,
                          sigma_maximizer=np.array(sigma_row, dtype=object),
                          sigma_minimizer=np.array(sigma_col, dtype=object))
    _verify_equilibrium(mat, sol)
    return sol


def _verify_equilibrium(mat, sol: MaximinSolution) -> None:
    m, n = len(mat), len(mat[0])
    col_payoffs = [sum(sol.sigma_maximizer[i] * mat[i][j] for i in range(m))
                   for j in range(n)]
    row_payoffs = [sum(mat[i][j] * sol.sigma_minimizer[j] for j in range(n))
                   for i in range(m)]
    require(min(col_payoffs) == sol.value == max(row_payoffs), "maximin",
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
                    common_value=expectation(pi, x.x) if verdict else None,
                    gain_weighting="joint")
