"""How correlation kills implementability: the 2x2 worked example.

Two agents with types in {-1, 1}; the principal earns the product of the
types if she picks the first option and nothing otherwise.  The ideal rule
("pick the first option iff the reports agree") is incentive compatible
when types are independent, but under correlated types each agent can
predict the other's report and the rule collapses.
"""

from fractions import Fraction

import numpy as np

from icmech import (Mechanism, check_ic, expectation, maximin,
                    obedience_check, solve_principal)
from icmech.fixtures import fixture

independent = fixture("fx1")
correlated = fixture("fx2")
xstar = Mechanism(independent.space,
                  np.array([[Fraction(1), Fraction(0)],
                            [Fraction(0), Fraction(1)]], dtype=object))

print("objective v(s,t) = s*t, uniform independent types")
print("ex-ante value of either option:", independent.objective.expected_value)

report = check_ic(xstar, independent.dist)
print("\nmatching rule under independence")
print("  IC:", report.verdict)
print("  every interim expectation:", report.common_value)
print("  principal's payoff:", expectation(independent.dist,
                                            independent.v * xstar.x))

game = maximin(xstar)
print("\nthe auxiliary zero-sum game behind that rule")
print("  maximin value:", game.value)
print("  row strategy:", [str(p) for p in game.sigma_maximizer])
print("  (every IC mechanism's interim value equals this game value)")

print("\nmatching rule under the correlated distribution (eps = 1/8)")
report = check_ic(xstar, correlated.dist)
print("  IC:", report.verdict)
for v in report.violations:
    print(f"  agent {v.agent}, type {v.true_type}: gains {v.gain} "
          f"by reporting {v.deviation}")
obed = obedience_check(xstar, correlated.dist)
print("  same verdict as a correlated-equilibrium obedience check:",
      obed.verdict)

best = solve_principal(correlated)
print("\nbest IC mechanism under the correlated distribution")
print("  optimal value:", best.value, "(only constant rules survive)")
