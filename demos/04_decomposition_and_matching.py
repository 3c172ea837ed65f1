"""IC mechanisms under independence are blends of matching rules.

With independent types, a mechanism is IC exactly when it is a nonnegative
combination of extreme points of the fixed-marginals polytope, rescaled by
the product density.  With uniform marginals those extreme points are the
permutation couplings: every IC mechanism mixes "match the other report
under some relabeling" rules, and profitability reduces to an assignment
problem.
"""

from fractions import Fraction

import numpy as np

from icmech import Mechanism, constant_mechanism, decompose, match_your_opponent
from icmech.fixtures import fixture

inst = fixture("fx1")
ml, mr = inst.dist.marginals()

print("decomposing the always-pick-the-first-option rule (x = 1):")
dec = decompose(constant_mechanism(inst.space, 1), ml, mr)
for gamma, point in zip(dec.gammas, dec.extreme_points):
    print(f"  weight {gamma} on extreme point")
    for row in point:
        print("   ", [str(v) for v in row])

print("\ndecomposing the matching rule:")
xstar = Mechanism(inst.space, np.array([[Fraction(1), Fraction(0)],
                                        [Fraction(0), Fraction(1)]],
                                       dtype=object))
dec = decompose(xstar, ml, mr)
print(f"  single term, weight {dec.gammas[0]}, total mass q = {dec.q}")

print("\nmatch-your-opponent analysis on the 3x3 product objective:")
rep = match_your_opponent(fixture("fx3"))
print("  best matching:", rep.best_matching)
print("  value:", rep.best_value)
print("  objective supermodular:", rep.supermodular)
print("  unweighted diagonal sum:", rep.diagonal_sum)
print("  profitable:", rep.profitable, f"({rep.criterion})")
