"""The spanning preorder: which distributions restrict mechanisms more?

A distribution spans another when every interim belief an agent can hold
under the second is a linear combination of beliefs he can hold under the
first.  Spanning shrinks the set of implementable mechanisms: full-rank
distributions sit at the top (only constant mechanisms survive) and
independent distributions at the bottom.
"""

import numpy as np

from icmech import (Instance, check_ic, classify_extremes, expectation,
                    normalize, product_dist, spans, solve_principal)
from icmech.fixtures import fixture
from icmech.oracle import generate

independent = fixture("fx1")
full_rank = fixture("fx2")

print("does the correlated distribution span the independent one?",
      spans(full_rank.dist, independent.dist).spans)
print("and the other way around?",
      spans(independent.dist, full_rank.dist).spans)

print("\nclassification in the preorder")
print("  correlated (eps = 1/8):", classify_extremes(full_rank.dist))
print("  uniform independent:  ", classify_extremes(independent.dist))

print("\nmonotonicity: mechanisms IC under a spanning distribution stay IC "
      "under the spanned one")
inst = generate(12, (3, 3), "conditionally-independent", k=2)
weaker = product_dist(inst.space, inst.dist.marginals())
assert spans(inst.dist, weaker).spans
zero = np.zeros(inst.space.shape, dtype=object)
for k in range(3):
    # The principal's optimum for another objective, centred under
    # inst.dist; here it is not a constant mechanism.
    v = generate(k, (3, 3), "correlated").v
    v = v - expectation(inst.dist, v)
    x = solve_principal(Instance(inst.space, inst.dist,
                                 normalize(v, zero, inst.dist))).mechanism
    print(f"  optimal IC mechanism {k}: IC under the independent counterpart ->",
          check_ic(x, weaker).verdict)

print("\ncollapse at the top: the best IC value under the full-rank "
      "distribution is", solve_principal(full_rank).value)
