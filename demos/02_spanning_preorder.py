"""The spanning preorder: which distributions restrict mechanisms more?

A distribution spans another when every interim belief an agent can hold
under the second is a linear combination of beliefs he can hold under the
first.  Spanning shrinks the set of implementable mechanisms: full-rank
distributions sit at the top (only constant mechanisms survive) and
independent distributions at the bottom.
"""

import random

from icmech import check_ic, classify_extremes, spans, solve_principal
from icmech.fixtures import fixture
from icmech.oracle import generate, sample_ic_vertex

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
rng = random.Random(0)
inst = generate(12, (3, 3), "correlated")
weaker = inst.dist.independent_counterpart()
assert spans(inst.dist, weaker).spans
for k in range(3):
    x = sample_ic_vertex(inst.dist, rng)
    print(f"  sampled IC vertex {k}: IC under the independent counterpart ->",
          check_ic(x, weaker).verdict)

print("\ncollapse at the top: the best IC value under the full-rank "
      "distribution is", solve_principal(full_rank).value)
