"""Allocating one good among three agents with independent types.

Giving the good to an agent is worth the NEXT agent's type (cyclically),
so no agent's value separates into per-type terms and the unbiased
principal can profit from eliciting reports.  Free disposal reduces to the
same machinery with a dummy agent who "receives" the withheld good.
"""

import numpy as np

from icmech import (construct_profitable_n, difference_additive,
                    solve_principal_alloc, with_disposal)
from icmech.fixtures import fixture
from icmech.nalloc import AllocationInstance

inst = fixture("fx4")
print("agents:", inst.space.agents)
print("expected value of always allocating to each agent:",
      [str(e) for e in inst.expected_values], "-> vbar =", inst.vbar)

rep = difference_additive(inst)
print("\nvalue differences split into per-type terms:", rep.holds)

built = construct_profitable_n(inst)
print("constructed mechanism payoff:", built.payoff, "> vbar =", built.vbar)
print("IC audit:", built.ic_report.verdict)
print("interim win probabilities (constant per agent):")
for (agent, label), p in sorted(built.ic_report.interim.items()):
    print(f"  agent {agent}, type {label:>2}: {p}")

lp = solve_principal_alloc(inst)
print("\ndirect LP optimum over all IC mechanisms:", lp.value,
      "(the construction is profitable, not optimal)")

disp = AllocationInstance(inst.space, inst.marginals, inst.values,
                          disposal=True, name="fx4-disposal")
res = with_disposal(disp)
print("\nwith free disposal: profitable:", res.profitable,
      "- witnessing agent whose value depends on others:", res.witness)
burn = res.mechanism.x[-1]
print("largest disposal probability used:",
      max(burn[idx] for idx in np.ndindex(*burn.shape)))
