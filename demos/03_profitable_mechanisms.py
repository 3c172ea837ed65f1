"""When can the principal beat her best constant decision?

Three exact routes to the same answer:
  1. project the weighted objective onto the conditional-section subspace
     and read the residual (and turn a nonzero residual into a mechanism);
  2. solve the constrained optimal-transport problem over distributions
     with the instance's marginals, orthogonal to its correlation;
  3. maximize directly over the IC polytope with an LP.
"""

from icmech import (additivity_test, construct_profitable, solve_principal,
                    transport_criterion)
from icmech.core import NoneCertificate
from icmech.fixtures import fixture

for inst in (fixture("fx1"), fixture("fx5"), fixture("fx2")):
    print(f"--- {inst.name}: E[v] = {inst.objective.expected_value} ---")

    add = additivity_test(inst)
    print("  objective additive relative to the distribution:",
          add.is_pi_additive)

    res = construct_profitable(inst)
    if isinstance(res, NoneCertificate):
        print(f"  construction: none exists ({res.method})")
    else:
        print(f"  construction: payoff {res.payoff} with step {res.epsilon}")
        print("  built mechanism:")
        for row in res.mechanism.x:
            print("   ", [str(v) for v in row])

    transport = transport_criterion(inst)
    print(f"  transport value: {transport.value} "
          f"({transport.orthogonality_rows} orthogonality rows)"
          f" -> profitable: {transport.profitable}")

    lp = solve_principal(inst)
    print(f"  direct LP over the IC polytope: {lp.value}")
    print()
