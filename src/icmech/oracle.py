"""Independent ground truth and instance generation.

``solve_principal`` maximizes the principal's payoff directly as an exact
LP over the IC polytope (the interim equalities plus 0 <= x <= 1), with
no knowledge of the profitability results the rest of the package
implements; agreement between the two routes is what the test suite
certifies.  The two-option problem allocates one good between two agents,
and ``solve_principal_alloc`` solves the same problem for n agents.  One
family of IC rows serves every number of agents: ``belief.value_rows``
reads them off pi, with one common interim value per share block as one
more unknown.  With two agents the paper's coordinates add a shortcut: the
IC set is span(J) + col(pi)^perp (x) row(pi)^perp, so at full rank only
the constants are IC and no LP runs.  The module also generates
deterministic random instances of several structured kinds for property
sweeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (MAX_PROFILES, Instance, JointDist, Mechanism,
                   PreconditionError, TypeSpace, constant_array, expectation,
                   normalize, product_dist)
from .belief import value_rows
from .ic import ICReport, check_ic
from .nalloc import AllocationInstance, AllocationMechanism, check_ic_n
from .numerics import LinearProgram, integer_row, require, solve_lp

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class PrincipalSolution:
    """Exact optimum of the principal's problem over the IC polytope, with
    the IC report that checked the optimal mechanism."""

    value: Fraction
    mechanism: object
    profitable: bool
    baseline: Fraction
    ic_report: ICReport


def solve_principal(instance: Instance) -> PrincipalSolution:
    """Two-option principal's problem, solved head-on.

    Maximize E[v * x] over 0 <= x <= 1 subject to the interim-equality rows;
    profitable iff the optimum exceeds the best constant decision, which is
    0 under the label normalization E[v] <= 0.
    """
    dist = instance.dist
    scale, vals = integer_row(instance.v.reshape(-1))
    value, x, _, _ = _ic_optimum(dist, [p * v for p, v in zip(dist.nums.flat, vals)],
                                 dist.den * scale)
    mech = Mechanism(instance.space, np.array(x, dtype=object).reshape(dist.space.shape))
    icr = check_ic(mech, instance.dist)
    require(icr.verdict, "oracle", "the LP optimum is IC")
    return PrincipalSolution(value=value, mechanism=mech,
                             profitable=value > 0, baseline=ZERO, ic_report=icr)


def _ic_optimum(dist: JointDist, weights: list[int],
                scale: int) -> tuple[Fraction, list[Fraction], int, list[int]]:
    """Maximize objective . x over the IC polytope of ``dist``, x the first
    n - 1 agents' shares, block by block and flat over profiles, and the
    objective the integer ``weights`` over ``scale`` > 0: the optimal value
    and an optimal vertex x, flat, as ``Fraction``s and as integers over
    one denominator: (value, x, den, nums).

    The LP runs over x and one common interim value per block, last, with
    the rows of ``belief.value_rows``; the last agent holds 1 minus the
    shares, and with more than one block one sum row per profile bounds
    them.  Two agents (one block) have the paper's coordinates: the IC set
    is span(J) + col(pi)^perp (x) row(pi)^perp, of dimension
    1 + (m - r)(n - r) with r = rank(pi).  At full rank, r = min(m, n),
    only the constants are IC and no LP runs: the optimum is J when the
    objective sums to more than 0, else 0."""
    space = dist.space
    size = space.n_profiles
    blocks = space.n_agents - 1
    if blocks == 1 and dist.matrix_rank() == min(space.shape):
        total = sum(weights)
        if total > 0:
            return Fraction(total, scale), [ONE] * size, 1, [1] * size
        return ZERO, [ZERO] * size, 1, [0] * size
    nvars = blocks * (size + 1)
    sums = [(1, [(k * size + flat, 1) for k in range(blocks)], 1)
            for flat in range(size)] if blocks > 1 else []
    sol = solve_lp(LinearProgram(objective=[*weights, *[0] * blocks], scale=scale,
                                 a_eq=value_rows(dist), a_ub=sums,
                                 upper=[1] * nvars))
    shares = blocks * size
    return sol.value, sol.x[:shares], sol.den, sol.nums[:shares]


def solve_principal_alloc(inst: AllocationInstance) -> PrincipalSolution:
    """Allocation principal's problem via the interim-equality LP.

    Disposal is handled by the dummy-agent extension ``inst.no_disposal``,
    so one formulation covers both feasibility regimes.  Profitable iff the
    optimum exceeds the best constant allocation (vbar, or max(0, vbar)
    with disposal).
    """
    base = inst.no_disposal
    dist = base.dist
    # Every agent's values over one denominator: block k of the objective
    # is pi (v_k - v_n).
    scale, vals = integer_row([v for vk in base.values for v in vk.flat])
    size = base.space.n_profiles
    last = vals[-size:]
    weights = [p * (v - u) for k in range(base.n - 1)
               for p, v, u in zip(dist.nums.flat, vals[k * size:], last)]
    value, x, den, nums = _ic_optimum(dist, weights, dist.den * scale)
    # The last agent's allocation is 1 - the others', so its expected
    # value is a constant term of the objective.
    value += base.expected_values[-1]
    shape = inst.space.shape
    parts = [np.array(x[k:k + size], dtype=object).reshape(shape)
             for k in range(0, len(x), size)]
    if not inst.disposal:
        # The last agent holds 1 - the others' shares, over their common
        # denominator; under disposal it is the dummy, whose share is burnt.
        parts.append(np.array([Fraction(den - sum(nums[c::size]), den)
                               for c in range(size)], dtype=object).reshape(shape))
    mech = AllocationMechanism(inst.space, parts, disposal=inst.disposal)
    icr = check_ic_n(mech, inst)
    require(icr.verdict, "oracle", "the LP optimum is IC")
    # The dummy agent's value is 0: under disposal base.vbar is max(0, vbar).
    return PrincipalSolution(value=value, mechanism=mech,
                             profitable=value > base.vbar, baseline=base.vbar,
                             ic_report=icr)


# ---------------------------------------------------------------------------
# Deterministic random instances
# ---------------------------------------------------------------------------

KINDS = ("independent", "correlated", "full-rank",
         "conditionally-independent", "unbiased-n-alloc")


def _prob_vector(rng: random.Random, k: int) -> np.ndarray:
    weights = [rng.randint(1, 6) for _ in range(k)]
    total = sum(weights)
    return np.array([Fraction(w, total) for w in weights], dtype=object)


def _value(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 3))


def _value_array(rng: random.Random, shape) -> np.ndarray:
    arr = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        arr[idx] = _value(rng)
    return arr


def _space_for(shape) -> TypeSpace:
    if len(shape) == 2:
        agents = ("l", "r")
    else:
        agents = tuple(str(i + 1) for i in range(len(shape)))
    return TypeSpace(agents, tuple(tuple(range(k)) for k in shape))


def generate(seed: int, shape, kind: str, *, k: int | None = None,
             zero_mean: bool = False, disposal: bool = False):
    """Deterministic random instance of the requested kind.

    Rational entries with small denominators keep exact pivoting fast.
    ``zero_mean`` recenters the objective so the principal is ex-ante
    indifferent.  ``conditionally-independent`` mixes ``k`` product
    distributions, which caps the matrix rank at k; any other kind takes
    ``k`` into its seed only.  ``disposal`` applies to ``unbiased-n-alloc``
    only and is refused for a two-agent kind.
    """
    if kind not in KINDS:
        raise PreconditionError(f"unknown kind {kind!r}; choose from {KINDS}")
    shape = tuple(shape)
    rng = random.Random(f"{kind}|{seed}|{shape}|{k}")
    if kind == "unbiased-n-alloc":
        space = _space_for(shape)
        margs = tuple(_prob_vector(rng, m) for m in shape)
        dist = product_dist(space, list(margs))
        values = [_value_array(rng, shape) for _ in shape]
        centered = tuple(v - constant_array(shape, expectation(dist, v))
                         for v in values)
        return AllocationInstance(space, margs, centered, disposal=disposal,
                                  name=f"{kind}-{seed}", seed=seed)

    if len(shape) != 2:
        raise PreconditionError(f"kind {kind!r} generates two-agent instances")
    if disposal:
        raise PreconditionError(f"kind {kind!r} has no disposal; "
                                f"only unbiased-n-alloc allocations do")
    space = _space_for(shape)
    m, n = shape
    if kind == "independent":
        pi = np.multiply.outer(_prob_vector(rng, m), _prob_vector(rng, n))
    elif kind in ("correlated", "full-rank"):
        pi = _joint(rng, shape)
    else:   # conditionally-independent
        if not k or not 1 <= k <= MAX_PROFILES:
            raise PreconditionError(
                f"conditionally-independent needs 1 <= k <= {MAX_PROFILES}")
        weights = _prob_vector(rng, k)
        pi = constant_array(shape, 0)
        for w in weights:
            pi = pi + np.multiply.outer(_prob_vector(rng, m),
                                        _prob_vector(rng, n)) * w

    dist = JointDist.from_fractions(space, pi)
    while kind == "full-rank" and dist.matrix_rank() < min(shape):
        dist = JointDist.from_fractions(space, _joint(rng, shape))
    v = _value_array(rng, shape)
    if zero_mean:
        v = v - constant_array(shape, expectation(dist, v))
    objective = normalize(v, constant_array(shape, 0), dist)
    return Instance(space, dist, objective, name=f"{kind}-{seed}", seed=seed)


def _joint(rng: random.Random, shape) -> np.ndarray:
    weights = [rng.randint(1, 6) for _ in range(shape[0] * shape[1])]
    total = sum(weights)
    return np.array([Fraction(w, total) for w in weights],
                    dtype=object).reshape(shape)
