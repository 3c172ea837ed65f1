"""Independent ground truth and instance generation.

``solve_principal`` maximizes the principal's payoff directly as an exact
LP over the IC polytope (interim-equality rows plus 0 <= x <= 1), with no
knowledge of the structural results the rest of the package implements;
agreement between the two routes is what the test suite certifies.  The
two-option problem allocates one good between two agents, and
``solve_principal_alloc`` solves the same LP for n agents.  The module
also generates deterministic random instances of several structured kinds
for property sweeps, and samples IC mechanisms either as LP vertices or as
nonnegative combinations of transportation-polytope extreme points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (Instance, JointDist, Mechanism, PreconditionError,
                   TypeSpace, constant_array, expectation, normalize,
                   product_dist)
from .ic import check_ic, ic_polytope
from .nalloc import (AllocationInstance, AllocationMechanism, add_disposal_agent,
                     check_ic_n, drop_disposal_agent)
from .numerics import LinearProgram, rank, require, solve_lp

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class PrincipalSolution:
    """Exact optimum of the principal's problem over the IC polytope."""

    value: Fraction
    mechanism: object
    profitable: bool
    baseline: Fraction


def solve_principal(instance: Instance) -> PrincipalSolution:
    """Two-option principal's problem, solved head-on.

    Maximize E[v * x] over 0 <= x <= 1 subject to the interim-equality rows;
    profitable iff the optimum exceeds the best constant decision, which is
    0 under the label normalization E[v] <= 0.
    """
    w = instance.v * instance.dist.p
    value, [x] = _ic_optimum(instance.dist, list(w.reshape(-1)))
    mech = Mechanism(instance.space, x)
    require(check_ic(mech, instance.dist).verdict, "oracle", "the LP optimum is IC")
    return PrincipalSolution(value=value, mechanism=mech,
                             profitable=value > 0, baseline=ZERO)


def _ic_optimum(dist: JointDist, objective: list) -> tuple[Fraction, list]:
    """Maximize objective . x over the IC polytope of ``dist``, x the first
    n - 1 agents' shares, block by block and flat over profiles: the
    optimal value and an optimal vertex, one array per block.

    The shares are nonnegative and the last agent holds 1 - their sum; one
    block is bounded by 1, several by one sum row per profile."""
    space = dist.space
    size = space.n_profiles
    blocks = space.n_agents - 1
    nvars = blocks * size
    rows = ic_polytope(dist)
    if blocks == 1:
        bounds = {"upper": [ONE] * size}
    else:
        sums = [[ONE if k % size == flat else ZERO for k in range(nvars)]
                for flat in range(size)]
        bounds = {"a_ub": sums, "b_ub": [ONE] * size, "upper": [None] * nvars}
    sol = solve_lp(LinearProgram(objective=objective,
                                 a_eq=rows, b_eq=[ZERO] * len(rows),
                                 lower=[ZERO] * nvars, **bounds))
    require(sol.status == "optimal", "oracle", "the principal's LP has an optimum")
    return sol.value, [np.array(sol.x[k * size:(k + 1) * size],
                                dtype=object).reshape(space.shape)
                       for k in range(blocks)]


def solve_principal_alloc(inst: AllocationInstance) -> PrincipalSolution:
    """Allocation principal's problem via the interim-equality LP.

    Disposal is handled by the dummy-agent extension, so one formulation
    covers both feasibility regimes.  Profitable iff the optimum exceeds
    the best constant allocation (vbar, or max(0, vbar) with disposal).
    """
    base = add_disposal_agent(inst) if inst.disposal else inst
    last = base.values[-1]
    objective = [c for v in base.values[:-1]
                 for c in (base.dist.p * (v - last)).reshape(-1)]
    value, parts = _ic_optimum(base.dist, objective)
    # The last agent's allocation is 1 - the others', so its expected
    # value is a constant term of the objective.
    value += base.expected_value(base.n - 1)
    parts.append(constant_array(base.space.shape, 1) - sum(parts))
    mech = AllocationMechanism(base.space, parts, disposal=False)
    if inst.disposal:
        mech = drop_disposal_agent(mech, inst)
        baseline = max(ZERO, inst.vbar)
    else:
        baseline = inst.vbar
    require(check_ic_n(mech, inst).verdict, "oracle", "the LP optimum is IC")
    return PrincipalSolution(value=value, mechanism=mech,
                             profitable=value > baseline, baseline=baseline)


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
    distributions, which caps the matrix rank at k.
    """
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
    space = _space_for(shape)
    m, n = shape
    if kind == "independent":
        pi = np.multiply.outer(_prob_vector(rng, m), _prob_vector(rng, n))
    elif kind == "correlated":
        pi = _joint(rng, shape)
    elif kind == "full-rank":
        while True:
            pi = _joint(rng, shape)
            if rank([list(row) for row in pi]) == min(shape):
                break
    elif kind == "conditionally-independent":
        if not k or k < 1:
            raise PreconditionError("conditionally-independent needs k >= 1")
        weights = _prob_vector(rng, k)
        pi = constant_array(shape, 0)
        for w in weights:
            pi = pi + np.multiply.outer(_prob_vector(rng, m),
                                        _prob_vector(rng, n)) * w
    else:
        raise PreconditionError(f"unknown kind {kind!r}; choose from {KINDS}")

    dist = JointDist(space, pi)
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


# ---------------------------------------------------------------------------
# IC mechanism sampling for property sweeps
# ---------------------------------------------------------------------------

def sample_ic_vertex(dist: JointDist, rng: random.Random) -> Mechanism:
    """A vertex of the IC polytope: optimize a random objective over it."""
    [x] = _ic_optimum(dist, [_value(rng) for _ in range(dist.space.n_profiles)])[1]
    mech = Mechanism(dist.space, x)
    require(check_ic(mech, dist).verdict, "oracle", "the LP optimum is IC")
    return mech


def random_transport_extreme(rng: random.Random, ml, mr) -> np.ndarray:
    """Random extreme point of the fixed-marginals polytope: greedy fill
    along independently shuffled row and column orders."""
    m, n = len(ml), len(mr)
    rows = list(range(m))
    cols = list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    remaining_r = list(ml)
    remaining_c = list(mr)
    out = constant_array((m, n), 0)
    ri = ci = 0
    while ri < m and ci < n:
        i, j = rows[ri], cols[ci]
        amount = min(remaining_r[i], remaining_c[j])
        out[i, j] = amount
        remaining_r[i] -= amount
        remaining_c[j] -= amount
        if remaining_r[i] == 0:
            ri += 1
        if remaining_c[j] == 0:
            ci += 1
    return out


def sample_ic_combination(space: TypeSpace, ml, mr, rng: random.Random,
                          terms: int = 3) -> Mechanism:
    """IC mechanism under independence as a nonnegative combination of
    extreme-point density ratios, scaled into [0, 1]."""
    outer = np.multiply.outer(np.asarray(ml, dtype=object),
                              np.asarray(mr, dtype=object))
    combo = constant_array(space.shape, 0)
    for _ in range(terms):
        gamma = Fraction(rng.randint(0, 4), 4)
        combo = combo + random_transport_extreme(rng, ml, mr) / outer * gamma
    top = max(combo[idx] for idx in np.ndindex(*space.shape))
    if top > 1:
        combo = combo / top
    mech = Mechanism(space, combo)
    assert check_ic(mech, product_dist(space, [np.asarray(ml, dtype=object),
                                               np.asarray(mr, dtype=object)])).verdict
    return mech
