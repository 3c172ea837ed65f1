"""Independent ground truth and instance generation.

``solve_principal`` maximizes the principal's payoff directly as an exact
LP over the IC polytope (interim-equality rows plus 0 <= x <= 1), with no
knowledge of the structural results the rest of the package implements;
agreement between the two routes is what the test suite certifies.  The
module also generates deterministic random instances of several structured
kinds for property sweeps, and samples IC mechanisms either as LP vertices
or as nonnegative combinations of transportation-polytope extreme points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .belief import beliefs, distinct_nonzero, lift
from .core import (Instance, JointDist, Mechanism, PreconditionError,
                   TypeSpace, constant_array, expectation, normalize,
                   product_dist)
from .ic import check_ic, ic_polytope
from .nalloc import (AllocationInstance, AllocationMechanism, add_disposal_agent,
                     check_ic_n)
from .numerics import LinearProgram, rank, solve_lp

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
    dist = instance.dist
    space = instance.space
    n = space.n_profiles
    w = instance.v * dist.p
    objective = [w[idx] for idx in np.ndindex(*space.shape)]
    rows = ic_polytope(dist)
    lp = LinearProgram(objective=objective,
                       a_eq=rows, b_eq=[ZERO] * len(rows),
                       lower=[ZERO] * n, upper=[ONE] * n)
    sol = solve_lp(lp)
    _check(sol.status == "optimal", "the principal's LP has an optimum")
    mech = Mechanism(space, np.array(sol.x, dtype=object).reshape(space.shape))
    _check(check_ic(mech, dist).verdict, "the LP optimum is IC")
    return PrincipalSolution(value=sol.value, mechanism=mech,
                             profitable=sol.value > 0, baseline=ZERO)


def _check(ok: bool, what: str) -> None:
    """Result-carrying checks raise, also under ``python -O``."""
    if not ok:
        raise RuntimeError(f"oracle check failed: {what}")


def _interim_rows_alloc(inst: AllocationInstance) -> list[list[Fraction]]:
    """Equality rows for the allocation LP after substituting the last
    agent's allocation as 1 - sum of the others.

    Variables: one block per non-last agent, flat over profiles.  Rows say
    each agent's interim win probability is report-independent; the last
    agent's rows are expressed through the substitution.
    """
    n = inst.n
    shape = inst.space.shape
    prob = list(inst.dist.p.reshape(-1))
    zero = [ZERO] * inst.space.n_profiles
    rows: list[list[Fraction]] = []
    for agent in range(n):
        # Types are independent, so type b's own belief gives the interim
        # win probability of reporting b to every type.
        for b, belief in enumerate(beliefs(inst.dist, agent)):
            gap = [r - p for r, p in zip(lift(shape, agent, b, belief), prob)]
            if agent < n - 1:
                blocks = [gap if block == agent else zero for block in range(n - 1)]
            else:
                blocks = [[-g for g in gap]] * (n - 1)
            rows.append([c for block in blocks for c in block])
    return distinct_nonzero(rows)


def solve_principal_alloc(inst: AllocationInstance) -> PrincipalSolution:
    """Allocation principal's problem via the interim-equality LP.

    Disposal is handled by the dummy-agent extension, so one formulation
    covers both feasibility regimes.  Profitable iff the optimum exceeds
    the best constant allocation (vbar, or max(0, vbar) with disposal).
    """
    base = add_disposal_agent(inst) if inst.disposal else inst
    n = base.n
    shape = base.space.shape
    size = base.space.n_profiles
    prob = base.dist.p
    idx_list = list(np.ndindex(*shape))
    last = base.values[n - 1]
    objective = []
    for block in range(n - 1):
        diff = base.values[block] - last
        objective.extend(prob[idx] * diff[idx] for idx in idx_list)
    const = sum(prob[idx] * last[idx] for idx in idx_list)

    rows = _interim_rows_alloc(base)
    nvars = (n - 1) * size
    a_ub = []
    for flat in range(size):
        row = [ZERO] * nvars
        for block in range(n - 1):
            row[block * size + flat] = ONE
        a_ub.append(row)
    lp = LinearProgram(objective=objective,
                       a_eq=rows, b_eq=[ZERO] * len(rows),
                       a_ub=a_ub, b_ub=[ONE] * size,
                       lower=[ZERO] * nvars, upper=[None] * nvars)
    sol = solve_lp(lp)
    _check(sol.status == "optimal", "the allocation LP has an optimum")
    value = sol.value + const

    parts = []
    for block in range(n - 1):
        arr = np.array(sol.x[block * size:(block + 1) * size],
                       dtype=object).reshape(shape)
        parts.append(arr)
    last_part = constant_array(shape, 1)
    for p in parts:
        last_part = last_part - p
    parts.append(last_part)
    if inst.disposal:
        # Drop the dummy agent's share and its singleton axis.
        parts = [p.reshape(inst.space.shape) for p in parts[:-1]]
        mech = AllocationMechanism(inst.space, parts, disposal=True)
        baseline = max(ZERO, inst.vbar)
    else:
        mech = AllocationMechanism(inst.space, parts, disposal=False)
        baseline = inst.vbar
    _check(check_ic_n(mech, inst).verdict, "the LP optimum is IC")
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
        inst = AllocationInstance(space, margs,
                                  tuple(_value_array(rng, shape)
                                        for _ in shape),
                                  disposal=disposal,
                                  name=f"{kind}-{seed}", seed=seed)
        centered = tuple(v - constant_array(shape, inst.expected_value(i))
                         for i, v in enumerate(inst.values))
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
    inst = Instance(space, dist, objective, name=f"{kind}-{seed}", seed=seed)
    if kind == "conditionally-independent":
        assert inst.dist.matrix_rank() <= k
    return inst


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
    space = dist.space
    n = space.n_profiles
    objective = [_value(rng) for _ in range(n)]
    rows = ic_polytope(dist)
    sol = solve_lp(LinearProgram(objective=objective,
                                 a_eq=rows, b_eq=[ZERO] * len(rows),
                                 lower=[ZERO] * n, upper=[ONE] * n))
    _check(sol.status == "optimal", "the vertex LP has an optimum")
    mech = Mechanism(space, np.array(sol.x, dtype=object).reshape(space.shape))
    _check(check_ic(mech, dist).verdict, "the LP vertex is IC")
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
